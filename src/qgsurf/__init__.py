"""qgsurf: exact verification of chain-contraction surface constructions.

The package ingests a curve configuration on an elliptic surface, replays a
blow-up sequence with exact intersection bookkeeping, certifies the
combinatorial hypotheses behind the construction (numerical independence,
simple normal crossings, fibration accounting), recognizes the contractible
chains whose quotient singularities admit rational smoothings, and computes
all numerical invariants of the contracted surface and its smoothing.  All
arithmetic is exact; no floating point is used anywhere.

Importing the package loads none of its modules.  Each public name below is
imported from the module that defines it on first access (PEP 562), so a
command that needs only the chain analytics never compiles the document
pipeline.
"""

import importlib

__version__ = "0.1.0"

_MODULE_NAMES = {
    "blowup": ("apply_blowups", "blow_up"),
    "config": ("BlowupStep", "Configuration", "ContractionPlan", "CurveClass", "Document",
               "IndependenceCertificate", "PointSpec", "SurfaceInvariants", "export_dot",
               "independence_certificate", "parse", "snc_certificate", "validate"),
    "corpus": ("builtin", "verify_all", "verify_example"),
    "errors": ("Violation",),
    "fibration": ("FiberSpec", "FibrationData", "euler_number", "euler_sum_check",
                  "i9_forces_i1_lint", "two_section_incidence_check"),
    "ratlin": ("Elimination", "eliminate", "rank", "solve_unique"),
    "smoothing": ("AmplenessCertificate", "SingularSurfaceReport", "TopologyReport",
                  "ampleness_certificate", "build_report", "contract_invariants",
                  "moduli_dimension", "pi1_criterion", "topology_report",
                  "validate_plan"),
    "wahl": ("Chain", "ClassTData", "chain_from_fraction", "discrepancies", "generate_class_T",
             "hj_value", "index", "k2_contribution", "recognize_class_T"),
}
# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # Submodule names are not in the table: the AttributeError lets
    # ``from qgsurf import cli`` fall back to importing the submodule.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    import pkgutil  # deferred: only dir() needs the submodule listing

    submodules = {info.name for info in pkgutil.iter_modules(__path__)}
    return sorted(set(globals()) | set(_EXPORTS) | submodules)
