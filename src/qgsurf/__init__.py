"""qgsurf: exact verification of chain-contraction surface constructions.

The package ingests a curve configuration on an elliptic surface, replays a
blow-up sequence with exact intersection bookkeeping, certifies the
combinatorial hypotheses behind the construction (numerical independence,
simple normal crossings, fibration accounting), recognizes the contractible
chains whose quotient singularities admit rational smoothings, and computes
all numerical invariants of the contracted surface and its smoothing.  All
arithmetic is exact; no floating point is used anywhere.
"""

from .config import (
    Configuration,
    CurveClass,
    Document,
    IndependenceCertificate,
    PointSpec,
    SurfaceInvariants,
    Violation,
    export_dot,
    independence_certificate,
    parse,
    snc_certificate,
    validate,
)
from .blowup import BlowupStep, apply_blowups, blow_up
from .corpus import builtin, verify_all, verify_example
from .fibration import (
    FibrationData,
    FiberSpec,
    euler_number,
    euler_sum_check,
    i9_forces_i1_lint,
    two_section_incidence_check,
)
from .ratlin import Elimination, eliminate, rank, solve_unique
from .smoothing import (
    AmplenessCertificate,
    ContractionPlan,
    SingularSurfaceReport,
    TopologyReport,
    ampleness_certificate,
    build_report,
    contract_invariants,
    moduli_dimension,
    pi1_criterion,
    pullback_degree,
    topology_report,
    validate_plan,
)
from .wahl import (
    Chain,
    ClassTData,
    chain_from_fraction,
    discrepancies,
    generate_class_T,
    hj_value,
    index,
    k2_contribution,
    recognize_class_T,
)

__version__ = "0.1.0"
