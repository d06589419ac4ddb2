"""qgsurf: exact verification of chain-contraction surface constructions.

The package ingests a curve configuration on an elliptic surface, replays a
blow-up sequence with exact intersection bookkeeping, certifies the
combinatorial hypotheses behind the construction (numerical independence,
simple normal crossings, fibration accounting), recognizes the contractible
chains whose quotient singularities admit rational smoothings, and computes
all numerical invariants of the contracted surface and its smoothing.  All
arithmetic is exact; no floating point is used anywhere.

The API is the modules: each public name has one spelling,
``qgsurf.<module>.<name>`` (for example ``qgsurf.config.parse``).  Importing
the package loads none of them.
"""

__version__ = "0.1.0"
