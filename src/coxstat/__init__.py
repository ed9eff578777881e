"""Exact distribution statistics on finite Coxeter groups.

The package computes generating functions, moments, and limit
diagnostics for inversions, descents, and descents-plus-inverse-
descents, everything in exact integer or rational arithmetic.  The
most used entry points are re-exported here; the submodules carry the
full APIs (groups, elements, rootsys, tallies, polynomials, moments,
limits, interplab, verify, cli).

Importing the package does not import numpy: that comes with rootsys,
the reflection walk, which is loaded only when a tally must be walked,
an exceptional group is enumerated, or a verify suite runs.
"""

from .groups import (
    CoxeterDescriptor,
    IrreducibleLabel,
    coxeter_number,
    degrees,
    descriptor,
    group_order,
    irreducible,
    m_max,
    parse_descriptor,
    positive_root_count,
    rank,
)
from .interplab import builtin_dataset, ingest, lagrange_guess, summarize
from .limits import (
    clt_check_des,
    clt_check_inv,
    llt_sup_distance,
    parse_sequence_spec,
    triangular_array_diagnostics,
)
from .moments import (
    double_coset_sum,
    double_eulerian_moments,
    eulerian_moments,
    mahonian_cumulants,
    mahonian_moments,
    moments_from_polynomial,
)
from .polynomials import (
    ExactPolynomial,
    bernoulli_parameters,
    descent_root_bag,
    gf_des,
    gf_des_plus_ides,
    gf_inv,
    negated_real_roots,
    structural_checks,
)

__version__ = "1.0.0"

__all__ = [
    "CoxeterDescriptor",
    "IrreducibleLabel",
    "coxeter_number",
    "degrees",
    "descriptor",
    "group_order",
    "irreducible",
    "m_max",
    "parse_descriptor",
    "positive_root_count",
    "rank",
    "builtin_dataset",
    "ingest",
    "lagrange_guess",
    "summarize",
    "clt_check_des",
    "clt_check_inv",
    "llt_sup_distance",
    "parse_sequence_spec",
    "triangular_array_diagnostics",
    "double_coset_sum",
    "double_eulerian_moments",
    "eulerian_moments",
    "mahonian_cumulants",
    "mahonian_moments",
    "moments_from_polynomial",
    "ExactPolynomial",
    "bernoulli_parameters",
    "descent_root_bag",
    "gf_des",
    "gf_des_plus_ides",
    "gf_inv",
    "negated_real_roots",
    "structural_checks",
    "__version__",
]
