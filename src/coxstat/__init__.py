"""Exact distribution statistics on finite Coxeter groups.

The package computes generating functions, moments, and limit
diagnostics for inversions, descents, and descents-plus-inverse-
descents, everything in exact integer or rational arithmetic.  The
most used entry points are re-exported here; the submodules carry the
full APIs (groups, elements, rootsys, tallies, polynomials, moments,
limits, interplab, verify, cli).

Importing the package loads no submodule.  A re-exported name, or a
submodule read as an attribute (coxstat.limits), imports its module on
first use (PEP 562), so a process pays only for the modules it touches:
coxstat.gf_des loads groups, tallies, moments and polynomials, but
not limits, interplab or elements.  numpy comes only with rootsys, the
reflection walk, which is loaded when an exceptional group is
enumerated or a verify suite walks.
"""

import importlib

__version__ = "1.0.0"

_EXPORTS = {
    name: module
    for module, names in {
        "groups": ("CoxeterDescriptor", "IrreducibleLabel", "coxeter_number",
                   "degrees", "descriptor", "group_order", "irreducible",
                   "m_max", "parse_descriptor", "positive_root_count", "rank"),
        "interplab": ("builtin_dataset", "ingest", "lagrange_guess", "summarize"),
        "limits": ("clt_check_des", "clt_check_inv", "llt_sup_distance",
                   "parse_sequence_spec", "triangular_array_diagnostics"),
        "moments": ("double_coset_sum", "double_eulerian_moments",
                    "eulerian_moments", "mahonian_cumulants",
                    "mahonian_moments", "moments_from_polynomial"),
        "polynomials": ("ExactPolynomial", "bernoulli_parameters",
                        "descent_root_bag", "gf_des", "gf_des_plus_ides",
                        "gf_inv", "negated_real_roots", "structural_checks"),
    }.items()
    for name in names
}

_SUBMODULES = frozenset({"cli", "elements", "groups", "interplab", "limits",
                         "moments", "polynomials", "rootsys", "tallies",
                         "verify"})

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it as a package attribute
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
