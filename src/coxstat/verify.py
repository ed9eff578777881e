"""Self-check suites behind the ``verify`` subcommand.

Every check compares two independent routes to the same numbers:
closed forms against brute enumeration, descent rows against window
enumeration, the reflection walk and the closed-form moments, des+ides
rows from the two-sided counts against window enumeration and the walk,
the E, F and H table against the walk and the parabolic sum, limit-sweep
rows against one descriptor per row, guessed formulas against known
variances, emitted files against re-ingestion.
Production runs none of these; they live here and in the tests.  A
check prints one ``ok``/``FAIL`` line; the runner returns the failure
count so the CLI can exit nonzero without raising.

Suites: quick, gf-inv, gf-des, moments, roots, cosets, limits, interp,
and full (everything except quick).  Every suite is deterministic and
takes nothing but its name: the moments suite checks each positive root
of B3 and A4 on its own (st_count is additive over roots, so this covers
every root subset), and the cosets suite counts each double coset
W_s w W_t as the four products {w, sw, wt, swt}.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import tempfile
from fractions import Fraction
from functools import cache
from pathlib import Path

from .elements import (
    all_positive_roots,
    des_count,
    descent_positions,
    ides_count,
    inv_count,
    iter_windows,
    st_count,
    window_tally,
)
from .groups import coxeter_edges, degrees, group_order, irreducible, parse_descriptor, rank
from .interplab import (
    StatisticDataset,
    builtin_dataset,
    ingest,
    lagrange_guess,
    summarize,
)
from .limits import (
    EulerianRow,
    MahonianRow,
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
    second_moment_inv_type_b,
)
from .polynomials import (
    _EXCEPTIONAL_ROWS,
    _des_plus_ides_row,
    gf_des,
    gf_des_plus_ides,
    gf_inv,
    negated_real_roots,
    structural_checks,
)
from .rootsys import (build_root_system, compose_actions, element_actions, simple_action,
                      statistics_tally)

__all__ = ["SUITES", "suite_names", "run_suite"]


# ---------------------------------------------------------------------------
# check helpers

def _eq(name, got, want):
    return (name, got == want, f"got {got!r}, want {want!r}")


def _close(name, got, want, tol):
    err = abs(got - want)
    return (name, err <= tol, f"got {got!r}, want {want!r} within {tol}")


def _des_plus_ides_count(w, family):
    return des_count(w, family) + ides_count(w, family)


def _histogram_round_trip(name, group, n):
    """The descent histogram of group, written as histogram_json under key
    n with decimal-string counts, must read back unchanged."""
    f = gf_des(parse_descriptor(group))
    doc = {"statistic": "des",
           "histogram": {str(n): [str(c) for c in f.coefficients]}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        back = ingest(path, "histogram_json")
    return _eq(name, back.histograms[n], f.coefficients)


_WINDOW_CASES = [("A4", "A", 5), ("B3", "B", 3), ("D4", "D", 4)]


# ---------------------------------------------------------------------------
# suites

def _suite_gf_inv():
    for text, family, length in _WINDOW_CASES:
        got = gf_inv(parse_descriptor(text)).coefficients
        want = window_tally(family, length, inv_count)
        yield _eq(f"gf-inv: {text} matches the window tally", got, want)
    for text in ["H3", "F4"]:
        d = parse_descriptor(text)
        got = gf_inv(d).coefficients
        want = statistics_tally(build_root_system(d.factors[0]), "inv")
        yield _eq(f"gf-inv: {text} matches the reflection walk", got, want)
    d = parse_descriptor("A3 x B2")
    f = gf_inv(d)
    yield _eq("gf-inv: A3 x B2 sums to the group order", f(1), group_order(d))
    rep = structural_checks(f)
    yield ("gf-inv: A3 x B2 is palindromic and unimodal",
           rep.palindromic and rep.unimodal, repr(rep))


_DES_WINDOW_RANKS = {"A": range(1, 7), "B": range(2, 7), "D": range(4, 7)}


def _suite_gf_des():
    for family, ranks in _DES_WINDOW_RANKS.items():
        for n in ranks:
            got = gf_des(parse_descriptor(f"{family}{n}")).coefficients
            length = n + 1 if family == "A" else n
            want = window_tally(family, length, des_count)
            yield _eq(f"gf-des: {family}{n} row matches the window tally",
                      got, want)
    for text in ["A5", "B4", "D5", "I2(8)", "F4", "H3"]:
        d = parse_descriptor(text)
        got = gf_des(d).coefficients
        want = statistics_tally(build_root_system(d.factors[0]), "des")
        yield _eq(f"gf-des: {text} row matches the reflection walk",
                  got, want)
    for text in ["A101", "B100", "D101"]:
        d = parse_descriptor(text)
        f = gf_des(d)
        s = moments_from_polynomial(f, k_max=2)
        ok = (f(1) == group_order(d) and structural_checks(f).palindromic
              and (s.mean, s.variance) == eulerian_moments(d))
        yield (f"gf-des: {text} row sums to the group order, is palindromic "
               "and has the closed-form mean and variance", ok,
               f"mean {s.mean}, variance {s.variance}")
    yield _eq("gf-des: I2(9) closed row", gf_des(parse_descriptor("I2(9)")).coefficients,
              (1, 16, 1))
    for text, (row, _) in _EXCEPTIONAL_ROWS.items():
        yield _eq(f"gf-des: {text} row matches the parabolic sum", row,
                  _parabolic_des_row(parse_descriptor(text).factors[0]))
    # the two-sided rows themselves, not a cached tally
    for text, family, length in [("A3", "A", 4), ("B3", "B", 3), ("D4", "D", 4)]:
        got = _des_plus_ides_row(parse_descriptor(text).factors[0])
        want = window_tally(family, length, _des_plus_ides_count)
        yield _eq(f"gf-des: {text} des+ides matches the window tally", got, want)
    for text in ["A5", "B4", "D5", "F4", "H3"]:
        label = parse_descriptor(text).factors[0]
        yield _eq(f"gf-des: {text} des+ides matches the reflection walk",
                  _des_plus_ides_row(label),
                  statistics_tally(build_root_system(label), "des_plus_ides"))


def _suite_moments():
    for text in ["A4", "B3", "D4", "I2(7)", "H3", "F4"]:
        d = parse_descriptor(text)
        s = moments_from_polynomial(gf_inv(d), k_max=2)
        yield _eq(f"moments: {text} Mahonian closed forms match the polynomial",
                  mahonian_moments(d), (s.mean, s.variance))
        s = moments_from_polynomial(gf_des(d), k_max=2)
        yield _eq(f"moments: {text} Eulerian closed forms match the polynomial",
                  eulerian_moments(d), (s.mean, s.variance))
    d = parse_descriptor("E6")
    yield _eq("moments: E6 inversions have mean 18 and variance 29",
              mahonian_moments(d), (Fraction(18), Fraction(29)))
    for text in ["A3", "B3", "H3"]:
        d = parse_descriptor(text)
        s = moments_from_polynomial(gf_des_plus_ides(d), k_max=2)
        yield _eq(f"moments: {text} double-Eulerian closed forms match",
                  double_eulerian_moments(d), (s.mean, s.variance))
    for text in ["A5", "B4", "I2(9)"]:
        d = parse_descriptor(text)
        s = moments_from_polynomial(gf_inv(d), k_max=6)
        yield _eq(f"moments: {text} Mahonian cumulants match through order 6",
                  mahonian_cumulants(d, k_max=6), s.cumulants)
    for n in (2, 3):
        want = Fraction(
            sum(inv_count(w, "B") ** 2 for w in iter_windows("B", n)),
            2 ** n * math.factorial(n))
        yield _eq(f"moments: B{n} second moment closed form matches enumeration",
                  second_moment_inv_type_b(n), want)
    for text, family, length in [("B3", "B", 3), ("A4", "A", 5)]:
        windows = list(iter_windows(family, length))
        bad = [root for root in all_positive_roots(family, length)
               if 2 * sum(st_count(w, [root]) for w in windows) != len(windows)]
        yield (f"moments: each positive root of {text} is inverted by exactly "
               "half the windows", not bad, f"roots {bad}")


def _suite_roots():
    for text in ["A4", "A6", "B4", "D5", "H3", "F4", "I2(5)", "I2(12)", "E6"]:
        d = parse_descriptor(text)
        bag = negated_real_roots(gf_des(d))
        yield (f"roots: {text} residual bound is at most 1e-9",
               len(bag.values) == rank(d) and bag.residual_bound <= 1e-9,
               f"residual {bag.residual_bound!r}")
        n = rank(d)
        _, var = eulerian_moments(d)
        yield _close(f"roots: {text} sum of 1/(1+q) equals n/2",
                     sum(1 / (1 + q) for q in bag.values), n / 2, 1e-8)
        yield _close(f"roots: {text} sum of q/(1+q)^2 equals the variance",
                     sum(q / (1 + q) ** 2 for q in bag.values), float(var), 1e-8)


def _subgroup_orders(label):
    """subset -> order of the parabolic subgroup of one factor generated by
    the simple positions in subset: the product over the components of
    subset in coxeter_edges, each named once by its diagram."""
    edges = coxeter_edges(label)
    adjacent = {v: {b if a == v else a for a, b, _ in edges if v in (a, b)}
                for v in range(label.rank)}

    @cache
    def component_order(part):
        nbrs = {v: adjacent[v] & part for v in part}
        k = len(part)
        m, a, b = max(((m, a, b) for a, b, m in edges if {a, b} <= part), default=(3, 0, 0))
        branch = [v for v in part if len(nbrs[v]) == 3]
        if m == 4:
            f = irreducible("F", 4) if len(nbrs[a]) == len(nbrs[b]) == 2 else irreducible("B", k)
        elif m >= 5:
            f = irreducible("H", k) if m == 5 and k > 2 else irreducible("I2", 2, m)
        elif branch:
            # arms (1, 1, k - 3), two of them single leaves, make D_k
            leaves = sum(len(nbrs[v]) == 1 for v in nbrs[branch[0]])
            f = irreducible("D" if leaves >= 2 else "E", k)
        else:
            f = irreducible("A", k)
        return group_order(f)

    def subgroup_order(subset):
        order, left = 1, set(subset)
        while left:
            part, new = set(), {left.pop()}
            while new:
                part |= new
                new = {u for v in new for u in adjacent[v] & left}
                left -= new
            order *= component_order(frozenset(part))
        return order

    return subgroup_order


def _parabolic_des_row(label):
    """Descent row of one factor by the parabolic sum over K in S,
    W(t) = sum_K |W| / |W_(S-K)| t^|K| (1 - t)^(n - |K|): |W| / |W_J|
    elements have no right descent in J (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, 2.4), and each w is counted by every K >= D_R(w)."""
    n, order = label.rank, group_order(label)
    subgroup_order = _subgroup_orders(label)
    row = [0] * (n + 1)
    for size in range(n + 1):
        count = sum(order // subgroup_order(set(range(n)) - set(K))
                    for K in itertools.combinations(range(n), size))
        for i in range(n - size + 1):
            row[size + i] += (-1) ** i * math.comb(n - size, i) * count
    return tuple(row)


def _orbit_total(label):
    """Double cosets W_s \\ W / W_t summed over ordered simple pairs; with
    W_s = {1, s} and W_t = {1, t}, the one through w is {w, sw, wt, swt}."""
    rs = build_root_system(label)
    elements = list(element_actions(rs))
    simple = [simple_action(rs, s) for s in range(label.rank)]
    total = 0
    for left in simple:
        for right in simple:
            seen = set()
            for w in elements:
                if w not in seen:
                    total += 1
                    sw = compose_actions(left, w)
                    seen.update((w, sw, compose_actions(w, right),
                                 compose_actions(sw, right)))
    return total


def _suite_cosets():
    for family, length, text in [("A", 5, "A4"), ("B", 3, "B3")]:
        label = parse_descriptor(text).factors[0]
        subgroup_order = _subgroup_orders(label)
        positions = range(1, length) if family == "A" else range(length)
        descents = [set(descent_positions(w, family))
                    for w in iter_windows(family, length)]
        # window position p is simple position length - 1 - p (B's sign change last)
        bad = [J for r in range(len(positions) + 1)
               for J in itertools.combinations(positions, r)
               if subgroup_order({length - 1 - p for p in J})
               * sum(1 for des in descents if des.isdisjoint(J)) != group_order(label)]
        yield (f"cosets: {text} satisfies |W| = |W_J| |D_J| for every J",
               not bad, f"J in {bad} break the factorization")
    for text in ["A2", "A3", "B3"]:
        d = parse_descriptor(text)
        yield _eq(f"cosets: {text} double coset sum matches orbit enumeration",
                  double_coset_sum(d), _orbit_total(d.factors[0]))


_EXAMPLES = [
    ("prod(I2(i), i=1..n)", True, True),
    ("prod(I2(i^2), i=1..n)", True, False),
    ("A1^(n-2) x I2(n)", False, True),
    ("prod(I2(2^i), i=1..n)", False, False),
    ("prod(I2(i), i=1..n) x A1", True, True),
]


def _descriptor_rows(text, ns):
    """clt_check_* rows by the reference route: one descriptor per n."""
    spec = parse_sequence_spec(text)
    inv, des = [], []
    for n in ns:
        d = spec.descriptor(n)
        var, dn = mahonian_moments(d)[1], max(degrees(d))
        inv.append(MahonianRow(n, rank(d), dn, var, dn / math.sqrt(float(var))))
        dvar = eulerian_moments(d)[1]
        des.append(EulerianRow(n, rank(d), dvar, math.sqrt(float(dvar)), float(
            sum(Fraction(1, m) for m in spec.dihedral_parameters(n)))))
    return tuple(inv), tuple(des)


def _suite_limits():
    # a prefix sum shared by the rows, terms without i, and a prefix sum
    # rebuilt for each row; every seventh n keeps the check near 10 ms
    ns = range(2, 31, 7)
    for text in ("prod(I2(i), i=1..n)", "A1^(n-2) x I2(n)",
                 "prod(I2(n+i), i=1..n)"):
        want_inv, want_des = _descriptor_rows(text, ns)
        rep = clt_check_inv(text, ns)
        yield _eq(f"limits: {text} inversion rows match the descriptor route",
                  rep.per_n, want_inv)
        rep = clt_check_des(text, ns)
        yield _eq(f"limits: {text} descent rows match the descriptor route",
                  rep.per_n, want_des)
    for text, want_inv, want_des in _EXAMPLES:
        got = clt_check_inv(text, range(10, 81)).clt_holds
        yield _eq(f"limits: inversions verdict for {text}", got, want_inv)
        got = clt_check_des(text, range(10, 81)).clt_holds
        yield _eq(f"limits: descents verdict for {text}", got, want_des)
    for text in ["A(n)", "B(n)", "D(n)"]:
        inv_ok = clt_check_inv(text, range(10, 41)).clt_holds is True
        des_ok = clt_check_des(text, range(10, 41)).clt_holds is True
        yield (f"limits: {text} satisfies both normal limits",
               inv_ok and des_ok, f"inv {inv_ok}, des {des_ok}")
    d = parse_descriptor("A9")
    rep = triangular_array_diagnostics(d, "inv", epsilon=1)
    yield _eq("limits: A9 Lindeberg sum vanishes at epsilon 1",
              rep.lindeberg_sum, Fraction(0))
    rep = triangular_array_diagnostics(d, "inv", epsilon=Fraction(1, 10 ** 9))
    yield _eq("limits: A9 Lindeberg sum saturates at tiny epsilon",
              rep.lindeberg_sum, Fraction(1))
    d4 = llt_sup_distance(gf_inv(parse_descriptor("A4"))).distance
    d8 = llt_sup_distance(gf_inv(parse_descriptor("A8"))).distance
    yield ("limits: local-limit distance shrinks from A4 to A8",
           d8 < d4, f"A4 {d4}, A8 {d8}")


def _suite_interp():
    ds = builtin_dataset("des", sizes=range(2, 7), keyed_by="rank")
    rows = summarize(ds)
    points = [(row.n, row.variance) for row in rows]
    formulas = lagrange_guess(points)
    yield _eq("interp: descent variance recovery from built-in data",
              [str(f) for f in formulas], ["(n + 2)/12"])
    ds = StatisticDataset("inv", {n: gf_inv(parse_descriptor(f"A{n - 1}")).coefficients
                                  for n in range(2, 9)})
    points = [(row.n, row.variance) for row in summarize(ds, k_max=2)]
    yield _eq("interp: S_n inversion variance recovery from gf_inv histograms",
              [str(f) for f in lagrange_guess(points)],
              ["(2*n^3 + 3*n^2 - 5*n)/72"])
    ds = builtin_dataset("fixed_points", sizes=(5,))
    yield _eq("interp: fixed-point histogram of S5",
              ds.histograms[5], (44, 45, 20, 10, 0, 1))
    row = summarize(ds)[0]
    yield _eq("interp: S5 fixed-point cumulant row",
              row.formatted, ("1.00", "1.00", "1.00", "0.000", "-14.0", "-118."))
    yield _histogram_round_trip(
        "interp: emitted histogram round-trips through ingest", "A4", 5)


def _suite_quick():
    got = gf_inv(parse_descriptor("A3")).coefficients
    yield _eq("quick: gf-inv A3 matches the window tally",
              got, window_tally("A", 4, inv_count))
    d = parse_descriptor("B3")
    got = gf_des(d).coefficients
    yield _eq("quick: gf-des B3 matches the reflection walk",
              got, statistics_tally(build_root_system(d.factors[0]), "des"))
    d = parse_descriptor("A4")
    s = moments_from_polynomial(gf_inv(d), k_max=2)
    yield _eq("quick: A4 Mahonian closed forms match the polynomial",
              mahonian_moments(d), (s.mean, s.variance))
    d = parse_descriptor("I2(7)")
    bag = negated_real_roots(gf_des(d))
    yield _close("quick: I2(7) root identity sums to n/2",
                 sum(1 / (1 + q) for q in bag.values), 1.0, 1e-8)
    yield _eq("quick: A3 double coset sum matches orbit enumeration",
              double_coset_sum(parse_descriptor("A3")),
              _orbit_total(parse_descriptor("A3").factors[0]))
    got = clt_check_inv("A(n)", range(10, 31)).clt_holds
    yield _eq("quick: A(n) inversion verdict", got, True)
    yield _histogram_round_trip("quick: histogram round-trip through ingest", "A3", 4)


SUITES = {
    "quick": _suite_quick,
    "gf-inv": _suite_gf_inv,
    "gf-des": _suite_gf_des,
    "moments": _suite_moments,
    "roots": _suite_roots,
    "cosets": _suite_cosets,
    "limits": _suite_limits,
    "interp": _suite_interp,
}


def suite_names():
    return tuple(SUITES) + ("full",)


def run_suite(name, stream=None):
    """Run one suite (or full), print its lines, return the failure count."""
    stream = sys.stdout if stream is None else stream
    if name == "full":
        funcs = [fn for key, fn in SUITES.items() if key != "quick"]
    elif name in SUITES:
        funcs = [SUITES[name]]
    else:
        raise ValueError(f"unknown suite {name!r}; pick from {suite_names()}")
    checks = 0
    failures = 0
    for fn in funcs:
        for label, ok, detail in fn():
            checks += 1
            if ok:
                print(f"ok - {label}", file=stream)
            else:
                failures += 1
                print(f"FAIL - {label}: {detail}", file=stream)
    print(f"{checks - failures}/{checks} checks passed", file=stream)
    return failures
