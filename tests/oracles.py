"""Independent brute-force reference implementations.

Everything here is deliberately written from the bare definitions, without
importing the package under test: plain window enumeration, quadratic loops
for the statistics, breadth-first closure for subgroups and double cosets,
the Eulerian recurrence for descent rows and Newton interpolation for
formula guessing.
Slow is fine; these exist so the fast paths have something honest to match.
"""

import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path


# ---------------------------------------------------------------------------
# window enumeration

def iter_windows(family, length):
    """All windows of the given classical family, as tuples of signed ints.

    family "A": plain permutations of 1..length.
    family "B": all sign choices on a permutation.
    family "D": sign choices with an even number of minus signs.
    Order is unspecified here; the oracles only ever tally.
    """
    base = range(1, length + 1)
    if family == "A":
        for p in itertools.permutations(base):
            yield p
        return
    for signs in itertools.product((1, -1), repeat=length):
        neg = sum(1 for s in signs if s < 0)
        if family == "D" and neg % 2 == 1:
            continue
        for p in itertools.permutations(base):
            yield tuple(s * v for s, v in zip(p, signs))


def count_windows(family, length):
    total = 1
    for k in range(2, length + 1):
        total *= k
    if family == "B":
        total <<= length
    elif family == "D":
        total <<= length - 1
    return total


# ---------------------------------------------------------------------------
# statistics from the definitions

def inv_of(window, family):
    n = len(window)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if window[i] > window[j]:
                total += 1
            if family in ("B", "D") and -window[i] > window[j]:
                total += 1
    if family == "B":
        total += sum(1 for v in window if v < 0)
    return total


def des_of(window, family):
    n = len(window)
    if family == "A":
        return sum(1 for i in range(n - 1) if window[i] > window[i + 1])
    head = 0 if family == "B" else -window[1]
    seq = (head,) + window
    return sum(1 for i in range(n) if seq[i] > seq[i + 1])


def invert_window(window):
    n = len(window)
    out = [0] * n
    for i, v in enumerate(window, start=1):
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
    return tuple(out)


def ides_of(window, family):
    return des_of(invert_window(window), family)


def fixed_points_of(window):
    return sum(1 for i, v in enumerate(window, start=1) if v == i)


def compose_windows(u, v):
    """(u o v)(i) = u(v(i)), windows over the same length."""
    out = []
    for x in v:
        y = u[abs(x) - 1]
        out.append(y if x > 0 else -y)
    return tuple(out)


def simple_reflection(family, length, position):
    """The generator at a descent position, as a window.

    Type A uses positions 1..length-1, a swap of entries position and
    position+1.  Types B and D add position 0: the sign change of w(1)
    (type B) or the double move to (-w(2), -w(1), w(3), ...) (type D).
    """
    w = list(range(1, length + 1))
    if position == 0:
        if family == "B":
            w[0] = -1
        elif family == "D":
            w[0], w[1] = -2, -1
        else:
            raise ValueError("position 0 is not a type A generator")
    else:
        w[position - 1], w[position] = w[position], w[position - 1]
    return tuple(w)


def tally(family, length, statfn):
    """Histogram of statfn over the family's windows, as a list of counts."""
    counts = {}
    for w in iter_windows(family, length):
        k = statfn(w)
        counts[k] = counts.get(k, 0) + 1
    out = [0] * (max(counts) + 1)
    for k, c in counts.items():
        out[k] = c
    return out


def moments_of_tally(counts, k_max=2):
    """Raw moments of the uniform distribution given by a histogram."""
    total = sum(counts)
    out = []
    for j in range(1, k_max + 1):
        out.append(Fraction(sum(c * k ** j for k, c in enumerate(counts)), total))
    return out


# ---------------------------------------------------------------------------
# subgroups and double cosets, by closure over windows

def generated_subgroup(generators, length):
    """Closure of a set of windows under composition."""
    ident = tuple(range(1, length + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in generators:
                for prod in (compose_windows(w, g), compose_windows(g, w)):
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return seen


def double_coset_count(elements, left_gens, right_gens):
    """Number of orbits of x -> g.x.h over the given element set."""
    elements = set(elements)
    seen = set()
    orbits = 0
    for w in elements:
        if w in seen:
            continue
        orbits += 1
        frontier = [w]
        seen.add(w)
        while frontier:
            nxt = []
            for x in frontier:
                for g in left_gens:
                    y = compose_windows(g, x)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
                for h in right_gens:
                    y = compose_windows(x, h)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
    return orbits


def orbit_count(elements, step_funcs):
    """Orbits of an arbitrary element set under arbitrary step functions.

    Used for the reflection-realized groups where elements are not windows;
    step_funcs take and return whatever representation the caller supplies.
    """
    elements = set(elements)
    seen = set()
    orbits = 0
    for w in elements:
        if w in seen:
            continue
        orbits += 1
        frontier = [w]
        seen.add(w)
        while frontier:
            nxt = []
            for x in frontier:
                for f in step_funcs:
                    y = f(x)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
    return orbits


# ---------------------------------------------------------------------------
# reference routes for the exact kernels

def eulerian_rows(c, n):
    """Descent tallies of A_0..A_n (c = 1) or B_0..B_n (c = 2), indexed by
    rank, by the Eulerian recurrence
    row_N[k] = (ck + 1) row_{N-1}[k] + (c(N - k) + 1) row_{N-1}[k - 1]."""
    rows = [[1]]
    for N in range(1, n + 1):
        prev = rows[-1] + [0]  # prev[N] = 0 and, for k = 0, prev[k - 1] = 0
        rows.append([(c * k + 1) * prev[k] + (c * (N - k) + 1) * prev[k - 1]
                     for k in range(N + 1)])
    return rows


def descent_rows_d(n):
    """Descent tallies of D_4..D_n by D_m = B_m - m 2^(m-1) t A_(m-2)."""
    a_rows, b_rows = eulerian_rows(1, n - 2), eulerian_rows(2, n)
    out = {}
    for m in range(4, n + 1):
        row = list(b_rows[m])
        for k, c in enumerate(a_rows[m - 2]):
            row[k + 1] -= m * 2 ** (m - 1) * c
        out[m] = row
    return out


def interpolate(points):
    """Newton divided differences, expanded to monomial coefficients."""
    xs = [Fraction(n) for n, _ in points]
    coef = [Fraction(v) for _, v in points]
    for j in range(1, len(points)):
        for i in range(len(points) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [coef[-1]]
    for i in range(len(points) - 2, -1, -1):
        poly = [Fraction(0)] + poly
        for k in range(len(poly) - 1):
            poly[k] -= xs[i] * poly[k + 1]
        poly[0] += coef[i]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def guess_formulas(points):
    """V = f(n) / (a n + b)^c candidates as (numerator, a, b, c) tuples,
    one Newton interpolation per candidate, reduced, normalized, checked
    at every point and ordered as lagrange_guess documents them."""
    pts = sorted((int(n), Fraction(v)) for n, v in points)
    margin = len(pts) - 3
    found = {}
    for c in range(6):
        grid = [(0, 0)] if c == 0 else [
            (a, b) for a in (-2, -1, 1, 2) for b in (-2, -1, 0, 1, 2)]
        for a, b in grid:
            if c > 0 and any(a * n + b == 0 for n, _ in pts):
                continue
            poly = interpolate([(n, v * Fraction(a * n + b) ** c) for n, v in pts])
            if len(poly) - 1 > margin:
                continue
            fa, fb, fc = a, b, c
            while fc > 0 and len(poly) > 1:
                # synthetic division by (fa n + fb)
                quot = [Fraction(0)] * (len(poly) - 1)
                rem = poly[-1]
                for k in range(len(poly) - 2, -1, -1):
                    quot[k] = rem / fa
                    rem = poly[k] - quot[k] * fb
                if rem != 0:
                    break
                poly, fc = quot, fc - 1
            if fc == 0:
                fa = fb = 0
            elif fa < 0:
                poly = [-co for co in poly] if fc % 2 else poly
                fa, fb = -fa, -fb
            g = math.gcd(fa, fb)
            if fc > 0 and g > 1:
                fa, fb = fa // g, fb // g
                poly = [co / g ** fc for co in poly]
            if all(sum(co * Fraction(n) ** k for k, co in enumerate(poly))
                   == v * Fraction(fa * n + fb) ** fc for n, v in pts):
                found.setdefault((tuple(poly), fa, fb, fc), None)
    return sorted(found, key=lambda f: (f[3], abs(f[1]), abs(f[2]), len(f[0]), f[0]))


def inv_polynomial(degrees):
    """Coefficients of the product of [d]_z over the degrees, by running
    window sums over every coefficient of every partial product."""
    coeffs = [1]
    for v in degrees:
        sums = [0, *itertools.accumulate(coeffs + [0] * (v - 1))]
        coeffs = [sums[k + 1] - (sums[k + 1 - v] if k + 1 >= v else 0)
                  for k in range(len(coeffs) + v - 1)]
    return coeffs


def lindeberg_inv(degrees, epsilon):
    """(summand variances, total variance, max ratio, Lindeberg sum) of
    the uniforms on {0, ..., v - 1} over the degrees, one Fraction per
    (degree, k) pair: (k - mu)^2 / v counts where (k - mu)^2 >= (eps s)^2."""
    eps = Fraction(epsilon)
    variances = tuple(Fraction(v * v - 1, 12) for v in degrees)
    total = sum(variances)
    cut = eps * eps * total
    lind = Fraction(0)
    for v in degrees:
        mu = Fraction(v - 1, 2)
        for k in range(v):
            c = (k - mu) ** 2
            if c >= cut:
                lind += Fraction(c, v)
    return variances, total, max(variances) / total, lind / total


def summary_of_histogram(coeffs, k_max):
    """(mean, central moments, cumulants, normalized cumulants) of the
    distribution proportional to coeffs, in Fractions from raw moments."""
    total = sum(coeffs)
    raw = {0: Fraction(1)}
    for j in range(1, k_max + 1):
        raw[j] = Fraction(sum(c * k ** j for k, c in enumerate(coeffs)), total)
    mean = raw[1]
    central = {j: sum(math.comb(j, i) * raw[i] * (-mean) ** (j - i) for i in range(j + 1))
               for j in range(2, k_max + 1)}
    kappa = {1: mean}
    for j in range(2, k_max + 1):
        kappa[j] = raw[j] - sum(math.comb(j - 1, i - 1) * kappa[i] * raw[j - i]
                                for i in range(1, j))
    cumulants = {j: kappa[j] for j in range(2, k_max + 1)}
    var = central[2]
    normalized = {}
    if var > 0:
        for j in range(3, k_max + 1):
            if j % 2 == 0:
                normalized[j] = float(cumulants[j] / var ** (j // 2))
            else:
                normalized[j] = (float(cumulants[j] / var ** ((j - 1) // 2))
                                 / math.sqrt(float(var)))
    return mean, central, cumulants, normalized


def _sign_at(coeffs, num, shift):
    acc = 0
    for i, c in enumerate(reversed(coeffs)):
        acc = acc * num + (c << (shift * i))
    return (acc > 0) - (acc < 0)


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(p):
    g = math.gcd(*p) if p[-1] > 0 else -math.gcd(*p)
    return [c // g for c in p]


def _poly_gcd(a, b):
    while b:
        r = list(a)
        while len(r) >= len(b):
            k = len(r) - len(b)
            r = [b[-1] * c for c in r[:k]] + [
                b[-1] * c - r[-1] * d for c, d in zip(r[k:-1], b)]
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _primitive(r) if r else []
    return _primitive(a)


def _poly_quotient(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        out[k], r = divmod(num[k + len(den) - 1], den[-1])
        assert r == 0
        for i, c in enumerate(den):
            num[k + i] -= out[k] * c
    assert not any(num)
    return out


def cyclotomic_polynomial(N):
    """Phi_N, constant term first: over the divisors d of N in increasing
    order, z^d - 1 divided by every Phi_e already found for e | d."""
    phis = {}
    for d in range(1, N + 1):
        if N % d == 0:
            poly = [-1] + [0] * (d - 1) + [1]
            for e, phi in phis.items():
                if d % e == 0:
                    poly = _poly_quotient(poly, phi)
            phis[d] = poly
    return phis[N]


def _taylor_shift(p):
    """p(x + 1) by repeated synthetic division by x - 1, one addition at a time."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += p[j + 1]
    return p


def _bisect(coeffs, lo, shift):
    sa = _sign_at(coeffs, lo, shift) or _sign_at(_derivative(coeffs), lo, shift)
    while lo / (1 << shift) != (lo + 1) / (1 << shift):
        lo, shift = 2 * lo, shift + 1
        sm = _sign_at(coeffs, lo + 1, shift)
        if sm == 0:
            return (lo + 1) / (1 << shift)
        if sm == sa:
            lo += 1
    return lo / (1 << shift)


def _positive_roots(g):
    lead = abs(g[-1]).bit_length()
    e = max(0, 1 + max(-((lead - 1 - abs(c).bit_length()) // i)
                       for i, c in enumerate(reversed(g[:-1]), 1)))
    p = [c << (e * i) for i, c in enumerate(g)]
    found = []
    stack = [(0, 0, p)]
    while stack:
        k, c, q = stack.pop()
        signs = [a > 0 for a in _taylor_shift(q[::-1]) if a]
        v = sum(a != b for a, b in zip(signs, signs[1:]))
        if v == 1:
            found.append(_bisect(p, c, k))
        elif v > 1:
            left = [a << (len(q) - 1 - i) for i, a in enumerate(q)]
            right = _taylor_shift(left)
            if right[0] == 0:
                found.append((2 * c + 1) / (1 << (k + 1)))
                right = right[1:]
            stack += [(k + 1, 2 * c, left), (k + 1, 2 * c + 1, right)]
    return [math.ldexp(y, e) for y in found]


def negated_roots(coeffs):
    """(sorted q_i descending, residual bound) for f = coeffs with roots
    -q_i: exact gcds of h(x) = f(-x) with h', Descartes bisection, sign
    bisection of every isolating interval down to one float, and the
    residual |f(-q)| / f(q) in Fractions; None when not real-rooted."""
    h = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
    roots = []
    while len(h) > 1:
        d = _poly_gcd(h, _derivative(h))
        roots += _positive_roots(_poly_quotient(h, d))
        h = d
    if len(roots) < len(coeffs) - 1:
        return None
    residual = 0.0
    for q in roots:
        x = Fraction(q)
        num = den = Fraction(0)
        for c in reversed(coeffs):
            num = num * -x + c
            den = den * x + c
        residual = max(residual, float(abs(num) / den))
    return tuple(sorted(roots, reverse=True)), residual


# Oracle root bags of A41..A60, where the live oracle route takes about 20 s
# of a tier-1 run; `python tests/oracles.py root_bags` regenerates
# ROOT_BAGS_PATH from the Eulerian recurrence rows and negated_roots.
ROOT_BAGS_PATH = Path(__file__).with_name("data") / "root_bags_a41_a60.json"
ROOT_BAG_RANKS = range(41, 61)


def write_root_bags():
    """Write {"A<n>": {"values": [float.hex, ...], "residual": float.hex}}
    for the ROOT_BAG_RANKS, from negated_roots of the recurrence rows."""
    rows = eulerian_rows(1, max(ROOT_BAG_RANKS))
    bags = {}
    for n in ROOT_BAG_RANKS:
        values, residual = negated_roots(rows[n])
        bags[f"A{n}"] = {"values": [q.hex() for q in values], "residual": residual.hex()}
    ROOT_BAGS_PATH.parent.mkdir(exist_ok=True)
    ROOT_BAGS_PATH.write_text(json.dumps(bags, indent=1) + "\n")


def read_root_bags():
    """{group text: (values, residual)} as negated_roots returns them."""
    return {text: (tuple(map(float.fromhex, bag["values"])), float.fromhex(bag["residual"]))
            for text, bag in json.loads(ROOT_BAGS_PATH.read_text()).items()}


# Pinned outputs of the reflection realization: sha256 digests of the
# `enumerate --limit 3000` stdout, of repr(rs.action) and of
# repr(list(element_actions(rs))), the walk's generation order, written by
# `python tests/oracles.py realization` from a known-good version of the
# package.  Unlike the rest of this module they read the package itself,
# so a rewrite of the realization must reproduce them byte for byte.
# The "actions-walk <group> block <k>" pins take the walk with
# rootsys._TALLY_BLOCK set to k, so that a level spans several blocks
# (F4's largest level has 94 elements) and the order across them shows.
REALIZATION_PATH = Path(__file__).with_name("data") / "realization_digests.json"
REALIZATION_ENUMERATE = ("H3", "H4", "F4", "E6", "I2(7)", "I2(40)")
REALIZATION_ACTIONS = ("E7", "E8") + tuple(f"I2({m})" for m in range(3, 61))
REALIZATION_WALKS = ("B3", "H3", "F4", "I2(7)")
REALIZATION_BLOCK_WALKS = (("F4", 16),)


def _sha256(text):
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def actions_walk_digest(group):
    """sha256 of repr(list(element_actions(rs))) for one group text."""
    from coxstat.groups import parse_descriptor
    from coxstat.rootsys import build_root_system, element_actions

    rs = build_root_system(parse_descriptor(group).factors[0])
    return _sha256(repr(list(element_actions(rs))))


def realization_digests():
    """{"enumerate <group>" | "action <group>" | "actions-walk <group>":
    sha256 hex} for the pins."""
    import contextlib
    import io

    from coxstat.cli import main
    from coxstat.groups import parse_descriptor
    from coxstat.rootsys import build_root_system

    out = {}
    for group in REALIZATION_ENUMERATE:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["enumerate", "--group", group, "--limit", "3000"]) == 0
        out[f"enumerate {group}"] = _sha256(buf.getvalue())
    for group in REALIZATION_ACTIONS:
        rs = build_root_system(parse_descriptor(group).factors[0])
        out[f"action {group}"] = _sha256(repr(rs.action))
    for group in REALIZATION_WALKS:
        out[f"actions-walk {group}"] = actions_walk_digest(group)
    import coxstat.rootsys as rootsys

    for group, block in REALIZATION_BLOCK_WALKS:
        saved, rootsys._TALLY_BLOCK = rootsys._TALLY_BLOCK, block
        try:
            out[f"actions-walk {group} block {block}"] = actions_walk_digest(group)
        finally:
            rootsys._TALLY_BLOCK = saved
    return out


def write_realization_digests():
    REALIZATION_PATH.parent.mkdir(exist_ok=True)
    REALIZATION_PATH.write_text(json.dumps(realization_digests(), indent=1) + "\n")


def read_realization_digests():
    return json.loads(REALIZATION_PATH.read_text())


# Pinned `clt` stdout: the exact text, JSON key order and float digits
# included, of inv and des, json and table, over five specs (a decided
# classical family, a harmonic dihedral product, the thin product of
# acceptance 9, a product of I2(1) and an undecided spec), written by
# `python tests/oracles.py clt`.  Like the realization pins, it reads
# the package itself.
CLT_STDOUT_PATH = Path(__file__).with_name("data") / "clt_stdout.txt"
CLT_COMMANDS = tuple(
    ("clt", "--spec", spec, "--stat", stat, "--range", ns, "--emit", emit)
    for spec, ns, emits in (
        ("A(n)", "1..12", ("json", "table")),
        ("prod(I2(i), i=1..n)", "1..12", ("table", "json")),
        ("A1^(n-2) x I2(n)", "2..12", ("json", "table")),
        ("prod(I2(1), i=1..n)", "1..7", ("table", "json")),
        ("prod(I2(n+i), i=1..n)", "1..9", ("json", "table")))
    for stat, emit in zip(("inv", "des"), emits))


def cli_run(argv):
    """(exit code, stdout, stderr) of `coxstat argv`, run in process."""
    import contextlib
    import io

    from coxstat.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def clt_stdout():
    """Each of CLT_COMMANDS as a "$ coxstat ..." line and its stdout."""
    import shlex

    parts = []
    for argv in CLT_COMMANDS:
        rc, out, _ = cli_run(argv)
        assert rc == 0
        parts.append(f"$ coxstat {shlex.join(argv)}\n{out}")
    return "".join(parts)


def write_clt_stdout():
    CLT_STDOUT_PATH.parent.mkdir(exist_ok=True)
    CLT_STDOUT_PATH.write_text(clt_stdout(), encoding="utf-8")


# Pinned `verify` stdout, every line of the quick and full suites,
# written by `python tests/oracles.py verify`.
VERIFY_PINS = {suite: Path(__file__).with_name("data") / f"verify_{suite}.txt"
               for suite in ("quick", "full")}


def write_verify_pins():
    for suite, path in VERIFY_PINS.items():
        rc, out, _ = cli_run(["verify", "--suite", suite])
        assert rc == 0, out
        path.parent.mkdir(exist_ok=True)
        path.write_text(out, encoding="utf-8")


# Pinned stdout of gf, moments, llt and interp: the sha256 of each
# command's stdout, or "exit <code>: <stderr>" for a command that fails,
# keyed by the command line and written by `python tests/oracles.py
# stdout`.  Every des+ides digest of A, B and D and every E, F and H
# digest was first pinned from the reflection walk, so the grid checks
# the two-sided counts and the committed E, F and H rows against it;
# the larger A, B and D groups and E7 were added once they took under a
# second.  E8 des, first refused by the walk's cap, comes from the
# table; E8 des+ides is still refused.  The interp commands read
# histogram_json files built from builtin_dataset in a directory of the
# caller's choosing, so the keys name the files only.
STDOUT_DIGESTS_PATH = Path(__file__).with_name("data") / "cli_stdout_digests.json"
_STDOUT_GROUPS = (
    [f"A{n}" for n in range(1, 10)] + ["A60"] + [f"B{n}" for n in range(2, 8)] + ["B60"]
    + [f"D{n}" for n in range(4, 8)] + ["D60", "E6", "E7", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 13)]
    + ["A2 x B3", "A1^4", "I2(5)^2 x A3", "H3 x D4"])
STDOUT_INTERP_FILES = {
    # file name: (statistic, sizes, keyed_by) for builtin_dataset
    "des_by_rank.json": ("des", range(2, 8), "rank"),
    "inv_by_size.json": ("inv", range(2, 8), "size"),
    "des_plus_ides.json": ("des_plus_ides", range(2, 7), "size"),
    "fixed_points.json": ("fixed_points", range(2, 7), "size"),
}
STDOUT_COMMANDS = tuple(
    argv
    for stat, groups in (("inv", _STDOUT_GROUPS), ("des", _STDOUT_GROUPS + ["E8"]),
                         ("des+ides", _STDOUT_GROUPS))
    for group in groups
    for argv in (("gf", "--group", group, "--stat", stat),
                 *(("moments", "--group", group, "--stat", stat, "--k-max", k)
                   for k in ("2", "6", "9")),
                 ("llt", "--group", group, "--stat", stat))
) + (
    ("gf", "--group", "E8", "--stat", "des+ides"),
    ("gf", "--group", "A10", "--stat", "des+ides"),
) + tuple(
    ("interp", "--input", name, "--format", "histogram_json", "--target", target)
    for name in STDOUT_INTERP_FILES for target in ("variance", "mean"))


def stdout_digests(directory):
    """{command line: digest} over STDOUT_COMMANDS, with the interp files
    written to directory."""
    import shlex

    from coxstat.interplab import builtin_dataset

    for name, (stat, sizes, keyed_by) in STDOUT_INTERP_FILES.items():
        ds = builtin_dataset(stat, sizes=sizes, keyed_by=keyed_by)
        doc = {"statistic": ds.name,
               "histogram": {str(n): [str(c) for c in h] for n, h in ds.histograms.items()}}
        (Path(directory) / name).write_text(json.dumps(doc), encoding="utf-8")
    out = {}
    for argv in STDOUT_COMMANDS:
        key = shlex.join(argv)
        try:
            rc, stdout, stderr = cli_run(
                str(Path(directory) / a) if a in STDOUT_INTERP_FILES else a for a in argv)
        except Exception as exc:  # a crash is a change too, kept under its command
            out[key] = f"raised {exc!r}"
            continue
        out[key] = _sha256(stdout) if rc == 0 else f"exit {rc}: {stderr.strip()}"
    return out


def write_stdout_digests():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = stdout_digests(tmp)
    STDOUT_DIGESTS_PATH.parent.mkdir(exist_ok=True)
    STDOUT_DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")


def read_stdout_digests():
    return json.loads(STDOUT_DIGESTS_PATH.read_text())


def classical_degrees(family, n):
    """Degrees of A_n, B_n or D_n, written out."""
    if family == "A":
        return list(range(2, n + 2))
    evens = [2 * k for k in range(1, n + 1)]
    return evens if family == "B" else evens[:-1] + [n]


def variance_of_tally(counts):
    mu1, mu2 = moments_of_tally(counts, 2)
    return mu2 - mu1 ** 2


def dihedral_product(n):
    """The factors of prod(I2(i), i=1..n) as (degrees, descent tally)
    pairs: I2(1) is A1 and I2(2) is A1 x A1."""
    out = []
    for i in range(1, n + 1):
        if i <= 2:
            out += [((2,), [1, 1])] * i
        else:
            out.append(((2, i), [1, 2 * i - 2, 1]))
    return out


# ---------------------------------------------------------------------------
# frozen small values, checked by hand from the definitions above

# inversion tallies
TALLY_INV_A3 = [1, 3, 5, 6, 5, 3, 1]        # S_4
TALLY_INV_B2 = [1, 2, 2, 2, 1]
TALLY_DES_A3 = [1, 11, 11, 1]               # S_4 descents
TALLY_DES_B2 = [1, 6, 1]

# worked single elements
WORKED_A = ((2, 5, 1, 3, 6, 4), {"inv": 5, "des": 2, "ides": 2})
WORKED_B = (((-1, -2), 4), ((-2, -1), 3))   # (window, type-B inv)


if __name__ == "__main__":
    # `python tests/oracles.py [root_bags] [realization] [clt] [verify]
    # [stdout]`; no name writes all
    _WRITERS = {"root_bags": write_root_bags, "realization": write_realization_digests,
                "clt": write_clt_stdout, "verify": write_verify_pins,
                "stdout": write_stdout_digests}
    for _name in sys.argv[1:] or _WRITERS:
        _WRITERS[_name]()
