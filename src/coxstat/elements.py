"""Window models for the classical families A, B, D.

An element is a window: the tuple (w(1), ..., w(n)) of signed integers
whose absolute values permute 1..n, exactly as iter_windows yields it.
Type A windows are all positive; type B allows any signs; type D
requires an even number of negative entries.  The statistics take the
window and its family letter and do not validate it.  Note the rank
bookkeeping: a type A window of length n realizes the rank n-1 group
A_{n-1}, while B and D windows of length n realize rank n.

Inversions count the pairs i < j with w(i) > w(j), plus for B and D the
pairs with -w(i) > w(j), plus for B alone the negative entries.  Descents
are read off the window extended on the left by w(0) = 0 (types A and B;
for A this leaves only positions 1..n-1) or w(0) = -w(2) (type D);
des_count compares neighbours in one map over the window instead of
listing the positions.

iter_windows fixes the enumeration order that ``coxstat enumerate``
prints.  window_tally, behind the brute-force histograms of ``coxstat
verify`` and the built-in interplab datasets, visits the same windows in another order: for each set of
negated values, the permutations of the signed values, counted by one
Counter.update per set.  A histogram does not depend on the order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import gt

__all__ = [
    "inverse",
    "inv_count",
    "des_count",
    "ides_count",
    "descent_positions",
    "all_positive_roots",
    "st_count",
    "iter_windows",
    "window_tally",
    "to_one_line",
]


def inverse(w):
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
    return tuple(out)


# ---------------------------------------------------------------------------
# statistics

def inv_count(w, family):
    """Coxeter length of the element in its own group."""
    n = len(w)
    signed = family in ("B", "D")
    total = 0
    for i in range(n):
        wi = w[i]
        for j in range(i + 1, n):
            if wi > w[j]:
                total += 1
            if signed and -wi > w[j]:
                total += 1
    if family == "B":
        total += sum(1 for v in w if v < 0)
    return total


def descent_positions(w, family):
    n = len(w)
    if family == "A":
        return tuple(i for i in range(1, n) if w[i - 1] > w[i])
    head = 0 if family == "B" else -w[1]
    seq = (head,) + w
    return tuple(i for i in range(n) if seq[i] > seq[i + 1])


def des_count(w, family):
    """len(descent_positions(w, family)), without building the positions."""
    count = sum(map(gt, w, w[1:]))
    if family == "B":
        return count + (w[0] < 0)
    if family == "D":
        return count + (-w[1] > w[0])
    return count


def ides_count(w, family):
    return des_count(inverse(w), family)


# ---------------------------------------------------------------------------
# root subsets and the interpolating statistics

def all_positive_roots(family, n):
    """The positive roots of the family on windows of length n, sorted.

    Roots are tagged tuples: ("plus", i, j) and ("minus", i, j) with
    1 <= i < j <= n (minus for B and D), and ("circ", i) with
    1 <= i <= n (B only).
    """
    members = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            members.append(("plus", i, j))
            if family in ("B", "D"):
                members.append(("minus", i, j))
        if family == "B":
            members.append(("circ", i))
    return tuple(sorted(members))


def st_count(w, roots):
    """Number of the given roots inverted by the window.

    With all_positive_roots this is inv_count; smaller subsets
    interpolate between there and zero.
    """
    total = 0
    for item in roots:
        if item[0] == "circ":
            if w[item[1] - 1] < 0:
                total += 1
        else:
            i, j = item[1], item[2]
            if item[0] == "plus":
                if w[i - 1] > w[j - 1]:
                    total += 1
            else:
                if -w[i - 1] > w[j - 1]:
                    total += 1
    return total


# ---------------------------------------------------------------------------
# enumeration: lexicographic in (sign pattern, underlying permutation),
# with plus sorting before minus positionwise

def iter_windows(family, length):
    """Windows in lexicographic (sign pattern, permutation) order."""
    base = range(1, length + 1)
    if family == "A":
        yield from itertools.permutations(base)
        return
    for signs in itertools.product((1, -1), repeat=length):
        if family == "D" and sum(1 for s in signs if s < 0) % 2 == 1:
            continue
        for p in itertools.permutations(base):
            yield tuple(s * v for s, v in zip(p, signs))


def window_tally(family, length, statfn):
    """Histogram of statfn(w, family) over every window: counts for
    0..max value.

    The windows come grouped by their set of negated values (none for A,
    an even number for D), each group as the permutations of its signed
    values: the windows of iter_windows in another order, which the
    histogram does not see.
    """
    base = range(1, length + 1)
    sizes = range(0, 1 if family == "A" else length + 1, 2 if family == "D" else 1)
    counts = Counter()
    for k in sizes:
        for negated in itertools.combinations(base, k):
            signed = [-v if v in negated else v for v in base]
            counts.update(map(statfn, itertools.permutations(signed),
                              itertools.repeat(family)))
    return tuple(counts[k] for k in range(max(counts) + 1))


def to_one_line(w):
    return "[" + ",".join(str(v) for v in w) + "]"
