"""Reflection realizations and exact element enumeration for any type.

A RootSystem stores the positive roots of one irreducible factor in
simple-root coordinates, plus the action of each simple reflection as a
permutation of positive-root indices.  The reflections are read off the
Coxeter diagram in groups.coxeter_edges, as integer matrices.  H3, H4
and I2(m) take their coordinates in Z[x]/(P), with P the minimal
polynomial of x = 2cos(pi/m) for their largest edge label m; each
coordinate is its k = deg P coefficients in the power basis, and
multiplying by x is the companion matrix of P.  Crystallographic
factors have k = 1 and the integer Cartan matrix.  A root is a flat
tuple of rank * k ints, so coordinates never touch floating point.

Elements are represented by signed action vectors: act[i] = +-(j+1)
means w(beta_i) = +-beta_j over the positive roots beta_0..beta_{N-1}.
The inversion set of w is then {i : act[i] < 0}, right descents are the
negative entries among the first rank positions (the simple roots come
first), and left descents are the positions j with -(j+1) appearing in
the vector, since Inv(w^-1) = -w(Inv(w)).  Extending w by a simple
reflection s is a single gather: act_ws[i] = act_w[perm_s[i]] for
i != s, and act_ws[s] = -act_w[s].

The breadth-first walk over the right weak order generates each element
exactly once, from its canonical parent u*s with s = min D_R(u), so no
level is deduplicated and elements come in generation order.  Each level
is a list of column blocks: one row per positive root and one column per
element, about _TALLY_BLOCK columns to a block, so extending by s copies
N contiguous rows.  The walk drops each block of a level as soon as its
children are built, so about one level is alive at a time.  Tallies and
element_actions read the blocks one at a time, as they are; only
enumerate_inversion_sets, which promises (length, inversion set) order,
joins each level's packed inversion bitsets and sorts them.

Tallies walk only the levels through N // 2 and mirror the rest:
w -> w*w0, with w0 the longest element, sends length l to N - l, des
to n - des and ides to n - ides, since s is in D_R(w*w0) iff w0*s*w0
is not in D_R(w), and s is in D_L(w*w0) iff s is not in D_L(w)
(Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.3).

This is the walk module and the only one in the package that imports
numpy.  The import stays at module level: a process that never walks
never loads this module (enumerate and verify import it on demand),
and walkers forked from a process that has loaded it inherit
numpy, where an import inside the walk functions would be paid again
by each fresh child's first call.  The tally cache itself lives in the
numpy-free tallies module; cached_tally, read_tally_file and
write_tally_file are re-exported here for callers that name them under
rootsys.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, islice
from math import comb, prod
from operator import itemgetter, mul

import numpy as np

from .groups import coxeter_edges, factor_m_max, group_order, positive_root_count
from .tallies import cached_tally, read_tally_file, write_tally_file  # noqa: F401

__all__ = [
    "RootSystem",
    "ElementRecord",
    "cyclotomic_polynomial",
    "minimal_polynomial_2cos",
    "build_root_system",
    "enumerate_inversion_sets",
    "statistics_tally",
    "cached_tally",
    "element_actions",
    "compose_actions",
    "simple_action",
    "DEFAULT_ENUM_CAP",
    "TALLY_STATISTICS",
]

DEFAULT_ENUM_CAP = 5_000_000

TALLY_STATISTICS = ("inv", "des", "des_plus_ides")

_TALLY_BLOCK = 1 << 13  # columns (elements) per block of a walk level


class RootSystem(namedtuple("RootSystem", "label rank positive_roots action")):
    """Positive roots of one factor, and action[s][j] = index of s(beta_j);
    position j = s holds s itself, standing for the sign flip
    s(alpha_s) = -alpha_s."""

    __slots__ = ()

    @property
    def root_count(self):
        return len(self.positive_roots)


class ElementRecord(namedtuple("ElementRecord",
                               "inversion_set length right_descents left_descents")):
    """One element: its inversion set (a bitset over positive-root indices),
    length, and right and left descents (bitsets over simple positions)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# minimal polynomials of 2cos(2pi/N)

def cyclotomic_polynomial(N):
    """Coefficients of the N-th cyclotomic polynomial, constant term first.

    The Moebius product Phi_N = prod over d | N of (z^d - 1)^mu(N/d),
    over the d with N/d square-free: multiplying by z^d - 1 is one
    shift-and-subtract, and dividing by z^d - 1 is one running
    recurrence q[k] = q[k-d] - p[k].  The divisions come after all the
    multiplications, so each is exact in integers; a nonzero remainder
    raises ArithmeticError.

    >>> cyclotomic_polynomial(12)
    [1, 0, -1, 0, 1]
    """
    if N < 1:
        raise ValueError("N must be positive")
    primes = [p for p in range(2, N + 1) if N % p == 0 and all(p % q for q in range(2, p))]
    subsets = [c for k in range(len(primes) + 1) for c in combinations(primes, k)]
    poly = [1]
    for chosen in sorted(subsets, key=lambda c: len(c) % 2):  # mu(N/d) = 1 first
        d = N // prod(chosen)
        if len(chosen) % 2 == 0:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
            continue
        q = []
        for k in range(len(poly) - d):
            q.append((q[k - d] if k >= d else 0) - poly[k])
        if poly[len(q):] != ([0] * d + q)[len(q):]:
            raise ArithmeticError(f"z^{d} - 1 does not divide the product for Phi_{N}")
        poly = q
    return poly


def minimal_polynomial_2cos(N):
    """Minimal polynomial of 2*cos(2*pi/N) over Z, constant term first.

    For N >= 3 this folds the palindromic cyclotomic polynomial through
    the substitution z + 1/z = x: writing Phi_N(z) = z^(d/2) g(z + 1/z)
    and solving the triangular system for g via binomial coefficients.

    >>> minimal_polynomial_2cos(10)   # 2cos(36deg) = phi: x^2 - x - 1
    [-1, -1, 1]
    """
    if N == 1:
        return [-2, 1]
    if N == 2:
        return [2, 1]
    p = cyclotomic_polynomial(N)
    d = len(p) - 1
    if d % 2 == 1 or p != p[::-1]:
        raise ArithmeticError(f"Phi_{N} is not an even palindrome")
    half = d // 2
    g = [0] * (half + 1)
    for k in range(half, -1, -1):
        acc = p[half + k]
        j = 1
        while k + 2 * j <= half:
            acc -= g[k + 2 * j] * comb(k + 2 * j, j)
            j += 1
        g[k] = acc
    return g


# ---------------------------------------------------------------------------
# reflection rows from the Coxeter diagram

def _reflection_rows(label):
    """(k, rows): rows[s] lists (pos, pick, coefs) for the k flat entries
    pos that s rewrites, each as sum(map(mul, coefs, pick(root))).

    This is the geometric representation (Humphreys, Reflection Groups and
    Coxeter Groups, 5.3) scaled by 2: s(c)_s = -c_s + sum_j w_sj c_j over
    the neighbours j of s, with w_sj = 2cos(pi/m) on an edge labelled m.
    H and I2 carry two labels.  Their largest, m_max, gives w_sj = x, which
    maps a coefficient vector c to the companion matrix of P times c:
    (x c)_r = c_(r-1) - p_r c_(k-1).  The other is 3, with w_sj = 1.  On a
    crystallographic double bond (a, b, 4), w_ab = 1 and w_ba = 2: b is the
    short root in this orientation, and the statistics computed here do
    not depend on which end is short.
    """
    n = label.rank
    top = factor_m_max(label) if label.family in ("H", "I2") else None
    p = minimal_polynomial_2cos(2 * top) if top else [0, 1]
    k = len(p) - 1
    weights = [{} for _ in range(n)]
    for a, b, m in coxeter_edges(label):
        if m == top:
            weights[a][b] = weights[b][a] = None  # multiply by x
        elif m == 3:
            weights[a][b] = weights[b][a] = 1
        else:
            weights[a][b], weights[b][a] = 1, 2
    rows = []
    for s in range(n):
        row = []
        for r in range(k):
            terms = {s * k + r: -1}
            for j, w in weights[s].items():
                if w is None:
                    if r:
                        terms[j * k + r - 1] = 1
                    terms[j * k + k - 1] = -p[r]
                else:
                    terms[j * k + r] = w
            cols = [col for col, coef in terms.items() if coef]
            # itemgetter of one column returns the entry, not a 1-tuple
            pick = itemgetter(*cols) if len(cols) > 1 else (lambda c, i=cols[0]: (c[i],))
            row.append((s * k + r, pick, tuple(terms[col] for col in cols)))
        rows.append(row)
    return k, rows


def build_root_system(label):
    """Close the simple roots under reflection in breadth-first order,
    reading off each reflection's action as the roots are found."""
    k, rows = _reflection_rows(label)
    n = label.rank
    expected = positive_root_count(label)
    roots = [tuple(int(j == i * k) for j in range(n * k)) for i in range(n)]
    index = {root: i for i, root in enumerate(roots)}
    action = [[None] * expected for _ in range(n)]
    frontier = list(range(n))
    while frontier:
        nxt = []
        for j in frontier:
            root = roots[j]
            for s, row in enumerate(rows):
                if j == s:
                    action[s][j] = s  # s(alpha_s) is the lone negative image
                    continue
                img = list(root)
                for pos, pick, coefs in row:
                    img[pos] = sum(map(mul, coefs, pick(root)))
                img = tuple(img)
                i = index.get(img)
                if i is None:
                    if len(roots) == expected:
                        raise RuntimeError(
                            f"{label}: reflection closure exceeded the expected "
                            f"{expected} positive roots"
                        )
                    i = index[img] = len(roots)
                    nxt.append(i)
                    roots.append(img)
                action[s][j] = i
        frontier = nxt
    if len(roots) != expected:
        raise RuntimeError(
            f"{label}: closure found {len(roots)} positive roots, expected {expected}"
        )
    return RootSystem(label, n, tuple(roots), tuple(map(tuple, action)))


# ---------------------------------------------------------------------------
# breadth-first element walk

def _inversion_keys(acts):
    """Pack the sign pattern of each column into one or more uint64 words."""
    neg = acts < 0
    nrows, ncols = neg.shape
    words = (nrows + 63) // 64
    padded = np.zeros((words * 64, ncols), dtype=bool)
    padded[:nrows] = neg
    packed = np.packbits(padded, axis=0, bitorder="little")
    return np.ascontiguousarray(packed.T).view("<u8").reshape(ncols, words)


def _check_cap(label):
    """Refuse a group with more elements than DEFAULT_ENUM_CAP."""
    order = group_order(label)
    if order > DEFAULT_ENUM_CAP:
        raise ValueError(
            f"group order {order} of {label} exceeds enumeration cap {DEFAULT_ENUM_CAP}"
        )


def _bfs_levels(rs):
    """Yield (length, blocks) per level of the right weak order, each element
    once; blocks is a list of (N, k) column blocks, one row per positive
    root and one column per element, with k about _TALLY_BLOCK.

    Canonical generation (Bjorner-Brenti, Combinatorics of Coxeter Groups,
    ch. 3): every u != e has the one parent u*s with s = min D_R(u), so w
    is extended by s only when s is an ascent of w and no t < s is a right
    descent of w*s.  Since act_ws[t] = act_w[perm_s[t]], the second test
    reads act_w alone.  Columns within a level come in generation order.

    A level is built only when the consumer asks for it, and building it
    empties the list of the level before, so a consumer reads each list
    before it asks for the next level.  Once DEFAULT_ENUM_CAP elements
    have been yielded, the walk goes on only for a group within the cap.
    """
    n = rs.rank
    N = rs.root_count
    dtype = np.int8 if N <= 126 else np.int16
    perms = [np.asarray(row, dtype=np.intp) for row in rs.action]
    # the positions that must be positive for w to extend by s: s, and
    # perm_s[t] for t < s.  They are simple roots and their images under
    # one reflection, which the closure numbers first, so the sign test
    # reads a narrow slice of each level.
    guards = [np.concatenate(([s], perms[s][:s])) for s in range(n)]
    head = 1 + max(int(cols.max()) for cols in guards)
    level = [np.arange(1, N + 1, dtype=dtype).reshape(N, 1)]
    length = 0
    total = 0
    while level:
        total += sum(acts.shape[1] for acts in level)
        yield length, level
        if total >= DEFAULT_ENUM_CAP:
            _check_cap(rs.label)
        level.reverse()
        blocks, pending, cols = [], [], 0
        while level:
            acts = level.pop()
            pos = acts[:head] > 0
            for s in range(n):
                sub = acts.compress(pos[guards[s]].all(axis=0), axis=1).take(perms[s], axis=0)
                np.negative(sub[s], out=sub[s])
                pending.append(sub)
                cols += sub.shape[1]
                if cols >= _TALLY_BLOCK:
                    blocks.append(np.concatenate(pending, axis=1))
                    pending, cols = [], 0
        if cols:
            blocks.append(np.concatenate(pending, axis=1))
        # neither the last block of the level before nor the pieces of the
        # last new block live on through the consumer's pass
        del acts, pos, sub, pending
        level = blocks
        length += 1
    order = group_order(rs.label)
    if total != order:
        raise RuntimeError(f"{rs.label}: walk visited {total} elements, expected {order}")


def _left_descents(acts, n):
    """Left-descent bitsets of a column block: bit j for an entry -(j+1)."""
    left = np.zeros(acts.shape[1], dtype=np.int64)
    for j in range(n):
        left |= (acts == -(j + 1)).any(axis=0).astype(np.int64) << j
    return left


def enumerate_inversion_sets(rs):
    """ElementRecords in (length, inversion set) order.

    Each level's packed inversion bitsets are joined across its blocks
    and sorted; lexsort's last key is its primary one, so the rows of
    keys.T run from the lowest word to the highest and the bitsets
    compare as integers.  The walk is lazy by level: taking the first k
    records builds no level past the one that holds record k.  On a group
    above DEFAULT_ENUM_CAP, asking for a level past the one that holds
    record DEFAULT_ENUM_CAP raises ValueError.
    """
    n = rs.rank
    simple_mask = (1 << n) - 1
    for length, blocks in _bfs_levels(rs):
        keys = np.concatenate([_inversion_keys(acts) for acts in blocks])
        left = np.concatenate([_left_descents(acts, n) for acts in blocks])
        by_set = np.lexsort(keys.T)
        for row, lefts in zip(keys[by_set], left[by_set].tolist()):
            inv = int.from_bytes(row.tobytes(), "little")
            yield ElementRecord(inv, length, inv & simple_mask, lefts)


def statistics_tally(rs, statistic):
    """Exact histogram of inv, des, or des_plus_ides over the whole group;
    a group above DEFAULT_ENUM_CAP raises ValueError before anything is
    walked.

    Only the levels through N // 2 are walked, one column block at a
    time, each column counted by a reduction along its roots, and w ->
    w*w0 mirrors the rest (module docstring): the histogram is low +
    low[::-1] + mid, with mid the level N/2 of an even N.  The mirrored
    total is checked against the group order.

    >>> from coxstat.groups import irreducible
    >>> statistics_tally(build_root_system(irreducible("A", 2)), "des_plus_ides")
    (1, 0, 4, 0, 1)
    """
    if statistic not in TALLY_STATISTICS:
        raise ValueError(f"statistic must be one of {TALLY_STATISTICS}, got {statistic!r}")
    _check_cap(rs.label)
    n = rs.rank
    N = rs.root_count
    size = {"inv": N + 1, "des": n + 1, "des_plus_ides": 2 * n + 1}[statistic]
    low = np.zeros(size, dtype=np.int64)
    mid = np.zeros(size, dtype=np.int64)
    for length, blocks in islice(_bfs_levels(rs), N // 2 + 1):
        part = mid if 2 * length == N else low
        if statistic == "inv":
            part[length] = sum(acts.shape[1] for acts in blocks)
            continue
        for acts in blocks:
            # right descents: the negative entries among the n simple
            # rows; left descents: the entries -1..-n anywhere, which are
            # the top n values of the unsigned view
            vals = (acts[:n] < 0).sum(axis=0)
            if statistic == "des_plus_ides":
                vals += (acts.view(f"u{acts.itemsize}") >= 256 ** acts.itemsize - n).sum(axis=0)
            part += np.bincount(vals, minlength=size)
    counts = low + low[::-1] + mid
    order = group_order(rs.label)
    if counts.sum() != order:
        raise RuntimeError(f"{rs.label}: mirrored tally counts {counts.sum()} elements, "
                           f"expected {order}")
    return tuple(counts.tolist())


# ---------------------------------------------------------------------------
# action vectors as explicit group elements (oracle plumbing)

def simple_action(rs, s):
    row = rs.action[s]
    return tuple(-(s + 1) if j == s else row[j] + 1 for j in range(rs.root_count))


def compose_actions(u, v):
    """Action vector of u o v from those of u and v."""
    out = []
    for x in v:
        y = u[x - 1] if x > 0 else -u[-x - 1]
        out.append(y)
    return tuple(out)


def element_actions(rs):
    """All action vectors, level by level in generation order, read one
    column block at a time; a group above DEFAULT_ENUM_CAP raises ValueError
    before anything is walked."""
    _check_cap(rs.label)
    for _, blocks in _bfs_levels(rs):
        for acts in blocks:
            yield from map(tuple, acts.T.tolist())
