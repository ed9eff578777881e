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

The breadth-first walk (_bfs_levels) generates each element of the
right weak order once, in generation order.  A level is a list of
blocks, each an array of about _TALLY_BLOCK records, one per element:
its action vector, one signed byte per entry (two above 126 roots).
A block is dropped once its children are built, so about one level is
alive at a time.  Only enumerate_inversion_sets sorts a level.

Tallies walk only the levels through N // 2 and mirror the rest:
w -> w*w0, with w0 the longest element, sends length l to N - l, des
to n - des and ides to n - ides, since s is in D_R(w*w0) iff w0*s*w0
is not in D_R(w), and s is in D_L(w*w0) iff s is not in D_L(w)
(Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.3).

The tally cache lives in the tallies module; cached_tally,
read_tally_file and write_tally_file are re-exported here for callers
that name them under rootsys.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from functools import reduce
from itertools import combinations, compress, islice
from math import comb, prod
from operator import and_, itemgetter, mul, neg
from struct import iter_unpack

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

_TALLY_BLOCK = 1 << 13  # records (elements) per block of a walk level


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

# bytes.translate tables: a sign byte as 0/1 or as "0"/"1", and a one-byte entry negated
_POSITIVE = bytes(b < 128 for b in range(256))
_NEGATIVE = bytes(b >= 128 for b in range(256))
_NEGATIVE_DIGIT = b"0" * 128 + b"1" * 128
_NEGATE = bytes(-b & 255 for b in range(256))


def _layout(N):
    """(array typecode, bytes per entry, sign byte offset) for values +-1..+-N."""
    return ("b", 1, 0) if N <= 126 else ("h", 2, int(sys.byteorder == "little"))


def _column(raw, offset, stride, table):
    """Byte offset of every record in raw, translated, as one base-256 digit each."""
    return int.from_bytes(raw[offset::stride].translate(table), "little")


def _check_cap(label):
    """Refuse a group with more elements than DEFAULT_ENUM_CAP."""
    order = group_order(label)
    if order > DEFAULT_ENUM_CAP:
        raise ValueError(f"group order {order} of {label} exceeds enumeration cap "
                         f"{DEFAULT_ENUM_CAP}")


def _bfs_levels(rs):
    """Yield (length, blocks) per level of the right weak order, each element
    once; blocks is a list of arrays of about _TALLY_BLOCK records each.

    Canonical generation (Bjorner-Brenti, Combinatorics of Coxeter Groups,
    ch. 3): every u != e has the one parent u*s with s = min D_R(u), so w
    is extended by s only when s is an ascent of w and no t < s is a right
    descent of w*s.  Since act_ws[t] = act_w[perm_s[t]], the second test
    reads act_w alone.  Records within a level come in generation order.

    A level is built only when the consumer asks for it, and building it
    empties the list of the level before, so a consumer reads each list
    before it asks for the next level.  Once DEFAULT_ENUM_CAP elements
    have been yielded, the walk goes on only for a group within the cap.
    """
    N = rs.root_count
    code, width, sign = _layout(N)
    stride = width * N
    # (destination, source) byte offsets of the gather act_ws[t] = act_w[perm_s[t]],
    # where perm_s moves t: a copy of act_w holds the rest
    moves = [[(width * t + b, width * p + b) for t, p in enumerate(row) if p != t
              for b in range(width)] for row in rs.action]
    # the entries that must be positive for w to extend by s: s, and perm_s[t] for t < s
    guards = [(s, *row[:s]) for s, row in enumerate(rs.action)]
    level = [array(code, range(1, N + 1))]
    length = total = 0
    while level:
        total += sum(map(len, level)) // N
        yield length, level
        if total >= DEFAULT_ENUM_CAP:
            _check_cap(rs.label)
        level.reverse()
        blocks, pending = [], bytearray()
        while level:
            raw = level.pop().tobytes()
            records = [rec for rec, in iter_unpack(f"{stride}s", raw)]
            positive = {g: _column(raw, width * g + sign, stride, _POSITIVE)
                        for g in set().union(*guards)}
            for s, pairs in enumerate(moves):
                mask = reduce(and_, map(positive.__getitem__, guards[s]))
                picked = b"".join(compress(records, mask.to_bytes(len(records), "little")))
                sub = bytearray(picked)
                for dst, src in pairs:
                    sub[dst::stride] = picked[src::stride]
                if width == 1:
                    sub[s::stride] = sub[s::stride].translate(_NEGATE)
                else:
                    sub = array(code, sub)
                    sub[s::N] = array(code, map(neg, sub[s::N]))
                pending += sub
                if len(pending) >= _TALLY_BLOCK * stride:
                    blocks.append(array(code, pending))
                    pending = bytearray()
        if pending:
            blocks.append(array(code, pending))
        # no block of the level before lives on through the consumer's pass
        del raw, records, pending
        level = blocks
        length += 1
    order = group_order(rs.label)
    if total != order:
        raise RuntimeError(f"{rs.label}: walk visited {total} elements, expected {order}")


def enumerate_inversion_sets(rs):
    """ElementRecords in (length, inversion set) order.

    Each level is sorted by its inversion bitsets, read off the sign bytes
    of its records.  The walk is lazy by level: taking the first k records
    builds no level past the one that holds record k.  On a group above
    DEFAULT_ENUM_CAP, asking for a level past the one that holds record
    DEFAULT_ENUM_CAP raises ValueError.
    """
    n = rs.rank
    code, width, sign = _layout(rs.root_count)
    keys = [-(j + 1) & 255 if width == 1 else -(j + 1) for j in range(n)]
    for length, blocks in _bfs_levels(rs):
        level = []
        for acts in blocks:
            for rec, in iter_unpack(f"{width * rs.root_count}s", acts):
                level.append((int(rec[sign::width].translate(_NEGATIVE_DIGIT)[::-1], 2), rec))
        level.sort()
        for inv, rec in level:
            values = rec if width == 1 else array(code, rec)
            left = sum(1 << j for j, key in enumerate(keys) if key in values)
            yield ElementRecord(inv, length, inv & ((1 << n) - 1), left)


def statistics_tally(rs, statistic):
    """Exact histogram of inv, des, or des_plus_ides over the whole group;
    a group above DEFAULT_ENUM_CAP raises ValueError before anything is
    walked.

    Only the levels through N // 2 are walked, and w -> w*w0 mirrors the
    rest (module docstring): the histogram is low + low[::-1] + mid, with
    mid the level N/2 of an even N.  The mirrored total is checked against
    the group order.  des and ides are sums over entries of base-256
    integers, one digit per record, and within the cap no digit reaches 256.

    >>> from coxstat.groups import irreducible
    >>> statistics_tally(build_root_system(irreducible("A", 2)), "des_plus_ides")
    (1, 0, 4, 0, 1)
    """
    if statistic not in TALLY_STATISTICS:
        raise ValueError(f"statistic must be one of {TALLY_STATISTICS}, got {statistic!r}")
    _check_cap(rs.label)
    n, N = rs.rank, rs.root_count
    _, width, sign = _layout(N)
    stride = width * N
    # an entry -n..-1 has a low byte 256-n..255, and a high byte 255
    low_byte = bytes(b >= 256 - n for b in range(256))
    high_byte = bytes(b == 255 for b in range(256))
    size = {"inv": N + 1, "des": n + 1, "des_plus_ides": 2 * n + 1}[statistic]
    low, mid = [0] * size, [0] * size
    for length, blocks in islice(_bfs_levels(rs), N // 2 + 1):
        part = mid if 2 * length == N else low
        if statistic == "inv":
            part[length] = sum(map(len, blocks)) // N
            continue
        for acts in blocks:
            raw = acts.tobytes()
            counts = sum(_column(raw, width * p + sign, stride, _NEGATIVE) for p in range(n))
            if statistic == "des_plus_ides":
                for t in range(0, stride, width):
                    ides = _column(raw, t + width - 1 - sign, stride, low_byte)
                    if width == 2:
                        ides &= _column(raw, t + sign, stride, high_byte)
                    counts += ides
            digits = counts.to_bytes(len(acts) // N, "little")
            for value in range(size):
                part[value] += digits.count(value)
    counts = [a + b + c for a, b, c in zip(low, low[::-1], mid)]
    order = group_order(rs.label)
    if sum(counts) != order:
        raise RuntimeError(f"{rs.label}: mirrored tally counts {sum(counts)} elements, "
                           f"expected {order}")
    return tuple(counts)


# ---------------------------------------------------------------------------
# action vectors as explicit group elements (oracle plumbing)

def simple_action(rs, s):
    return tuple(-(s + 1) if j == s else i + 1 for j, i in enumerate(rs.action[s]))


def compose_actions(u, v):
    """Action vector of u o v from those of u and v."""
    return tuple(u[x - 1] if x > 0 else -u[-x - 1] for x in v)


def element_actions(rs):
    """All action vectors, level by level in generation order, read one
    block at a time; a group above DEFAULT_ENUM_CAP raises ValueError
    before anything is walked."""
    _check_cap(rs.label)
    N = rs.root_count
    for _, blocks in _bfs_levels(rs):
        for acts in blocks:
            yield from (tuple(acts[i:i + N]) for i in range(0, len(acts), N))
