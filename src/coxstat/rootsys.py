"""Reflection realizations and exact element enumeration for any type.

A RootSystem stores the positive roots of one irreducible factor in
simple-root coordinates, plus the action of each simple reflection as a
permutation of positive-root indices.  The reflections are read off the
Coxeter diagram in groups.coxeter_edges.  Crystallographic factors use
the integer Cartan matrix; H3, H4 and I2(m) use the exact cosine ring of
their largest edge label, so coordinates never touch floating point.

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
level is deduplicated and rows within a level come in generation order.
Tallies read those levels as they are; only the two enumerators that
promise (length, inversion set) order sort each level, by its packed
inversion bitsets.

This is the walk module and the only one in the package that imports
numpy.  The import stays at module level: a process that never walks
never loads this module (the CLI and the tally cache import it on
demand), and walkers forked from a process that has loaded it inherit
numpy, where an import inside the walk functions would be paid again
by each fresh child's first call.  The tally cache itself lives in the
numpy-free tallies module; cached_tally, read_tally_file and
write_tally_file are re-exported here for callers that name them under
rootsys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (
    IrreducibleLabel,
    coxeter_edges,
    factor_m_max,
    group_order,
    irreducible_degrees,
)
from .rings import cos_ring_generator
from .tallies import cached_tally, read_tally_file, write_tally_file  # noqa: F401

__all__ = [
    "RootSystem",
    "ElementRecord",
    "build_root_system",
    "enumerate_inversion_sets",
    "statistics_tally",
    "cached_tally",
    "element_actions",
    "compose_actions",
    "simple_action",
    "identity_action",
    "DEFAULT_ENUM_CAP",
    "TALLY_STATISTICS",
]

DEFAULT_ENUM_CAP = 5_000_000

TALLY_STATISTICS = ("inv", "des", "des_plus_ides")

_TALLY_BLOCK = 1 << 13  # rows per block of the left-descent scan


@dataclass(frozen=True)
class RootSystem:
    label: IrreducibleLabel
    rank: int
    positive_roots: tuple[tuple, ...]
    # action[s][j] = index of s(beta_j); position j = s holds s itself,
    # standing for the sign flip s(alpha_s) = -alpha_s
    action: tuple[tuple[int, ...], ...]

    @property
    def root_count(self):
        return len(self.positive_roots)


@dataclass(frozen=True)
class ElementRecord:
    inversion_set: int          # bitset over positive-root indices
    length: int
    right_descents: int         # bitset over simple positions
    left_descents: int


# ---------------------------------------------------------------------------
# reflection rows from the Coxeter diagram

def _reflection_rows(label):
    """Rows of the geometric representation (Humphreys, Reflection Groups
    and Coxeter Groups, 5.3) scaled by 2: row[s][j] multiplies coordinate
    j in s's update, and an edge labelled m contributes -2cos(pi/m).

    A/B/D/E/F use the integer Cartan matrix.  H and I2 use the cosine
    ring of their largest label, whose generator is 2cos(pi/m_max); the
    only other label they carry is 3, where -2cos(pi/3) = -1.
    """
    n = label.rank
    if label.family in ("H", "I2"):
        top = factor_m_max(label)
        gen, one = cos_ring_generator(top)
    else:
        top, one = None, 1
    zero = one - one
    rows = [[one + one if i == j else zero for j in range(n)] for i in range(n)]
    for a, b, m in coxeter_edges(label):
        if m == top:
            rows[a][b] = rows[b][a] = -gen
        elif m == 3:
            rows[a][b] = rows[b][a] = -one
        else:
            # double bond: b is the short root in this orientation; the
            # statistics computed here do not depend on which end is short
            rows[a][b] = -1
            rows[b][a] = -2
    return rows, one, zero


def build_root_system(label):
    """Close the simple roots under reflection; exact arithmetic throughout."""
    rows, one, zero = _reflection_rows(label)
    n = label.rank
    expected = sum(d - 1 for d in irreducible_degrees(label))

    def reflect(s, coords):
        out = list(coords)
        acc = zero
        for j, c in enumerate(coords):
            entry = rows[s][j]
            if entry:
                acc = acc + entry * c
        out[s] = coords[s] - acc
        return tuple(out)

    roots = []
    index = {}
    for i in range(n):
        e = tuple(one if j == i else zero for j in range(n))
        index[e] = i
        roots.append(e)
    frontier = list(range(n))
    while frontier:
        nxt = []
        for j in frontier:
            for s in range(n):
                if j == s:
                    continue  # s(alpha_s) is the lone negative image
                img = reflect(s, roots[j])
                if img not in index:
                    index[img] = len(roots)
                    roots.append(img)
                    nxt.append(index[img])
                    if len(roots) > expected:
                        raise RuntimeError(
                            f"{label}: reflection closure exceeded the expected "
                            f"{expected} positive roots"
                        )
        frontier = nxt
    if len(roots) != expected:
        raise RuntimeError(
            f"{label}: closure found {len(roots)} positive roots, expected {expected}"
        )
    action = []
    for s in range(n):
        row = []
        for j in range(len(roots)):
            row.append(s if j == s else index[reflect(s, roots[j])])
        action.append(tuple(row))
    return RootSystem(label=label, rank=n, positive_roots=tuple(roots), action=tuple(action))


# ---------------------------------------------------------------------------
# breadth-first element walk

def _inversion_keys(acts):
    """Pack the sign pattern of each row into one or more uint64 words."""
    neg = acts < 0
    nrows, ncols = neg.shape
    words = (ncols + 63) // 64
    padded = np.zeros((nrows, words * 64), dtype=bool)
    padded[:, :ncols] = neg
    packed = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view("<u8").reshape(nrows, words)


def _bfs_levels(rs):
    """Yield (length, acts) per level of the right weak order, each element once.

    Canonical generation (Bjorner-Brenti, Combinatorics of Coxeter Groups,
    ch. 3): every u != e has the one parent u*s with s = min D_R(u), so w
    is extended by s only when s is an ascent of w and no t < s is a right
    descent of w*s.  Since act_ws[t] = act_w[perm_s[t]], the second test
    reads act_w alone.  Rows within a level come in generation order.
    """
    order = group_order(rs.label)
    if order > DEFAULT_ENUM_CAP:
        raise ValueError(
            f"group order {order} of {rs.label} exceeds enumeration cap {DEFAULT_ENUM_CAP}"
        )
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
    acts = np.arange(1, N + 1, dtype=dtype).reshape(1, N)
    length = 0
    total = 0
    while len(acts):
        total += len(acts)
        yield length, acts
        pos = acts[:, :head] > 0
        # no chunk or row mask outlives the concatenation
        chunks = []
        for s in range(n):
            sub = acts[pos[:, guards[s]].all(axis=1)].take(perms[s], axis=1)
            sub[:, s] = -sub[:, s]
            chunks.append(sub)
        acts = np.concatenate(chunks, axis=0)
        del chunks, sub
        length += 1
    if total != order:
        raise RuntimeError(f"{rs.label}: walk visited {total} elements, expected {order}")


def _sorted_levels(rs):
    """Yield (length, acts, keys) per level, rows in inversion-set order.

    lexsort's last key is its primary one, so the rows of keys.T run from
    the lowest word to the highest and the bitsets compare as integers.
    """
    for length, acts in _bfs_levels(rs):
        keys = _inversion_keys(acts)
        by_set = np.lexsort(keys.T)
        yield length, acts[by_set], keys[by_set]


def enumerate_inversion_sets(rs):
    """ElementRecords in (length, inversion set) order; each level is sorted
    by its packed inversion bitsets."""
    n = rs.rank
    simple_mask = (1 << n) - 1
    for length, acts, keys in _sorted_levels(rs):
        left = np.zeros(len(acts), dtype=np.int64)
        for j in range(n):
            left |= (acts == -(j + 1)).any(axis=1).astype(np.int64) << j
        words = keys.shape[1]
        for r in range(len(acts)):
            inv = 0
            for wdx in range(words):
                inv |= int(keys[r, wdx]) << (64 * wdx)
            yield ElementRecord(
                inversion_set=inv,
                length=length,
                right_descents=inv & simple_mask,
                left_descents=int(left[r]),
            )


def statistics_tally(rs, statistic):
    """Exact histogram of inv, des, or des_plus_ides over the whole group."""
    if statistic not in TALLY_STATISTICS:
        raise ValueError(f"statistic must be one of {TALLY_STATISTICS}, got {statistic!r}")
    n = rs.rank
    N = rs.root_count
    if statistic == "inv":
        counts = [0] * (N + 1)
        for length, acts in _bfs_levels(rs):
            counts[length] = int(len(acts))
        return tuple(counts)
    size = n + 1 if statistic == "des" else 2 * n + 1
    counts = np.zeros(size, dtype=np.int64)
    for _, acts in _bfs_levels(rs):
        # right descents: the negative entries among the n simple positions
        vals = (acts[:, :n] < 0).sum(axis=1)
        if statistic == "des_plus_ides":
            # left descents: the entries -1..-n, anywhere in the row; row
            # blocks keep the temporaries to a fixed size
            for lo in range(0, len(acts), _TALLY_BLOCK):
                block = acts[lo:lo + _TALLY_BLOCK]
                vals[lo:lo + _TALLY_BLOCK] += ((block < 0) & (block >= -n)).sum(axis=1)
        counts += np.bincount(vals, minlength=size)
    return tuple(int(c) for c in counts)


# ---------------------------------------------------------------------------
# action vectors as explicit group elements (oracle plumbing)

def identity_action(rs):
    return tuple(range(1, rs.root_count + 1))


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
    """All action vectors, in (length, inversion set) order."""
    for _, acts, _ in _sorted_levels(rs):
        for row in acts:
            yield tuple(int(x) for x in row)
