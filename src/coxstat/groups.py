"""Finite Coxeter groups as multisets of irreducible factors.

A group is a CoxeterDescriptor: a canonically sorted product of labels
from the classification A_n, B_n, D_n, E6, E7, E8, F4, H3, H4, I2(m).
No presentation is stored; everything the closed-form layer consumes
(degrees, order, Coxeter number, the largest edge label m_max) is read
off per-factor tables.  The Coxeter diagram itself is written down once,
in coxeter_edges, which the reflection realizations in rootsys read.

>>> d = parse_descriptor("A1^3 x I2(5)")
>>> rank(d), group_order(d)
(5, 80)
>>> degrees(d)
(2, 2, 2, 2, 5)
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

__all__ = [
    "IrreducibleLabel",
    "CoxeterDescriptor",
    "TRIVIAL",
    "irreducible",
    "descriptor",
    "parse_descriptor",
    "degrees",
    "rank",
    "group_order",
    "coxeter_number",
    "positive_root_count",
    "m_max",
    "coxeter_edges",
]

_FAMILIES = ("A", "B", "D", "E", "F", "H", "I2")

# The exceptional families: their valid ranks are the keys
_EXCEPTIONAL_DEGREES = {
    "E": {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
          8: (2, 8, 12, 14, 18, 20, 24, 30)},
    "F": {4: (2, 6, 8, 12)},
    "H": {3: (2, 6, 10), 4: (2, 12, 20, 30)},
}


class IrreducibleLabel(namedtuple("IrreducibleLabel", "family rank m")):
    """One irreducible factor. ``m`` is the edge label, I2 only."""

    __slots__ = ()

    def __new__(cls, family, rank, m=None):
        f, n = family, rank
        if f not in _FAMILIES:
            raise ValueError(f"unknown family {f!r}")
        if f != "I2" and m is not None:
            raise ValueError(f"parameter m is only meaningful for I2, got {f}")
        if f == "A":
            if n < 1:
                raise ValueError(f"A{n} is not a valid label; rank must be >= 1")
        elif f == "B":
            if n < 2:
                raise ValueError(
                    f"B{n} is not a valid label; B1 degenerates to A1, rank must be >= 2"
                )
        elif f == "D":
            if n < 4:
                hint = {2: "A1^2", 3: "A3"}.get(n, "")
                extra = f"; D{n} degenerates to {hint}" if hint else ""
                raise ValueError(f"D{n} is not a valid label{extra}; rank must be >= 4")
        elif f in _EXCEPTIONAL_DEGREES:
            if n not in _EXCEPTIONAL_DEGREES[f]:
                *most, last = map(str, _EXCEPTIONAL_DEGREES[f])
                ranks = f"{', '.join(most)} or {last}" if most else last
                raise ValueError(f"{f}{n} is not a valid label; rank must be {ranks}")
        else:  # I2
            if n != 2:
                raise ValueError("I2 labels have rank 2")
            if m is None:
                raise ValueError("I2 requires an edge label m")
            if m == 2:
                raise ValueError("I2(2) is not a valid label; it degenerates to A1 x A1")
            if m < 2:
                raise ValueError(
                    f"I2({m}) is not a valid label; m must be >= 3 (I2(1) degenerates to A1)"
                )
        return tuple.__new__(cls, (f, n, m))

    def __str__(self):
        if self.family == "I2":
            return f"I2({self.m})"
        return f"{self.family}{self.rank}"

    @property
    def sort_key(self):
        return (self.family, self.rank, self.m or 0)


def irreducible(family, rank, m=None):
    """Validated IrreducibleLabel constructor."""
    return IrreducibleLabel(family, rank, m)


class CoxeterDescriptor(namedtuple("CoxeterDescriptor", "factors")):
    """A finite Coxeter group as a sorted multiset of irreducible factors."""

    __slots__ = ()

    def __new__(cls, factors=()):
        return tuple.__new__(cls, (tuple(sorted(factors, key=lambda f: f.sort_key)),))

    def __mul__(self, other):
        if not isinstance(other, CoxeterDescriptor):
            return NotImplemented
        return CoxeterDescriptor(self.factors + other.factors)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("descriptor powers must be nonnegative integers")
        return CoxeterDescriptor(self.factors * k)

    @property
    def is_trivial(self):
        return not self.factors

    @property
    def is_irreducible(self):
        return len(self.factors) == 1

    def __str__(self):
        if not self.factors:
            return "1"
        runs = []
        for f in self.factors:
            if runs and runs[-1][0] == f:
                runs[-1][1] += 1
            else:
                runs.append([f, 1])
        return " x ".join(str(f) if k == 1 else f"{f}^{k}" for f, k in runs)


TRIVIAL = CoxeterDescriptor(())


def descriptor(*factors):
    """Descriptor from labels and/or (family, rank[, m]) tuples."""
    out = []
    for f in factors:
        if isinstance(f, IrreducibleLabel):
            out.append(f)
        else:
            out.append(IrreducibleLabel(*f))
    return CoxeterDescriptor(tuple(out))


_FACTOR_RE = re.compile(r"(A|B|D|E|F|H)(\d+)|I2\((\d+)\)", re.ASCII)


def parse_descriptor(text):
    """Parse "A5", "B3 x A1^2", "I2(7)", case and whitespace insensitive.

    >>> parse_descriptor("b3 X a1 ^ 2").factors[0].family
    'A'
    """
    compact = "".join(text.split()).upper()
    if not compact:
        raise ValueError("empty group descriptor")
    factors = []
    for part in compact.split("X"):
        if not part:
            raise ValueError(f"empty factor in descriptor {text!r}")
        power = 1
        if "^" in part:
            part, _, exp = part.partition("^")
            if not exp.isdigit() or int(exp) < 1:
                raise ValueError(f"bad power {exp!r} in descriptor {text!r}")
            power = int(exp)
        m = _FACTOR_RE.fullmatch(part)
        if m is None:
            raise ValueError(f"unrecognized factor {part!r} in descriptor {text!r}")
        if m.group(3) is not None:
            label = IrreducibleLabel("I2", 2, int(m.group(3)))
        else:
            label = IrreducibleLabel(m.group(1), int(m.group(2)))
        factors.extend([label] * power)
    return CoxeterDescriptor(tuple(factors))


def as_descriptor(d):
    """Coerce a descriptor string, a single label, or a descriptor."""
    if isinstance(d, str):
        return parse_descriptor(d)
    if isinstance(d, IrreducibleLabel):
        return CoxeterDescriptor((d,))
    return d


# ---------------------------------------------------------------------------
# per-factor tables

def irreducible_degrees(label):
    """Degrees of the fundamental invariants, one irreducible factor."""
    f, n = label.family, label.rank
    if f == "A":
        return tuple(range(2, n + 2))
    if f == "B":
        return tuple(2 * i for i in range(1, n + 1))
    if f == "D":
        return tuple(2 * i for i in range(1, n)) + (n,)
    if f in _EXCEPTIONAL_DEGREES:
        return _EXCEPTIONAL_DEGREES[f][n]
    return (2, label.m)


def coxeter_number(label):
    """Largest degree of an irreducible factor."""
    return max(irreducible_degrees(label))


def degrees(d):
    """Sorted degree multiset of a descriptor (empty for the trivial group)."""
    if isinstance(d, IrreducibleLabel):
        return tuple(sorted(irreducible_degrees(d)))
    out = []
    for f in d.factors:
        out.extend(irreducible_degrees(f))
    return tuple(sorted(out))


def rank(d):
    return sum(f.rank for f in d.factors)


def group_order(d):
    if isinstance(d, IrreducibleLabel):
        return math.prod(irreducible_degrees(d))
    return math.prod(degrees(d))


def positive_root_count(d):
    return sum(v - 1 for v in degrees(d))


# The edges drawn with a label, keyed by their index along the diagram's
# chain (negative indices count from its end); every other edge is
# labelled 3.  I2(m) carries its m on its one edge.
_LABELLED_EDGES = {"B": {-1: 4}, "F": {1: 4}, "H": {0: 5}}


def _labelled_edges(label):
    if label.family == "I2":
        return {0: label.m}
    return _LABELLED_EDGES.get(label.family, {})


def coxeter_edges(label):
    """Coxeter-diagram edges (a, b, m) of one factor, over simple positions.

    Pairs not listed commute (m = 2).  The positions and the orientation
    of each edge are those of the reflection realization in rootsys: on
    a crystallographic double bond (m = 4), b is the short root.  The
    diagram is a chain through positions 0, 1, ..., n-1, with two
    exceptions: E6-E8 run the chain through 0, 2, 3, ... and hang
    position 1 off position 3; D_n ends the chain at n-2 and hangs n-1
    off n-3.

    >>> coxeter_edges(irreducible("B", 3))
    [(0, 1, 3), (1, 2, 4)]
    """
    f, n = label.family, label.rank
    if f == "E":
        chain, branch = [0, 2, 3, 4, 5, 6, 7][: n - 1], [(1, 3, 3)]
    elif f == "D":
        chain, branch = range(n - 1), [(n - 3, n - 1, 3)]
    else:
        chain, branch = range(n), []
    edges = [(a, b, 3) for a, b in zip(chain, chain[1:])]
    for i, m in _labelled_edges(label).items():
        edges[i] = edges[i][:2] + (m,)
    return edges + branch


def factor_m_max(label):
    """Largest Coxeter-diagram edge label within one factor of rank >= 2.

    Read off the labelled edges alone, so it costs the same at any rank.
    """
    return max([3, *_labelled_edges(label).values()])


def m_max(d):
    """Largest edge label of the full diagram, counting cross-factor pairs.

    Any two simple reflections in distinct factors commute, contributing
    edge label 2, so a reducible group always has m_max >= 2.
    """
    if rank(d) < 2:
        raise ValueError("m_max undefined below rank 2")
    candidates = []
    if len(d.factors) >= 2:
        candidates.append(2)
    for f in d.factors:
        if f.rank >= 2:
            candidates.append(factor_m_max(f))
    return max(candidates)
