"""Window models for the classical families A, B, D.

Elements are stored in one-line notation: a window (w(1), ..., w(n)) of
signed integers whose absolute values permute 1..n.  Type A windows are
all positive; type B allows any signs; type D requires an even number of
negative entries.  Note the rank bookkeeping: a type A window of length
n realizes the rank n-1 group A_{n-1}, while B and D windows of length n
realize rank n.

Inversions count the pairs i < j with w(i) > w(j), plus for B and D the
pairs with -w(i) > w(j), plus for B alone the negative entries.  Descents
are read off the window extended on the left by w(0) = 0 (types A and B;
for A this leaves only positions 1..n-1) or w(0) = -w(2) (type D).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .groups import CoxeterDescriptor, group_order

__all__ = [
    "SignedPermutation",
    "RootSubset",
    "identity",
    "simple_reflection",
    "inverse",
    "compose",
    "inv_count",
    "des_count",
    "ides_count",
    "descent_positions",
    "all_positive_roots",
    "st_count",
    "iter_windows",
    "window_tally",
    "enumerate_elements",
    "sample_uniform",
    "parse_one_line",
    "to_one_line",
    "DEFAULT_ELEMENT_CAP",
]

DEFAULT_ELEMENT_CAP = 10 ** 8

_AMBIENT = ("A", "B", "D")


@dataclass(frozen=True)
class SignedPermutation:
    window: tuple[int, ...]
    ambient_type: str

    def __post_init__(self):
        t = self.ambient_type
        if t not in _AMBIENT:
            raise ValueError(f"ambient type must be one of {_AMBIENT}, got {t!r}")
        w = self.window
        n = len(w)
        if n < 1:
            raise ValueError("empty window")
        if sorted(abs(v) for v in w) != list(range(1, n + 1)):
            raise ValueError(f"window {w} is not a signed permutation of 1..{n}")
        neg = sum(1 for v in w if v < 0)
        if t == "A" and neg:
            raise ValueError("type A windows must be all positive")
        if t == "D" and neg % 2 == 1:
            raise ValueError("type D windows need an even number of negative entries")

    def __len__(self):
        return len(self.window)

    def __str__(self):
        return to_one_line(self)


def identity(ambient_type, n):
    return SignedPermutation(tuple(range(1, n + 1)), ambient_type)


def simple_reflection(ambient_type, n, position):
    """Generator at a descent position.

    Positions follow descent_positions: type A uses 1..n-1 (swap at the
    position), types B and D use 0..n-1 where position 0 is the sign
    change w(1) -> -w(1) (type B) or the double move sending the window
    to (-w(2), -w(1), w(3), ...) (type D).
    """
    w = list(range(1, n + 1))
    if position == 0:
        if ambient_type == "B":
            w[0] = -1
        elif ambient_type == "D":
            if n < 2:
                raise ValueError("type D needs length >= 2")
            w[0], w[1] = -2, -1
        else:
            raise ValueError("position 0 is not a type A generator")
    else:
        if not 1 <= position <= n - 1:
            raise ValueError(f"position {position} out of range for length {n}")
        w[position - 1], w[position] = w[position], w[position - 1]
    return SignedPermutation(tuple(w), ambient_type)


def inverse(p):
    n = len(p.window)
    out = [0] * n
    for i, v in enumerate(p.window, start=1):
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
    return SignedPermutation(tuple(out), p.ambient_type)


def compose(p, q):
    """(p * q)(i) = p(q(i))."""
    if p.ambient_type != q.ambient_type or len(p) != len(q):
        raise ValueError("can only compose windows of the same type and length")
    u = p.window
    out = []
    for x in q.window:
        y = u[abs(x) - 1]
        out.append(y if x > 0 else -y)
    return SignedPermutation(tuple(out), p.ambient_type)


# ---------------------------------------------------------------------------
# statistics

def inv_count(p):
    """Coxeter length of the element in its own group."""
    w = p.window
    n = len(w)
    signed = p.ambient_type in ("B", "D")
    total = 0
    for i in range(n):
        wi = w[i]
        for j in range(i + 1, n):
            if wi > w[j]:
                total += 1
            if signed and -wi > w[j]:
                total += 1
    if p.ambient_type == "B":
        total += sum(1 for v in w if v < 0)
    return total


def descent_positions(p):
    w = p.window
    n = len(w)
    if p.ambient_type == "A":
        return tuple(i for i in range(1, n) if w[i - 1] > w[i])
    if p.ambient_type == "D" and n < 2:
        raise ValueError("type D descents need length >= 2")
    head = 0 if p.ambient_type == "B" else -w[1]
    seq = (head,) + w
    return tuple(i for i in range(n) if seq[i] > seq[i + 1])


def des_count(p):
    return len(descent_positions(p))


def ides_count(p):
    return des_count(inverse(p))


# ---------------------------------------------------------------------------
# root subsets and the interpolating statistics

_ROOT_KINDS = {"A": ("plus",), "B": ("plus", "minus", "circ"), "D": ("plus", "minus")}


@dataclass(frozen=True)
class RootSubset:
    """A subset of the positive roots available to the ambient type.

    Members are tagged tuples: ("plus", i, j) and ("minus", i, j) with
    1 <= i < j <= n, and ("circ", i) with 1 <= i <= n (type B only).
    """

    ambient_type: str
    length: int
    members: frozenset

    def __post_init__(self):
        allowed = _ROOT_KINDS.get(self.ambient_type)
        if allowed is None:
            raise ValueError(f"ambient type must be one of {_AMBIENT}")
        n = self.length
        for item in self.members:
            kind = item[0]
            if kind not in allowed:
                raise ValueError(f"root kind {kind!r} not available in type {self.ambient_type}")
            if kind == "circ":
                if not (len(item) == 2 and 1 <= item[1] <= n):
                    raise ValueError(f"bad root {item}")
            else:
                if not (len(item) == 3 and 1 <= item[1] < item[2] <= n):
                    raise ValueError(f"bad root {item}")


def all_positive_roots(ambient_type, n):
    members = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            members.add(("plus", i, j))
            if ambient_type in ("B", "D"):
                members.add(("minus", i, j))
        if ambient_type == "B":
            members.add(("circ", i))
    return RootSubset(ambient_type, n, frozenset(members))


def st_count(p, subset):
    """Number of roots in the subset inverted by the window.

    With the full positive system this is inv_count; smaller subsets
    interpolate between there and zero.
    """
    if subset.ambient_type != p.ambient_type or subset.length != len(p):
        raise ValueError("root subset does not match the element's type and length")
    w = p.window
    total = 0
    for item in subset.members:
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
    """Histogram of statfn over every window: counts for 0..max value."""
    counts = {}
    for window in iter_windows(family, length):
        k = statfn(SignedPermutation(window, family))
        counts[k] = counts.get(k, 0) + 1
    return tuple(counts.get(k, 0) for k in range(max(counts) + 1))


def _family_window_length(d):
    if not isinstance(d, CoxeterDescriptor) or not d.is_irreducible:
        raise ValueError("element enumeration needs a single classical factor")
    lab = d.factors[0]
    if lab.family == "A":
        return "A", lab.rank + 1
    if lab.family in ("B", "D"):
        return lab.family, lab.rank
    raise ValueError(f"{lab} has no window model; only families A, B, D do")


def enumerate_elements(d):
    """SignedPermutations of an irreducible classical descriptor, in order."""
    family, length = _family_window_length(d)
    order = group_order(d)
    if order > DEFAULT_ELEMENT_CAP:
        raise ValueError(
            f"group order {order} exceeds enumeration cap {DEFAULT_ELEMENT_CAP}")
    for w in iter_windows(family, length):
        yield SignedPermutation(w, family)


def sample_uniform(d, rng_seed):
    """One uniform element, deterministic in the seed (Fisher-Yates)."""
    family, length = _family_window_length(d)
    rng = random.Random(rng_seed)
    vals = list(range(1, length + 1))
    for i in range(length - 1, 0, -1):
        j = rng.randrange(i + 1)
        vals[i], vals[j] = vals[j], vals[i]
    if family != "A":
        for i in range(length):
            if rng.randrange(2):
                vals[i] = -vals[i]
        if family == "D" and sum(1 for v in vals if v < 0) % 2 == 1:
            k = next(i for i, v in enumerate(vals) if abs(v) == 1)
            vals[k] = -vals[k]
    return SignedPermutation(tuple(vals), family)


# ---------------------------------------------------------------------------
# one-line text form

def parse_one_line(text, ambient_type):
    """Parse "[2,-5,1]" or "2,-5,1" into a SignedPermutation."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    try:
        window = tuple(int(part) for part in s.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"bad one-line notation {text!r}") from exc
    if not window:
        raise ValueError(f"bad one-line notation {text!r}")
    return SignedPermutation(window, ambient_type)


def to_one_line(p):
    return "[" + ",".join(str(v) for v in p.window) + "]"
