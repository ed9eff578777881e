"""Statistic-table laboratory: ingest per-size statistic data, summarize
exact moments and normalized cumulants, and guess closed-form rational
formulas by exact Lagrange interpolation.

Datasets hold, per symmetric-group size n, the coefficient histogram
of the statistic; raw per-element values are tallied on ingest.  Summaries
are exact through the variance; normalized cumulants print in the
three-significant-figure table style used throughout the docs, so rows
are string-comparable in tests.

Formula guessing searches V = f(n) / (a n + b)^c over c in 0..5 and,
for c > 0, the canonical denominators: a in {1, 2}, b in {0, +-1, +-2},
gcd(a, b) = 1 (a negative a or a common factor only rescales f).  The
nodes are the same for every candidate, so one integer Lagrange basis
is built per call; a candidate multiplies the data by its denominator,
and f, scaled to integer coefficients, is an integer combination of
that basis.  It is accepted only when deg f is at least three below the
number of points; f then interpolates V (a n + b)^c exactly, and a
candidate with a n + b = 0 at some node is never tried, so the formula
reproduces every point without a further check.  A candidate
whose non-constant f vanishes at n = -b/a is skipped: f / (a n + b) is
the numerator of the candidate with one power less, which is found in
its own right, so every formula comes back once, in lowest terms.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import namedtuple
from fractions import Fraction
from operator import mul, sub
from pathlib import Path

from .elements import des_count, ides_count, inv_count, window_tally
from .moments import moments_from_polynomial
from .polynomials import ExactPolynomial
from .tallies import _warn, write_atomically

__all__ = [
    "StatisticDataset",
    "ingest",
    "builtin_dataset",
    "BUILTIN_STATISTICS",
    "SummaryRow",
    "summarize",
    "format_sig3",
    "RationalFormula",
    "lagrange_guess",
    "fetch_findstat",
    "FINDSTAT_URL",
]

INGEST_FORMATS = ("values_json", "histogram_json", "findstat_csv")
BUILTIN_STATISTICS = ("inv", "des", "ides", "des_plus_ides", "fixed_points")

FINDSTAT_URL = "https://www.findstat.org/StatisticsDatabase/{id}/ValuesExport/"


# ---------------------------------------------------------------------------
# datasets

class StatisticDataset(namedtuple("StatisticDataset", "name histograms group")):
    """Per-size statistic data over symmetric groups.

    histograms[n][k] counts elements of S_n with statistic value k.
    group is the declared family symbol ("S") or None when undeclared.
    Omitted histograms start empty, a fresh dict per dataset.
    """

    __slots__ = ()

    def __new__(cls, name, histograms=None, group=None):
        histograms = {} if histograms is None else histograms
        for n, hist in histograms.items():
            if any(c < 0 for c in hist):
                raise ValueError(f"negative histogram entry at n = {n}")
        return tuple.__new__(cls, (name, histograms, group))

    @property
    def sizes(self):
        return tuple(sorted(self.histograms))


def _tally(values):
    hist = [0] * (max(values) + 1 if values else 1)
    for v in values:
        hist[v] += 1
    return tuple(hist)


def _check_declared_order(group, n, count):
    if group == "S" and count != math.factorial(n):
        raise ValueError(
            f"length mismatch at n = {n}: got {count} values, "
            f"S_{n} has {math.factorial(n)} elements"
        )


def _is_int(value):
    # JSON true and false load as bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def _histogram_row(n, row):
    """JSON integers, or decimal strings for counts too wide for a double."""
    if isinstance(row, list):
        try:
            return tuple(c if _is_int(c) else int(c, 10) for c in row)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"histogram at n = {n} must be a list of integers")


def ingest(path, format):
    """Read a dataset file in one of INGEST_FORMATS."""
    if format not in INGEST_FORMATS:
        raise ValueError(f"format must be one of {INGEST_FORMATS}, got {format!r}")
    path = Path(path)
    if format == "findstat_csv":
        return _ingest_findstat_csv(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    name = doc.get("statistic", path.stem)
    group = doc.get("group")
    key_name = "values" if format == "values_json" else "histogram"
    rows = doc.get(key_name)
    if not isinstance(rows, dict):
        raise ValueError(f'{path}: {format} needs a {key_name!r} object keyed by n')
    hists = {}
    for key, row in rows.items():
        n = int(key)
        if format == "histogram_json":
            hists[n] = _histogram_row(n, row)
            _check_declared_order(group, n, sum(hists[n]))
            continue
        if not (isinstance(row, list) and all(_is_int(v) and v >= 0 for v in row)):
            raise ValueError(f"values at n = {n} must be a list of nonnegative integers")
        _check_declared_order(group, n, len(row))
        hists[n] = _tally(row)
    return StatisticDataset(name, hists, group)


_CSV_ROW = re.compile(r"\[(\d+(?:,\s*\d+)*)\]\s*;\s*(\d+)$")


def _ingest_findstat_csv(path):
    with open(path, encoding="utf-8") as fh:
        return _parse_findstat_csv(path.stem, fh)


def _parse_findstat_csv(name, lines):
    """Two columns "element;value", element in one-line notation, grouped
    by window length."""
    per_size = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _CSV_ROW.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed row {line!r}")
        window = tuple(int(v) for v in m.group(1).split(","))
        n = len(window)
        if sorted(window) != list(range(1, n + 1)):
            raise ValueError(f"line {lineno}: {window} is not a permutation")
        per_size.setdefault(n, []).append(int(m.group(2)))
    hists = {}
    for n, values in sorted(per_size.items()):
        _check_declared_order("S", n, len(values))
        hists[n] = _tally(values)
    return StatisticDataset(name, hists, "S")


def _fixed_points(window):
    return sum(1 for i, v in enumerate(window) if v == i + 1)


def builtin_dataset(statistic, sizes, keyed_by="size"):
    """Enumerated dataset for a built-in statistic on S_n, n in sizes.

    keyed_by selects the table index: the group size n itself, or the
    Coxeter rank n - 1 of the realization.  fixed_points counts i with
    w(i) = i (the standard definition).
    """
    if statistic not in BUILTIN_STATISTICS:
        raise ValueError(f"statistic must be one of {BUILTIN_STATISTICS}")
    if keyed_by not in ("size", "rank"):
        raise ValueError("keyed_by must be size or rank")
    statfn = {
        "inv": inv_count,
        "des": des_count,
        "ides": ides_count,
        "des_plus_ides": lambda w, family: des_count(w, family) + ides_count(w, family),
        "fixed_points": lambda w, family: _fixed_points(w),
    }[statistic]
    hists = {}
    for n in sizes:
        if n < 2:
            raise ValueError("sizes must be at least 2")
        hists[n if keyed_by == "size" else n - 1] = window_tally("A", n, statfn)
    return StatisticDataset(statistic, hists, "S" if keyed_by == "size" else None)


# ---------------------------------------------------------------------------
# summaries

class SummaryRow(namedtuple("SummaryRow", [
    "n",
    "count",
    "mean",                     # Fraction
    "variance",                 # Fraction
    "normalized_cumulants",     # {order: float}
    "formatted",                # format_sig3 of each, orders 3..k_max
    "degenerate",
])):
    __slots__ = ()


def format_sig3(x):
    """Three significant figures in the table style: plain decimals for
    exponents -4 through 5 ("123." from the hundreds up), scientific
    outside."""
    x = float(x)
    if x == 0:
        return "0.000"
    mant, exp = f"{x:.2e}".split("e")
    e = int(exp)
    if not -4 <= e < 6:
        return f"{mant}e{e}"
    places = max(0, 2 - e)
    return f"{float(mant + 'e' + exp):.{places}f}" + ("" if places else ".")


def summarize(ds, k_max=8):
    """Per-size moment rows: exact mean and variance, normalized
    cumulants 3..k_max as floats plus their printed forms.  Zero
    variance flags the row and omits the cumulants."""
    if not ds.histograms:
        raise ValueError("dataset has no histograms")
    rows = []
    for n in ds.sizes:
        f = ExactPolynomial(ds.histograms[n])
        summary = moments_from_polynomial(f, k_max=k_max)
        degenerate = summary.variance == 0
        norm = {} if degenerate else dict(summary.normalized_cumulants)
        formatted = tuple(
            format_sig3(norm[k]) for k in range(3, k_max + 1)) if norm else ()
        rows.append(SummaryRow(
            n=n, count=sum(ds.histograms[n]), mean=summary.mean,
            variance=summary.variance, normalized_cumulants=norm,
            formatted=formatted, degenerate=degenerate,
        ))
    return rows


# ---------------------------------------------------------------------------
# formula guessing

class RationalFormula(namedtuple("RationalFormula", "numerator a b c")):
    """V(n) = f(n) / (a n + b)^c with f rational-coefficient, c >= 0."""

    __slots__ = ()

    def evaluate(self, n):
        n = Fraction(n)
        num = Fraction(0)
        for co in reversed(self.numerator):
            num = num * n + co
        if self.c == 0:
            return num
        return num / Fraction(self.a * n + self.b) ** self.c

    @property
    def degree(self):
        return len(self.numerator) - 1

    def __str__(self):
        num = _poly_str(self.numerator)
        if self.c == 0:
            return num
        head = f"({num})" if ("+" in num or " - " in num) else num
        an = f"{self.a}*n" if self.a != 1 else "n"
        if self.b:
            den = f"({an} {'+' if self.b > 0 else '-'} {abs(self.b)})"
        else:
            den = f"({an})"
        power = f"^{self.c}" if self.c > 1 else ""
        return f"{head}/{den}{power}"


def _poly_str(coeffs):
    scale = math.lcm(*(co.denominator for co in coeffs))
    ints = [int(co * scale) for co in coeffs]
    parts = []
    for k in range(len(ints) - 1, -1, -1):
        co = ints[k]
        if co == 0 and not (k == 0 and not parts):
            continue
        mag = abs(co)
        if k == 0:
            term = str(mag)
        else:
            var = "n" if k == 1 else f"n^{k}"
            term = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(term if co >= 0 else f"-{term}")
        else:
            parts.append(f"{'+' if co >= 0 else '-'} {term}")
    body = " ".join(parts)
    if scale == 1:
        return body
    return f"({body})/{scale}" if len(parts) > 1 else f"{body}/{scale}"


def _lagrange_basis(xs):
    """Integer Lagrange basis on distinct integer nodes.

    Returns B_i(x) = prod_{j != i} (x - x_j) as coefficient lists,
    constant first, by synthetic division of the node polynomial, and
    the weights w_i = B_i(x_i); the interpolant of y is sum y_i B_i / w_i.
    """
    node = [1]
    for x in xs:
        node = list(map(sub, [0, *node], [x * co for co in node] + [0]))
    basis = []
    for x in xs:
        acc, quot = 0, []
        for co in reversed(node[1:]):
            acc = co + x * acc
            quot.append(acc)
        basis.append(quot[::-1])
    weights = [math.prod(x - y for y in xs if y != x) for x in xs]
    return basis, weights


def lagrange_guess(points):
    """Rational-form candidates reproducing the points exactly.

    points are (n, exact value) pairs, at least four with distinct
    integral n.  A candidate (a, b, c) is accepted when the interpolated
    numerator has degree at most len(points) - 3 and, for c > 0, is
    constant or nonzero at n = -b/a; results come back sorted by
    (c, |a|, |b|, degree).
    """
    pts = []
    for n, v in points:
        if n != int(n):
            raise ValueError(f"n must be an integer, got {n}")
        pts.append((int(n), Fraction(v)))
    pts.sort()
    if len(pts) < 4:
        raise ValueError("need at least 4 points")
    xs = [n for n, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("points must have distinct n")
    margin = len(pts) - 3
    # with L = scale_l = lcm |w_i| and D = scale_d = lcm of the value
    # denominators, the interpolant f of a candidate (a, b, c) satisfies
    # L D f = sum_i (D v_i) (L / w_i) (a x_i + b)^c B_i, all in integers
    basis, weights = _lagrange_basis(xs)
    scale_l = math.lcm(*weights)
    scale_d = math.lcm(*(v.denominator for _, v in pts))
    units = [v.numerator * (scale_d // v.denominator) * (scale_l // w)
             for (_, v), w in zip(pts, weights)]
    columns = list(zip(*basis))
    found = []
    for c in range(6):
        # a = 0 with c > 0 is a constant denominator, which the (0, 0, 0)
        # candidate already covers; the others are (a, b) up to sign and
        # common factor
        grid = [(0, 0)] if c == 0 else [
            (a, b) for a in (1, 2) for b in (2, 1, 0, -1, -2) if math.gcd(a, b) == 1]
        for a, b in grid:
            if c > 0 and any(a * n + b == 0 for n in xs):
                continue
            ys = [u * (a * x + b) ** c for u, x in zip(units, xs)]
            # leading coefficients first: most candidates fail here
            if any(sum(map(mul, ys, col)) for col in columns[:margin:-1]):
                continue
            poly = [Fraction(sum(map(mul, ys, col)), scale_l * scale_d)
                    for col in columns[:margin + 1]]
            while len(poly) > 1 and poly[-1] == 0:
                poly.pop()
            # a root at -b/a cancels: the smaller c reports this formula
            if c > 0 and len(poly) > 1 and not RationalFormula(
                    tuple(poly), 0, 0, 0).evaluate(Fraction(-b, a)):
                continue
            found.append(RationalFormula(tuple(poly), a, b, c))
    return sorted(found,
                  key=lambda f: (f.c, abs(f.a), abs(f.b), f.degree, f.numerator))


# ---------------------------------------------------------------------------
# FindStat client

def fetch_findstat(statistic_id):
    """Dataset for a FindStat statistic id, via an on-disk cache.

    The cache is $COXSTAT_CACHE/findstat, or ~/.cache/coxstat/findstat
    when the variable is unset.  A cached export is parsed directly.
    Otherwise, or when the cached path cannot be opened (say it is a
    directory), the public export is downloaded (requests, an optional
    dependency), parsed, and written to the cache; when that write fails,
    a RuntimeWarning says so and the dataset is still returned.  Offline
    with no usable cached copy is an explicit error.
    """
    if not re.fullmatch(r"St\d{6}", statistic_id):
        raise ValueError(f"bad statistic id {statistic_id!r}; expected StNNNNNN")
    env = os.environ.get("COXSTAT_CACHE")
    directory = Path(env) if env else Path.home() / ".cache" / "coxstat"
    path = directory / "findstat" / f"{statistic_id}.csv"
    try:
        return _ingest_findstat_csv(path)
    except OSError:
        pass  # a miss, or an entry that cannot be opened: download it
    url = FINDSTAT_URL.format(id=statistic_id)
    try:
        import requests

        resp = requests.get(url, timeout=15)
        resp.raise_for_status()
        payload = resp.content
    except Exception as exc:
        raise RuntimeError(
            f"no cached copy of {statistic_id} at {path} and the "
            f"download failed ({exc}); install the findstat extra and "
            "retry online, or pre-seed the cache"
        ) from exc
    ds = _parse_findstat_csv(statistic_id, payload.decode("utf-8").splitlines())
    try:
        write_atomically(path, payload)
    except OSError as exc:
        _warn(f"could not write FindStat export {path}: {exc}", "findstat")
    return ds
