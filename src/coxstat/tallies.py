"""Tally cache: exact histograms per process and, optionally, on disk.

cached_tally returns the histogram of inv, des or des_plus_ides over one
irreducible factor.  It looks in a per-process dict first, then in a
binary file under $COXSTAT_CACHE/tallies when that variable is set.  A
file is used only when it opens and its length, sum, symmetry, mean and
variance can belong to the tally; otherwise, and on a miss, the caller's
builder computes the tally (polynomials passes its committed E, F and
H rows and its two-sided kernel), and the file is (re)written either
way.  The module never walks.
"""

from __future__ import annotations

import os
import struct
import warnings
from fractions import Fraction

from .groups import IrreducibleLabel, group_order, positive_root_count
from .moments import double_eulerian_moments, eulerian_moments, mahonian_moments

__all__ = ["cached_tally", "read_tally_file", "write_tally_file"]


_MEMORY_TALLIES: dict[tuple[IrreducibleLabel, str], tuple[int, ...]] = {}

_CACHE_ENV = "COXSTAT_CACHE"


def _tally_path(dirp, label, statistic):
    safe = str(label).replace("(", "_").replace(")", "")
    return os.path.join(dirp, f"{safe}.{statistic}.tally")


def write_tally_file(path, counts):
    """Length-prefixed little-endian big integers: u32 count, then per
    coefficient a u32 byte length and the magnitude bytes."""
    blob = bytearray(struct.pack("<I", len(counts)))
    for c in counts:
        if c < 0:
            raise ValueError("tallies are nonnegative")
        raw = c.to_bytes((c.bit_length() + 7) // 8 or 1, "little")
        blob += struct.pack("<I", len(raw)) + raw
    write_atomically(path, blob)


def write_atomically(path, payload):
    """Write payload to path through a temporary file in the same
    directory, then rename it into place.

    Each writer creates its own randomly named temporary, exclusively,
    so two processes that write the same file at once do not race on
    one name.  The temporary ends in ".tmp", so a glob for the final
    suffix never sees it.  (tempfile.mkstemp does the same, but its
    name generator costs a fresh process about 0.3 ms on first use.)
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def read_tally_file(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    (count,) = struct.unpack_from("<I", blob, 0)
    off = 4
    out = []
    for _ in range(count):
        (ln,) = struct.unpack_from("<I", blob, off)
        off += 4
        out.append(int.from_bytes(blob[off:off + ln], "little"))
        off += ln
    if off != len(blob):
        raise ValueError(f"trailing bytes in tally file {path}")
    return tuple(out)


_CLOSED_MOMENTS = {
    "inv": mahonian_moments,
    "des": eulerian_moments,
    "des_plus_ides": double_eulerian_moments,
}


def _tally_defect(label, statistic, counts):
    """Why counts cannot be the tally of statistic over label, or None."""
    degree = {
        "inv": positive_root_count(label),
        "des": label.rank,
        "des_plus_ides": 2 * label.rank,
    }[statistic]
    if len(counts) != degree + 1:
        return f"{len(counts)} coefficients, expected {degree + 1}"
    order = group_order(label)
    if sum(counts) != order:
        return f"coefficients sum to {sum(counts)}, expected |W| = {order}"
    if counts != counts[::-1]:
        return "coefficients are not palindromic"
    mean = Fraction(sum(k * c for k, c in enumerate(counts)), order)
    var = Fraction(sum(k * k * c for k, c in enumerate(counts)), order) - mean ** 2
    want = _CLOSED_MOMENTS[statistic](label)
    if (mean, var) != want:
        return (f"mean {mean} and variance {var}, expected {want[0]} "
                f"and {want[1]}")
    return None


def cached_tally(label, statistic, build):
    """build(label), with a process-level and optional disk cache.

    A disk entry that cannot be opened or parsed, or whose length, sum,
    symmetry, mean or variance cannot belong to the tally, is rebuilt
    and overwritten with a RuntimeWarning; when the overwrite fails too
    (say the entry is a directory), a second RuntimeWarning says so and
    the rebuilt tally is still returned.
    """
    key = (label, statistic)
    hit = _MEMORY_TALLIES.get(key)
    if hit is not None:
        return hit
    env = os.environ.get(_CACHE_ENV)
    dirp = os.path.join(env, "tallies") if env else None
    if dirp is not None:
        path = _tally_path(dirp, label, statistic)
        if os.path.exists(path):
            try:
                counts = read_tally_file(path)
            except (OSError, struct.error, ValueError) as exc:
                defect = f"unreadable ({exc})"
            else:
                defect = _tally_defect(label, statistic, counts)
            if defect is None:
                _MEMORY_TALLIES[key] = counts
                return counts
            _warn(f"rebuilding tally file {path}: {defect}")
    counts = tuple(build(label))
    _MEMORY_TALLIES[key] = counts
    if dirp is not None:
        try:
            write_tally_file(path, counts)
        except OSError as exc:
            _warn(f"could not write tally file {path}: {exc}")
    return counts


def _warn(message, cache="tally"):
    # a "<...>" filename has no source line, so the warning prints as one line
    warnings.warn_explicit(message, RuntimeWarning, f"<coxstat {cache} cache>", 0,
                           module=__name__)
