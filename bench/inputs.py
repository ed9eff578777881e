"""Seeded operation streams for the three workloads.

Each workload is a sequence of rounds.  A round is a fixed list of slots,
each slot an operation kind with a size band; the seed picks which
descriptor fills each slot and the order inside the round, and sizes are
stratified across rounds (_Strata), so every round costs about the same.
A run executes whole rounds until its time is up, so the mix of kinds,
and with it the shape of the latency distribution, is the same in every
run.  Operations are plain dicts, so the same seed gives byte-identical
inputs.

exact_kernels never repeats a descriptor within a run: a memo cache in the
program cannot pass for a kernel speed-up.  Its sizes stop where the
program is exact and terminates quickly at this baseline:

* descent roots stop near total rank 20 because root isolation on a
  dyadic grid fails ("real-rootedness not confirmed") at A30 and B30
  after more than 60 s per call, and B18 or D18 already take about 2 s;
  ROADMAP item 3 is where that failure gets fixed and tested.
* llt on descents stops at A169 because llt_sup_distance raises
  OverflowError from A170 on (ROADMAP item 4).  The traced run probes
  A170-A220 outside the timed operations and counts the failures in
  limits.llt_failed, so the defect stays visible.
"""

from __future__ import annotations

import random

from reference import group_text, positive_roots, rank

EXACT_KERNELS = "exact_kernels"
WALK_COLD = "walk_cold"
CLI_MIX = "cli_mix"
WORKLOADS = (CLI_MIX, EXACT_KERNELS, WALK_COLD)

LLT_DEFECT_PROBE = ("A170", "A200", "A220")


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# exact_kernels

# positive-root counts (= gf_inv degrees); the schoolbook product costs
# about N^2, so a slot's cost is fixed by N while its factors vary
_GF_INV_TARGETS = (300, 800, 1500, 2500)
# A ranks of gf_des and llt never overlap: no descriptor repeats across kinds
_GF_DES_BANDS = ((50, 100), (170, 230), (240, 300))
_ROOT_SLOTS = (("A", 10, 13), ("A", 14, 16), ("B", 10, 13), ("D", 8, 13))
_LLT_BANDS = ((17, 49), (101, 135), (136, 169))
_MIN_RANK = {"A": 1, "B": 2, "D": 4}


_TRIES = 2000


class Exhausted(Exception):
    """A slot has no distinct input left; the run ends after its last
    whole round."""


class _Strata:
    """Stratified sizes: over any 8 consecutive rounds a slot takes one
    value from each eighth of its band (in a seeded order), so every run
    sees nearly the same sizes whatever the seed."""

    def __init__(self, rng):
        self.rng = rng
        self.round = 0
        self.offset = {}

    def pick(self, slot, lo, hi):
        n = hi - lo + 1
        strata = min(8, n)
        if slot not in self.offset:
            self.offset[slot] = self.rng.randrange(strata)
        s = (self.round + self.offset[slot]) % strata
        return lo + int((s + self.rng.random()) * n / strata)


def _gf_inv_group(rng, target):
    """Classical factors plus one I2 filler with exactly `target` positive
    roots and total rank 20..90, or None."""
    factors = []
    left = target
    for share in sorted(rng.random() for _ in range(rng.randint(1, 3))):
        family = rng.choice("ABD")
        budget = int(left * (0.5 + share / 2))
        r = _MIN_RANK[family]
        while positive_roots([(family, r + 1)]) <= budget:
            r += 1
        if positive_roots([(family, r)]) > budget:
            continue
        factors.append((family, r))
        left -= positive_roots([(family, r)])
    if left > target // 4:
        return None
    factors += [("I2", left)] if left >= 3 else [("A", 1)] * left
    factors = tuple(sorted(factors))
    return factors if 20 <= rank(factors) <= 90 else None


def _filler(rng, budget):
    """Small classical factors of total rank at most `budget`."""
    out = []
    for _ in range(rng.randint(0, 3)):
        choices = [("A", r) for r in range(1, 6)] + [("B", r) for r in (2, 3, 4)] + [("D", 4)]
        choices = [f for f in choices if f[1] <= budget]
        if not choices:
            break
        f = rng.choice(choices)
        out.append(f)
        budget -= f[1]
    return out


def _exact_kernels_round(strata, used):
    rng = strata.rng

    def draw(make):
        for _ in range(_TRIES):
            key = make()
            if key is not None and key not in used:
                used.add(key)
                return key
        raise Exhausted

    def single(family, lo, hi):
        return group_text(draw(lambda: ((family, strata.pick((family, lo), lo, hi)),)))

    def with_filler(family, lo, hi, max_rank):
        def make():
            main = (family, strata.pick(("main", family, lo), lo, hi))
            return tuple(sorted([main] + _filler(rng, max_rank - main[1])))
        return group_text(draw(make))

    def window(kind, lo_band, hi_band, slot=0):
        return draw(lambda: (kind, rng.randint(*lo_band),
                             strata.pick((kind, slot), *hi_band)))[1:]

    ops = []
    for target in _GF_INV_TARGETS:
        ops.append({"kind": "gf_inv",
                    "group": group_text(draw(lambda: _gf_inv_group(rng, target)))})
    for family in "ABD":
        for lo, hi in _GF_DES_BANDS:
            ops.append({"kind": "gf_des", "group": single(family, lo, hi)})
    for family, lo, hi in _ROOT_SLOTS:
        ops.append({"kind": "root_bag", "group": with_filler(family, lo, hi, 20)})
    for lo, hi in _LLT_BANDS:
        ops.append({"kind": "llt_des", "group": single("A", lo, hi)})
    for slot in range(2):
        lo, hi = window("prod(I2(i), i=1..n)", (5, 15), (340, 360), slot)
        ops.append({"kind": "clt_des", "spec": "prod(I2(i), i=1..n)", "lo": lo, "hi": hi})
    for family in "ABD":
        lo, hi = window(f"{family}(n)", (5, 15), (150, 300))
        ops.append({"kind": "clt_inv", "spec": f"{family}(n)", "lo": lo, "hi": hi})
    two = draw(lambda: tuple(sorted((rng.choice("ABD"), rng.randint(10, 30)) for _ in range(2))))
    ops.append({"kind": "lindeberg", "group": group_text(two), "statistic": "inv",
                "epsilon": rng.choice(("1/10", "1/4", "1/2"))})
    ops.append({"kind": "lindeberg", "group": with_filler(rng.choice("AB"), 8, 11, 14),
                "statistic": "des", "epsilon": rng.choice(("0.1", "0.25", "0.5"))})
    for statistic, start_band in (("des", (2, 40)), ("inv", (2, 25))):
        points, start = window("interp " + statistic, (7, 9), start_band)
        ops.append({"kind": "interp", "statistic": statistic, "start": start, "points": points})
    rng.shuffle(ops)
    strata.round += 1
    return ops


# ---------------------------------------------------------------------------
# walk_cold

_WALK_EXCEPTIONAL = ("E6", "F4", "H3", "H4")
_WALK_CLASSICAL = tuple(f"A{r}" for r in range(3, 8)) + tuple(
    f"B{r}" for r in range(3, 7)) + tuple(f"D{r}" for r in range(4, 7))


def _walk_cold_round(rng, first):
    ops = []
    groups = list(_WALK_EXCEPTIONAL) + [f"I2({m})" for m in rng.sample(range(3, 41), 3)]
    for group in groups:
        for statistic in ("des", "des+ides"):
            ops.append({"kind": "walk", "group": group, "statistic": statistic})
    for group in _WALK_CLASSICAL:
        ops.append({"kind": "walk", "group": group, "statistic": "des+ides"})
    if first:
        ops += [{"kind": "walk", "group": "E7", "statistic": s} for s in ("des", "des+ides")]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli_mix

# every tally a cli_mix command can need; set-up writes them all to disk
CLI_EXCEPTIONAL = ("E6", "F4", "H3", "H4") + tuple(f"I2({m})" for m in range(5, 13))
CLI_CLASSICAL_DES = ("A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "D4", "D5")
CLI_SMALL_FACTORS = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4")
CLI_ENUMERATE = ("A4", "B3", "D4", "H3", "F4", "E6")


def cli_prefill():
    """(group, statistic) calls set-up makes so that the program writes
    every tally a cli_mix command can need to the disk cache."""
    pairs = [(g, "des") for g in CLI_EXCEPTIONAL if not g.startswith("I2")]
    pairs += [(g, "des+ides") for g in CLI_EXCEPTIONAL + CLI_SMALL_FACTORS]
    return pairs


def _small_product(rng):
    return " x ".join(sorted(rng.sample(CLI_SMALL_FACTORS, rng.randint(1, 2))))


def _cli_mix_round(rng):
    exc = rng.choice(CLI_EXCEPTIONAL)
    lo = rng.randint(5, 15)
    ops = [
        ["gf", "--group", "E6", "--stat", "des"],
        ["gf", "--group", exc, "--stat", "des+ides"],
        ["gf", "--group", rng.choice(CLI_CLASSICAL_DES), "--stat", "des"],
        ["gf", "--group", _small_product(rng), "--stat", "inv"],
        ["gf", "--group", _small_product(rng), "--stat", "des+ides"],
        ["moments", "--group", rng.choice(CLI_CLASSICAL_DES), "--stat", "des"],
        ["moments", "--group", rng.choice(CLI_EXCEPTIONAL + CLI_CLASSICAL_DES),
         "--stat", "inv"],
        ["llt", "--group", rng.choice(CLI_EXCEPTIONAL + CLI_CLASSICAL_DES), "--stat", "inv"],
        ["clt", "--spec", rng.choice(("A(n)", "B(n)", "D(n)")), "--stat", "inv",
         "--range", f"{lo}..{rng.randint(30, 60)}"],
        ["clt", "--spec", "prod(I2(i), i=1..n)", "--stat", "des",
         "--range", f"{lo}..{rng.randint(30, 80)}"],
        ["interp", "--input", "{interp}", "--format", "histogram_json",
         "--target", "variance"],
        ["enumerate", "--group", rng.choice(CLI_ENUMERATE),
         "--limit", str(rng.randint(5, 30))],
        ["verify", "--suite", "quick"],
        ["verify", "--suite", "full"],
    ]
    ops = [{"kind": "cli", "argv": argv} for argv in ops]
    for op in ops:
        if op["argv"][0] == "interp":
            op["interp"] = {"statistic": "des", "start": rng.randint(2, 12), "points": 7}
    rng.shuffle(ops)
    return ops


def rounds(workload, seed):
    """The rounds of a workload: endless, except that exact_kernels ends
    when a slot runs out of distinct inputs, after 27 to 32 rounds; a run
    needs about 7 at this baseline."""
    rng = _rng(workload, seed)
    strata = _Strata(rng)
    used = set()
    k = 0
    while True:
        if workload == EXACT_KERNELS:
            try:
                yield _exact_kernels_round(strata, used)
            except Exhausted:
                return
        elif workload == WALK_COLD:
            yield _walk_cold_round(rng, k == 0)
        elif workload == CLI_MIX:
            yield _cli_mix_round(rng)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        k += 1
