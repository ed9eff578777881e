"""Tests of the benchmark itself (not of coxstat).

    python3 -m pytest bench

They check that inputs are a pure function of the seed, that the output
checks reject corrupted results, and that every metric the harness prints
is declared in BENCHMARK.json.  The last tests run the harness briefly.
"""

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _rounds(workload, seed, k=4):
    return list(islice(inputs.rounds(workload, seed), k))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert json.dumps(_rounds(workload, 7)) == json.dumps(_rounds(workload, 7))
    assert _rounds(workload, 7) != _rounds(workload, 8)


def test_exact_kernels_never_repeats_an_input():
    ops = [json.dumps(op, sort_keys=True) for r in _rounds(inputs.EXACT_KERNELS, 3, 30) for op in r]
    groups = [json.loads(op).get("group") for op in ops]
    groups = [g for g in groups if g]
    assert len(set(ops)) == len(ops)
    assert len(set(groups)) == len(groups)


def test_exact_kernels_sizes_stay_in_their_bands():
    for op in (op for r in _rounds(inputs.EXACT_KERNELS, 5, 10) for op in r):
        if op["kind"] == "gf_inv":
            factors = ref.parse_group(op["group"])
            assert 20 <= ref.rank(factors) <= 90
            assert ref.positive_roots(factors) in (300, 800, 1500, 2500)
        elif op["kind"] == "root_bag":
            assert ref.rank(ref.parse_group(op["group"])) <= 20
        elif op["kind"] == "llt_des":
            assert ref.rank(ref.parse_group(op["group"])) < 170


def test_reference_matches_known_values():
    assert ref.inv_histogram((("A", 2),)) == [1, 2, 2, 1]
    assert ref.eulerian_numbers(4) == [1, 11, 11, 1]
    assert ref.order((("E", 6),)) == 51840
    assert ref.parse_group("A3 x I2(7)") == (("A", 3), ("I2", 7))


# ---------------------------------------------------------------------------
# the checker rejects corrupted results

E6_DES = [1, 1272, 12183, 24928, 12183, 1272, 1]


def test_check_accepts_a_true_tally():
    checks.check_histogram("E6", "des", E6_DES)


@pytest.mark.parametrize("bad", [
    [1, 1272, 12183, 24928, 12183, 1272, 2],      # sum is not |W|
    [1, 1272, 12183, 24929, 12183, 1271, 1],      # right sum, wrong moments
    [1, 1272, 12183, 24928, 12183, 1273],          # wrong degree
    [2, 1271, 12183, 24928, 12183, 1272, 1],      # not palindromic
])
def test_check_rejects_a_corrupted_tally(bad):
    with pytest.raises(checks.CheckError):
        checks.check_histogram("E6", "des", bad)


def _write_tally(path, counts):
    blob = len(counts).to_bytes(4, "little")
    for c in counts:
        raw = c.to_bytes((c.bit_length() + 7) // 8 or 1, "little")
        blob += len(raw).to_bytes(4, "little") + raw
    path.write_bytes(blob)


def test_check_walk_compares_the_tally_file(tmp_path):
    op = {"kind": "walk", "group": "E6", "statistic": "des"}
    path = tmp_path / "E6.des.tally"
    _write_tally(path, E6_DES)
    checks.check_walk(op, E6_DES, [path])
    _write_tally(path, [1, 1272, 12183, 24928, 12183, 1272, 2])
    with pytest.raises(checks.CheckError):
        checks.check_walk(op, E6_DES, [path])
    _write_tally(path, [1, 1271, 12183, 24930, 12183, 1271, 1])
    with pytest.raises(checks.CheckError):
        checks.check_walk(op, E6_DES, [path])
    path.write_bytes(b"\x07\x00")
    with pytest.raises(checks.CheckError):
        checks.check_walk(op, E6_DES, [path])


def test_check_walk_requires_the_tally_file(tmp_path):
    op = {"kind": "walk", "group": "E6", "statistic": "des"}
    path = tmp_path / "E6.des.tally"
    _write_tally(path, E6_DES)
    with pytest.raises(checks.CheckError):
        checks.check_walk(op, E6_DES, [])
    with pytest.raises(checks.CheckError):
        checks.check_walk(op, E6_DES, [path, path])
    # des on I2(m) is a closed form and needs no tally file
    checks.check_walk({"kind": "walk", "group": "I2(7)", "statistic": "des"}, [1, 12, 1], [])
    with pytest.raises(checks.CheckError):
        checks.check_walk({"kind": "walk", "group": "I2(7)", "statistic": "des+ides"},
                          [1, 0, 12, 0, 1], [])


def test_check_cli_rejects_a_failed_process():
    op = {"kind": "cli", "argv": ["gf", "--group", "E6", "--stat", "des"]}
    stdout = json.dumps(E6_DES) + "\n"
    checks.check_cli(op, 0, stdout)
    with pytest.raises(checks.CheckError):
        checks.check_cli(op, 1, stdout)
    with pytest.raises(checks.CheckError):
        checks.check_cli(op, 0, json.dumps([1, 1272, 12183, 24928, 12183, 1272, 2]) + "\n")
    verify = {"kind": "cli", "argv": ["verify", "--suite", "quick"]}
    checks.check_cli(verify, 0, "ok - a\nok - b\n2/2 checks passed\n")
    with pytest.raises(checks.CheckError):
        checks.check_cli(verify, 0, "ok - a\nFAIL - b: x\n1/2 checks passed\n")


def test_check_exact_rejects_a_wrong_clt_verdict():
    import coxstat

    op = {"kind": "clt_inv", "spec": "A(n)", "lo": 10, "hi": 40}
    checks.check_exact(op, coxstat.clt_check_inv("A(n)", range(10, 41)))
    with pytest.raises(checks.CheckError):
        checks.check_exact(op, coxstat.clt_check_inv("prod(I2(2^i), i=1..n)", range(10, 41)))


# ---------------------------------------------------------------------------
# metric names

def test_end_to_end_names_match_benchmark_json():
    outcomes = [run.Outcome(0.01 * (i + 1), 0.01) for i in range(30)]
    printed = run.end_to_end(outcomes, [1.0, 1.1, 1.2], 1024)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in printed.items()} == declared
    assert all(v["value"] > 0 for v in printed.values())


def test_per_layer_names_match_benchmark_json():
    printed = spans.layer_metrics([], 1, 500.0, 10.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in printed.items()} == declared
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    mapped = {n.replace("*", c) for n in spec["layer_map"] for c in spans.CLI_COMMANDS}
    assert mapped <= set(declared)
    assert set(spec["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_tail_percentile_keeps_ten_samples_beyond():
    p, value, beyond = run.tail_percentile(list(range(1, 201)))
    assert (p, value, beyond) == (95, 190, 10)
    assert run.tail_percentile([3.0] * 5)[0] == 50


def test_busy_counts_nested_calls_of_one_layer_once():
    s = [[0, "a", 0.0, 10.0, None, 0, "", None, False],
         [1, "a", 1.0, 4.0, 0, 0, "", None, False],
         [2, "b", 5.0, 7.0, 0, 0, "", 3, True]]
    assert spans.busy(s) == {"a": (1, 10.0, 0, 0), "b": (1, 2.0, 3, 1)}
    assert spans.self_times(s) == {"a": 5.0 + 3.0, "b": 2.0}


# ---------------------------------------------------------------------------
# short real runs

def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [("exact_kernels", "0"), ("cli_mix", "1")])
def test_short_run_prints_declared_metrics(workload, trace):
    out = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    kind = "end_to_end" if trace == "0" else "per_layer"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[kind]}


def test_traced_cli_run_shows_a_disk_read_for_e6_des():
    _bench(ROOT, "--workload", "cli_mix", "--seed", "2", "--seconds", "1", "--trace", "1")
    doc = json.loads((ROOT / ".bench_out" / "trace-cli_mix-seed2.json").read_text(encoding="utf-8"))
    events = [e["event"] for e in doc["cache_events"]
              if "'E6', '--stat', 'des'" in e["call"] and e["tally"] == "E6 des"]
    assert events and set(events) == {"tally_read"}


def test_traced_walk_run_shows_a_walk_and_a_write_for_e6_des():
    _bench(ROOT, "--workload", "walk_cold", "--seed", "2", "--seconds", "1", "--trace", "1")
    doc = json.loads((ROOT / ".bench_out" / "trace-walk_cold-seed2.json").read_text(encoding="utf-8"))
    events = [e["event"] for e in doc["cache_events"] if e["call"] == "polynomials.gf_des E6"]
    assert events == ["walk+tally_write"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench(tmp_path, "--workload", "exact_kernels", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert "correct" not in out.stdout
