import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import coxstat
from coxstat import cli
from coxstat.cli import main
from coxstat.groups import parse_descriptor
from coxstat.limits import (
    EulerianRow,
    MahonianRow,
    clt_check_des,
    clt_check_inv,
    llt_sup_distance,
)
from coxstat.moments import moments_from_polynomial
from coxstat.polynomials import ExactPolynomial, gf_des, gf_des_plus_ides, gf_inv
from coxstat import tallies
from coxstat.tallies import write_tally_file


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _cli_env(cache):
    """Environment for a coxstat subprocess with its tally cache under cache."""
    env = dict(os.environ, COXSTAT_CACHE=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(coxstat.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# gf

def test_gf_small_row_is_plain_json(capsys):
    rc, out, _ = run(capsys, "gf", "--group", "A2", "--stat", "des")
    assert rc == 0
    assert out.strip() == "[1,4,1]"


def test_gf_matches_oracle_tally(capsys):
    rc, out, _ = run(capsys, "gf", "--group", "B2", "--stat", "inv")
    assert rc == 0
    want = oracles.tally("B", 2, lambda w: oracles.inv_of(w, "B"))
    assert json.loads(out) == want


def test_gf_wide_coefficients_become_strings(capsys):
    rc, out, _ = run(capsys, "gf", "--group", "A20", "--stat", "inv")
    assert rc == 0
    values = json.loads(out)
    assert any(isinstance(v, str) for v in values)
    assert any(isinstance(v, int) for v in values)
    assert [int(v) for v in values] == list(gf_inv(parse_descriptor("A20")).coefficients)
    assert all(abs(v) < 2 ** 53 for v in values if isinstance(v, int))
    assert all(abs(int(v)) >= 2 ** 53 for v in values if isinstance(v, str))
    assert sum(int(v) for v in values) == math.factorial(21)


def test_gf_emit_poly_round_trips(capsys, tmp_path):
    path = tmp_path / "poly.json"
    rc, out, _ = run(capsys, "gf", "--group", "F4", "--stat", "des",
                     "--emit-poly", str(path))
    assert rc == 0
    f = ExactPolynomial.from_json(path.read_text())
    assert f == gf_des(parse_descriptor("F4"))
    assert json.loads(out) == list(f.coefficients)


@pytest.mark.parametrize("corrupt", ["wrong tally", "truncated"])
def test_gf_rebuilds_corrupt_tally_file(tmp_path, corrupt):
    # a separate process, so the warning reaches stderr as the user sees it
    env = _cli_env(tmp_path)
    argv = [sys.executable, "-m", "coxstat.cli", "gf", "--group", "H3", "--stat", "des"]
    first = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert first.stdout.strip() == "[1,59,59,1]" and first.stderr == ""
    path = tmp_path / "tallies" / "H3.des.tally"
    good = path.read_bytes()
    if corrupt == "wrong tally":
        write_tally_file(path, (1, 2, 3))
    else:
        path.write_bytes(good[:7])
    again = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert again.returncode == 0
    assert again.stdout == first.stdout
    lines = again.stderr.splitlines()
    assert len(lines) == 1 and "RuntimeWarning" in lines[0], again.stderr
    assert path.read_bytes() == good


def test_warning_as_error_is_runtime_exit(tmp_path):
    write_tally_file(tmp_path / "tallies" / "H3.des.tally", (1, 2, 3))
    argv = [sys.executable, "-W", "error", "-m", "coxstat.cli",
            "gf", "--group", "H3", "--stat", "des"]
    proc = subprocess.run(argv, env=_cli_env(tmp_path), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_gf_rebuilds_a_tally_entry_it_cannot_open(tmp_path):
    # a directory where the tally file belongs: warn, rebuild, warn that
    # the write-back failed, and leave the directory alone
    argv = [sys.executable, "-m", "coxstat.cli", "gf", "--group", "H3", "--stat", "des"]
    empty = subprocess.run(argv, env=_cli_env(tmp_path / "empty"),
                           capture_output=True, text=True, check=True)
    path = tmp_path / "blocked" / "tallies" / "H3.des.tally"
    path.mkdir(parents=True)
    env = _cli_env(tmp_path / "blocked")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == empty.stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == 2, proc.stderr
    assert all("RuntimeWarning" in line and "H3.des.tally" in line for line in lines)
    assert path.is_dir() and not any(path.parent.glob("*.tmp"))
    strict = subprocess.run([sys.executable, "-W", "error", *argv[1:]], env=env,
                            capture_output=True, text=True)
    assert strict.returncode == 2
    assert strict.stdout == ""
    lines = strict.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), strict.stderr


def test_gf_empty_group_is_usage_error(capsys):
    rc, _, err = run(capsys, "gf", "--group", "", "--stat", "inv")
    assert rc == 2
    assert "error:" in err


def test_missing_required_flag_is_usage_error(capsys):
    rc, _, err = run(capsys, "gf", "--group", "A2")
    assert rc == 2
    assert "--stat" in err


def test_no_subcommand_is_usage_error(capsys):
    rc, _, _ = run(capsys)
    assert rc == 2


# ---------------------------------------------------------------------------
# moments

def test_moments_e6_inversions(capsys):
    rc, out, _ = run(capsys, "moments", "--group", "E6", "--stat", "inv")
    assert rc == 0
    doc = json.loads(out)
    assert doc["mean"] == "18"
    assert doc["variance"] == "29"
    assert doc["group"] == "E6"
    assert doc["cumulants"]["2"] == "29"
    assert set(doc["normalized_cumulants"]) == {"3", "4", "5", "6"}


@pytest.mark.parametrize("k_max", ["2", "6", "8"])
def test_moments_inv_prints_the_histogram_summary(capsys, k_max):
    # the closed-form route prints what the gf_inv histogram gives
    for text in ["A1", "A5", "B4", "D6", "E6", "F4", "H4", "I2(7)",
                 "A3 x I2(7) x B2", "E8"]:
        rc, out, _ = run(capsys, "moments", "--group", text, "--stat", "inv",
                         "--k-max", k_max)
        assert rc == 0
        s = moments_from_polynomial(gf_inv(text), k_max=int(k_max))
        want = {
            "group": str(parse_descriptor(text)),
            "statistic": "inv",
            "mean": str(s.mean),
            "variance": str(s.variance),
            "central_moments": {str(k): str(v) for k, v in s.central_moments.items()},
            "cumulants": {str(k): str(v) for k, v in s.cumulants.items()},
            "normalized_cumulants": {str(k): v for k, v in s.normalized_cumulants.items()},
        }
        assert out == json.dumps(want, separators=(",", ":")) + "\n", text


def test_moments_inv_of_a3000(capsys):
    rc, out, _ = run(capsys, "moments", "--group", "A3000", "--stat", "inv")
    assert rc == 0
    doc = json.loads(out)
    assert doc["mean"] == str(Fraction(3000 * 3001, 4))
    assert doc["central_moments"]["3"] == "0"


def test_moments_rational_encoding(capsys):
    rc, out, _ = run(capsys, "moments", "--group", "A3", "--stat", "des",
                     "--k-max", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["mean"] == "3/2"
    assert doc["variance"] == "5/12"
    assert "5" not in doc["cumulants"]


def test_gf_des_plus_ides_past_the_rank_cap_is_refused(capsys):
    # the two-sided counts stop at rank 100, before any big binomial
    rc, out, err = run(capsys, "gf", "--group", "A3000", "--stat", "des+ides")
    assert (rc, out, err.splitlines()) == (
        2, "", ["error: des+ides of A3000: rank 3000 exceeds the two-sided count cap 100"])


def test_moments_e8_descents_from_the_table(capsys):
    rc, out, _ = run(capsys, "moments", "--group", "E8", "--stat", "des")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["mean"], doc["variance"]) == ("4", "5/6")


def test_gf_e8_des_plus_ides_is_refused_without_the_walk(capsys):
    # E8's des+ides row is not tabulated, and the walk is not tried
    rc, out, err = run(capsys, "gf", "--group", "E8", "--stat", "des+ides")
    assert (rc, out, err.splitlines()) == (
        2, "", ["error: des+ides of E8 is not tabulated"])


# ---------------------------------------------------------------------------
# clt

def test_clt_json_fields(capsys):
    rc, out, _ = run(capsys, "clt", "--spec", "A(n)", "--stat", "inv",
                     "--range", "10..18")
    assert rc == 0
    doc = json.loads(out)
    assert doc["clt_holds"] is True
    assert doc["statistic"] == "inv"
    assert len(doc["per_n"]) == 9
    row = doc["per_n"][0]
    assert row["n"] == 10 and row["rank"] == 10 and row["d_n"] == 11
    assert row["variance"] == "165/4"
    assert 0 < row["ratio"] < 2


def test_clt_order_invariance(capsys):
    spec = "prod(I2(i), i=1..n)"
    rc, out, _ = run(capsys, "clt", "--spec", spec, "--stat", "des",
                     "--range", "10..30")
    assert rc == 0
    doc = json.loads(out)
    assert doc["clt_holds"] is True
    assert doc["conditions"]["dihedral_divergence"] is True
    assert [row["n"] for row in doc["per_n"]] == list(range(10, 31))
    # the report depends on the set of n, not on the order it is given in
    ns = list(range(10, 31))
    shuffled = ns[:]
    random.Random(7).shuffle(shuffled)
    for check in (clt_check_des, clt_check_inv):
        want = check(spec, ns)
        assert check(spec, ns[::-1]) == want
        assert check(spec, shuffled) == want


def test_clt_prints_integers_past_the_digit_limit(tmp_path):
    # the variance of prod(I2(i), i=1..10000) has a denominator of over
    # 4300 digits, beyond the default int/str limit of recent interpreters
    argv = [sys.executable, "-m", "coxstat.cli", "clt", "--spec",
            "prod(I2(i), i=1..n)", "--stat", "des", "--range", "10000..10000"]
    proc = subprocess.run(argv, env=_cli_env(tmp_path), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        row, = json.loads(proc.stdout)["per_n"]
        variance = Fraction(row["variance"])
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
    terms = range(3, 10001)
    lcm = math.lcm(*terms)
    assert variance == Fraction(3, 4) + Fraction(sum(lcm // m for m in terms), lcm)


@pytest.mark.parametrize("stat", ["des", "inv"])
def test_clt_range_from_zero(capsys, stat):
    # n = 0 leaves H3 alone, a valid group, and the table keeps its row
    spec = "prod(A(i)^2, i=1..n) x H3"
    rc, out, err = run(capsys, "clt", "--spec", spec, "--stat", stat, "--range", "0..12")
    assert rc == 0, err
    doc = json.loads(out)
    assert [row["n"] for row in doc["per_n"]] == list(range(13))
    assert doc["per_n"][0]["rank"] == 3
    rc, out, _ = run(capsys, "clt", "--spec", "A(n+8)", "--stat", stat, "--range=-6..0")
    assert rc == 0
    assert [row["n"] for row in json.loads(out)["per_n"]] == list(range(-6, 1))


_CLT_KEYS = {"spec", "statistic", "clt_holds", "symbolic", "rank_increasing",
             "verdict", "rationale", "per_n"}


@pytest.mark.parametrize("stat, keys, row_keys", [
    ("inv", _CLT_KEYS, {"n", "rank", "d_n", "variance", "ratio"}),
    ("des", _CLT_KEYS | {"conditions"},
     {"n", "rank", "variance", "s_n", "dihedral_inverse_sum"}),
])
def test_clt_json_keys_are_pinned(capsys, stat, keys, row_keys):
    rc, out, _ = run(capsys, "clt", "--spec", "A(n)", "--stat", stat, "--range", "3..5")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == keys
    assert set(doc["per_n"][0]) == row_keys
    # each row's keys, in order, are the fields of the report's row records
    record = MahonianRow if stat == "inv" else EulerianRow
    assert [list(row) for row in doc["per_n"]] == [list(record._fields)] * 3
    if stat == "des":
        assert set(doc["conditions"]) == {"rank_to_infinity", "dihedral_divergence"}


def test_clt_stdout_is_pinned():
    # the whole stdout of inv and des, json and table, over five specs:
    # key order, float digits and the table layout
    want = oracles.CLT_STDOUT_PATH.read_text(encoding="utf-8")
    assert oracles.clt_stdout() == want


def test_clt_undecided_spec_is_inconclusive(capsys):
    spec = "prod(I2(n+i), i=1..n)"
    rc, out, _ = run(capsys, "clt", "--spec", spec, "--stat", "inv", "--range", "1..9")
    assert rc == 0
    doc = json.loads(out)
    assert doc["clt_holds"] is None and doc["symbolic"] is None
    assert doc["verdict"] == "inconclusive"
    assert '"clt_holds":null' in out
    rc, out, _ = run(capsys, "clt", "--spec", spec, "--stat", "des", "--range", "1..9",
                     "--emit", "table")
    assert rc == 0
    assert "verdict: inconclusive" in out
    assert "clt_holds: None" in out


def test_clt_table_output(capsys):
    rc, out, _ = run(capsys, "clt", "--spec", "B(n)", "--stat", "des",
                     "--range", "10..16", "--emit", "table")
    assert rc == 0
    assert "s_n" in out.splitlines()[0]
    assert "clt_holds: True" in out


def test_clt_bad_range_is_usage_error(capsys):
    rc, _, err = run(capsys, "clt", "--spec", "A(n)", "--stat", "inv",
                     "--range", "7")
    assert rc == 2
    assert "range" in err


def test_out_of_memory_is_a_runtime_error(capsys, monkeypatch):
    # raised, not provoked: nothing is allocated
    def exhausted(d):
        raise MemoryError

    monkeypatch.setitem(cli._GF, "inv", exhausted)
    rc, out, err = run(capsys, "gf", "--group", "A3", "--stat", "inv")
    assert rc == 2
    assert out == ""
    assert err.splitlines() == ["error: MemoryError"]


def test_clt_bad_spec_is_usage_error(capsys):
    rc, _, err = run(capsys, "clt", "--spec", "Q9", "--stat", "inv",
                     "--range", "4..8")
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("spec, message", [
    # the position and the rest of the spec as typed, spaces and case kept
    ("A(n)  x  Q(n)", "parse error at position 9: 'Q(n)'"),
    ("A(n+)", "unexpected token ')' in expression in 'A(n+)'"),
    ("A(i)", "variable 'i' not available here"),
    ("A(n^(0-1))", "negative exponents are not integers"),
    ("A(n) B(n)", "trailing input 'B' in sequence spec 'A(n) B(n)'"),
    ("N(n)", "unknown family 'N' in sequence spec 'N(n)'"),
    ("Prod(B(i) X A(n))", "expected ',', got 'X' in 'Prod(B(i) X A(n))'"),
    ("A(1 0 X)", "expected ')', got 'X' in 'A(1 0 X)'"),
    ("A(N+X)", "unexpected token 'X' in expression in 'A(N+X)'"),
    ("A(n) 1 0", "trailing input '1 0' in sequence spec 'A(n) 1 0'"),
    ("prod(A(i), i=1..n-3)", "trivial group at n = 3"),
])
def test_clt_spec_errors_are_one_line(capsys, spec, message):
    rc, out, err = run(capsys, "clt", "--spec", spec, "--stat", "inv",
                       "--range", "3..5")
    assert (rc, out, err.splitlines()) == (2, "", [f"error: {message}"])


# ---------------------------------------------------------------------------
# llt

def test_llt_reports_distance(capsys):
    rc, out, _ = run(capsys, "llt", "--group", "B4", "--stat", "des")
    assert rc == 0
    doc = json.loads(out)
    want = llt_sup_distance(gf_des(parse_descriptor("B4")))
    assert doc["distance"] == pytest.approx(want.distance)
    assert doc["degenerate"] is False


def test_llt_past_the_double_range(capsys):
    # |A170| = 171! exceeds the largest double, so the point probabilities
    # must be divided exactly before they are scaled
    rc, out, err = run(capsys, "llt", "--group", "A170", "--stat", "des")
    assert rc == 0, err
    coeffs = gf_des(parse_descriptor("A170")).coefficients
    total = sum(coeffs)
    assert total > sys.float_info.max
    # exact point probabilities on k = -1 .. 171, the support plus one
    # empty lattice point at each end
    probs = [Fraction(0)] + [Fraction(c, total) for c in coeffs] + [Fraction(0)]
    mean = sum(k * p for k, p in enumerate(probs, -1))
    s = math.sqrt(sum((k - mean) ** 2 * p for k, p in enumerate(probs, -1)))
    want = max(abs(s * float(p) - math.exp(-float((k - mean) / s) ** 2 / 2)
                   / math.sqrt(2 * math.pi))
               for k, p in enumerate(probs, -1))
    doc = json.loads(out)
    assert math.isfinite(doc["distance"])
    assert doc["distance"] == pytest.approx(want, rel=1e-12)


def test_arithmetic_error_is_runtime_exit(capsys, monkeypatch):
    import coxstat.limits as limits

    def overflow(f):
        raise OverflowError("int too large to convert to float")

    # llt imports llt_sup_distance from limits when it runs
    monkeypatch.setattr(limits, "llt_sup_distance", overflow)
    rc, out, err = run(capsys, "llt", "--group", "B4", "--stat", "des")
    assert rc == 2
    assert out == ""
    assert "error: int too large" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# interp

def write_values_doc(path, sizes):
    doc = {"statistic": "des", "group": "S", "values": {}}
    for n in sizes:
        doc["values"][str(n)] = [
            oracles.des_of(w, "A") for w in oracles.iter_windows("A", n)]
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_interp_recovers_descent_variance(capsys, tmp_path):
    path = tmp_path / "des.json"
    write_values_doc(path, (4, 5, 6, 7))
    rc, out, _ = run(capsys, "interp", "--input", str(path),
                     "--format", "values_json", "--target", "variance")
    assert rc == 0
    doc = json.loads(out)
    # keyed by window size, so the rank formula (n+2)/12 shifts to (n+1)/12
    assert doc["formulas"] == ["(n + 1)/12"]
    assert doc["rows"][0]["mean"] == "3/2"
    assert doc["rows"][0]["count"] == 24


def test_interp_too_few_points_reports_note(capsys, tmp_path):
    path = tmp_path / "des.json"
    write_values_doc(path, (4, 5))
    rc, out, _ = run(capsys, "interp", "--input", str(path),
                     "--format", "values_json", "--target", "mean")
    assert rc == 0
    doc = json.loads(out)
    assert doc["formulas"] == []
    assert "4" in doc["note"]


@pytest.mark.parametrize("fmt, doc", [
    ("values_json", {"values": {"3": 5}}),
    ("histogram_json", {"histogram": {"3": None}}),
    ("histogram_json", {"histogram": {"3": [[1], 2]}}),
    # JSON true and false load as bool, an int subclass: not counts or values
    ("histogram_json", {"histogram": {"3": [True, True]}}),
    ("values_json", {"values": {"3": [True, False, True]}}),
], ids=["values not a list", "histogram null", "histogram nested list",
        "histogram booleans", "values booleans"])
def test_interp_malformed_rows_exit_2(capsys, tmp_path, fmt, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = run(capsys, "interp", "--input", str(path), "--format", fmt)
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and "n = 3" in err


def test_interp_needs_input_or_fetch(capsys):
    rc, _, _ = run(capsys, "interp", "--target", "mean")
    assert rc == 2


def test_interp_fetch_uses_cache(capsys, tmp_path, monkeypatch):
    lines = ["# seeded"]
    for w in oracles.iter_windows("A", 3):
        lines.append(f"[{','.join(str(v) for v in w)}];{oracles.inv_of(w, 'A')}")
    (tmp_path / "findstat").mkdir()
    (tmp_path / "findstat" / "St000018.csv").write_text("\n".join(lines),
                                                       encoding="utf-8")
    monkeypatch.setenv("COXSTAT_CACHE", str(tmp_path))
    rc, out, _ = run(capsys, "interp", "--fetch", "St000018", "--target", "mean")
    assert rc == 0
    doc = json.loads(out)
    assert doc["statistic"] == "St000018"
    assert doc["rows"][0]["mean"] == "3/2"


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_windows(capsys):
    rc, out, _ = run(capsys, "enumerate", "--group", "A2", "--limit", "100")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "[1,2,3] inv=0 des=0 ides=0"
    assert all("inv=" in line and "ides=" in line for line in lines)


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("D", 4)])
def test_enumerate_prints_every_window_with_its_statistics(capsys, family, rank):
    # the statistics from the definitions, in iter_windows order
    from coxstat.elements import iter_windows

    text = f"{family}{rank}"
    length = rank + 1 if family == "A" else rank
    want = [
        f"[{','.join(map(str, w))}] inv={oracles.inv_of(w, family)} "
        f"des={oracles.des_of(w, family)} ides={oracles.ides_of(w, family)}"
        for w in iter_windows(family, length)
    ]
    assert len(want) == oracles.count_windows(family, length)
    rc, out, _ = run(capsys, "enumerate", "--group", text, "--limit", "100000")
    assert rc == 0
    assert out.splitlines() == want


def test_enumerate_respects_limit(capsys):
    rc, out, _ = run(capsys, "enumerate", "--group", "B3", "--limit", "5")
    assert rc == 0
    assert len(out.strip().splitlines()) == 5


def test_enumerate_reflection_groups(capsys):
    rc, out, _ = run(capsys, "enumerate", "--group", "H3", "--limit", "4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "inversions=0x0 length=0 des=0 ides=0"
    assert len(lines) == 4
    assert all(line.startswith("inversions=0x") for line in lines)


@pytest.mark.parametrize("group", ["A3", "H3"])
def test_enumerate_negative_limit_is_usage_error(capsys, group):
    rc, out, err = run(capsys, "enumerate", "--group", group, "--limit", "-1")
    assert rc == 2
    assert out == ""
    assert err.splitlines() == ["error: --limit must be nonnegative, got -1"]


def test_enumerate_e8_prints_first_records_within_the_cap(capsys):
    # enumerate walks only as far as its limit, so E8 lists its first
    # elements; a limit above the cap is refused before anything is walked
    rc, out, err = run(capsys, "enumerate", "--group", "E8", "--limit", "5")
    assert rc == 0, err
    assert out.splitlines() == ["inversions=0x0 length=0 des=0 ides=0"] + [
        f"inversions={1 << s:#x} length=1 des=1 ides=1" for s in range(4)]
    rc, out, err = run(capsys, "enumerate", "--group", "E8", "--limit", "5000001")
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [
        "error: group order 696729600 of E8 exceeds enumeration cap 5000000"]


def test_enumerate_rejects_products(capsys):
    rc, _, err = run(capsys, "enumerate", "--group", "A2 x A1", "--limit", "3")
    assert rc == 2
    assert "irreducible" in err


# ---------------------------------------------------------------------------
# verify

# the whole stdout of verify is pinned, so that no check can be dropped
# or renamed unnoticed (regenerate with `python tests/oracles.py verify`)


def test_verify_quick_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "quick")
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok - ") for line in lines[:-1])
    assert "checks passed" in lines[-1]
    assert out == oracles.VERIFY_PINS["quick"].read_text(encoding="utf-8")


def test_verify_full_suite_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "full")
    assert rc == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("checks passed")
    assert out == oracles.VERIFY_PINS["full"].read_text(encoding="utf-8")


def test_verify_takes_no_seed(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "quick", "--seed", "0")
    assert rc == 2
    assert out == ""
    assert "--seed" in err


# the cosets suite itself checks A2, A3 and B3
@pytest.mark.parametrize("group", ["D4", "H3", "F4", "I2(7)"])
def test_verify_orbit_total_matches_the_double_coset_sum(group):
    from coxstat.moments import double_coset_sum
    from coxstat.verify import _orbit_total

    d = parse_descriptor(group)
    assert _orbit_total(d.factors[0]) == double_coset_sum(d)


def test_verify_unknown_suite_is_usage_error(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert rc == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "'quick'" in lines[0] and "'full'" in lines[0]


def test_verify_failure_exits_one(capsys, monkeypatch):
    import coxstat.verify as verify

    def broken():
        yield ("forced mismatch", False, "intentional")

    monkeypatch.setitem(verify.SUITES, "quick", broken)
    rc, out, _ = run(capsys, "verify", "--suite", "quick")
    assert rc == 1
    assert "FAIL - forced mismatch" in out


# ---------------------------------------------------------------------------
# pinned stdout of gf, moments, llt and interp over a fixed grid
# (regenerate with `python tests/oracles.py stdout`)

def test_cli_stdout_matches_the_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("COXSTAT_CACHE", raising=False)
    want = oracles.read_stdout_digests()
    got = oracles.stdout_digests(tmp_path)
    assert list(got) == list(want)
    changed = [command for command in want if got[command] != want[command]]
    assert not changed, f"first changed: coxstat {changed[0]} ({len(changed)} in all)"


# ---------------------------------------------------------------------------
# round trip: emitted histograms ingest back unchanged

def test_gf_round_trips_through_ingest(capsys, tmp_path):
    from coxstat.interplab import ingest

    rc, out, _ = run(capsys, "gf", "--group", "B3", "--stat", "des")
    assert rc == 0
    doc = {"statistic": "des",
           "histogram": {"3": [str(v) for v in json.loads(out)]}}
    path = tmp_path / "hist.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    back = ingest(path, "histogram_json")
    assert back.histograms[3] == gf_des(parse_descriptor("B3")).coefficients


# ---------------------------------------------------------------------------
# cold start: commands that do not walk never import numpy or rootsys,
# and each command leaves the coxstat modules it does not use unloaded

_COLD = (
    "import sys\n"
    "unused = sys.argv[1].split(',')\n"
    "from coxstat.cli import main\n"
    "rc = main(sys.argv[2:])\n"
    "loaded = [m for m in unused if m in sys.modules]\n"
    "sys.exit(f'imported {loaded}' if loaded else rc)\n"
)

_NOT_GF = ("coxstat.limits", "coxstat.interplab", "coxstat.elements")
# the records are namedtuples: no coxstat module loads dataclasses (and
# with it inspect)
_RECORDS = ("dataclasses", "inspect")
_UNUSED = {
    "gf": _NOT_GF + _RECORDS,
    "moments": _NOT_GF + _RECORDS,
    "--help": _NOT_GF + _RECORDS,
    "llt": ("coxstat.interplab", "coxstat.elements") + _RECORDS,
    "clt": ("coxstat.interplab", "coxstat.elements") + _RECORDS,
    "interp": ("coxstat.limits",) + _RECORDS,
    "enumerate": ("coxstat.limits", "coxstat.interplab") + _RECORDS,
}


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """A tally cache holding every tally the commands below read, and
    an interp input file."""
    cache = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tallies, "_MEMORY_TALLIES", {})
        mp.setenv("COXSTAT_CACHE", str(cache))
        gf_des("H3")
        gf_des_plus_ides("A2 x B3")
    write_values_doc(cache / "des.json", (4, 5, 6, 7))
    return cache


@pytest.mark.parametrize("argv", [
    ["gf", "--group", "A5", "--stat", "des"],
    ["gf", "--group", "A2 x B3", "--stat", "inv"],
    ["gf", "--group", "A2 x B3", "--stat", "des+ides"],
    ["gf", "--group", "H3", "--stat", "des"],
    # not in the cache: computed from the two-sided counts, not walked
    ["gf", "--group", "A7", "--stat", "des+ides"],
    ["moments", "--group", "D6", "--stat", "des+ides"],
    # not in the cache: read from the E, F and H table, not walked
    ["gf", "--group", "E7", "--stat", "des+ides"],
    ["moments", "--group", "E8", "--stat", "des"],
    ["llt", "--group", "F4", "--stat", "des"],
    ["gf", "--group", "H4", "--stat", "des"],
    ["moments", "--group", "B4", "--stat", "des"],
    ["llt", "--group", "E6", "--stat", "inv"],
    ["clt", "--spec", "prod(I2(i), i=1..n)", "--stat", "des", "--range", "5..30"],
    ["interp", "--input", "{cache}/des.json", "--format", "values_json"],
    ["enumerate", "--group", "A4", "--limit", "10"],
    ["--help"],
], ids=" ".join)
def test_command_without_walk_does_not_import_numpy(filled_cache, argv):
    unused = ",".join(("numpy", "coxstat.rootsys") + _UNUSED[argv[0]])
    argv = [a.replace("{cache}", str(filled_cache)) for a in argv]
    proc = subprocess.run([sys.executable, "-c", _COLD, unused, *argv],
                          env=_cli_env(filled_cache), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_modules_without_the_walk_do_not_import_dataclasses(tmp_path):
    # the walk module included
    names = [f"coxstat.{m}" for m in sorted(coxstat._SUBMODULES)]
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "assert 'dataclasses' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(tmp_path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_BARE = (
    "import sys\n"
    "import coxstat\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('coxstat.'))\n"
    "assert not loaded, loaded\n"
    "assert coxstat.gf_des('A2').coefficients == (1, 4, 1)\n"
    "assert str(coxstat.limits.parse_sequence_spec('A(n)').descriptor(3)) == 'A3'\n"
    "names = {}\n"
    "exec('from coxstat import *', names)\n"
    "assert set(coxstat.__all__) <= set(names), set(coxstat.__all__) - set(names)\n"
)


_MODULE_FILES = sorted(
    p.stem for p in Path(coxstat.__file__).parent.glob("*.py") if p.stem != "__init__")


def test_submodule_files_are_the_lazy_submodules():
    assert _MODULE_FILES == sorted(coxstat._SUBMODULES)


@pytest.mark.parametrize("name", _MODULE_FILES)
def test_submodule_star_import_resolves_its_all(name):
    # a stale __all__ entry would break `from coxstat.<name> import *`
    import importlib

    module = importlib.import_module(f"coxstat.{name}")
    names = {}
    exec(f"from coxstat.{name} import *", names)
    assert set(module.__all__) <= set(names), set(module.__all__) - set(names)


def test_bare_import_loads_no_submodule(tmp_path):
    # re-exported names and submodule attributes still resolve on first use
    proc = subprocess.run([sys.executable, "-c", _BARE], env=_cli_env(tmp_path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
