"""Output checks: every operation's result is compared with an
independent route before it counts as completed.

* histograms: coefficient sum equals |W|, the degree is right and the
  sequence is palindromic (reference.py, not the program, supplies |W|
  and the degrees); mean and variance equal the program's closed forms
  (mahonian_moments, eulerian_moments, double_eulerian_moments);
* roots: one root per rank, sum 1/(1+q) equals the descent mean and
  sum q/(1+q)^2 the descent variance;
* limits: the CLT verdicts are the known answers for the specs used,
  the last row's variance matches a closed form, and llt distances
  match an exact recomputation;
* interpolation: the guessed formula extrapolates to the closed form;
* CLI: the process exited 0 and its stdout parses to the same values.

A failed check raises CheckError; the runner counts it as a failed
operation.
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction

import coxstat
import reference as ref
from coxstat.rootsys import read_tally_file


class CheckError(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise CheckError(message)


def _close(got, want, what, rel=1e-8):
    expect(abs(got - want) <= rel * max(1.0, abs(want)), f"{what}: got {got!r}, want {want!r}")


_CLOSED_FORMS = {
    "inv": coxstat.mahonian_moments,
    "des": coxstat.eulerian_moments,
    "des+ides": coxstat.double_eulerian_moments,
}


def check_histogram(group, statistic, coeffs):
    """Sum, degree, palindrome and the first two moments of a tally."""
    factors = ref.parse_group(group)
    coeffs = [int(c) for c in coeffs]
    degree = {"inv": ref.positive_roots(factors), "des": ref.rank(factors),
              "des+ides": 2 * ref.rank(factors)}[statistic]
    expect(len(coeffs) == degree + 1,
           f"{statistic} of {group}: degree {len(coeffs) - 1}, want {degree}")
    expect(sum(coeffs) == ref.order(factors),
           f"{statistic} of {group}: coefficients sum to {sum(coeffs)}, "
           f"want |W| = {ref.order(factors)}")
    expect(coeffs == coeffs[::-1], f"{statistic} of {group}: not palindromic")
    want = _CLOSED_FORMS[statistic](group)
    expect(ref.histogram_mean_variance(coeffs) == tuple(want),
           f"{statistic} of {group}: histogram moments differ from the closed form {want}")


# ---------------------------------------------------------------------------
# exact_kernels

def _check_gf_inv(op, out):
    poly, summary = out
    check_histogram(op["group"], "inv", poly.coefficients)
    expect(list(poly.coefficients) == ref.inv_histogram(ref.parse_group(op["group"])),
           f"gf_inv {op['group']}: differs from the window-sum product")
    expect((summary.mean, summary.variance) == _CLOSED_FORMS["inv"](op["group"]),
           f"moments_from_polynomial {op['group']}: differs from mahonian_moments")


def _check_root_bag(op, bag):
    factors = ref.parse_group(op["group"])
    mean, var = ref.eulerian_mean_variance(factors)
    expect(len(bag.values) == ref.rank(factors),
           f"roots of {op['group']}: {len(bag.values)} roots, want {ref.rank(factors)}")
    expect(all(q > 0 for q in bag.values), f"roots of {op['group']}: a root is not negative")
    expect(bag.residual_bound <= 1e-12, f"roots of {op['group']}: residual {bag.residual_bound}")
    _close(sum(1 / (1 + q) for q in bag.values), float(mean), f"roots of {op['group']}: sum 1/(1+q)")
    _close(sum(q / (1 + q) ** 2 for q in bag.values), float(var),
           f"roots of {op['group']}: sum q/(1+q)^2")


def _check_llt(op, out):
    poly, report = out
    check_histogram(op["group"], "des", poly.coefficients)
    expect(not report.degenerate, f"llt {op['group']}: flagged degenerate")
    _close(report.distance, ref.sup_distance(poly.coefficients), f"llt {op['group']}", rel=1e-9)


def _check_clt(op, report):
    ns = range(op["lo"], op["hi"] + 1)
    expect(report.clt_holds is True, f"clt {op['spec']}: clt_holds {report.clt_holds}, want True")
    expect([row[0] for row in report.per_n] == list(ns), f"clt {op['spec']}: rows do not cover {ns}")
    n = ns[-1]
    if op["kind"] == "clt_inv":
        expect(report.ratio.verdict == "tends_to_zero",
               f"clt {op['spec']}: verdict {report.ratio.verdict}")
        factors = ((op["spec"][0], n),)
        expect(report.per_n[-1][3] == ref.mahonian_variance(factors),
               f"clt {op['spec']}: variance at n = {n}")
    else:
        expect(report.trend.verdict == "tends_to_infinity",
               f"clt {op['spec']}: verdict {report.trend.verdict}")
        want = Fraction(3, 4) + sum(Fraction(1, m) for m in range(3, n + 1))
        expect(report.per_n[-1][2] == want, f"clt {op['spec']}: variance at n = {n}")


def _check_lindeberg(op, report):
    factors = ref.parse_group(op["group"])
    if op["statistic"] == "inv":
        variances = [Fraction(d * d - 1, 12) for d in ref.degrees(factors)]
        expect(report.total_variance == sum(variances), f"lindeberg {op['group']}: total variance")
        expect(report.max_ratio == max(variances) / sum(variances),
               f"lindeberg {op['group']}: max ratio")
    else:
        _close(report.total_variance, float(ref.eulerian_mean_variance(factors)[1]),
               f"lindeberg {op['group']}: total variance")
    expect(0 <= report.lindeberg_sum <= 1 + 1e-12,
           f"lindeberg {op['group']}: sum {report.lindeberg_sum} outside [0, 1]")


def interp_histograms(spec):
    """Histograms fed to summarize: descents of A_n keyed by rank n, or
    inversions of S_n keyed by size n."""
    ns = range(spec["start"], spec["start"] + spec["points"])
    if spec["statistic"] == "des":
        return {n: ref.eulerian_numbers(n + 1) for n in ns}
    return {n: ref.inv_histogram((("A", n - 1),)) for n in ns}


def _interp_closed_form(statistic, n):
    if statistic == "des":
        return Fraction(n, 2), Fraction(n + 2, 12)
    return Fraction(n * (n - 1), 4), Fraction(n * (n - 1) * (2 * n + 5), 72)


def _check_interp(op, out):
    rows, formulas = out
    for row in rows:
        expect((row.mean, row.variance) == _interp_closed_form(op["statistic"], row.n),
               f"summarize {op['statistic']}: row n = {row.n}")
    far = op["start"] + op["points"] + 5
    want = _interp_closed_form(op["statistic"], far)[1]
    expect(any(f.evaluate(far) == want for f in formulas),
           f"lagrange_guess {op['statistic']}: no formula extrapolates to n = {far}")


def check_exact(op, out):
    kind = op["kind"]
    if kind == "gf_des":
        check_histogram(op["group"], "des", out.coefficients)
    elif kind in ("clt_des", "clt_inv"):
        _check_clt(op, out)
    else:
        {"gf_inv": _check_gf_inv, "root_bag": _check_root_bag, "llt_des": _check_llt,
         "lindeberg": _check_lindeberg, "interp": _check_interp}[kind](op, out)


# ---------------------------------------------------------------------------
# walk_cold

def check_walk(op, coeffs, tally_files):
    """Check the returned tally, then the disk cache the call left behind:
    the call must have written exactly one tally file, which reads back
    (through the program's own reader) equal to the returned tally.  The
    one exception is des on an I2 factor, whose closed form needs no
    tally; a file it does write must still read back equal."""
    check_histogram(op["group"], op["statistic"], coeffs)
    closed_form = op["statistic"] == "des" and ref.parse_group(op["group"])[0][0] == "I2"
    where = f"walk {op['group']} {op['statistic']}"
    expect(len(tally_files) == 1 or (closed_form and not tally_files),
           f"{where}: wrote {len(tally_files)} tally files, want 1")
    for path in tally_files:
        try:
            back = list(read_tally_file(path))
        except (struct.error, ValueError, OSError) as exc:
            raise CheckError(f"{where}: tally file {path.name} does not read back: {exc}") from None
        expect(back == list(coeffs), f"{where}: tally file {path.name} differs from the result")


# ---------------------------------------------------------------------------
# cli_mix

def _frac(text):
    return Fraction(text)


def _option(argv, name):
    return argv[argv.index(name) + 1]


def check_cli(op, returncode, stdout):
    argv = op["argv"]
    command = argv[0]
    expect(returncode == 0, f"coxstat {' '.join(argv)}: exit code {returncode}")
    lines = stdout.splitlines()
    expect(lines, f"coxstat {command}: empty stdout")
    if command == "verify":
        checks = [ln for ln in lines if ln.startswith(("ok - ", "FAIL - "))]
        expect(checks and all(ln.startswith("ok - ") for ln in checks),
               f"verify {_option(argv, '--suite')}: a check failed")
        expect(lines[-1] == f"{len(checks)}/{len(checks)} checks passed",
               f"verify: summary line {lines[-1]!r}")
        return
    if command == "enumerate":
        limit = int(_option(argv, "--limit"))
        expect(len(lines) == limit, f"enumerate: {len(lines)} lines, want {limit}")
        expect(lines[0].endswith("inv=0 des=0 ides=0") or lines[0].startswith("inversions=0x0"),
               f"enumerate: first element is not the identity: {lines[0]!r}")
        return
    doc = json.loads(lines[-1])
    if command == "gf":
        check_histogram(_option(argv, "--group"), _option(argv, "--stat"), doc)
    elif command == "moments":
        group, statistic = _option(argv, "--group"), _option(argv, "--stat")
        want = _CLOSED_FORMS[statistic](group)
        expect((_frac(doc["mean"]), _frac(doc["variance"])) == tuple(want),
               f"moments {group} {statistic}: {doc['mean']}, {doc['variance']}")
    elif command == "llt":
        group = _option(argv, "--group")
        want = ref.sup_distance(ref.inv_histogram(ref.parse_group(group)))
        _close(doc["distance"], want, f"llt {group}", rel=1e-9)
    elif command == "clt":
        lo, hi = (int(x) for x in _option(argv, "--range").split(".."))
        expect(doc["clt_holds"] is True, f"clt {_option(argv, '--spec')}: clt_holds {doc['clt_holds']}")
        expect([row["n"] for row in doc["per_n"]] == list(range(lo, hi + 1)),
               f"clt {_option(argv, '--spec')}: rows do not cover {lo}..{hi}")
    elif command == "interp":
        spec = op["interp"]
        for row in doc["rows"]:
            expect((_frac(row["mean"]), _frac(row["variance"]))
                   == _interp_closed_form(spec["statistic"], row["n"]),
                   f"interp: row n = {row['n']}")
        expect("(n + 2)/12" in doc["formulas"], f"interp: formulas {doc['formulas']}")
    else:
        raise CheckError(f"no check for command {command!r}")


def interp_document(spec):
    """The histogram_json file an interp command reads."""
    hists = interp_histograms(spec)
    return {"statistic": spec["statistic"],
            "histogram": {str(n): [str(c) for c in h] for n, h in hists.items()}}
