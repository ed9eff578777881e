"""Command-line front end.

Subcommands: gf, moments, clt, llt, interp, verify, enumerate.  Output
is line-oriented JSON or plain text on stdout; exit codes are 0 for
success, 1 for a verification failure, 2 for usage and runtime errors
(one "error:" line on stderr, no traceback).  Numeric JSON stays exact:
rationals are emitted as "p/q" strings and integers too wide for a
double (2^53 and up) as decimal strings, so consumers that parse
through floating point cannot silently truncate anything.

Each command imports only the modules it uses.  Every command loads
groups, moments and polynomials (with tallies); on top of those, clt
and llt load limits, interp loads interplab (and elements), enumerate
loads elements for A/B/D and rootsys for any other family,
and verify loads verify, which imports every module.  gf, moments and
llt never walk: the reflection walk (rootsys) serves only enumerate and
verify.
moments --stat inv prints the closed-form summary, which needs no
histogram.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .groups import parse_descriptor
from .moments import mahonian_summary, moments_from_polynomial
from .polynomials import gf_des, gf_des_plus_ides, gf_inv

__all__ = ["main", "build_parser"]

_GF = {"inv": gf_inv, "des": gf_des, "des+ides": gf_des_plus_ides}


def _json_int(value):
    # ints at 2^53 and beyond become strings; doubles are exact below that
    return value if -2 ** 53 < value < 2 ** 53 else str(value)


def _json_frac(value):
    return str(Fraction(value))


def _emit(doc, stream):
    json.dump(doc, stream, separators=(",", ":"))
    stream.write("\n")


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like 10..40, got {text!r}")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range must look like 10..40, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gf(args, stream):
    f = _GF[args.stat](parse_descriptor(args.group))
    if args.emit_poly:
        Path(args.emit_poly).write_text(f.to_json() + "\n", encoding="utf-8")
    _emit([_json_int(c) for c in f.coefficients], stream)
    return 0


def _cmd_moments(args, stream):
    d = parse_descriptor(args.group)
    if args.stat == "inv":
        summary = mahonian_summary(d, k_max=args.k_max)
    else:
        summary = moments_from_polynomial(_GF[args.stat](d), k_max=args.k_max)
    _emit({
        "group": str(d),
        "statistic": args.stat,
        "mean": _json_frac(summary.mean),
        "variance": _json_frac(summary.variance),
        "central_moments": {str(k): _json_frac(v)
                            for k, v in summary.central_moments.items()},
        "cumulants": {str(k): _json_frac(v)
                      for k, v in summary.cumulants.items()},
        "normalized_cumulants": {str(k): v
                                 for k, v in summary.normalized_cumulants.items()},
    }, stream)
    return 0


def _clt_doc(args, report):
    trend = report.ratio if args.stat == "inv" else report.trend
    doc = {
        "spec": report.spec_text,
        "statistic": args.stat,
        "clt_holds": report.clt_holds,
        "symbolic": report.symbolic,
        "rank_increasing": report.rank_increasing,
        "verdict": trend.verdict,
        "rationale": trend.rationale,
    }
    if args.stat == "des":
        doc["conditions"] = {
            "rank_to_infinity": report.cond_rank_to_infinity,
            "dihedral_divergence": report.cond_dihedral_divergence,
        }
    doc["per_n"] = [{**row._asdict(), "variance": _json_frac(row.variance)}
                    for row in report.per_n]
    return doc


def _clt_table(doc, stream):
    if doc["statistic"] == "inv":
        print(f"{'n':>6} {'rank':>6} {'d_n':>8} {'ratio':>12}", file=stream)
        for row in doc["per_n"]:
            print(f"{row['n']:>6} {row['rank']:>6} {row['d_n']:>8} "
                  f"{row['ratio']:>12.6f}", file=stream)
    else:
        print(f"{'n':>6} {'rank':>6} {'s_n':>12} {'1/m sum':>12}", file=stream)
        for row in doc["per_n"]:
            print(f"{row['n']:>6} {row['rank']:>6} {row['s_n']:>12.6f} "
                  f"{row['dihedral_inverse_sum']:>12.6f}", file=stream)
    print(f"verdict: {doc['verdict']}", file=stream)
    print(f"clt_holds: {doc['clt_holds']}", file=stream)
    if doc["symbolic"]:
        print(f"symbolic: {doc['symbolic']}", file=stream)


def _cmd_clt(args, stream):
    from .limits import clt_check_des, clt_check_inv

    ns = _parse_range(args.range)
    check = clt_check_inv if args.stat == "inv" else clt_check_des
    report = check(args.spec, ns)
    doc = _clt_doc(args, report)
    if args.emit == "json":
        _emit(doc, stream)
    else:
        _clt_table(doc, stream)
    return 0


def _cmd_llt(args, stream):
    from .limits import llt_sup_distance

    d = parse_descriptor(args.group)
    report = llt_sup_distance(_GF[args.stat](d))
    _emit({
        "group": str(d),
        "statistic": args.stat,
        "distance": report.distance,
        "degenerate": report.degenerate,
    }, stream)
    return 0


def _cmd_interp(args, stream):
    from .interplab import fetch_findstat, ingest, lagrange_guess, summarize

    if args.fetch:
        ds = fetch_findstat(args.fetch)
    else:
        ds = ingest(args.input, args.format)
    rows = summarize(ds)
    doc = {
        "statistic": ds.name,
        "target": args.target,
        "rows": [{
            "n": row.n,
            "count": _json_int(row.count),
            "mean": _json_frac(row.mean),
            "variance": _json_frac(row.variance),
            "normalized_cumulants": list(row.formatted),
        } for row in rows],
    }
    points = [(row.n, getattr(row, args.target)) for row in rows]
    try:
        doc["formulas"] = [str(f) for f in lagrange_guess(points)]
    except ValueError as exc:
        doc["formulas"] = []
        doc["note"] = str(exc)
    _emit(doc, stream)
    return 0


def _cmd_enumerate(args, stream):
    if args.limit < 0:
        raise ValueError(f"--limit must be nonnegative, got {args.limit}")
    d = parse_descriptor(args.group)
    if len(d.factors) != 1:
        raise ValueError("enumerate takes one irreducible factor at a time")
    label = d.factors[0]
    limit = args.limit
    if label.family in ("A", "B", "D"):
        from .elements import des_count, ides_count, inv_count, iter_windows, to_one_line

        family = label.family
        length = label.rank + 1 if family == "A" else label.rank
        for w in itertools.islice(iter_windows(family, length), limit):
            print(f"{to_one_line(w)} inv={inv_count(w, family)} "
                  f"des={des_count(w, family)} ides={ides_count(w, family)}",
                  file=stream)
        return 0
    from .rootsys import DEFAULT_ENUM_CAP, _check_cap, build_root_system, enumerate_inversion_sets

    if limit > DEFAULT_ENUM_CAP:
        _check_cap(label)
    rs = build_root_system(label)
    for rec in itertools.islice(enumerate_inversion_sets(rs), limit):
        print(f"inversions={rec.inversion_set:#x} length={rec.length} "
              f"des={rec.right_descents.bit_count()} "
              f"ides={rec.left_descents.bit_count()}", file=stream)
    return 0


def _cmd_verify(args, stream):
    from .verify import run_suite

    failures = run_suite(args.suite, stream=stream)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="coxstat",
        description="Exact statistics on finite Coxeter groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gf", help="generating function coefficients")
    p.add_argument("--group", required=True, help='descriptor like "B4" or "A2 x I2(7)"')
    p.add_argument("--stat", required=True, choices=sorted(_GF))
    p.add_argument("--emit-poly", metavar="PATH",
                   help="also write the polynomial as a JSON file")
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("moments", help="exact distribution summary")
    p.add_argument("--group", required=True)
    p.add_argument("--stat", required=True, choices=sorted(_GF))
    p.add_argument("--k-max", type=int, default=6)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("clt", help="normal-limit diagnostics for a sequence")
    p.add_argument("--spec", required=True,
                   help='sequence like "A(n)" or "prod(I2(i), i=1..n)"')
    p.add_argument("--stat", required=True, choices=["inv", "des"])
    p.add_argument("--range", required=True, metavar="A..B")
    p.add_argument("--emit", choices=["json", "table"], default="json")
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("llt", help="local-limit sup distance")
    p.add_argument("--group", required=True)
    p.add_argument("--stat", required=True, choices=sorted(_GF))
    p.set_defaults(func=_cmd_llt)

    p = sub.add_parser("interp", help="summarize statistic data, guess formulas")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="PATH")
    src.add_argument("--fetch", metavar="ID", help="FindStat identifier like St000004")
    p.add_argument("--format", choices=["values_json", "histogram_json", "findstat_csv"],
                   default="values_json")
    p.add_argument("--target", choices=["mean", "variance"], default="variance")
    p.set_defaults(func=_cmd_interp)

    p = sub.add_parser("verify", help="run a self-check suite")
    # no choices: listing them would import verify and with it the walk;
    # run_suite rejects an unknown name
    p.add_argument("--suite", required=True,
                   help="quick, full, or one part of full such as gf-des")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="list elements with statistics")
    p.add_argument("--group", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # exact integers go to and from decimal text at any size; interpreters
    # without the int/str digit limit (before 3.10.7) need no lifting
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args, sys.stdout)
    except (ValueError, OSError, RuntimeError, ArithmeticError, Warning,
            MemoryError) as exc:
        # a Warning gets here only when -W error turns it into an exception;
        # a MemoryError usually carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
