"""Spot rows: the single measurements ROADMAP.md's re-anchor recorded,
taken again through the benchmark's own spans and child processes.

    python3 bench/rows.py

Run from the root of a source checkout.  Prints one JSON object mapping
each row to its median seconds (over REPEATS runs for the cheap CLI rows,
one run for the expensive ones) and, where it matters, peak RSS.  Rows the
workloads do not reach (gf_inv A100, roots A20 and A25, the clt sweep to
n = 1000) are measured here only.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
from run import CHILD, SRC, WalkRunner, _reap
from spans import Tracer, busy

REPEATS = 5


def _wall(cmd, env, cwd):
    """Wall seconds of one child process; its stdout goes to cwd/stdout.txt."""
    with open(Path(cwd) / "stdout.txt", "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=env, cwd=cwd)
        proc.returncode, _ = _reap(proc.pid, 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}")
    return time.perf_counter() - t0


def _traced(tracer, name, call):
    """Run call() and return the busy seconds of span `name` inside it."""
    start = len(tracer.spans)
    call()
    return busy(tracer.spans[start:])[name][1]


def main():
    if not (SRC / "coxstat" / "__init__.py").is_file():
        print(f"error: no coxstat sources at {SRC}", file=sys.stderr)
        return 2
    (SRC.parent / ".bench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="rows-", dir=SRC.parent / ".bench_out"))
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work), OPENBLAS_NUM_THREADS="1")
    env.pop("COXSTAT_CACHE", None)
    rows = {}

    setups = []
    for _ in range(REPEATS):
        _wall([sys.executable, str(CHILD), "setup", "[]"], env, work)
        setups.append(json.loads((work / "stdout.txt").read_text(encoding="utf-8")))
    rows["import coxstat (s)"] = statistics.median(s["import_ms"] for s in setups) / 1000
    rows["descent self-validation (s)"] = statistics.median(
        s["first_des_ms"] - s["repeat_des_ms"] for s in setups) / 1000
    for name, argv in [("coxstat gf --group A2 --stat des (s)", ["gf", "--group", "A2", "--stat", "des"]),
                       ("verify --suite quick (s)", ["verify", "--suite", "quick"]),
                       ("verify --suite full (s)", ["verify", "--suite", "full"])]:
        rows[name] = statistics.median(
            _wall([sys.executable, "-m", "coxstat.cli"] + argv, env, work) for _ in range(REPEATS))

    os.environ.update(env)
    coxstat = run.load_program()
    tracer = Tracer()
    tracer.install()
    for k, statistic in enumerate(("des", "des+ides")):
        walker = WalkRunner(work, tracer)
        outcome = walker.run({"kind": "walk", "group": "E7", "statistic": statistic}, k)
        if outcome.error:
            raise RuntimeError(outcome.error)
        rows[f"E7 walk, {statistic} (s)"] = busy(walker.spans)["rootsys.walk"][1]
        rows[f"E7 walk, {statistic}, child peak RSS (MB)"] = walker.peak_rss_kb() / 1024
    rows["gf_inv A100 (s)"] = _traced(tracer, "polynomials.gf_inv", lambda: coxstat.gf_inv("A100"))
    for group in ("A20", "A25"):
        poly = coxstat.gf_des(group)
        rows[f"negated_real_roots {group} (s)"] = _traced(
            tracer, "polynomials.roots", lambda: coxstat.negated_real_roots(poly))
    rows["clt_check_des prod(I2(i), i=1..n), n = 10..1000 (s)"] = _traced(
        tracer, "limits.clt",
        lambda: coxstat.clt_check_des("prod(I2(i), i=1..n)", range(10, 1001)))
    print(json.dumps(rows, indent=1))
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
