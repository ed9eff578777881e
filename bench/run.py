"""coxstat benchmark: one seeded workload, checked, timed, reported.

    python3 bench/run.py --workload {cli_mix,exact_kernels,walk_cold}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; coxstat is imported from its
src/ directory and nothing is installed.  One client drives a closed
loop: each operation starts when the previous one has finished and been
checked, and at most one worker process is alive at a time.  Whole
rounds of operations (inputs.py) run until the operations have taken S
seconds; that time, the sum of the operations' own wall times, is the
timed time behind ops_per_s.  The benchmark's own work between
operations (making inputs, forking, checking outputs) is not timed.

--trace 0 prints the end-to-end metrics; --trace 1 reruns the same loop
with spans around coxstat's public functions and prints the per-layer
metrics.  The last stdout line is the result object; the line before it
holds the machine, seed, source and sample counts, and the same record
is written to .bench_out/.  Exit code 2 means the benchmark could not
run at all (for example, no src/coxstat next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"

SETUP_REPEATS = 9     # fresh set-ups per run, spread over the run; the median is reported
OP_TIMEOUT = 60.0     # seconds; an operation still running then has failed
OVERRUN = 60.0        # no new operation starts this long after --seconds


def _reap(pid, timeout):
    """Wait for a child at most `timeout` seconds, killing it after that;
    returns (exit code, resource usage)."""
    fd = os.pidfd_open(pid)
    try:
        if not select.select([fd], [], [], timeout)[0]:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


def _raise_timeout(signum, frame):
    raise TimeoutError(f"operation still running after {OP_TIMEOUT} s")


class Outcome:
    __slots__ = ("latency", "cpu", "error")

    def __init__(self, latency, cpu, error=None):
        self.latency, self.cpu, self.error = latency, cpu, error


# ---------------------------------------------------------------------------
# the three ways an operation runs

class ExactRunner:
    """exact_kernels: each operation is a call in this process."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.spans = tracer.spans if tracer else []
        signal.signal(signal.SIGALRM, _raise_timeout)

    @staticmethod
    def _prepare(op):
        if op["kind"] == "interp":
            return checks.interp_histograms(op)
        if op["kind"] == "lindeberg":
            return Fraction(op["epsilon"]) if op["statistic"] == "inv" else float(op["epsilon"])
        if op["kind"] in ("clt_inv", "clt_des"):
            return range(op["lo"], op["hi"] + 1)
        return None

    @staticmethod
    def _call(op, arg):
        cx = coxstat
        kind = op["kind"]
        if kind == "gf_inv":
            f = cx.gf_inv(op["group"])
            return f, cx.moments_from_polynomial(f)
        if kind == "gf_des":
            return cx.gf_des(op["group"])
        if kind == "root_bag":
            return cx.descent_root_bag(op["group"])
        if kind == "llt_des":
            f = cx.gf_des(op["group"])
            return f, cx.llt_sup_distance(f)
        if kind == "clt_inv":
            return cx.clt_check_inv(op["spec"], arg)
        if kind == "clt_des":
            return cx.clt_check_des(op["spec"], arg)
        if kind == "lindeberg":
            return cx.triangular_array_diagnostics(op["group"], op["statistic"], arg)
        rows = cx.summarize(cx.interplab.StatisticDataset(op["statistic"], histograms=arg))
        return rows, cx.lagrange_guess([(row.n, row.variance) for row in rows])

    def run(self, op, op_id):
        arg = self._prepare(op)
        if self.tracer:
            self.tracer.op = op_id
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = self._call(op, arg)
        except Exception as exc:  # a raising operation is a failed one
            return Outcome(time.perf_counter() - t0, time.process_time() - c0,
                           f"{op['kind']} raised {exc!r}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
        cpu = time.process_time() - c0
        return Outcome(latency, cpu, _checked(self.tracer, checks.check_exact, op, out))

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def probe_llt_defect(self):
        """Known OverflowError of llt on big descent tallies, probed outside
        the timed operations so that limits.llt_failed shows it."""
        failed = 0
        self.tracer.op = "probe"
        for group in inputs.LLT_DEFECT_PROBE:
            try:
                coxstat.llt_sup_distance(coxstat.gf_des(group))
            except Exception:  # counted, and visible as error spans in the trace
                failed += 1
        return failed


def _checked(tracer, check, *args):
    if tracer:
        tracer.on = False
    try:
        check(*args)
    except checks.CheckError as exc:
        return f"check failed: {exc}"
    finally:
        if tracer:
            tracer.on = True
    return None


class _ChildRunner:
    def __init__(self, run_dir, tracer):
        self.dir = run_dir
        self.tracer = tracer
        self.spans = []
        self.rss_kb = 0

    def _merge(self, spans, op_id):
        base = len(self.spans)
        for s in spans:
            s[0] += base
            if s[4] is not None:
                s[4] += base
            s[5] = op_id
            self.spans.append(s)

    def _account(self, usage):
        self.rss_kb = max(self.rss_kb, usage.ru_maxrss)
        return usage.ru_utime + usage.ru_stime

    def peak_rss_kb(self):
        return self.rss_kb


class WalkRunner(_ChildRunner):
    """walk_cold: each operation runs in a child forked from this process,
    which has imported coxstat and run validation but holds no tally;
    the child gets an empty cache directory of its own.  The child times
    the call itself, so the fork and exit are not part of the latency."""

    def run(self, op, op_id):
        op_dir = self.dir / f"op{op_id}"
        op_dir.mkdir()
        result = op_dir / "result.json"
        sys.stdout.flush()
        sys.stderr.flush()
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.environ["COXSTAT_CACHE"] = str(op_dir)
                fn = coxstat.gf_des if op["statistic"] == "des" else coxstat.gf_des_plus_ides
                c0 = time.process_time()
                t1 = time.perf_counter()
                coeffs = fn(op["group"]).coefficients
                doc = {"latency": time.perf_counter() - t1, "cpu": time.process_time() - c0,
                       "coeffs": [str(c) for c in coeffs]}
                if self.tracer:
                    doc["spans"] = self.tracer.spans
                result.write_text(json.dumps(doc), encoding="utf-8")
                code = 0
            except BaseException as exc:
                print(f"walk child: {exc!r}", file=sys.stderr)
            finally:
                os._exit(code)
        code, usage = _reap(pid, OP_TIMEOUT)
        wall = time.perf_counter() - t0
        self._account(usage)
        try:
            if code != 0:
                return Outcome(wall, usage.ru_utime + usage.ru_stime,
                               f"walk {op['group']} {op['statistic']}: exit {code}")
            doc = json.loads(result.read_text(encoding="utf-8"))
            self._merge(doc.get("spans", []), op_id)
            tallies = sorted((op_dir / "tallies").glob("*.tally"))
            coeffs = [int(c) for c in doc["coeffs"]]
            return Outcome(doc["latency"], doc["cpu"],
                           _checked(self.tracer, checks.check_walk, op, coeffs, tallies))
        finally:
            shutil.rmtree(op_dir)


class CliRunner(_ChildRunner):
    """cli_mix: each operation is one `python -m coxstat.cli` process
    reading the tally cache that set-up filled."""

    def __init__(self, run_dir, tracer, env):
        super().__init__(run_dir, tracer)
        self.env = env

    def run(self, op, op_id):
        op_dir = self.dir / f"op{op_id}"
        op_dir.mkdir()
        argv = list(op["argv"])
        if "interp" in op:
            path = op_dir / "interp.json"
            path.write_text(json.dumps(checks.interp_document(op["interp"])), encoding="utf-8")
            argv = [str(path) if a == "{interp}" else a for a in argv]
        spans_path = op_dir / "spans.json"
        if self.tracer:
            cmd = [sys.executable, str(CHILD), "cli", str(spans_path)] + argv
        else:
            cmd = [sys.executable, "-m", "coxstat.cli"] + argv
        stdout_path = op_dir / "stdout.txt"
        try:
            with open(stdout_path, "wb") as out:
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                        cwd=op_dir, env=self.env)
                proc.returncode, usage = _reap(proc.pid, OP_TIMEOUT)
                latency = time.perf_counter() - t0
            cpu = self._account(usage)
            if spans_path.exists():
                self._merge(json.loads(spans_path.read_text(encoding="utf-8")), op_id)
            stdout = stdout_path.read_text(encoding="utf-8")
            return Outcome(latency, cpu,
                           _checked(None, checks.check_cli, op, proc.returncode, stdout))
        finally:
            shutil.rmtree(op_dir)


# ---------------------------------------------------------------------------
# set-up

class Setup:
    """Fresh set-ups: a new interpreter imports coxstat, pays the descent
    self-validation and, for cli_mix, writes the tally cache.  The first
    runs before the first operation and its cache is the one cli_mix
    reads; the others run between operations, spread evenly over the
    timed time, so that setup_s sees the same drift of the host's speed
    as the operations do."""

    def __init__(self, env, fill, run_dir):
        self.env, self.fill, self.dir = env, fill, run_dir
        self.walls, self.reports = [], []

    def once(self):
        """Time one set-up; returns its cache directory."""
        k = len(self.walls)
        cache = self.dir / f"cache{k}"
        out_path = self.dir / f"setup{k}.json"
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD), "setup", json.dumps(self.fill)],
                                    stdout=out, cwd=self.dir,
                                    env=dict(self.env, COXSTAT_CACHE=str(cache)))
            proc.returncode, _ = _reap(proc.pid, OP_TIMEOUT)
            self.walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}")
        self.reports.append(json.loads(out_path.read_text(encoding="utf-8")))
        if k:
            shutil.rmtree(cache, ignore_errors=True)
        return cache

    def keep_pace(self, timed, seconds):
        """Run the set-ups due once `timed` of `seconds` timed seconds are done."""
        while (len(self.walls) < SETUP_REPEATS
               and timed >= len(self.walls) * seconds / (SETUP_REPEATS - 1)):
            self.once()


# ---------------------------------------------------------------------------
# metrics

def tail_percentile(latencies):
    """Highest whole percentile (nearest rank) with at least ten samples
    above it: (percentile, value, samples beyond); the median when even
    p51 has fewer than ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 50, -1):
        idx = max(0, -(-p * n // 100) - 1)
        if n - idx - 1 >= 10:
            return p, xs[idx], n - idx - 1
    idx = (n - 1) // 2
    return 50, xs[idx], n - idx - 1


def end_to_end(outcomes, setup_walls, peak_rss_kb):
    lat = [o.latency for o in outcomes]
    ok = sum(1 for o in outcomes if o.error is None)
    p, tail, _ = tail_percentile(lat)
    return {
        "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
        "ops_per_s": {"value": ok / sum(lat), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "op_tail_ms": {"value": 1000 * tail, "unit": "ms"},
        "ok_ops_share": {"value": ok / len(outcomes), "unit": "fraction"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
    }


def _machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def _host_loop_s():
    """Seconds a fixed pure-Python loop takes: a gauge of the host's speed
    at that moment, recorded before and after the loop of operations so
    that a drift of the host can be told apart from a change of the
    program."""
    t0 = time.perf_counter()
    total = 0
    for k in range(2_000_000):
        total += k
    return time.perf_counter() - t0


def _source():
    """Commit when run in a git work tree, and always a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "coxstat" / "__init__.py").is_file():
        print(f"error: no coxstat sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def load_program():
    """Import coxstat from SRC, and the checks that use it, into this
    module, and pay this process's own first-use validation."""
    global coxstat, checks
    sys.path.insert(0, str(SRC))
    import coxstat
    import coxstat.interplab
    import checks

    if Path(coxstat.__file__).resolve().parent != SRC / "coxstat":
        raise RuntimeError(f"imported coxstat from {coxstat.__file__}, not from {SRC}")
    coxstat.gf_des("A2")
    return coxstat


def _label(op):
    """What an operation counts under in timed_share."""
    if op["kind"] == "walk":
        group = op["group"]
        family = group if group[0] in "EFH" else "I2(m)" if group.startswith("I2") else group[0] + "n"
        return f"walk {family} {op['statistic']}"
    if op["kind"] != "cli":
        return op["kind"]
    argv = op["argv"]
    return " ".join(argv[:3]) if argv[0] == "verify" else argv[0]


def _run(args, run_dir):
    # children and this process write temporary files inside the checkout
    # and run numpy single-threaded, so forking is safe
    os.environ.update(PYTHONPATH=str(SRC), TMPDIR=str(run_dir / "tmp"), OPENBLAS_NUM_THREADS="1",
                      OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.environ.pop("COXSTAT_CACHE", None)
    env = dict(os.environ)

    fill = inputs.cli_prefill() if args.workload == inputs.CLI_MIX else []
    setup = Setup(env, fill, run_dir)
    cache = setup.once()
    load_program()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    if args.workload == inputs.EXACT_KERNELS:
        runner = ExactRunner(tracer)
    elif args.workload == inputs.WALK_COLD:
        runner = WalkRunner(run_dir, tracer)
    else:
        runner = CliRunner(run_dir, tracer, dict(env, COXSTAT_CACHE=str(cache)))

    host_loop_s = [_host_loop_s()]
    # whole rounds until the operations themselves have taken --seconds
    outcomes = []
    keys = []
    timed = 0.0
    t_start = time.perf_counter()
    for batch in inputs.rounds(args.workload, args.seed):
        for op in batch:
            if time.perf_counter() - t_start > args.seconds + OVERRUN:
                break
            keys.append(json.dumps(op, sort_keys=True))
            outcomes.append(runner.run(op, len(outcomes)))
            timed += outcomes[-1].latency
            setup.keep_pace(timed, args.seconds)
        if timed >= args.seconds or time.perf_counter() - t_start > args.seconds + OVERRUN:
            break
    loop_s = time.perf_counter() - t_start
    if timed >= args.seconds:
        ended = "time"
    elif loop_s > args.seconds + OVERRUN:
        ended = "overrun"
    else:
        ended = "inputs exhausted"
    while len(setup.walls) < SETUP_REPEATS:
        setup.once()
    host_loop_s.append(_host_loop_s())

    failures = [o.error for o in outcomes if o.error]
    metrics = end_to_end(outcomes, setup.walls, runner.peak_rss_kb())
    p, _, beyond = tail_percentile([o.latency for o in outcomes])
    validate_ms = statistics.median(r["first_des_ms"] - r["repeat_des_ms"] for r in setup.reports)
    shares = {}
    for key, o in zip(keys, outcomes):
        label = _label(json.loads(key))
        shares[label] = shares.get(label, 0.0) + o.latency / timed
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(), "source": _source(),
        "loop": "closed", "clients": 1, "loop_wall_s": loop_s, "timed_s": timed,
        "ended": ended, "host_loop_s": host_loop_s,
        "attempted": len(outcomes), "failed": len(failures),
        "failed_ops_share": len(failures) / len(outcomes),
        "repeated_input_share": 1 - len(set(keys)) / len(keys),
        "op_tail": {"percentile": p, "samples_beyond": beyond, "samples": len(outcomes)},
        "timed_share": dict(sorted(shares.items())),
        "setup_walls_s": setup.walls, "setup_children": setup.reports,
        "cpu_ops_per_s": (len(outcomes) - len(failures)) / sum(o.cpu for o in outcomes),
        "failures": failures[:20],
    }
    if tracer:
        recorded = runner.spans
        traced_rate = metrics["ops_per_s"]["value"]
        metrics = spans.layer_metrics(recorded, len(outcomes) - len(failures), validate_ms,
                                      traced_rate)
        if args.workload == inputs.EXACT_KERNELS:
            metrics["limits.llt_failed"]["value"] += runner.probe_llt_defect()
        busy = spans.busy(recorded)
        meta["disk_reads"] = busy.get("rootsys.tally_read", (0,))[0]
        meta["tally_requests"] = busy.get("rootsys.tally", (0,))[0]
        trace_doc = {
            "meta": meta,
            "busy_s": {k: v[1] for k, v in sorted(busy.items())},
            "self_s": dict(sorted(spans.self_times(recorded).items())),
            "median_s_by_argument": spans.by_argument(
                recorded, {"rootsys.walk", "rootsys.build", "polynomials.roots",
                           "polynomials.gf_inv", "cli.main.gf"}),
            "cache_events": spans.cache_events(recorded),
            "span_fields": ["id", "name", "start", "end", "parent", "op", "arg", "count", "error"],
            "spans": recorded,
        }
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(trace_doc, fh)
    result = {"correct": not failures, "attempted": len(outcomes), "failed": len(failures),
              "metrics": metrics}
    record = {"meta": meta, "result": result}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for error in failures[:5]:
        print(f"FAILED: {error}")
    print(f"{args.workload} seed {args.seed}: {len(outcomes)} operations, {len(failures)} failed, "
          f"tail = p{p} with {beyond} samples beyond, loop {loop_s:.1f} s")
    print(json.dumps({"meta": meta}, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
