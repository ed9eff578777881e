"""Child processes the benchmark starts.

    python bench/child.py setup FILL_JSON
        Import coxstat, run the first descent call (which pays the
        recurrence self-validation), repeat it, then call gf_des or
        gf_des_plus_ides for every (group, statistic) in FILL_JSON so the
        program writes those tallies to $COXSTAT_CACHE.  Prints one JSON
        line with the timings.

    python bench/child.py cli SPANS_PATH ARG...
        The traced form of ``python -m coxstat.cli ARG...``: times the
        import, runs coxstat.cli.main with traced public functions, and
        writes the spans to SPANS_PATH.  Exits with main's code.
"""

import json
import sys
import time


def setup(fill):
    t0 = time.perf_counter()
    import coxstat

    t1 = time.perf_counter()
    coxstat.gf_des("A2")
    t2 = time.perf_counter()
    coxstat.gf_des("A2")
    t3 = time.perf_counter()
    for group, statistic in fill:
        (coxstat.gf_des if statistic == "des" else coxstat.gf_des_plus_ides)(group)
    t4 = time.perf_counter()
    print(json.dumps({"import_ms": 1000 * (t1 - t0), "first_des_ms": 1000 * (t2 - t1),
                      "repeat_des_ms": 1000 * (t3 - t2), "fill_ms": 1000 * (t4 - t3)}))
    return 0


def cli(spans_path, argv):
    from spans import Tracer

    t0 = time.perf_counter()
    import coxstat.cli

    tracer = Tracer()
    tracer.span("cli.import", t0, time.perf_counter())
    tracer.install()
    try:
        return coxstat.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(json.loads(sys.argv[2])))
    sys.exit(cli(sys.argv[2], sys.argv[3:]))
