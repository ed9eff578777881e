"""Spans around calls into coxstat's public functions, taken from outside.

install() rebinds each listed function, wherever a coxstat module holds
a reference to it (module globals and module-level dicts such as the
CLI's statistic table), to a wrapper that records a span.  The program
itself is not edited.  Spans stay in memory as small lists and are
written out once, when the run ends.

A span is [id, name, start, end, parent id, operation id, argument,
count, error]; times are time.perf_counter() seconds, a clock shared by
every process on the host, so spans from child processes line up.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import PurePath

ID, NAME, START, END, PARENT, OP, ARG, COUNT, ERROR = range(9)


def _label(args):
    """Short text for a call's first argument, plus the second when it is
    a statistic name: "E6 des", "A20", "deg 20", "E6.des.tally"."""
    if not args:
        return ""
    x = args[0]
    if hasattr(x, "label"):          # RootSystem
        x = x.label
    if hasattr(x, "coefficients"):   # ExactPolynomial
        return f"deg {len(x.coefficients) - 1}"
    text = x.name if isinstance(x, PurePath) else str(x)
    if len(args) > 1 and isinstance(args[1], str):
        text += f" {args[1]}"
    return text if len(text) <= 48 else text[:45] + "..."


def _order(rs):
    from coxstat.groups import irreducible_degrees
    return math.prod(irreducible_degrees(rs.label))


# (module, function, span name or name(args), count(args, result))
def _targets():
    return [
        ("groups", "parse_descriptor", "groups.parse", None),
        ("polynomials", "gf_inv", "polynomials.gf_inv", lambda a, r: len(r.coefficients)),
        ("polynomials", "gf_des", "polynomials.gf_des", None),
        ("polynomials", "gf_des_plus_ides", "polynomials.gf_des_plus_ides", None),
        ("polynomials", "negated_real_roots", "polynomials.roots", lambda a, r: len(r.values)),
        ("polynomials", "descent_root_bag", "polynomials.root_bag", None),
        ("moments", "moments_from_polynomial", "moments.histogram", None),
        ("moments", "mahonian_moments", "moments.closed_form", None),
        ("moments", "mahonian_cumulants", "moments.closed_form", None),
        ("moments", "eulerian_moments", "moments.closed_form", None),
        ("moments", "double_eulerian_moments", "moments.closed_form", None),
        ("limits", "clt_check_inv", "limits.clt", lambda a, r: len(r.per_n)),
        ("limits", "clt_check_des", "limits.clt", lambda a, r: len(r.per_n)),
        ("limits", "triangular_array_diagnostics", "limits.lindeberg", None),
        ("limits", "llt_sup_distance", "limits.llt", None),
        ("interplab", "summarize", "interplab.summarize", None),
        ("interplab", "lagrange_guess", "interplab.lagrange", None),
        ("interplab", "ingest", "interplab.ingest", None),
        ("rootsys", "build_root_system", "rootsys.build", None),
        ("rootsys", "statistics_tally", "rootsys.walk", lambda a, r: _order(a[0])),
        ("rootsys", "cached_tally", "rootsys.tally", None),
        ("rootsys", "write_tally_file", "rootsys.tally_write", None),
        ("rootsys", "read_tally_file", "rootsys.tally_read", None),
        ("verify", "run_suite", lambda a: f"verify.suite.{a[0]}", None),
        ("cli", "main", lambda a: f"cli.main.{(a[0] or ['?'])[0]}", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.on = True     # off while the benchmark checks outputs

    def span(self, name, start, end, arg="", count=None, error=False):
        """Record a span measured elsewhere, under the current parent."""
        parent = self.stack[-1] if self.stack else None
        self.spans.append([len(self.spans), name, start, end, parent, self.op, arg, count, error])

    def wrap(self, fn, name, count):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [len(spans), name(args) if callable(name) else name, time.perf_counter(),
                   None, stack[-1] if stack else None, self.op, _label(args), None, False]
            spans.append(rec)
            stack.append(rec[ID])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every listed coxstat function to a traced wrapper."""
        import coxstat.cli  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "coxstat" or n.startswith("coxstat.")]
        swap = {}
        for mod, fn_name, name, count in _targets():
            fn = getattr(sys.modules.get(f"coxstat.{mod}"), fn_name, None)
            if fn is not None:  # a layer the program no longer has reads 0
                swap[id(fn)] = self.wrap(fn, name, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in swap:
                    setattr(module, attr, swap[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in swap:
                            value[key] = swap[id(item)]


# ---------------------------------------------------------------------------
# derived numbers

def busy(spans):
    """Per span name: (calls, busy seconds, count sum, errors), counting a
    span only when no ancestor has the same name, so recursion and
    nested calls of one layer are not counted twice."""
    by_id = {s[ID]: s for s in spans}
    out = {}
    for s in spans:
        p = s[PARENT]
        nested = False
        while p is not None and p in by_id:
            if by_id[p][NAME] == s[NAME]:
                nested = True
                break
            p = by_id[p][PARENT]
        if nested or s[END] is None:
            continue
        calls, secs, counted, errors = out.get(s[NAME], (0, 0.0, 0, 0))
        out[s[NAME]] = (calls + 1, secs + s[END] - s[START],
                        counted + (s[COUNT] or 0), errors + bool(s[ERROR]))
    return out


def self_times(spans):
    """Per span name, the time not covered by child spans."""
    child = {}
    for s in spans:
        if s[PARENT] is not None and s[END] is not None:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + s[END] - s[START]
    out = {}
    for s in spans:
        if s[END] is not None:
            out[s[NAME]] = out.get(s[NAME], 0.0) + s[END] - s[START] - child.get(s[ID], 0.0)
    return out


def cache_events(spans):
    """What answered each tally request, seen from outside: "walk+tally_write"
    on a cold cache, "tally_read" from disk, "memory" from the process."""
    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s[NAME])
    roots = {}
    for s in spans:
        if s[PARENT] is None:
            roots[s[OP]] = f"{s[NAME]} {s[ARG]}"
    events = ("rootsys.walk", "rootsys.tally_write", "rootsys.tally_read")
    out = []
    for s in spans:
        if s[NAME] == "rootsys.tally":
            seen = [n.split(".", 1)[1] for n in children.get(s[ID], []) if n in events]
            out.append({"op": s[OP], "call": roots.get(s[OP], ""), "tally": s[ARG],
                        "event": "+".join(seen) or "memory"})
    return out


def by_argument(spans, names):
    """Median duration per (name, argument), for spot rows like "E7 walk"."""
    import statistics

    groups = {}
    for s in spans:
        if s[NAME] in names and s[END] is not None and not s[ERROR]:
            groups.setdefault(f"{s[NAME]} {s[ARG]}", []).append(s[END] - s[START])
    return {k: statistics.median(v) for k, v in sorted(groups.items())}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

CLI_COMMANDS = ("gf", "moments", "llt", "clt", "interp", "enumerate", "verify")

# name, unit, better; "/op" is per completed operation, "/call" per call
LAYER_METRICS = (
    [("cli.import_ms", "ms/call", "lower")]
    + [(f"cli.main_ms.{c}", "ms/call", "lower") for c in CLI_COMMANDS]
    + [
        ("polynomials.validate_ms", "ms", "lower"),
        ("groups.parse_calls", "count/op", "lower"),
        ("groups.parse_ms", "ms/op", "lower"),
        ("polynomials.gf_inv_ms", "ms/call", "lower"),
        ("polynomials.gf_inv_coeffs", "count/call", "lower"),
        ("polynomials.gf_des_ms", "ms/call", "lower"),
        ("polynomials.roots_ms", "ms/call", "lower"),
        ("polynomials.roots_found", "count/call", "higher"),
        ("polynomials.roots_failed", "count", "lower"),
        ("moments.histogram_ms", "ms/op", "lower"),
        ("moments.closed_form_ms", "ms/op", "lower"),
        ("limits.clt_ms", "ms/call", "lower"),
        ("limits.clt_rows", "count/call", "lower"),
        ("limits.lindeberg_ms", "ms/call", "lower"),
        ("limits.llt_ms", "ms/call", "lower"),
        ("limits.llt_failed", "count", "lower"),
        ("interplab.summarize_ms", "ms/call", "lower"),
        ("interplab.lagrange_ms", "ms/call", "lower"),
        ("rootsys.build_ms", "ms/call", "lower"),
        ("rootsys.walk_ms", "ms/call", "lower"),
        ("rootsys.walk_elements", "count/op", "lower"),
        ("rootsys.walk_elements_per_s", "1/s", "higher"),
        ("rootsys.tally_write_ms", "ms/call", "lower"),
        ("rootsys.tally_read_ms", "ms/call", "lower"),
        ("rootsys.tally_requests", "count/op", "lower"),
        ("rootsys.disk_reads", "count/op", "lower"),
        ("rootsys.disk_hit_ratio", "fraction", "higher"),
        ("verify.suite_ms.quick", "ms/call", "lower"),
        ("verify.suite_ms.full", "ms/call", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.spans_per_op", "count/op", "lower"),
    ]
)


def layer_metrics(spans, ops, validate_ms, traced_ops_per_s):
    """Every LAYER_METRICS value; 0 where the layer did not run."""
    b = busy(spans)

    def get(name):
        return b.get(name, (0, 0.0, 0, 0))

    def ms_per_call(name):
        calls, secs, _, _ = get(name)
        return 1000 * secs / calls if calls else 0.0

    def per_call(name):
        calls, _, counted, _ = get(name)
        return counted / calls if calls else 0.0

    ops = max(ops, 1)
    walk_calls, walk_secs, walked, _ = get("rootsys.walk")
    requests = get("rootsys.tally")[0]
    reads = get("rootsys.tally_read")[0]
    values = {
        "cli.import_ms": ms_per_call("cli.import"),
        "polynomials.validate_ms": validate_ms,
        "groups.parse_calls": get("groups.parse")[0] / ops,
        "groups.parse_ms": 1000 * get("groups.parse")[1] / ops,
        "polynomials.gf_inv_ms": ms_per_call("polynomials.gf_inv"),
        "polynomials.gf_inv_coeffs": per_call("polynomials.gf_inv"),
        "polynomials.gf_des_ms": ms_per_call("polynomials.gf_des"),
        "polynomials.roots_ms": ms_per_call("polynomials.roots"),
        "polynomials.roots_found": per_call("polynomials.roots"),
        "polynomials.roots_failed": get("polynomials.roots")[3],
        "moments.histogram_ms": 1000 * get("moments.histogram")[1] / ops,
        "moments.closed_form_ms": 1000 * get("moments.closed_form")[1] / ops,
        "limits.clt_ms": ms_per_call("limits.clt"),
        "limits.clt_rows": per_call("limits.clt"),
        "limits.lindeberg_ms": ms_per_call("limits.lindeberg"),
        "limits.llt_ms": ms_per_call("limits.llt"),
        "limits.llt_failed": get("limits.llt")[3],
        "interplab.summarize_ms": ms_per_call("interplab.summarize"),
        "interplab.lagrange_ms": ms_per_call("interplab.lagrange"),
        "rootsys.build_ms": ms_per_call("rootsys.build"),
        "rootsys.walk_ms": ms_per_call("rootsys.walk"),
        "rootsys.walk_elements": walked / ops,
        "rootsys.walk_elements_per_s": walked / walk_secs if walk_secs else 0.0,
        "rootsys.tally_write_ms": ms_per_call("rootsys.tally_write"),
        "rootsys.tally_read_ms": ms_per_call("rootsys.tally_read"),
        "rootsys.tally_requests": requests / ops,
        "rootsys.disk_reads": reads / ops,
        "rootsys.disk_hit_ratio": reads / requests if requests else 0.0,
        "verify.suite_ms.quick": ms_per_call("verify.suite.quick"),
        "verify.suite_ms.full": ms_per_call("verify.suite.full"),
        "trace.ops_per_s": traced_ops_per_s,
        "trace.spans_per_op": len(spans) / ops,
    }
    for c in CLI_COMMANDS:
        values[f"cli.main_ms.{c}"] = ms_per_call(f"cli.main.{c}")
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
