"""Metric declarations and their computation from worker results.

``END_TO_END`` and ``PER_LAYER`` are the suite's contract: names, units,
which direction is better, and (end to end) the bound by which a metric
may worsen before a change counts as a regression.  ``BENCHMARK.json``
at the repository root repeats them; ``test_suite.py`` keeps the two
in step.
"""

import collections
import statistics
from statistics import median

#: one declared metric; ``bound`` is None for per-layer metrics
Metric = collections.namedtuple("Metric", "name unit better bound",
                                defaults=(None,))


#: what a user of the simulator sees, per workload.  Each bound is more
#: than twice the widest interquartile spread (over median) seen across
#: ten seeds on a 2-vCPU VM (README.md, "Bounds"); ``fail_ratio`` has
#: bound 0: any increase is a regression.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s_p50", "s", "lower", 0.20),
    Metric("run_s_p90", "s", "lower", 0.25),
    Metric("runs_per_s", "runs/s", "higher", 0.20),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("fail_ratio", "ratio", "lower", 0.0),
)

#: the fifteen system calls reported one by one
SYSCALLS = ("open", "close", "read", "write", "stat", "lstat",
            "getdirentries", "fork", "execve", "wait", "mkdir", "rmdir",
            "unlink", "rename", "link")


def _per_layer():
    rows = [("programs.self_s", "s", "lower"),
            ("kernel.trap.calls", "count", "lower"),
            ("kernel.trap.self_s", "s", "lower"),
            ("kernel.trap.fast_ratio", "ratio", "higher"),
            ("kernel.syscalls.self_s", "s", "lower")]
    for name in SYSCALLS:
        rows.append(("kernel.syscalls.%s.calls" % name, "count", "lower"))
        rows.append(("kernel.syscalls.%s.self_s" % name, "s", "lower"))
    rows += [("kernel.namei.calls", "count", "lower"),
             ("kernel.namei.self_s", "s", "lower"),
             ("kernel.namecache.hit_ratio", "ratio", "higher"),
             ("kernel.namecache.evictions", "count", "lower"),
             ("kernel.ufs.calls", "count", "lower"),
             ("kernel.ufs.self_s", "s", "lower"),
             ("kernel.journal.txns", "count", "lower"),
             ("kernel.journal.self_s", "s", "lower"),
             ("kernel.journal.abort_ratio", "ratio", "lower"),
             ("obs.calls", "count", "lower"),
             ("obs.self_s", "s", "lower"),
             ("kernel.trap.compiled_ratio", "ratio", "higher"),
             ("kernel.trap.htg_calls", "count", "lower"),
             ("kernel.trap.htg_self_s", "s", "lower"),
             ("kernel.compile.builds", "count", "lower"),
             ("kernel.compile.busy_s", "s", "lower"),
             ("kernel.compile.down_hits", "count", "higher"),
             ("toolkit.entry.calls", "count", "lower"),
             ("toolkit.entry.self_s", "s", "lower"),
             ("toolkit.down.calls", "count", "lower"),
             ("toolkit.down.self_s", "s", "lower"),
             ("agents.union.self_s", "s", "lower"),
             ("agents.txn.self_s", "s", "lower"),
             ("agents.monitor.self_s", "s", "lower"),
             ("kernel.sched.waits", "count", "lower"),
             ("kernel.sched.wait_s", "s", "lower"),
             ("kernel.proc.spawns", "count", "lower"),
             ("kernel.proc.exec_load_s", "s", "lower"),
             ("setup.boot_s", "s", "lower"),
             ("setup.workload_s", "s", "lower"),
             ("sim.traps", "count", "lower"),
             ("sim.virtual_usec", "us", "lower"),
             ("bench.trace_overhead_pct", "%", "lower")]
    return tuple(Metric(*row) for row in rows)


PER_LAYER = _per_layer()

#: counters the traced run must reproduce exactly (path-fidelity gate)
FIDELITY_COUNTERS = ("trap_total", "trap_fast_total", "trap_compiled_total",
                     "down_compiled_total", "namecache_hits",
                     "namecache_misses")


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def end_to_end(result):
    """End-to-end metric values from one untraced worker result.

    ``setup_s`` and ``run_s_*`` are CPU seconds (see
    :func:`benchmarks.suite.worker.iteration`); ``runs_per_s`` divides
    by wall seconds, so time a change spends off the CPU still shows.
    """
    kept = result["iterations"]
    run_s = [it["run_s"] for it in kept]
    failed = sum(1 for it in kept if it["problems"])
    return {
        "setup_s": median(it["setup_s"] for it in kept),
        "run_s_p50": median(run_s),
        "run_s_p90": statistics.quantiles(run_s, n=10)[-1],
        "runs_per_s": len(kept) / sum(it["run_wall_s"] for it in kept),
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_ratio": failed / len(kept),
    }


def _layer_of(span):
    """The layer a span name is charged to (its metric prefix)."""
    if span.startswith("kernel.syscalls."):
        return "kernel.syscalls"
    if span.startswith("agents."):
        return ".".join(span.split(".")[:2])
    for layer in ("kernel.ufs", "kernel.journal", "obs", "programs"):
        if span == layer or span.startswith(layer + "."):
            return layer
    return span


def _layer_values(spans, counts):
    """Per-layer values of one traced iteration."""
    by_layer = {}
    for span, (calls, self_s, _) in spans.items():
        into = by_layer.setdefault(_layer_of(span), [0, 0.0])
        into[0] += calls
        into[1] += self_s

    def calls(layer):
        return by_layer.get(layer, (0, 0.0))[0]

    def self_s(layer):
        return by_layer.get(layer, (0, 0.0))[1]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    traps = counts["trap_total"]
    values = {
        "programs.self_s": self_s("programs"),
        "kernel.trap.calls": calls("kernel.trap"),
        "kernel.trap.self_s": self_s("kernel.trap"),
        "kernel.trap.fast_ratio": ratio(counts["trap_fast_total"], traps),
        "kernel.syscalls.self_s": self_s("kernel.syscalls"),
        "kernel.namei.calls": calls("kernel.namei"),
        "kernel.namei.self_s": self_s("kernel.namei"),
        "kernel.namecache.hit_ratio": ratio(
            counts["namecache_hits"],
            counts["namecache_hits"] + counts["namecache_misses"]),
        "kernel.namecache.evictions": counts["namecache_evictions"],
        "kernel.ufs.calls": calls("kernel.ufs"),
        "kernel.ufs.self_s": self_s("kernel.ufs"),
        "kernel.journal.txns": counts["journal_begun"],
        "kernel.journal.self_s": self_s("kernel.journal"),
        "kernel.journal.abort_ratio": ratio(counts["journal_aborted"],
                                            counts["journal_begun"]),
        "obs.calls": calls("obs"),
        "obs.self_s": self_s("obs"),
        "kernel.trap.compiled_ratio": ratio(counts["trap_compiled_total"],
                                            traps),
        "kernel.trap.htg_calls": calls("kernel.trap.htg"),
        "kernel.trap.htg_self_s": self_s("kernel.trap.htg"),
        "kernel.compile.builds": calls("kernel.compile"),
        "kernel.compile.busy_s": spans.get("kernel.compile",
                                           (0, 0.0, 0.0))[2],
        "kernel.compile.down_hits": counts["down_compiled_total"],
        "toolkit.entry.calls": calls("toolkit.entry"),
        "toolkit.entry.self_s": self_s("toolkit.entry"),
        "toolkit.down.calls": calls("toolkit.down"),
        "toolkit.down.self_s": self_s("toolkit.down"),
        "agents.union.self_s": self_s("agents.union"),
        "agents.txn.self_s": self_s("agents.txn"),
        "agents.monitor.self_s": self_s("agents.monitor"),
        "kernel.sched.waits": calls("kernel.sched.sleep"),
        "kernel.sched.wait_s": self_s("kernel.sched.sleep"),
        "kernel.proc.spawns": calls("kernel.proc.spawn"),
        "kernel.proc.exec_load_s": self_s("kernel.proc.exec_load"),
    }
    for name in SYSCALLS:
        row = spans.get("kernel.syscalls." + name, (0, 0.0, 0.0))
        values["kernel.syscalls.%s.calls" % name] = row[0]
        values["kernel.syscalls.%s.self_s" % name] = row[1]
    return values


def per_layer(untraced, traced):
    """Per-layer metric values: medians over the traced iterations.

    Counter-derived values come from the traced iterations too; the
    fidelity gate guarantees they equal the untraced ones.  ``setup.*``
    and ``sim.*`` come from the untraced run, and the tracing overhead
    compares the two runs' median client-run times.
    """
    rows = [_layer_values(it["spans"], it["counters"])
            for it in traced["iterations"]]
    values = {name: median(row[name] for row in rows) for name in rows[0]}
    plain = untraced["iterations"]
    values["setup.boot_s"] = median(it["boot_s"] for it in plain)
    values["setup.workload_s"] = median(it["workload_s"] for it in plain)
    values["sim.traps"] = median(it["counters"]["trap_total"] for it in plain)
    values["sim.virtual_usec"] = median(
        it["counters"]["virtual_usec"] for it in plain)
    traced_p50 = median(it["run_s"] for it in traced["iterations"])
    plain_p50 = median(it["run_s"] for it in plain)
    values["bench.trace_overhead_pct"] = (traced_p50 / plain_p50 - 1) * 100
    return values


def repeats_exactly(result):
    """Whether every iteration simulated the same traps and virtual time."""
    return {key: len({it["counters"][key] for it in result["iterations"]}) == 1
            for key in ("trap_total", "virtual_usec")}


def fidelity_problems(untraced, traced):
    """Traced iterations whose dispatch counters differ from untraced."""
    expected = {key: untraced["iterations"][0]["counters"][key]
                for key in FIDELITY_COUNTERS}
    problems = []
    for index, it in enumerate(traced["iterations"]):
        for key, want in expected.items():
            got = it["counters"][key]
            if got != want:
                problems.append("traced iteration %d: %s %d != untraced %d"
                                % (index, key, got, want))
    return problems
