"""One workload, measured in a process of its own.

Run as ``python -m benchmarks.suite.worker``: reads a job (JSON) on
standard input, prints the result (JSON) as the last line of standard
output.  A job runs a closed loop with one client: per iteration it
boots a fresh world, sets the workload up (untimed), times one complete
client run with the garbage collector collected beforehand and disabled
throughout, and checks the output with the workload's oracle.  The
first ``warmup`` iterations are discarded.  The loop runs until both
``seconds`` of wall time have passed and ``min_iters`` iterations were
kept.

With ``trace`` set, the :class:`~benchmarks.suite.tracer.Tracer` is
installed before the first boot and every kept iteration also reports
its per-span totals; the last one is exported as a Chrome trace.
"""

import gc
import json
import os
import resource
import sys
import time

from benchmarks.suite.tracer import Tracer
from benchmarks.suite.workloads import WORKLOADS


def counters(kernel):
    """The kernel's dispatch, cache, journal and clock counters."""
    cache = kernel.namecache
    # getattr: volumes had no journal before it was added, and the
    # suite also measures commits from before then.
    journals = [fs.journal for fs in kernel._volumes
                if getattr(fs, "journal", None) is not None]
    return {
        "trap_total": kernel.trap_total,
        "trap_fast_total": kernel.trap_fast_total,
        "trap_compiled_total": kernel.trap_compiled_total,
        "down_compiled_total": kernel.down_compiled_total,
        "namecache_hits": cache.hits if cache is not None else 0,
        "namecache_misses": cache.misses if cache is not None else 0,
        "namecache_evictions": cache.evictions if cache is not None else 0,
        "journal_begun": sum(j.begun for j in journals),
        "journal_aborted": sum(j.aborted for j in journals),
        "virtual_usec": kernel.clock.usec(),
    }


def _delta(after, before):
    return {key: after[key] - before[key] for key in after}


def iteration(workload, inputs, reference, tracer=None):
    """Boot, set up, run once, check; returns the iteration's record.

    ``boot_s``, ``setup_s`` and ``run_s`` are the process's CPU seconds
    (all threads), ``run_wall_s`` the client run's wall seconds.  The
    simulator runs one host thread at a time and never waits on the
    host, so on an idle CPU the two clocks agree to within 0.1%; the
    CPU clock leaves out the time the worker was preempted or its
    virtual CPU was stolen, which on a shared host is most of the
    run-to-run noise.
    """
    start = time.process_time()
    kernel = workload.boot()
    booted = time.process_time()
    workload.setup(kernel, inputs)
    ready = time.process_time()
    if tracer is not None:
        tracer.attach(kernel)
    before = counters(kernel)
    error = None
    statuses, output = [], None
    gc.collect()
    gc.disable()
    try:
        if tracer is not None:
            tracer.begin()
        run_start = time.process_time()
        wall_start = time.perf_counter()
        try:
            statuses, output = workload.run(kernel, inputs)
        except Exception as exc:  # a failed run is counted, not fatal
            error = "%s: %s" % (type(exc).__name__, exc)
        run_wall_s = time.perf_counter() - wall_start
        run_s = time.process_time() - run_start
        spans = tracer.end() if tracer is not None else None
    finally:
        gc.enable()
    problems = [error] if error else workload.check(
        kernel, statuses, output, reference)
    record = {
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "boot_s": booted - start,
        "workload_s": ready - booted,
        "setup_s": ready - start,
        "problems": problems,
        "counters": _delta(counters(kernel), before),
    }
    if spans is not None:
        record["spans"] = spans
    return record


def pin_to_one_cpu():
    """Run this process, and the threads it starts, on one CPU.

    The simulator runs one host thread per simulated process but only
    one at a time (the kernel lock and the interpreter lock); letting
    the scheduler move those threads between CPUs adds wake-up latency
    and cache misses that vary from run to run.  Pinning made the
    tail of the run-time distribution markedly tighter on a 2-vCPU VM.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_job(job):
    """Execute one job dict; returns the result dict."""
    pin_to_one_cpu()
    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[job["workload"]]
    inputs = workload.inputs(job["seed"])
    reference = job["reference"]
    for _ in range(job["warmup"]):
        iteration(workload, inputs, reference, tracer)
    kept = []
    started = time.perf_counter()
    while (len(kept) < job["min_iters"]
           or time.perf_counter() - started < job["seconds"]):
        kept.append(iteration(workload, inputs, reference, tracer))
    result = {"iterations": kept}
    trace_out = job.get("trace_out")
    if tracer is not None and trace_out:
        # One more run, recorded span by span, for the export only.
        tracer.recording = True
        iteration(workload, inputs, reference, tracer)
        tracer.recording = False
        result["chrome_trace"] = {
            "path": trace_out,
            "summary": tracer.write_chrome_trace(trace_out),
        }
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


def main():
    job = json.load(sys.stdin)
    print(json.dumps(run_job(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
