"""Command line: run workloads, print every metric, compare result files.

    PYTHONPATH=src python -m benchmarks.suite [--workload W] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
    PYTHONPATH=src python -m benchmarks.suite --compare BASE.json NEW.json

Workloads run one after another, each in a worker process of its own
(see :mod:`benchmarks.suite.worker`).  References for the oracles are
made here, once per set, and handed to the workers.  With ``--trace``
each workload runs twice: untraced (for the path-fidelity counters and
the tracing overhead) and traced (for the per-layer spans).

When one workload is selected, the last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (or, with ``--trace``, the per-layer ones) with
their units.  The exit status is nonzero when any run failed its
oracle, the fidelity gate failed, or a worker did not finish.
"""

import argparse
import json
import os
import subprocess
import sys

from benchmarks.suite import metrics as m

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
OUT_DIR = os.path.join(ROOT, "benchmarks", "suite", "out")

#: discarded iterations before the kept ones
WARMUP = 3
#: kept iterations per traced (and matching untraced) run
TRACE_ITERS = 20
#: a worker that runs longer than this is stopped and counted as failed
WORKER_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    """A worker process exited abnormally or printed no result."""


def run_worker(job, timeout=WORKER_TIMEOUT_S):
    """Run one job in a fresh interpreter; returns its result dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + [p for p in [env.get("PYTHONPATH")] if p])
    # Fixed string hashing: dict and set order — and with them the
    # interpreter's work — must not change from one worker to the next.
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.suite.worker"],
            input=json.dumps(job), capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed("%s worker exceeded %d s"
                           % (job["workload"], timeout)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed("%s worker exited %d:\n%s"
                           % (job["workload"], proc.returncode,
                              proc.stderr[-4000:]))
    return json.loads(lines[-1])


def _job(workload, seed, reference, args, traced=False):
    """A worker job; *traced* marks the traced half of a ``--trace`` run."""
    if args.quick:
        min_iters, warmup, seconds = (2 if args.trace else 3), 1, 0.0
    elif args.trace:
        # The untraced and traced halves share the run length.
        min_iters, warmup, seconds = TRACE_ITERS, WARMUP, args.seconds / 2
    else:
        min_iters, warmup, seconds = (workload.iterations, WARMUP,
                                      args.seconds)
    job = {"workload": workload.name, "seed": seed, "reference": reference,
           "min_iters": min_iters, "warmup": warmup, "seconds": seconds,
           "trace": traced}
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        job["trace_out"] = os.path.join(
            OUT_DIR, "trace-%s-seed%d.json" % (workload.name, seed))
    return job


def measure(workload, seed, args):
    """Run one workload (untraced, then traced if asked); returns a report.

    The report holds the end-to-end values, per-layer values when
    traced, the attempted and failed run counts, and every problem
    found (oracle failures, fidelity-gate mismatches).
    """
    reference = workload.reference(seed)
    job = _job(workload, seed, reference, args)
    untraced = run_worker(job)
    runs = [untraced]
    report = {"end_to_end": m.end_to_end(untraced),
              "n": len(untraced["iterations"]), "warmup": job["warmup"]}
    if args.trace:
        traced = run_worker(_job(workload, seed, reference, args,
                                 traced=True))
        runs.append(traced)
        report["per_layer"] = m.per_layer(untraced, traced)
        report["traced_n"] = len(traced["iterations"])
        report["fidelity"] = m.fidelity_problems(untraced, traced)
        report["chrome_trace"] = traced.get("chrome_trace")
    report["repeats_exactly"] = m.repeats_exactly(untraced)
    problems = []
    for run in runs:
        for index, it in enumerate(run["iterations"]):
            problems += ["run %d: %s" % (index, p) for p in it["problems"]]
    report["attempted"] = sum(len(run["iterations"]) for run in runs)
    report["failed"] = sum(1 for run in runs for it in run["iterations"]
                           if it["problems"])
    report["problems"] = problems + report.get("fidelity", [])
    return report


def _format_value(value):
    return repr(value) if isinstance(value, int) else "%.6g" % value


def print_report(name, seed, report, out):
    print("== %s  seed %d  (%d timed runs kept, %d warm-up discarded)"
          % (name, seed, report["n"], report["warmup"]), file=out)
    for metric in m.END_TO_END:
        print("  %-14s %14s %-7s n=%d" % (
            metric.name, _format_value(report["end_to_end"][metric.name]),
            metric.unit, report["n"]), file=out)
    repeats = report["repeats_exactly"]
    print("  sim repeats exactly: traps %s, virtual_usec %s" % (
        "yes" if repeats["trap_total"] else "no",
        "yes" if repeats["virtual_usec"] else "no"), file=out)
    if "per_layer" in report:
        print("  per layer (median per run over %d traced runs):"
              % report["traced_n"], file=out)
        for metric in m.PER_LAYER:
            print("    %-34s %14s %s" % (
                metric.name, _format_value(report["per_layer"][metric.name]),
                metric.unit), file=out)
        print("  path fidelity: %s" % (
            "ok" if not report["fidelity"] else "FAILED"), file=out)
        trace = report["chrome_trace"]
        if trace:
            print("  chrome trace: %s (%d spans, valid)" % (
                os.path.relpath(trace["path"], ROOT),
                trace["summary"]["X"]), file=out)
    for problem in report["problems"][:10]:
        print("  PROBLEM: %s" % problem, file=out)


def contract_line(report, traced):
    """The one-line JSON result of a single-workload run."""
    declared = m.PER_LAYER if traced else [
        metric for metric in m.END_TO_END if metric.name != "fail_ratio"]
    values = report["per_layer"] if traced else report["end_to_end"]
    return json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {metric.name: {"value": values[metric.name],
                                  "unit": metric.unit}
                    for metric in declared},
    })


def append_out(path, seed, reports):
    """Append this set to the result file at *path* (created if absent)."""
    doc = {"schema": 1, "sets": []}
    if os.path.exists(path):
        with open(path) as handle:
            doc = json.load(handle)
    doc["sets"].append({"seed": seed, "workloads": {
        name: {key: report[key] for key in ("end_to_end", "per_layer", "n")
               if key in report}
        for name, report in reports.items()}})
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)


def parse_args(argv):
    from benchmarks.suite.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Run the benchmark suite and print every metric.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep running each workload at least this "
                             "long (default: only the fixed run counts)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run traced and print per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="a few runs per workload (for tests)")
    parser.add_argument("--out", help="append this set's results to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result files and exit")
    return parser.parse_args(argv)


def main(argv=None, out=None):
    out = out or sys.stdout
    args = parse_args(argv)
    if args.compare:
        from benchmarks.suite.compare import compare
        return compare(args.compare[0], args.compare[1], out)
    from benchmarks.suite.workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = {}
    status = 0
    for name in names:
        try:
            report = measure(WORKLOADS[name], args.seed, args)
        except WorkerFailed as exc:
            print("== %s  seed %d  FAILED: %s" % (name, args.seed, exc),
                  file=out)
            status = 1
            continue
        reports[name] = report
        print_report(name, args.seed, report, out)
        if report["problems"]:
            status = 1
    if args.out and reports:
        append_out(args.out, args.seed, reports)
    if args.workload and reports:
        print(contract_line(reports[args.workload], args.trace), file=out)
    return status
