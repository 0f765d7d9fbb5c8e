"""``--compare BASE.json NEW.json``: one verdict per workload x metric.

Each file holds one or more sets (``--out`` appends).  For every
workload and end-to-end metric the two sides' medians and quartiles
over their sets are compared:

* **unresolved** — either side's spread (interquartile range over
  median) is wider than the metric's bound, unless every new set reads
  better than every base set, which is **better**;
* **worse** — the new median is worse than the base median by more
  than the bound (for ``fail_ratio``, bound 0: by anything);
* **better** — the new median is better by more than the base's own
  interquartile range;
* **within bound** — otherwise.

The exit status is nonzero when any row is worse.
"""

import json

from benchmarks.suite.metrics import END_TO_END, quartiles


def load_sets(path):
    with open(path) as handle:
        return json.load(handle)["sets"]


def _values(sets, workload, metric):
    return [s["workloads"][workload]["end_to_end"][metric]
            for s in sets if workload in s["workloads"]]


def verdict(metric, base, new):
    """``(verdict, delta)`` for one metric's base and new values.

    *delta* is the relative change of the median, signed so that a
    positive number is a worsening (``None`` when the base median is 0).
    """
    sign = 1 if metric.better == "lower" else -1
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    if metric.bound == 0:
        if n_med > b_med:
            return "worse", None
        if n_med < b_med:
            return "better", None
        return "within bound", None
    delta = sign * (n_med - b_med) / b_med if b_med else None
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0,
                 (n_q3 - n_q1) / n_med if n_med else 0.0)
    if spread > metric.bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better", delta
        return "unresolved", delta
    if delta is not None and delta > metric.bound:
        return "worse", delta
    if sign * (b_med - n_med) > b_q3 - b_q1:
        return "better", delta
    return "within bound", delta


def compare(base_path, new_path, out):
    """Print the comparison table to *out*; returns the exit status."""
    base_sets = load_sets(base_path)
    new_sets = load_sets(new_path)
    workloads = []
    for s in base_sets + new_sets:
        for name in s["workloads"]:
            if name not in workloads:
                workloads.append(name)
    header = ("%-15s %-12s %28s %28s %8s %6s  %s"
              % ("workload", "metric", "base median [q1, q3]",
                 "new median [q1, q3]", "delta", "bound", "verdict"))
    print(header, file=out)
    worse = 0
    for workload in workloads:
        for metric in END_TO_END:
            base = _values(base_sets, workload, metric.name)
            new = _values(new_sets, workload, metric.name)
            if not base or not new:
                continue
            result, delta = verdict(metric, base, new)
            worse += result == "worse"
            b_q1, b_med, b_q3 = quartiles(base)
            n_q1, n_med, n_q3 = quartiles(new)
            print("%-15s %-12s %28s %28s %8s %6s  %s" % (
                workload, metric.name,
                "%.4g [%.4g, %.4g]" % (b_med, b_q1, b_q3),
                "%.4g [%.4g, %.4g]" % (n_med, n_q1, n_q3),
                "n/a" if delta is None else "%+.1f%%" % (delta * 100),
                "%g%%" % (metric.bound * 100), result), file=out)
    print("%d base set(s), %d new set(s); %d worse"
          % (len(base_sets), len(new_sets), worse), file=out)
    return 1 if worse else 0
