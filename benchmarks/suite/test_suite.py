"""Tests for the benchmark suite, at ``--quick`` sizes.

Not collected by the tier-1 run (its ``testpaths`` is ``tests``); run
explicitly:

    PYTHONPATH=src python -m pytest -q benchmarks/suite/test_suite.py
"""

import io
import json
import os
import re

import pytest

from benchmarks.suite import cli
from benchmarks.suite import metrics as m
from benchmarks.suite.compare import verdict
from benchmarks.suite.workloads import WORKLOADS
from repro.obs.export import validate_chrome_trace


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory):
    """One quick traced set over all four workloads: (status, text, doc)."""
    out = tmp_path_factory.mktemp("suite") / "set.json"
    text = io.StringIO()
    status = cli.main(["--quick", "--trace", "--out", str(out)], out=text)
    with open(out) as handle:
        doc = json.load(handle)
    return status, text.getvalue(), doc


def _blocks(text):
    """Split the printed report into ``{workload: block text}``."""
    blocks = {}
    for chunk in text.split("== ")[1:]:
        blocks[chunk.split()[0]] = chunk
    return blocks


def test_every_declared_name_is_printed_with_its_unit(quick_set):
    status, text, _ = quick_set
    assert status == 0, text
    blocks = _blocks(text)
    assert sorted(blocks) == sorted(WORKLOADS)
    for name, block in blocks.items():
        for metric in m.END_TO_END + m.PER_LAYER:
            pattern = r"^\s+%s\s+\S+\s+%s(\s|$)" % (
                re.escape(metric.name), re.escape(metric.unit))
            assert re.search(pattern, block, re.M), (name, metric.name)


def test_quick_set_is_correct_and_path_faithful(quick_set):
    status, text, doc = quick_set
    assert "PROBLEM" not in text
    assert text.count("path fidelity: ok") == len(WORKLOADS)
    (only,) = doc["sets"]
    for name, report in only["workloads"].items():
        assert report["end_to_end"]["fail_ratio"] == 0, name
        assert len(report["per_layer"]) == len(m.PER_LAYER), name


def test_benchmark_json_matches_the_declarations():
    root = cli.ROOT
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    declared = [(x.name, x.unit, x.better, x.bound) for x in m.END_TO_END
                if x.name != "fail_ratio"]
    assert [(x["name"], x["unit"], x["better"], x["bound"])
            for x in bench["end_to_end"]] == declared
    assert [(x["name"], x["unit"], x["better"])
            for x in bench["per_layer"]] == [
        (x.name, x.unit, x.better) for x in m.PER_LAYER]
    setup = next(x for x in bench["end_to_end"] if x["name"] == "setup_s")
    assert setup["bound"] == max(x["bound"] for x in bench["end_to_end"])


def _corrupt(value):
    if isinstance(value, str):
        return value + "corrupted"
    if isinstance(value, list):
        return [_corrupt(value[0])] + value[1:]
    if isinstance(value, dict):
        key = next(iter(value))
        return dict(value, **{key: _corrupt(value[key])})
    raise TypeError(value)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupt_reference_fails_every_run(name, monkeypatch, tmp_path):
    workload = WORKLOADS[name]
    real = type(workload).reference
    monkeypatch.setattr(type(workload), "reference",
                        lambda self, seed: _corrupt(real(self, seed)))
    out = tmp_path / "set.json"
    text = io.StringIO()
    status = cli.main(["--quick", "--workload", name, "--out", str(out)],
                      out=text)
    assert status != 0
    with open(out) as handle:
        report = json.load(handle)["sets"][0]["workloads"][name]
    assert report["end_to_end"]["fail_ratio"] == 1.0
    line = json.loads(text.getvalue().strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"]


def test_format_self_times_fit_in_wall_time_and_trace_is_valid(tmp_path):
    workload = WORKLOADS["format"]
    args = cli.parse_args(["--quick", "--trace"])
    job = cli._job(workload, 1, workload.reference(1), args, traced=True)
    job["trace_out"] = str(tmp_path / "trace.json")
    result = cli.run_worker(job)
    for it in result["iterations"]:
        assert not it["problems"]
        self_total = sum(self_s for _, self_s, _ in it["spans"].values())
        assert 0 < self_total <= it["run_wall_s"]
    with open(job["trace_out"]) as handle:
        summary = validate_chrome_trace(json.load(handle))
    assert summary["X"] > 0


def _around(center, spread=0.01):
    return [center * (1 + spread * k) for k in (-1, 0, 0, 1, 0)]


def test_compare_verdicts():
    run_p50 = next(x for x in m.END_TO_END if x.name == "run_s_p50")
    fail = next(x for x in m.END_TO_END if x.name == "fail_ratio")
    bound = run_p50.bound
    base = _around(1.0)
    assert verdict(run_p50, base, _around(1 + 1.5 * bound))[0] == "worse"
    assert verdict(run_p50, base, _around(1 + 0.5 * bound))[0] == (
        "within bound")
    assert verdict(run_p50, base, _around(1 - 0.5 * bound))[0] == "better"
    assert verdict(run_p50, base, _around(1.0, spread=2 * bound))[0] == (
        "unresolved")
    assert verdict(fail, [0.0, 0.0], [0.0, 0.0, 0.01])[0] == "within bound"
    assert verdict(fail, [0.0, 0.0], [0.01, 0.01])[0] == "worse"


def test_compare_exits_nonzero_on_a_regression(tmp_path):
    def write(path, center):
        sets = [{"seed": 1, "workloads": {"format": {"end_to_end": dict(
            setup_s=0.001, run_s_p50=value, run_s_p90=value,
            runs_per_s=1 / value, peak_rss_mb=20.0, fail_ratio=0.0)}}}
            for value in _around(center)]
        path.write_text(json.dumps({"schema": 1, "sets": sets}))

    bound = max(x.bound for x in m.END_TO_END)
    base, same, slow = (tmp_path / n for n in ("b.json", "s.json", "w.json"))
    write(base, 0.1)
    write(same, 0.1)
    write(slow, 0.1 * (1 + 1.5 * bound))
    text = io.StringIO()
    assert cli.main(["--compare", str(base), str(same)], out=text) == 0
    assert cli.main(["--compare", str(base), str(slow)], out=text) == 1
    assert "worse" in text.getvalue()
