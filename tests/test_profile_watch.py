"""Tests for the sampling profiler and the watchpoint engine.

The profiler samples on the virtual clock, so its output is a pure
function of the run: determinism across identical runs and bit-identity
across a record/replay round trip are the acceptance bars.  Watchpoints
evaluate declarative rules at trap-spine flush points; the grammar
round-trips, trips emit events/counters/signals, evaluation is armoured
against malformed rules, and a seeded chaos run under a fuzzing rule
set never panics the machine.
"""

import pytest

from repro.kernel import Kernel
from repro.kernel.proc import WEXITSTATUS
from repro.kernel.sysent import number_of
from repro.obs.profile import Profiler, disable_profile, enable_profile
from repro.obs.recorder import Recorder
from repro.obs.watch import (
    WatchRule,
    WatchSet,
    disable_watches,
    enable_watches,
)
from repro.workloads import boot_world

NR_GETPID = number_of("getpid")


# -- profiler: lifecycle ---------------------------------------------------


def test_enable_disable_roundtrip(kernel):
    prof = enable_profile(kernel, interval_usec=500)
    assert kernel.profiler is prof
    # Same interval: idempotent, samples keep accumulating.
    assert enable_profile(kernel, interval_usec=500) is prof
    # New interval: a fresh profiler replaces it.
    other = enable_profile(kernel, interval_usec=250)
    assert other is not prof and kernel.profiler is other
    assert disable_profile(kernel) is other
    assert kernel.profiler is None
    assert disable_profile(kernel) is None


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        Profiler(interval_usec=0)


def test_stats_shape(kernel):
    prof = enable_profile(kernel)
    assert prof.stats() == {"enabled": True, "interval_usec": 1000,
                            "samples": 0, "stacks": 0}


# -- profiler: sampling ----------------------------------------------------


def _profiled_run(interval=300):
    """A deterministic workload under a fresh profiler; returns it."""
    world = boot_world()
    prof = enable_profile(world, interval_usec=interval)
    status = world.run("/bin/sh",
                       ["sh", "-c", "echo hi; cat /etc/passwd | wc"])
    assert WEXITSTATUS(status) == 0
    world.console.take_output()
    return prof


def test_samples_attribute_kernel_leaves():
    prof = _profiled_run()
    assert prof.sample_total > 0
    lines = prof.collapsed()
    assert lines
    for line in lines:
        stack, count = line.rsplit(" ", 1)
        frames = stack.split(";")
        assert frames[0] == "user" and int(count) > 0
        assert all(f.startswith(("kernel:", "agent:")) for f in frames[1:])


def test_consume_cpu_spans_charge_user_time(kernel):
    prof = enable_profile(kernel, interval_usec=1000)

    def main(ctx):
        ctx.consume_cpu(10_000)
        return 0

    assert WEXITSTATUS(kernel.run_entry(main)) == 0
    folded = dict(
        line.rsplit(" ", 1) for line in prof.collapsed())
    # The 10ms burn crosses ten 1ms boundaries, all charged to pure
    # user time (no kernel leaf during consume_cpu).
    assert int(folded["user"]) >= 10


def test_identical_runs_profile_identically():
    """A single-process workload samples identically run to run.

    (Multi-process workloads interleave on host threads, so *their*
    bit-identity guarantee is the record/replay round trip below.)
    """

    def run_once():
        world = boot_world()
        prof = enable_profile(world, interval_usec=300)

        def main(ctx):
            fd = ctx.trap(number_of("open"), "/etc/passwd", 0, 0)
            while ctx.trap(number_of("read"), fd, 64):
                ctx.consume_cpu(250)
            ctx.trap(number_of("close"), fd)
            return 0

        assert WEXITSTATUS(world.run_entry(main)) == 0
        return prof

    first, second = run_once(), run_once()
    assert first.sample_total == second.sample_total > 0
    assert first.collapsed(per_pid=True) == second.collapsed(per_pid=True)
    assert first.timeline == second.timeline


def test_table_and_counters_are_consistent():
    prof = _profiled_run()
    rows = {frame: (self_c, total_c)
            for frame, self_c, total_c in prof.table()}
    # Every sample has the user base frame, so user's total is the total.
    assert rows["user"][1] == prof.sample_total
    counters = prof.chrome_counters()
    assert sum(e["args"]["samples"] for e in counters) == prof.sample_total
    assert all(e["ph"] == "C" for e in counters)


def test_agent_frames_appear_under_interposition():
    from repro.agents.monitor import MonitorAgent
    from repro.toolkit import run_under_agent

    world = boot_world()
    prof = enable_profile(world, interval_usec=300)
    agent = MonitorAgent("/tmp/prof.monitor")
    status = run_under_agent(world, agent, "/bin/sh",
                             ["sh", "-c", "cat /etc/passwd > /dev/null"])
    assert WEXITSTATUS(status) == 0
    agent_frames = [line for line in prof.collapsed()
                    if "agent:symbolic" in line]
    assert agent_frames
    # Agent frames nest between user and the kernel leaf.
    for line in agent_frames:
        frames = line.rsplit(" ", 1)[0].split(";")
        assert frames[0] == "user"
        assert frames[1].startswith("agent:")


def test_per_pid_collapsed_output():
    prof = _profiled_run()
    per_pid = prof.collapsed(per_pid=True)
    assert all(line.startswith("pid") for line in per_pid)
    # Folding pids back together recovers the machine view's total.
    total = sum(int(line.rsplit(" ", 1)[1]) for line in per_pid)
    assert total == prof.sample_total


# -- profiler: record/replay bit-identity ----------------------------------


def test_profile_is_bit_identical_across_record_replay():
    command = "echo det; cat /etc/passwd | wc"

    world = boot_world()
    Recorder(mode="record").attach(world)
    prof1 = enable_profile(world, interval_usec=300)
    status = world.run("/bin/sh", ["sh", "-c", command])
    assert WEXITSTATUS(status) == 0
    decisions = world.recorder.decisions

    world2 = boot_world()
    Recorder(mode="replay", log=decisions).attach(world2)
    prof2 = enable_profile(world2, interval_usec=300)
    status = world2.run("/bin/sh", ["sh", "-c", command])
    assert WEXITSTATUS(status) == 0

    assert prof1.sample_total == prof2.sample_total > 0
    assert prof1.collapsed(per_pid=True) == prof2.collapsed(per_pid=True)
    assert prof1.timeline == prof2.timeline


# -- profiler: agent frames under an agent stack --------------------------


def test_profiler_shows_agent_frames_under_agent_stack():
    from repro.kernel.trap import UserContext
    from repro.toolkit.symbolic import SymbolicSyscall

    k = Kernel()
    proc = k._create_initial_process()
    ctx = UserContext(k, proc)
    agent = SymbolicSyscall()
    agent.attach(ctx, [])
    ctx.trap(NR_GETPID)
    # Interval = the 100 usec trap tick, so every trap takes a sample.
    prof = enable_profile(k, interval_usec=100)
    ctx.trap(NR_GETPID)
    assert any("agent:symbolic" in line for line in prof.collapsed())
    taken = prof.sample_total
    disable_profile(k)
    ctx.trap(NR_GETPID)
    assert prof.sample_total == taken


# -- watch rules: grammar --------------------------------------------------


def test_parse_describe_roundtrip():
    text = ("# alert on hot readers\n"
            "counter_rate trap|read > 1000\n"
            "histogram_p99 trap.vusec|open >= 500\n"
            "gauge_threshold trap.pid|<pid>|write >= 3 signal 16\n")
    watches = WatchSet.parse(text)
    assert len(watches.rules) == 3
    reparsed = WatchSet.parse(watches.describe())
    assert reparsed.describe() == watches.describe()
    assert watches.rules[2].per_pid
    assert watches.rules[2].signum == 16


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        WatchSet.parse("counter_rate trap|read >\n")
    with pytest.raises(ValueError):
        WatchRule("no_such_kind", "trap|read", ">", 1)
    with pytest.raises(ValueError):
        WatchRule("counter_rate", "trap|read", "!=", 1)


def test_random_sets_are_seed_deterministic():
    a = WatchSet.random(7)
    b = WatchSet.random(7)
    c = WatchSet.random(8)
    assert a.describe() == b.describe()
    assert a.describe() != c.describe()
    assert len(a.rules) == 8


# -- watch rules: evaluation -----------------------------------------------


def _watched_world(spec, interval=500):
    from repro import obs

    world = boot_world()
    obs.enable(world)
    watches = enable_watches(world, spec, interval_usec=interval)
    return world, watches


def test_gauge_threshold_trips_and_counts():
    world, watches = _watched_world(
        "gauge_threshold trap|write >= 3\n", interval=200)
    # The trailing cat gives the evaluator virtual time to run *after*
    # the third write has pushed the gauge over the threshold.
    status = world.run(
        "/bin/sh",
        ["sh", "-c", "echo a; echo b; echo c; cat /etc/passwd > /dev/null"])
    assert WEXITSTATUS(status) == 0
    world.console.take_output()
    rule = watches.rules[0]
    assert watches.evals > 0
    assert rule.trips > 0 and watches.trip_total >= rule.trips
    assert world.obs.metrics.counter(("watch.trip", rule.line)) == rule.trips
    stats = watches.stats()
    assert stats["enabled"] is True and stats["trips"] == watches.trip_total


def test_counter_rate_needs_two_evaluations():
    world, watches = _watched_world(
        "counter_rate trap|getpid > 0\n", interval=200)

    def main(ctx):
        for _ in range(40):
            ctx.trap(NR_GETPID)
        return 0

    assert WEXITSTATUS(world.run_entry(main)) == 0
    rule = watches.rules[0]
    # First evaluation only primes _prev; later ones see the rate.
    assert watches.evals >= 2
    assert rule.trips >= 1


def test_watch_trip_emits_event_and_posts_signal():
    from repro import obs
    from repro.kernel import signals as sig
    from repro.obs import events as ev

    world = boot_world()
    switchboard = obs.enable(world, trace_all=True)
    kinds = []
    switchboard.bus.subscribe(lambda event: kinds.append(event.kind))
    enable_watches(
        world, "gauge_threshold trap.pid|<pid>|getpid >= 5 signal %d\n"
        % sig.SIGUSR1, interval_usec=300)
    caught = []

    def main(ctx):
        ctx.trap(number_of("sigvec"), sig.SIGUSR1,
                 lambda signum: caught.append(signum), 0)
        for _ in range(40):
            ctx.trap(NR_GETPID)
        return 0

    assert WEXITSTATUS(world.run_entry(main)) == 0
    assert ev.WATCH_TRIP in kinds
    assert caught and caught[0] == sig.SIGUSR1


def test_evaluation_is_armoured_against_bad_rules():
    world, watches = _watched_world(
        "gauge_threshold bogus|key >= 0\n"          # fires on zero
        "histogram_p99 trap|read > 0\n"             # key is a counter
        "counter_rate trap.pid|<pid>|read > 1e18\n")  # never fires
    status = world.run("/bin/sh", ["sh", "-c", "echo ok"])
    assert WEXITSTATUS(status) == 0
    world.console.take_output()
    assert watches.evals > 0  # the machine kept running regardless


def test_watches_without_obs_are_inert(kernel):
    watches = enable_watches(kernel, "gauge_threshold trap|read >= 0\n",
                             interval_usec=200)

    def main(ctx):
        for _ in range(20):
            ctx.trap(NR_GETPID)
        return 0

    assert WEXITSTATUS(kernel.run_entry(main)) == 0
    # No metrics registry to read: evaluations happen, nothing trips.
    assert watches.evals > 0 and watches.trip_total == 0
    assert disable_watches(kernel) is watches
    assert kernel.watches is None


# -- watch rules: chaos fuzzing --------------------------------------------


@pytest.mark.parametrize("seed", [2, 19])
def test_fuzzed_watch_rules_never_panic_the_machine(seed):
    from repro.workloads.chaos import run_scenario

    def on_boot(kernel):
        from repro import obs

        obs.enable(kernel)
        enable_watches(kernel, WatchSet.random(seed), interval_usec=2_000)

    report = run_scenario(seed, policy="fail-open", mechanism="wrapper",
                          workload="files", on_boot=on_boot)
    assert report.outcome != "panic"
    assert report.passed, report.violations
