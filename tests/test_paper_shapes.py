"""The paper's performance shapes, held as counted tests.

Host time is too noisy to gate one test run on, so these tests count
work instead: the number of Python function calls made in frames under
the ``repro`` package while a workload runs, across every simulated
process's thread.  Counts are repeatable to within a few percent and
move with the dispatch cost the paper's tables measure.
"""

import sys
import threading

from repro.agents import AGENTS, load_all
from repro.agents.time_symbolic import TimeSymbolic
from repro.kernel.proc import WEXITSTATUS
from repro.kernel.sysent import number_of
from repro.kernel.trap import UserContext
from repro.toolkit import run_under_agent
from repro.workloads import boot_world, make_programs

NR_FORK = number_of("fork")
NR_WAIT = number_of("wait")


def _in_repro(frame):
    name = frame.f_globals.get("__name__", "")
    return name == "repro" or name.startswith("repro.")


def count_repro_calls(action):
    """Run *action()*; return the Python calls made in ``repro`` frames
    and *action*'s result.

    The hook is installed on this thread and on every thread started
    while it runs (each simulated process runs on its own thread).  A
    thread keeps its own tally, so the count needs no lock.
    """
    local = threading.local()
    tallies = []

    def hook(frame, event, arg):
        if event == "call" and _in_repro(frame):
            tally = getattr(local, "tally", None)
            if tally is None:
                tally = local.tally = [0]
                tallies.append(tally)
            tally[0] += 1

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        result = action()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return sum(tally[0] for tally in tallies), result


def _make_agent(name):
    """An agent set up for the make workload (None: no agent)."""
    load_all()
    if name is None:
        return None
    if name == "union":
        agent = AGENTS["union"]()
        src = make_programs.SRC_DIR
        agent.pset.add_union(src, [src, "/usr/tmp"])
        return agent
    if name == "trace":
        return AGENTS["trace"]("/tmp/trace.out")
    agent = AGENTS["timex"]()
    agent.offset = 3600
    return agent


def _make_calls(agent_name):
    world = boot_world()
    make_programs.setup(world)
    agent = _make_agent(agent_name)

    def build():
        if agent is None:
            return make_programs.run(world)
        return run_under_agent(
            world, agent, "/bin/sh",
            ["sh", "-c", "cd %s; make" % make_programs.SRC_DIR])

    calls, status = count_repro_calls(build)
    assert WEXITSTATUS(status) == 0
    return calls


def test_table_3_3_make_orders_none_timex_union_trace():
    """Table 3-3: make under timex costs least, trace most, union between.

    The paper's slowdowns are +19%, +82% and +107%.  This test checks
    only their order.
    """
    counts = {name or "none": _make_calls(name)
              for name in (None, "timex", "union", "trace")}
    assert (counts["none"] < counts["timex"] < counts["union"]
            < counts["trace"]), counts


def _fork_loop_calls(with_agent, loops=20):
    world = boot_world()
    ctx = UserContext(world, world._create_initial_process())
    if with_agent:
        TimeSymbolic().attach(ctx)

    def fork_wait_exit():
        for _ in range(loops):
            ctx.trap(NR_FORK, None)  # the child just _exits
            ctx.trap(NR_WAIT)

    calls, _ = count_repro_calls(fork_wait_exit)
    return calls


def test_table_3_5_fork_under_agent_at_most_doubles():
    """Table 3-5: fork(), wait(), _exit() under time_symbolic costs at
    most twice the same loop with no agent (the paper: 9.4 to 19.4 ms).
    """
    bare = _fork_loop_calls(with_agent=False)
    agent = _fork_loop_calls(with_agent=True)
    assert agent <= 2 * bare, (agent, bare)
