"""Integration tests: several agents simultaneously interposed.

The paper's motivation (Section 1.4): interposition "can allow for a
multiplicity of simultaneously coexisting implementations of the system
call services, which in turn may utilize one another without requiring
changes to existing client binaries."  These tests stack the shipped
agents in combinations and check that each layer's semantics compose.
"""

import pytest

from repro.agents.monitor import MonitorAgent
from repro.agents.sandbox import SandboxAgent, SandboxPolicy
from repro.agents.timex import TimexSymbolicSyscall
from repro.agents.trace import TraceSymbolicSyscall
from repro.agents.txn import TxnAgent
from repro.agents.union_dirs import UnionAgent
from repro.kernel import Kernel
from repro.kernel import signals as sig
from repro.kernel.errno import EBADF, EINVAL, ENOENT, SyscallError
from repro.kernel.ofile import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
from repro.kernel.proc import WEXITSTATUS
from repro.kernel.sysent import number_of
from repro.kernel.trap import UserContext
from repro.toolkit.symbolic import SymbolicSyscall
from repro.workloads import boot_world

NR = {name: number_of(name) for name in (
    "getpid", "open", "close", "readv", "writev", "stat", "mkdir",
    "sigvec", "kill",
)}


def run_stacked(kernel, agents, path, argv):
    """Attach *agents* bottom-up, then exec the client through the top."""

    def loader(ctx):
        for agent in agents:
            agent.attach(ctx)
        agents[-1].exec_client(path, argv, {})

    return kernel.run_entry(loader)


def test_trace_over_union_sees_logical_names(world):
    world.mkdir_p("/m1")
    world.mkdir_p("/m2")
    world.write_file("/m2/deep.txt", "found in member two")
    world.mkdir_p("/u")
    union = UnionAgent()
    union.pset.add_union("/u", ["/m1", "/m2"])
    trace = TraceSymbolicSyscall("/tmp/stack.trace")

    # union below, trace on top: the trace shows what the APPLICATION
    # asked for (the logical /u name), while the union resolves it.
    status = run_stacked(
        world, [union, trace], "/bin/sh", ["sh", "-c", "cat /u/deep.txt"]
    )
    assert WEXITSTATUS(status) == 0
    assert "found in member two" in world.console.take_output().decode()
    log = world.read_file("/tmp/stack.trace").decode()
    assert "open('/u/deep.txt'" in log.replace('"', "'")


def test_union_over_trace_sees_physical_names(world):
    world.mkdir_p("/m1")
    world.write_file("/m1/f.txt", "payload")
    world.mkdir_p("/u")
    union = UnionAgent()
    union.pset.add_union("/u", ["/m1"])
    trace = TraceSymbolicSyscall("/tmp/stack2.trace")

    # trace below, union on top: the union's downcalls carry the
    # resolved physical names, and that's what the lower tracer records.
    status = run_stacked(
        world, [trace, union], "/bin/sh", ["sh", "-c", "cat /u/f.txt"]
    )
    assert WEXITSTATUS(status) == 0
    log = world.read_file("/tmp/stack2.trace").decode().replace('"', "'")
    assert "open('/m1/f.txt'" in log


def test_txn_over_sandbox(world):
    """A transactional session inside a sandbox: the sandbox's rules
    apply to the transaction's own machinery too."""
    world.write_file("/home/mbj/data", "v0")
    sandbox = SandboxAgent(SandboxPolicy(writable=("/tmp", "/home/mbj")))
    txn = TxnAgent(scratch_dir="/tmp/stack.txn", outcome="abort")
    status = run_stacked(
        world, [sandbox, txn], "/bin/sh",
        ["sh", "-c", "echo v1 > /home/mbj/data; cat /home/mbj/data"],
    )
    assert WEXITSTATUS(status) == 0
    assert "v1" in world.console.take_output().decode()
    assert world.read_file("/home/mbj/data") == b"v0"  # aborted
    assert sandbox.violations == []  # txn stayed within policy


def test_sandbox_blocks_txn_commit_outside_policy(world):
    """If the transaction tries to commit outside the sandbox's writable
    set, the sandbox (below it) refuses the commit's writes."""
    world.write_file("/etc/motd", "original")
    sandbox = SandboxAgent(SandboxPolicy(writable=("/tmp",)))
    txn = TxnAgent(scratch_dir="/tmp/stack.txn2", outcome="commit")
    status = run_stacked(
        world, [sandbox, txn], "/bin/sh",
        ["sh", "-c", "echo hacked > /etc/motd; true"],
    )
    # Client saw its write inside the txn; commit hit the sandbox wall.
    assert WEXITSTATUS(status) == 0
    assert world.read_file("/etc/motd") == b"original"
    assert any(path == "/etc/motd" for _, path in sandbox.violations)
    assert any(logical == "/etc/motd" for logical, _ in txn.pset.commit_failures)


def test_three_deep_stack(world):
    """monitor + timex + trace all at once."""
    monitor = MonitorAgent("/tmp/stack.mon")
    timex = TimexSymbolicSyscall(offset=1000)
    trace = TraceSymbolicSyscall("/tmp/stack3.trace")
    status = run_stacked(
        world, [monitor, timex, trace], "/bin/date", ["date"]
    )
    assert WEXITSTATUS(status) == 0
    shown = int(world.console.take_output().decode().split(".")[0])
    assert shown - world.clock.now().tv_sec >= 990  # timex applied
    assert "gettimeofday()" in world.read_file("/tmp/stack3.trace").decode()
    assert "system call usage:" in world.read_file("/tmp/stack.mon").decode()


def test_stack_survives_exec_and_fork(world):
    monitor = MonitorAgent("/tmp/stack.mon2")
    trace = TraceSymbolicSyscall("/tmp/stack4.trace")
    status = run_stacked(
        world, [monitor, trace], "/bin/sh",
        ["sh", "-c", "echo a | cat; sh -c 'echo b'"],
    )
    assert WEXITSTATUS(status) == 0
    out = world.console.take_output().decode()
    assert "a" in out and "b" in out
    log = world.read_file("/tmp/stack4.trace").decode()
    assert log.count("execve(") >= 3
    assert monitor.forks >= 3


# -- vectored I/O through agent stacks --------------------------------------


def _trace_stack():
    return [TraceSymbolicSyscall(log_path="/dev/null")]


def _union_txn_stack():
    return [UnionAgent(), TxnAgent(scratch_dir="/tmp/vec.txn",
                                   outcome="commit")]


@pytest.mark.parametrize("factory", [_trace_stack, _union_txn_stack],
                         ids=["trace", "union+txn"])
def test_vector_io_through_stack(world, factory):
    world.write_file("/data.bin", b"abcdefghijklmnopqrstuvwxyz")
    outcome = {}

    def vectored(ctx, argv, envp):
        fd = ctx.trap(NR["open"], "/out.bin",
                      O_WRONLY | O_CREAT | O_TRUNC, 0o644)
        outcome["wrote"] = ctx.trap(
            NR["writev"], fd, [b"alpha ", b"beta ", b"gamma"])
        ctx.trap(NR["close"], fd)
        rfd = ctx.trap(NR["open"], "/data.bin", O_RDONLY)
        outcome["buffers"] = ctx.trap(NR["readv"], rfd, [5, 5, 100, 5])
        ctx.trap(NR["close"], rfd)
        return 0

    world.register_program("vectored", vectored)
    world.install_binary("/bin/vectored", "vectored")
    status = run_stacked(world, factory(), "/bin/vectored", ["vectored"])
    assert WEXITSTATUS(status) == 0
    assert outcome["wrote"] == 16
    assert world.read_file("/out.bin") == b"alpha beta gamma"
    # Short-read cutoff: the 100-byte fragment drains the file, so the
    # trailing fragment is never attempted.
    assert outcome["buffers"] == [b"abcde", b"fghij",
                                  b"klmnopqrstuvwxyz"]


# -- call outcomes through an agent -----------------------------------------


def _attached(kernel):
    """A persistent interposed context: agent attached, not exec'd."""
    ctx = UserContext(kernel, kernel._create_initial_process())
    SymbolicSyscall().attach(ctx, [])
    return ctx


@pytest.mark.parametrize("name,args,errno", [
    ("close", (99,), EBADF),           # through the descriptor layer
    ("stat", ("/missing",), ENOENT),   # through the pathname layer
], ids=["EBADF", "ENOENT"])
def test_errno_through_agent(name, args, errno):
    ctx = _attached(Kernel())
    with pytest.raises(SyscallError) as caught:
        ctx.trap(NR[name], *args)
    assert caught.value.errno == errno


def test_agent_fills_default_mkdir_mode():
    ctx = _attached(Kernel())
    assert ctx.trap(NR["mkdir"], "/made") == 0
    mode = ctx.trap(NR["stat"], "/made").st_mode & 0o7777
    assert mode == 0o777 & ~ctx.proc.umask


def test_over_arity_call_through_agent_raises_type_error():
    # The symbolic layer calls sys_getpid() with the surplus arguments,
    # and the method call itself fails.
    ctx = _attached(Kernel())
    with pytest.raises(TypeError):
        ctx.trap(NR["getpid"], 1, 2, 3, 4, 5)


def test_over_arity_crash_matches_layer_method_call():
    # The crash reaches the application unchanged: the same TypeError a
    # direct call of the layer's method raises, and the stack still
    # serves the next call.
    kernel = Kernel()
    ctx = UserContext(kernel, kernel._create_initial_process())
    agent = SymbolicSyscall()
    agent.attach(ctx, [])
    with pytest.raises(TypeError) as through_trap:
        ctx.trap(NR["getpid"], 1, 2, 3, 4, 5)
    with pytest.raises(TypeError) as direct:
        agent.sys_getpid(1, 2, 3, 4, 5)
    assert str(through_trap.value) == str(direct.value)
    assert ctx.trap(NR["getpid"]) == ctx.proc.pid


def test_empty_iovec_einval_is_errno_only_through_agent():
    # The kernel's messageful EINVAL is consumed by the numeric layer on
    # its way back up: the application sees the bare errno.
    kernel = Kernel()
    kernel.write_file("/e.txt", b"payload")
    ctx = _attached(kernel)
    fd = ctx.trap(NR["open"], "/e.txt", O_RDONLY)
    with pytest.raises(SyscallError) as caught:
        ctx.trap(NR["readv"], fd, [])
    assert caught.value.errno == EINVAL
    assert "iovec" not in str(caught.value)
    ctx.trap(NR["close"], fd)


def test_signal_from_interposed_kill_delivered_on_return(world):
    delivered = []

    def main(ctx):
        SymbolicSyscall().attach(ctx, [])
        assert NR["kill"] in ctx.proc.emulation_vector
        ctx.trap(NR["sigvec"], sig.SIGUSR1,
                 lambda s: delivered.append(s), 0)
        ctx.trap(NR["kill"], ctx.proc.pid, sig.SIGUSR1)
        assert delivered == [sig.SIGUSR1]
        return 0

    assert WEXITSTATUS(world.run_entry(main)) == 0
