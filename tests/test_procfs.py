"""Tests for the /proc pseudo-filesystem and its in-world viewers.

Covers the node catalog (content synthesized at read time from live
kernel state), the read-only contract, stale-node semantics, the
kernel_stats schema/section-order golden, the in-world ``ps``/``top``/
``vmstat`` programs — including ``top`` under a union+txn+monitor agent
stack — and the pay-per-use guarantee: a world that never mounts /proc
runs bit-for-bit like the seed.
"""

import json

import pytest

from repro.kernel.errno import EROFS, ENOENT, SyscallError
from repro.kernel.procfs import (
    KERNEL_FILES,
    PID_BASE,
    PID_FILES,
    PID_STRIDE,
    TOOL_NAMES,
    mount_procfs,
    umount_procfs,
)
from repro.kernel.proc import WEXITSTATUS
from repro.kernel.sysent import number_of
from repro.kernel.syscalls.obscalls import (
    KERNEL_STATS_SCHEMA_VERSION,
    KERNEL_STATS_SECTIONS,
    kernel_stats_payload,
)
from repro.kernel.trap import UserContext


@pytest.fixture
def procworld(world):
    mount_procfs(world)
    return world


# -- mounting --------------------------------------------------------------


def test_mount_is_idempotent_and_umount_detaches(world):
    fs = mount_procfs(world)
    assert world.procfs is fs
    assert mount_procfs(world) is fs
    assert fs.mounted_at == "/proc"
    assert umount_procfs(world) is fs
    assert world.procfs is None
    # The viewer binaries stay installed; a re-mount reuses them.
    assert umount_procfs(world) is None


def test_mount_installs_viewer_binaries(procworld):
    for name in TOOL_NAMES:
        assert procworld.read_file("/bin/" + name) is not None


def test_unmounted_world_has_no_proc_or_tools(world):
    assert world.procfs is None
    with pytest.raises(SyscallError):
        world.read_file("/proc/uptime")
    for name in TOOL_NAMES:
        with pytest.raises(SyscallError):
            world.read_file("/bin/" + name)


# -- the node catalog ------------------------------------------------------


def test_uptime_reads_virtual_clock(procworld):
    first = procworld.read_file("/proc/uptime").decode().split()
    up, now = float(first[0]), int(first[1])
    assert up >= 0 and now == procworld.clock.usec()


def test_kernel_dir_lists_every_section_file(sh, world):
    mount_procfs(world)
    code, out = sh("ls /proc/kernel")
    assert code == 0
    names = out.split()
    assert names == sorted(name for name, _render in KERNEL_FILES)


def test_kernel_stats_file_matches_trap_payload_sections(procworld):
    doc = json.loads(procworld.read_file("/proc/kernel/stats").decode())
    assert list(doc) == list(KERNEL_STATS_SECTIONS)
    assert doc["schema_version"] == KERNEL_STATS_SCHEMA_VERSION


def test_kernel_section_files_report_disabled_when_off(procworld):
    for name in ("metrics", "namecache", "guard", "recorder",
                 "profile", "watch"):
        doc = json.loads(
            procworld.read_file("/proc/kernel/" + name).decode())
        if name == "namecache":
            # The name cache is on by default in a booted world.
            assert "hits" in doc
        else:
            assert doc == {"enabled": False}


def test_pid_status_reflects_live_process_state(procworld):
    seen = {}

    def main(ctx):
        text = b""
        fd = ctx.trap(number_of("open"),
                      "/proc/%d/status" % ctx.proc.pid, 0, 0)
        while True:
            chunk = ctx.trap(number_of("read"), fd, 512)
            if not chunk:
                break
            text += chunk
        ctx.trap(number_of("close"), fd)
        for line in text.decode().splitlines():
            key, _, value = line.partition(": ")
            seen[key] = value
        return 0

    status = procworld.run_entry(main)
    assert WEXITSTATUS(status) == 0
    assert set(seen) >= {"pid", "ppid", "state", "comm", "nsyscalls",
                         "vector", "ktrace"}
    assert seen["state"] == "running"
    assert int(seen["nsyscalls"]) >= 2  # the open and first read at least


def test_pid_fds_and_vector_files(sh, world):
    mount_procfs(world)
    code, out = sh("cat /proc/1/fds /proc/1/vector")
    # Whatever pid 1 is doing, the files must parse: "fd describe..."
    # lines and "number name handler" lines, or be empty.
    assert code == 0
    for line in out.splitlines():
        assert line.split()[0].isdigit()


def test_stale_pid_read_fails_with_enoent(procworld):
    fs = procworld.procfs
    pid = 424242
    with pytest.raises(SyscallError) as err:
        fs.inode(PID_BASE + pid * PID_STRIDE)
    assert err.value.errno == ENOENT


def test_ino_decode_is_arithmetic_and_stable(procworld):
    fs = procworld.procfs

    def main(ctx):
        pid = ctx.proc.pid
        for slot, name in enumerate(PID_FILES, start=1):
            ino = PID_BASE + pid * PID_STRIDE + slot
            node = fs.inode(ino)
            assert node.ino == ino and node.name == name
        return 0

    assert WEXITSTATUS(procworld.run_entry(main)) == 0


def test_proc_is_readonly(sh, world):
    mount_procfs(world)
    code, out = sh("sh -c 'echo x > /proc/uptime'")
    assert code != 0

    def main(ctx):
        fd = ctx.trap(number_of("open"), "/proc/uptime", 1, 0)  # O_WRONLY
        try:
            ctx.trap(number_of("write"), fd, b"nope")
        except SyscallError as err:
            assert err.errno == EROFS
        else:
            raise AssertionError("write to /proc succeeded")
        try:
            ctx.trap(number_of("ftruncate"), fd, 0)
        except SyscallError as err:
            assert err.errno == EROFS
        else:
            raise AssertionError("ftruncate of /proc succeeded")
        ctx.trap(number_of("close"), fd)
        try:
            ctx.trap(number_of("unlink"), "/proc/uptime")
        except SyscallError as err:
            assert err.errno == EROFS
        else:
            raise AssertionError("unlink in /proc succeeded")
        return 0

    assert WEXITSTATUS(world.run_entry(main)) == 0


def test_open_file_snapshot_is_coherent_across_short_reads(procworld):
    """Short sequential reads see one rendering, not many."""

    def main(ctx):
        fd = ctx.trap(number_of("open"), "/proc/kernel/stats", 0, 0)
        chunks = []
        while True:
            # 7-byte reads: each read is itself a trap that bumps the
            # counters the file reports, so re-rendering would tear.
            chunk = ctx.trap(number_of("read"), fd, 7)
            if not chunk:
                break
            chunks.append(chunk)
        ctx.trap(number_of("close"), fd)
        doc = json.loads(b"".join(chunks).decode())
        assert list(doc) == list(KERNEL_STATS_SECTIONS)
        return 0

    assert WEXITSTATUS(procworld.run_entry(main)) == 0


def test_read_counters_count_materialisations(procworld):
    before = procworld.procfs.reads
    procworld.read_file("/proc/uptime")
    procworld.read_file("/proc/uptime")
    stats = procworld.procfs.stats()
    assert stats["enabled"] is True
    assert stats["reads"] >= before + 2
    assert stats["reads_by_node"]["uptime"] >= 2


# -- the kernel_stats golden (trap 207) ------------------------------------


def test_kernel_stats_trap_payload_pins_schema_and_order(world):
    """The section order and schema version are a frozen contract:
    future PRs append sections and bump the version, never reorder."""
    payload = kernel_stats_payload(world)
    assert list(payload) == list(KERNEL_STATS_SECTIONS)
    assert payload["schema_version"] == KERNEL_STATS_SCHEMA_VERSION == 4
    assert KERNEL_STATS_SECTIONS == (
        "schema_version", "fastpaths", "trap", "namecache", "spans",
        "guard", "faultsites", "recorder", "procfs", "profile", "watch",
        "journal")
    assert payload["journal"] == {"enabled": False}

    def main(ctx):
        doc = ctx.trap(number_of("kernel_stats"))
        assert list(doc) == list(KERNEL_STATS_SECTIONS)
        assert doc["procfs"] == {"enabled": False}
        return 0

    assert WEXITSTATUS(world.run_entry(main)) == 0


def test_kernel_stats_procfs_section_live_when_mounted(procworld):
    procworld.read_file("/proc/uptime")
    payload = kernel_stats_payload(procworld)
    assert payload["procfs"]["enabled"] is True
    assert payload["procfs"]["mounted_at"] == "/proc"
    assert payload["procfs"]["reads"] >= 1


# -- the in-world viewers --------------------------------------------------


def test_ps_lists_processes(sh, world):
    mount_procfs(world)
    code, out = sh("ps")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["PID", "PPID", "STAT", "NSYS", "VECT",
                                "COMM"]
    assert len(lines) >= 2  # at least the sh running ps
    assert any("sh" in line or "ps" in line for line in lines[1:])


def test_ps_without_proc_mounted_fails_gracefully(sh):
    code, out = sh("ps")
    assert code == 127  # not installed: unmounted world has no viewers


def test_vmstat_parses_kernel_stats(sh, world):
    mount_procfs(world)
    code, out = sh("vmstat")
    assert code == 0
    assert "uptime" in out and "schema v4" in out
    assert "traps " in out and "procfs" in out


def test_top_reports_syscall_rates(sh, world):
    mount_procfs(world)
    code, out = sh("top 2 50000")
    assert code == 0
    assert out.count("top: round") == 2
    assert "CALLS/S" in out
    # The process running top makes syscalls between its two samples
    # (the /proc reads themselves), so at least one nonzero rate shows.
    rates = [float(line.split()[1]) for line in out.splitlines()
             if line and line.split()[0].isdigit()]
    assert rates and max(rates) > 0


def test_top_under_union_txn_monitor_stack(world):
    """The acceptance bar: live per-pid rates rendered from /proc while
    a three-agent stack (union + txn + monitor) interposes on top."""
    from repro.agents.monitor import MonitorAgent
    from repro.agents.txn import TxnAgent
    from repro.agents.union_dirs import UnionAgent

    mount_procfs(world)
    world.mkdir_p("/data")
    world.write_file("/data/corpus", b"live introspection\n" * 10)
    union = UnionAgent()
    union.pset.add_union("/view", ["/data"])
    txn = TxnAgent(scratch_dir="/tmp/top.txn", outcome="commit")
    monitor = MonitorAgent("/tmp/top.monitor")
    agents = [union, txn, monitor]

    def loader(ctx):
        for agent in agents:
            agent.attach(ctx)
        agents[-1].exec_client("/bin/top", ["top", "1", "50000"], {})

    status = world.run_entry(loader)
    assert WEXITSTATUS(status) == 0
    out = world.console.take_output().decode()
    assert "CALLS/S" in out and "top: round 1" in out
    rates = [float(line.split()[1]) for line in out.splitlines()
             if line and line.split()[0].isdigit()]
    assert rates and max(rates) > 0
    # The monitor (topmost layer) saw top's /proc traffic as plain I/O.
    assert monitor.opens_by_path.get("/proc/uptime", 0) == 0  # top skips it
    assert any(path.startswith("/proc/") for path in monitor.opens_by_path)


def test_agents_see_proc_reads(world):
    """Interposition works over /proc like any filesystem: a monitor
    over ``cat /proc/uptime`` counts the open."""
    from repro.agents.monitor import MonitorAgent
    from repro.toolkit import run_under_agent

    mount_procfs(world)
    agent = MonitorAgent("/tmp/proc.monitor")
    status = run_under_agent(world, agent, "/bin/sh",
                             ["sh", "-c", "cat /proc/uptime"])
    assert WEXITSTATUS(status) == 0
    assert agent.opens_by_path.get("/proc/uptime") == 1


# -- pay-per-use: unmounted is the seed ------------------------------------


def _format_event_stream(prepare=None):
    """Run the format workload; return the full obs event-tuple stream."""
    from repro import obs
    from repro.workloads import boot_world
    import repro.workloads.format_dissertation as fmt

    world = boot_world()
    if prepare is not None:
        prepare(world)
    switchboard = obs.enable(world, trace_all=True)
    events = []
    switchboard.bus.subscribe(lambda event: events.append(event.to_tuple()))
    fmt.setup(world)
    status = fmt.run(world)
    assert WEXITSTATUS(status) == 0
    return events


def test_profiler_and_watches_disabled_is_bit_for_bit_seed():
    """The equivalence bar: profiler enabled then disabled, watches
    attached then detached, procfs never mounted — the format
    workload's event stream is identical to a never-touched world."""
    from repro.obs.profile import disable_profile, enable_profile
    from repro.obs.watch import disable_watches, enable_watches

    def prepare(world):
        enable_profile(world)
        disable_profile(world)
        enable_watches(world, "gauge_threshold trap|read >= 1 signal 16")
        disable_watches(world)

    baseline = _format_event_stream()
    touched = _format_event_stream(prepare)
    assert touched == baseline


def test_mounted_then_unmounted_procfs_is_bit_for_bit_free():
    """Mounting and unmounting /proc leaves no procfs machinery behind.

    The baseline world creates the bare mountpoint directory (a plain
    rootfs mutation any program could make — it shifts the monotonic
    inode allocator); the compared world mounts a full procfs over it
    and unmounts again.  Beyond the directory itself, the mount must
    cost nothing: identical event streams, bit for bit."""

    def baseline_prepare(world):
        world.mkdir_p("/proc")

    def touched_prepare(world):
        mount_procfs(world, tools=False)
        umount_procfs(world)

    baseline = _format_event_stream(baseline_prepare)
    touched = _format_event_stream(touched_prepare)
    assert touched == baseline
