"""/proc viewer utilities: ps(1), top(1), and vmstat(8) for the world.

These programs are ordinary clients of the system interface — they
``open``/``read``/``getdirentries`` the /proc pseudo-filesystem (see
:mod:`repro.kernel.procfs`), which means interposition agents stacked
over them see (and may rewrite) their observation traffic like any
other file I/O.  None of them has an ``install=`` path: they are
registered here but only placed under ``/bin`` by ``mount_procfs``, so
a world that never mounts /proc carries no trace of them.

``top`` measures *rates* the only honest way a simulated machine can:
it reads every ``/proc/<pid>/status``, burns a virtual-time interval
with ``consume_cpu``, reads again, and divides the syscall-count deltas
by the interval — fully deterministic, since both the counters and the
clock are world-state.
"""

from repro.kernel.errno import SyscallError
from repro.programs.registry import program

PROC = "/proc"


def _read_status(sys, pid):
    """Parse ``/proc/<pid>/status`` into a dict (None if the pid died)."""
    try:
        text = sys.read_whole("%s/%s/status" % (PROC, pid)).decode()
    except SyscallError:
        return None
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return fields


def _pids(sys):
    """The numeric entries of /proc, sorted."""
    return sorted(
        (name for name in sys.listdir(PROC) if name.isdigit()), key=int)


@program("ps")
def ps_main(sys, argv, envp):
    """ps(1): one line per process, straight from /proc."""
    try:
        pids = _pids(sys)
    except SyscallError as err:
        sys.print_err("ps: %s: %s\n" % (PROC, err.args[1] if len(err.args) > 1
                                        else "not mounted"))
        return 1
    sys.print_out("  PID  PPID STAT  NSYS VECT COMM\n")
    for pid in pids:
        fields = _read_status(sys, pid)
        if fields is None:
            continue
        sys.print_out("%5s %5s %-5s %5s %4s %s\n" % (
            fields.get("pid", pid), fields.get("ppid", "?"),
            fields.get("state", "?")[:5], fields.get("nsyscalls", "?"),
            fields.get("vector", "0"), fields.get("comm", "?")))
    return 0


@program("top")
def top_main(sys, argv, envp):
    """top(1): per-pid syscall rates over virtual-time intervals.

    ``top [iterations] [interval_usec]`` — defaults: 1 iteration over
    100000 virtual µs.  Each iteration samples every process's
    ``nsyscalls``, consumes the interval, samples again, and prints
    processes by syscall rate (calls per virtual second).
    """
    iterations = int(argv[1]) if len(argv) > 1 else 1
    interval = int(argv[2]) if len(argv) > 2 else 100_000
    if iterations <= 0 or interval <= 0:
        sys.print_err("top: iterations and interval must be positive\n")
        return 2
    for round_no in range(iterations):
        try:
            before = {pid: _read_status(sys, pid) for pid in _pids(sys)}
        except SyscallError:
            sys.print_err("top: %s not mounted\n" % PROC)
            return 1
        sys.consume_cpu(interval)
        rows = []
        for pid in _pids(sys):
            after = _read_status(sys, pid)
            prev = before.get(pid)
            if after is None:
                continue
            now_calls = int(after.get("nsyscalls", 0))
            then_calls = int(prev.get("nsyscalls", 0)) if prev else 0
            rate = (now_calls - then_calls) * 1e6 / interval
            rows.append((rate, int(pid), after))
        rows.sort(key=lambda row: (-row[0], row[1]))
        sys.print_out("top: round %d, interval %d usec\n"
                      % (round_no + 1, interval))
        sys.print_out("  PID   CALLS/S  NSYS STAT  COMM\n")
        for rate, pid, fields in rows:
            sys.print_out("%5d %9.1f %5s %-5s %s\n" % (
                pid, rate, fields.get("nsyscalls", "?"),
                fields.get("state", "?")[:5], fields.get("comm", "?")))
    return 0


@program("vmstat")
def vmstat_main(sys, argv, envp):
    """vmstat(8): machine-wide counters from /proc/kernel and uptime."""
    import json

    try:
        uptime = sys.read_whole(PROC + "/uptime").decode().split()
        stats = json.loads(sys.read_whole(PROC + "/kernel/stats").decode())
    except SyscallError:
        sys.print_err("vmstat: %s not mounted\n" % PROC)
        return 1
    up_sec = float(uptime[0])
    trap = stats.get("trap", {})
    total = trap.get("total", 0)
    sys.print_out("uptime %.2fs  schema v%s\n"
                  % (up_sec, stats.get("schema_version", "?")))
    sys.print_out("traps %d  fast %d\n" % (total, trap.get("fast", 0)))
    if up_sec > 0:
        sys.print_out("traps/sec %.1f\n" % (total / up_sec))
    cache = stats.get("namecache", {})
    if cache.get("enabled", True) is not False:
        sys.print_out("namecache hits %s misses %s\n"
                      % (cache.get("hits", 0), cache.get("misses", 0)))
    for section in ("procfs", "profile", "watch", "recorder", "guard"):
        doc = stats.get(section, {})
        if doc.get("enabled"):
            brief = " ".join(
                "%s=%s" % (key, value) for key, value in sorted(doc.items())
                if key not in ("enabled", "reads_by_node") and
                not isinstance(value, dict))
            sys.print_out("%s %s\n" % (section, brief))
    return 0
