"""The ``ktrace``/``ktrace_read`` system calls: in-world observability.

``ktrace(2)`` (BSD number 45, matching real 4.3BSD's slot) flips the
per-process trace flag; ``ktrace_read`` (extension trap 206) drains the
kernel ring buffer — our stand-in for BSD's trace vnode.  Together they
let the in-world ``ktrace``/``kdump`` programs work without any host
cooperation: enabling tracing on a kernel without observability installs
it on demand (metrics on, ring buffer sized by the ``arg`` hint).
"""

from repro.kernel.errno import EINVAL, EPERM, SyscallError
from repro.kernel.ktrace import (
    KTROP_CLEAR,
    KTROP_CLEARALL,
    KTROP_CLEARBUF,
    KTROP_SET,
)
from repro.kernel.syscalls import implements

#: ring capacity when ktrace(2) itself has to install observability
DEFAULT_CAPACITY = 4096


def _may_trace(tracer, target):
    """BSD's rule: root traces anyone, others only their own uid."""
    cred = tracer.cred
    return (
        cred.is_superuser()
        or cred.uid == target.cred.uid
        or cred.euid == target.cred.uid
    )


def _target(kernel, proc, pid):
    """Resolve a ktrace target pid (0 = the caller), checking permission."""
    if pid == 0:
        return proc
    target = kernel.find_process_locked(pid)
    if not _may_trace(proc, target):
        raise SyscallError(EPERM, "ktrace pid %d" % pid)
    return target


@implements("ktrace")
def sys_ktrace(kernel, proc, op, pid=0, arg=0):
    """ktrace(2): manipulate per-process kernel tracing.

    ``op`` is one of ``KTROP_SET`` (enable tracing for *pid*, 0 = self;
    installs observability with a ring of ``arg`` records — default
    4096 — if the kernel has none), ``KTROP_CLEAR`` (disable for
    *pid*), ``KTROP_CLEARALL`` (disable for every process), or
    ``KTROP_CLEARBUF`` (discard buffered records and the dropped
    counter).  Returns 0.
    """
    if op == KTROP_SET:
        target = _target(kernel, proc, pid)
        if kernel.obs is None:
            # Imported here: repro.obs.core pulls in the ktrace buffer,
            # and syscall modules load before the obs package is needed.
            from repro.obs import core as obs_core

            obs_core.enable(kernel, ktrace_capacity=arg or DEFAULT_CAPACITY)
        target.ktrace_on = True
        return 0
    if op == KTROP_CLEAR:
        _target(kernel, proc, pid).ktrace_on = False
        return 0
    if op == KTROP_CLEARALL:
        if not proc.cred.is_superuser():
            raise SyscallError(EPERM, "ktrace clearall")
        for target in kernel.live_processes_locked():
            target.ktrace_on = False
        return 0
    if op == KTROP_CLEARBUF:
        if kernel.obs is not None:
            kernel.obs.ktrace.clear()
        return 0
    raise SyscallError(EINVAL, "ktrace op %r" % (op,))


@implements("ktrace_read")
def sys_ktrace_read(kernel, proc, limit=0):
    """Drain up to *limit* trace records (0 = all) from the ring buffer.

    Returns ``(records, dropped)`` where each record is an event tuple
    (see :meth:`repro.obs.events.Event.to_tuple`) and *dropped* is how
    many records were overwritten before being read.  Draining consumes:
    each record is delivered exactly once across all readers.  With
    observability disabled the answer is simply ``([], 0)``.
    """
    obs = kernel.obs
    if obs is None:
        return ([], 0)
    ring = obs.ktrace
    dropped = ring.dropped
    ring.dropped = 0
    return ([event.to_tuple() for event in ring.drain(limit)], dropped)


#: the kernel_stats payload schema.  Version 2 added the field itself,
#: the pinned section ordering below, and the procfs/profile/watch
#: sections (the un-versioned seed payload is retroactively version 1).
#: Version 3 appended the ``journal`` section (the write-ahead journal's
#: machine-wide counters; see :mod:`repro.kernel.journal`).  Version 4
#: dropped ``trap.compiled`` and ``trap.down_compiled`` with the compiled
#: agent-stack dispatch they counted.
KERNEL_STATS_SCHEMA_VERSION = 4

#: the pinned section order of the kernel_stats payload; the golden
#: test in tests/test_procfs.py holds future PRs to it — append new
#: sections, never reorder
KERNEL_STATS_SECTIONS = (
    "schema_version",
    "fastpaths",
    "trap",
    "namecache",
    "spans",
    "guard",
    "faultsites",
    "recorder",
    "procfs",
    "profile",
    "watch",
    "journal",
)


def kernel_stats_payload(kernel):
    """The kernel_stats document, sections in pinned order.

    Shared by the trap below and by ``/proc/kernel/stats`` (see
    :mod:`repro.kernel.procfs`), so the two views can never drift.
    Each optional subsystem reports ``{"enabled": False}`` when off.
    """
    cache = kernel.namecache
    obs = kernel.obs
    spans = (obs.spans.counts() if obs is not None and obs.spans is not None
             else {"enabled": False})
    rail = kernel.guard
    if rail is not None:
        guard = dict(rail.stats.snapshot(), policy=rail.policy.mode)
    else:
        guard = {"enabled": False}
    sites = kernel.faultsites
    rec = kernel.recorder
    procfs = kernel.procfs
    prof = kernel.profiler
    watches = kernel.watches
    if kernel.journal_on:
        journal = {"enabled": True}
        totals = {}
        for fs in kernel._volumes:
            if fs.journal is None:
                continue
            for key, value in fs.journal.stats().items():
                totals[key] = totals.get(key, 0) + value
        journal.update(totals)
        journal["volumes"] = sum(
            1 for fs in kernel._volumes if fs.journal is not None)
    else:
        journal = {"enabled": False}
    return {
        "schema_version": KERNEL_STATS_SCHEMA_VERSION,
        "fastpaths": kernel.fastpaths.describe(),
        "trap": {
            "total": kernel.trap_total,
            "fast": kernel.trap_fast_total,
        },
        "namecache": cache.stats() if cache is not None else {"enabled": False},
        "spans": spans,
        "guard": guard,
        "faultsites": sites.stats() if sites is not None else {"enabled": False},
        "recorder": rec.stats() if rec is not None else {"enabled": False},
        "procfs": procfs.stats() if procfs is not None else {"enabled": False},
        "profile": prof.stats() if prof is not None else {"enabled": False},
        "watch": (watches.stats() if watches is not None
                  else {"enabled": False}),
        "journal": journal,
    }


@implements("kernel_stats")
def sys_kernel_stats(kernel, proc):
    """Report the kernel's fast-path configuration and counters.

    Extension trap 207.  The in-world route to the numbers the host sees
    on ``kernel.namecache`` — agents (the monitor in particular) call
    this instead of reaching around the system interface.  Always
    available; with a fast path off, its section reports accordingly.
    The ``spans`` section carries the causal span assembler's counters
    (``{"enabled": False}`` when span tracing is off), so agents can
    introspect the trace being built about them.  The ``guard``,
    ``faultsites``, ``recorder``, ``procfs``, ``profile``, and
    ``watch`` sections do the same for agent fault containment, armed
    kernel fault sites, record/replay, the /proc pseudo-filesystem, the
    sampling profiler, and watchpoints (``{"enabled": False}`` when
    off).  The payload carries ``schema_version`` and its section
    ordering is pinned (``KERNEL_STATS_SECTIONS``).
    """
    return kernel_stats_payload(kernel)
