"""The system call trap path and signal delivery.

This module is the reproduction's equivalent of the Mach 2.5 emulation
mechanism the paper builds on:

* :meth:`UserContext.trap` is the system call instruction.  It consults
  the process's *emulation vector* first; a registered handler (the
  agent, running in the client's own context) gets the call instead of
  the kernel — that is ``task_set_emulation`` redirection.
* :func:`htg_unix_syscall` is the downcall: it executes the kernel
  implementation even for redirected numbers, paying a small extra cost
  (paper Table 3-4 measures 37 µs for it on a 25 MHz i486).
* Pending signals are delivered at trap boundaries.  If the process has
  a signal redirection installed, the agent's handler gets the *upcall*
  before any application handler — the paper's completeness goal.

**rusage accounting.** ``ru_nsyscalls`` counts *kernel crossings*, not
application-level calls: both :meth:`UserContext.trap` and
:func:`htg_unix_syscall` increment it, so a call that an agent
intercepts and forwards with the downcall is charged **twice** — once
for the client's trap into the agent, once for the agent's bypass trap
into the kernel.  That is deliberate and matches the paper's model
(Table 3-4 treats ``htg_unix_syscall`` as a trap in its own right with
its own crossing cost).  Consumers who want application-level call
counts should use ``kernel.trap_total`` (traps issued, regardless of
path) or the observability counters ``("trap", name)`` /
``("htg", name)``, which keep the two populations separate.

**Observability.** When ``kernel.obs`` is set (see :mod:`repro.obs`),
the trap path records per-call counters, virtual-clock latency
histograms, and — for traced processes — ``trap.agent`` /
``trap.kernel`` / ``trap.ret`` events.  Disabled, the entire hook is
one ``is None`` test, preserving the pay-per-use property this module
exists to demonstrate.
"""

from repro.kernel import signals as sig
from repro.kernel import sysent
from repro.kernel.errno import EINVAL, SyscallError, errno_name
from repro.kernel.faultsite import MachineCrash
from repro.kernel.proc import ExecImage, ProcessExit
from repro.obs import events as ev

#: shared sentinel installed as ``proc.fast_dispatch`` when the trap
#: fast path is configured off: an empty table makes every lookup miss,
#: so the disabled path costs exactly one ``dict.get`` per trap
_FAST_DISABLED = {}

#: the shared full table for processes with an empty emulation vector —
#: the overwhelmingly common case; built once, never mutated, so every
#: fork and execve "rebuilds" it for free
_FULL_TABLE = None


def build_fast_dispatch(kernel, proc):
    """Precompute *proc*'s fast dispatch table.

    The table maps syscall number → ``(impl, sysent entry)`` for every
    call the kernel implements **and** the process has not redirected
    through its emulation vector.  A trap that finds its number here
    (and no ktrace/dfstrace/obs consumer live) skips the per-call
    handler lookup, ``entry_for``, and ``DISPATCH.get`` of the slow
    path.  The table is invalidated (set back to ``None``) whenever the
    emulation vector changes — ``task_set_emulation`` and ``execve``;
    fork gives the child a fresh Process, so it rebuilds naturally.

    Uninterposed processes all share one read-only table: building a
    ~200-entry dict per fork would cost more than the fast path saves
    on short-lived children (the make workload's 64 cc/ld pairs).
    """
    if not kernel.fastpaths.trap_fast:
        return _FAST_DISABLED
    # Imported here: repro.kernel.syscalls imports this module's
    # SyscallError re-raisers transitively, so a top-level import cycles.
    from repro.kernel.syscalls import DISPATCH

    global _FULL_TABLE
    if _FULL_TABLE is None:
        _FULL_TABLE = {
            number: (impl, sysent.entry_for(number))
            for number, impl in DISPATCH.items()
        }
    vector = proc.emulation_vector
    if not vector:
        return _FULL_TABLE
    return {
        number: row
        for number, row in _FULL_TABLE.items()
        if number not in vector
    }


def _brief(args, limit=48):
    """A short, single-line rendering of trap arguments for event details.

    Callables render by qualified name: their default repr embeds a
    host memory address, which would make otherwise-identical runs
    compare unequal under record/replay.
    """
    text = ", ".join(
        "<%s>" % getattr(a, "__qualname__", type(a).__name__)
        if callable(a) else repr(a)
        for a in args)
    if len(text) > limit:
        text = text[:limit] + "..."
    return text


def htg_unix_syscall(kernel, proc, number, args):
    """Invoke the underlying kernel system call, bypassing interposition.

    The bypass is itself a trap: the caller crosses into the kernel once
    to slip past the emulation vector (Mach measured 37 µs for this on a
    25 MHz i486, the same order as interception itself), and then the
    call proper is performed.  Modelling the bypass as a real kernel
    crossing keeps the overhead measurable, as in Table 3-4 — and is why
    ``ru_nsyscalls`` legitimately counts a forwarded call twice (see the
    module docstring).
    """
    rec = kernel.recorder
    if rec is not None:
        # Almost always nested under the calling trap's turn (an agent's
        # downcall), where begin() just bumps the depth and logs
        # nothing; a genuinely top-level htg records its own H turn.
        rec.begin(proc, "H", sysent.name_of(number))
        try:
            return _htg_body(kernel, proc, number, args)
        finally:
            rec.end()
    return _htg_body(kernel, proc, number, args)


def _htg_body(kernel, proc, number, args):
    """The downcall proper (see :func:`htg_unix_syscall`)."""
    proc.rusage.ru_nsyscalls += 1
    with kernel._sleepq:
        if number in proc.emulation_vector:
            proc.rusage.ru_stime_usec += 1
    obs = kernel.obs
    if obs is not None:
        name = sysent.name_of(number)
        if obs.metrics_on:
            obs.metrics.inc(("htg", name))
        if obs.wants(proc):
            obs.emit(ev.HTG, proc, name, _brief(args))
    return kernel.do_syscall(proc, number, args)


class UserContext:
    """A process's user-mode view of the machine: the trap instruction.

    Programs and toolkit boilerplate hold one of these; nothing else about
    the kernel is visible from user mode.
    """

    __slots__ = ("kernel", "proc")

    def __init__(self, kernel, proc):
        self.kernel = kernel
        self.proc = proc

    def trap(self, number, *args):
        """Issue system call *number*; the application's entry into the
        system interface, whether that interface is the kernel or an agent."""
        proc = self.proc
        kernel = self.kernel
        if kernel.crashed is not None:
            # The machine halted: every surviving thread dies at its
            # next kernel-world entry, silently (no counters, no events).
            raise MachineCrash(kernel.crashed)
        proc.rusage.ru_nsyscalls += 1
        kernel.trap_total += 1
        if kernel.recorder is not None:
            return self._trap_recorded(kernel.recorder, number, args)
        obs = kernel.obs
        if obs is not None:
            return self._trap_observed(obs, number, args)

        # Fast path: no emulation-vector entry for this number, no
        # tracing consumer live.  One dict.get decides; a hit dispatches
        # straight to the kernel implementation with the sysent row in
        # hand, skipping the slow path's per-call lookups.  Signals are
        # still delivered at the boundary — outside the kernel lock,
        # which take_signal re-acquires.
        table = proc.fast_dispatch
        if table is None:
            table = proc.fast_dispatch = build_fast_dispatch(kernel, proc)
        row = table.get(number)
        if (row is not None and kernel.dfstrace is None
                and not proc.ktrace_on):
            impl, entry = row
            kernel.trap_fast_total += 1
            try:
                if len(args) > entry.nargs:
                    raise SyscallError(
                        EINVAL, "%s takes %d args" % (entry.name, entry.nargs)
                    )
                with kernel._sleepq:
                    if kernel.crashed is not None:
                        raise MachineCrash(kernel.crashed)
                    kernel.clock.tick()
                    proc.rusage.ru_stime_usec += 100
                    kernel._check_alarm_locked(proc)
                    if kernel.profiler is not None:
                        kernel.profiler.sample_tick(
                            proc, "kernel:" + entry.name)
                    if kernel.watches is not None:
                        kernel.watches.maybe_evaluate(kernel, proc)
                    result = impl(kernel, proc, *args)
            except SyscallError:
                deliver_pending_signals(self)
                raise
            if proc.pending:
                deliver_pending_signals(self)
            return result

        return self._trap_tower(number, args)

    def _trap_tower(self, number, args):
        """The layer tower: the agent's handler or the kernel, then
        boundary signal delivery (shared by :meth:`trap`'s slow path and
        :meth:`_trap_recorded`)."""
        proc = self.proc
        kernel = self.kernel
        handler = proc.emulation_vector.get(number)
        try:
            if handler is not None:
                # Redirected: the agent's handler runs here, in the
                # client's own context (same address space, same thread).
                # With a guard rail installed, the invocation goes
                # through it so agent faults are contained per policy;
                # fast-path traps for interposed numbers fall through to
                # this same site, so one hook covers every dispatch path.
                guard = kernel.guard
                if guard is not None:
                    result = guard.run_handler(self, handler, number, args)
                else:
                    result = handler(self, number, args)
            else:
                result = kernel.do_syscall(proc, number, args)
        except SyscallError:
            deliver_pending_signals(self)
            raise
        deliver_pending_signals(self)
        return result

    def _trap_recorded(self, rec, number, args):
        """The trap path under record/replay's turn token.

        The whole trap — agent handler, kernel work, sleeps (which
        suspend and re-acquire the token inside ``sleep_until``), and
        boundary signal delivery — runs as one recorded *turn*; with
        observability also enabled the observed path runs inside it, so
        obs event order is part of what replay reproduces bit-for-bit.
        Dispatch always takes the slow path: both record and replay use
        the same code, so the fast-dispatch counters stay comparable
        between the two runs.
        """
        proc = self.proc
        kernel = self.kernel
        rec.begin(proc, "T", sysent.name_of(number))
        try:
            # After begin (a passive-freed thread lands here) but before
            # the observed path: a post-crash trap must emit nothing, or
            # host scheduling would leak into the recorded event stream.
            if kernel.crashed is not None:
                raise MachineCrash(kernel.crashed)
            obs = kernel.obs
            if obs is not None:
                return self._trap_observed(obs, number, args)
            return self._trap_tower(number, args)
        finally:
            rec.end()

    def _trap_observed(self, obs, number, args):
        """The trap path with observability enabled.

        Mirrors :meth:`trap` exactly (redirect decision, signal delivery
        on return and on :class:`SyscallError`, clean unwind for
        ``ExecImage``/``ProcessExit``) while recording counters, the
        virtual-clock latency histogram, and — when the process is
        traced or the bus has subscribers — enter/return events.
        """
        proc = self.proc
        kernel = self.kernel
        name = sysent.name_of(number)
        handler = proc.emulation_vector.get(number)
        metrics = obs.metrics if obs.metrics_on else None
        if metrics is not None:
            metrics.inc(("trap", name))
            if handler is not None:
                metrics.inc(("trap.agent", name))
            else:
                metrics.inc(("trap.kernel", name))
            metrics.inc(("trap.pid", proc.pid, name))
        wants = obs.wants(proc)
        if wants:
            obs.emit(ev.TRAP_AGENT if handler is not None else ev.TRAP_KERNEL,
                     proc, name, _brief(args))
        start = kernel.clock.usec()
        try:
            if handler is not None:
                guard = kernel.guard
                if guard is not None:
                    result = guard.run_handler(self, handler, number, args)
                else:
                    result = handler(self, number, args)
            else:
                result = kernel.do_syscall(proc, number, args)
        except SyscallError as err:
            elapsed = kernel.clock.usec() - start
            errname = errno_name(err.errno)
            if metrics is not None:
                metrics.observe(("trap.vusec", name), elapsed)
                metrics.inc(("trap.error", name, errname))
            if wants:
                obs.emit(ev.TRAP_RET, proc, name,
                         "err %s (%d vusec)" % (errname, elapsed))
            deliver_pending_signals(self)
            raise
        except (ExecImage, ProcessExit):
            # The trap never returns (exec replaces the image, exit tears
            # the process down): no signal delivery, matching the plain
            # path's unwind, but do record that the call did not return.
            if wants:
                obs.emit(ev.TRAP_RET, proc, name, "unwound")
            raise
        elapsed = kernel.clock.usec() - start
        if metrics is not None:
            metrics.observe(("trap.vusec", name), elapsed)
        if wants:
            obs.emit(ev.TRAP_RET, proc, name,
                     "-> %s (%d vusec)" % (_brief((result,)), elapsed))
        deliver_pending_signals(self)
        return result

    def htg(self, number, *args):
        """``htg_unix_syscall``: agents' downcall past their own redirection."""
        return htg_unix_syscall(self.kernel, self.proc, number, args)

    def consume_cpu(self, usec):
        """Charge user-mode CPU time (advances the virtual clock)."""
        kernel = self.kernel
        if kernel.crashed is not None:
            raise MachineCrash(kernel.crashed)
        prof = kernel.profiler
        rec = kernel.recorder
        if rec is not None:
            # The clock advance happens outside any trap, so two
            # processes burning CPU race on it: make it its own turn.
            rec.begin(self.proc, "C", str(usec))
            try:
                start = kernel.clock._usec
                self.proc.rusage.ru_utime_usec += usec
                kernel.clock.advance(usec)
                if prof is not None:
                    prof.sample_span(self.proc, None, start)
                deliver_pending_signals(self)
            finally:
                rec.end()
            return
        start = kernel.clock._usec
        self.proc.rusage.ru_utime_usec += usec
        kernel.clock.advance(usec)
        if prof is not None:
            prof.sample_span(self.proc, None, start)
        deliver_pending_signals(self)


def deliver_pending_signals(ctx):
    """Deliver every currently deliverable signal, agent upcall first."""
    kernel, proc = ctx.kernel, ctx.proc
    if not proc.pending:
        return
    while True:
        signum = kernel.take_signal(proc)
        if signum is None:
            return
        redirect = proc.signal_redirect
        if redirect is not None:
            # Upcall here; signal.deliver is emitted by
            # deliver_signal_to_application itself iff the agent
            # forwards, so forwarded signals produce an upcall→deliver
            # pair and swallowed ones a lone upcall.
            obs = kernel.obs
            if obs is not None:
                signame = sig.signal_name(signum)
                if obs.metrics_on:
                    obs.metrics.inc((ev.SIG_UPCALL, signame))
                if obs.wants(proc):
                    obs.emit(ev.SIG_UPCALL, proc, signame)
            guard = kernel.guard
            if guard is not None:
                guard.run_signal(ctx, redirect, signum,
                                 proc.dispositions[signum])
            else:
                redirect(ctx, signum, proc.dispositions[signum])
        else:
            deliver_signal_to_application(kernel, proc, signum)


def deliver_signal_to_application(kernel, proc, signum):
    """Run the application's disposition for *signum* in its context.

    This is also the toolkit's "send a signal from an agent up to the
    application" path: an agent's signal redirection calls it (directly
    or via the boilerplate) to forward.  The ``signal.deliver`` event is
    emitted here — the moment the application's own disposition is
    reached — which is what pairs it with a preceding ``signal.upcall``
    when an interposed signal was forwarded through an agent.
    """
    obs = kernel.obs
    if obs is not None:
        signame = sig.signal_name(signum)
        if obs.metrics_on:
            obs.metrics.inc((ev.SIG_DELIVER, signame))
        if obs.wants(proc):
            obs.emit(ev.SIG_DELIVER, proc, signame)
    action = proc.dispositions[signum]
    handler = action.handler
    if handler == sig.SIG_IGN:
        return
    if handler == sig.SIG_DFL:
        what = sig.default_action(signum)
        if what == "ignore":
            return
        if what == "stop":
            kernel.stop_process(proc)
            return
        kernel.terminate(proc, signum)
        raise AssertionError("terminate returned")
    # A caught signal: run the handler with the signal (and the action's
    # extra mask) blocked, restoring the mask afterwards.
    old_mask = proc.sigmask
    proc.sigmask |= action.mask | sig.sigmask(signum)
    try:
        handler(signum)
    finally:
        proc.sigmask = old_mask
