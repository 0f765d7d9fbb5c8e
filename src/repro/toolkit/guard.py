"""Agent fault containment: guarded agent stacks and trap-spine guard rails.

The paper's same-address-space placement (Sections 2.2, 3.5.1) buys its
speed by running agent code on the client's own thread, inside the
client's own trap.  The price is safety: a buggy agent handler that
raises something other than a :class:`~repro.kernel.errno.SyscallError`
unwinds straight through the trap spine into the client program, which
the kernel then records as a *client* crash — one bad agent takes the
whole interposed process tree with it.  "Making 'syscall' a privilege
rather than a right" argues the interposition layer must fail closed
with enforced policy rather than trust interposed code; this module is
that policy layer for the reproduction.

Two complementary mechanisms, one policy vocabulary:

* :class:`GuardedAgent` — a toolkit wrapper (stacking like
  :class:`~repro.toolkit.remote.SeparateSpaceAgent`) that interposes the
  *wrapper* in the emulation vector and catches the inner agent's
  unexpected exceptions at the boundary.
* :class:`GuardRail` — a machine-wide guard installed as
  ``kernel.guard`` (``Kernel(guard="fail-stop")``) that catches handler
  exceptions in the trap spine itself, covering agents that were never
  individually wrapped.  Containment behaves identically on every
  dispatch path — the plain trap, the observed trap, and the fast-path
  trap (whose interposed calls fall through to the same handler site).

Both convert an unexpected agent exception per :class:`GuardPolicy`:

``fail-stop``
    Deliver a fatal ``SIGSYS``-style kill to the *client process* — the
    classic "the agent is part of the client's TCB" stance.  The machine
    keeps running; only the faulting client dies (cleanly, through the
    normal exit path, not as a host-level panic).
``fail-open``
    Complete the call without the faulty agent: delegate past it to the
    next level of the system interface (a lower agent or the kernel),
    preserving availability at the price of the agent's semantics.
``quarantine``
    ``fail-open`` per fault until the agent crosses its fault budget
    (``max_faults``), then eject the agent from the interposition stack
    entirely — its emulation-vector entries are restored to whatever
    interface was below it — and emit an eviction event.

``SyscallError`` (the protocol's error convention) and the control
transfers ``ExecImage``/``ProcessExit`` always propagate untouched.

Pay-per-use, the repo's standing discipline: with no guard installed
(``kernel.guard is None``, no wrapper in the stack) every trap runs the
seed code path bit for bit; the guard hook in the trap spine is one
attribute load and ``is None`` test on *interposed* calls only.  All
guard actions emit ``guard.*`` events and counters through the
observability bus when it is enabled (see :mod:`repro.obs.events`).
"""

from repro.kernel import signals as sig
from repro.kernel.errno import SyscallError
from repro.kernel.faultsite import MachineCrash
from repro.kernel.proc import ExecImage, ProcessExit
from repro.kernel.sysent import name_of, number_of
from repro.obs import events as ev
from repro.toolkit.boilerplate import Agent

FAIL_STOP = "fail-stop"
FAIL_OPEN = "fail-open"
QUARANTINE = "quarantine"

#: the three containment policies, mildest consequence first
POLICIES = (FAIL_OPEN, QUARANTINE, FAIL_STOP)

#: default fault budget before a quarantine policy ejects the agent
DEFAULT_MAX_FAULTS = 3

_NR_EXECVE = number_of("execve")

#: exceptions that are protocol, not faults: they always pass through.
#: MachineCrash is the power cord being pulled — containment must never
#: swallow it, or a "contained" agent would outlive the machine.
PASS_THROUGH = (SyscallError, ExecImage, ProcessExit, MachineCrash)


class GuardPolicy:
    """One containment policy: the mode plus its quarantine fault budget."""

    __slots__ = ("mode", "max_faults")

    def __init__(self, mode=FAIL_STOP, max_faults=DEFAULT_MAX_FAULTS):
        if mode not in POLICIES:
            raise ValueError("unknown guard policy %r (want one of %s)"
                             % (mode, ", ".join(POLICIES)))
        if max_faults < 1:
            raise ValueError("max_faults must be >= 1")
        self.mode = mode
        self.max_faults = int(max_faults)

    @classmethod
    def parse(cls, spec):
        """Build a policy from *spec*.

        Accepts an existing :class:`GuardPolicy` (returned as is) or a
        string: a policy name (``"fail-stop"``, ``"fail-open"``,
        ``"quarantine"``), optionally with a fault budget after a colon
        (``"quarantine:5"``).
        """
        if isinstance(spec, cls):
            return spec
        if not isinstance(spec, str):
            raise TypeError("guard policy must be a GuardPolicy or str")
        text = spec.strip().lower()
        budget = DEFAULT_MAX_FAULTS
        if ":" in text:
            text, _, value = text.partition(":")
            budget = int(value)
        return cls(text.strip(), budget)

    def __repr__(self):
        if self.mode == QUARANTINE:
            return "<GuardPolicy %s:%d>" % (self.mode, self.max_faults)
        return "<GuardPolicy %s>" % self.mode


class GuardStats:
    """Containment counters shared by both guard mechanisms."""

    __slots__ = ("faults", "kills", "ejections")

    def __init__(self):
        self.faults = 0
        self.kills = 0
        self.ejections = 0

    def snapshot(self):
        """The counters as a plain dict (for reports and kernel_stats)."""
        return {"faults": self.faults, "kills": self.kills,
                "ejections": self.ejections}


def _note(kernel, proc, kind, name, detail):
    """Emit one guard event + counter through the obs bus (if enabled)."""
    obs = kernel.obs
    if obs is not None:
        if obs.metrics_on:
            obs.metrics.inc((kind, name))
        if obs.wants(proc):
            obs.emit(kind, proc, name, detail)


def _describe(exc):
    """A short single-line rendering of the contained exception."""
    text = repr(exc)
    if len(text) > 96:
        text = text[:96] + "..."
    return text


class GuardedAgent(Agent):
    """Run *inner* behind a containment boundary, per *policy*.

    The wrapper is itself a toolkit ``Agent``: it stacks above or below
    other agents like any other, and — like
    :class:`~repro.toolkit.remote.SeparateSpaceAgent` — splices the
    inner agent's registration seams so the emulation vector points at
    the *wrapper's* entry points.  Unexpected exceptions from the inner
    agent's handlers are therefore caught here, at the interposition
    boundary, before they can unwind into the client program.
    """

    OBS_LAYER = "guard"

    def __init__(self, inner, policy=FAIL_STOP, max_faults=None):
        super().__init__()
        self.inner = inner
        policy = GuardPolicy.parse(policy)
        if max_faults is not None:
            policy = GuardPolicy(policy.mode, max_faults)
        self.policy = policy
        self.stats = GuardStats()
        #: True once the inner agent has been ejected: the wrapper stays
        #: in the emulation vector but delegates everything straight down
        self.quarantined = False
        #: ``(call name, exception repr)`` of the most recent fault
        self.last_fault = None

    # -- attachment: splice the registration seams ------------------------

    def attach(self, ctx, agentargv=()):
        """Bind to *ctx* and attach the inner agent through the wrapper."""
        self._bind(ctx)
        inner = self.inner
        inner.register_interest_many = self.register_interest_many
        inner.register_signal_interest = self.register_signal_interest
        inner.unregister_interest = self.unregister_interest
        inner.unregister_signal_interest = self.unregister_signal_interest
        inner.wrap_fork_entry = self.wrap_fork_entry
        # Share one downcall-chain map so agents stacked below this one
        # still receive the inner agent's downcalls — and so containment
        # can delegate past the inner agent to exactly the layer below.
        self._down = inner._down
        try:
            inner.attach(ctx, agentargv)
        except PASS_THROUGH:
            raise
        except BaseException as exc:
            # A fault during the inner agent's own init.  fail-stop
            # kills the client as usual (inside _register_fault); the
            # open policies leave the wrapper attached but quarantined —
            # whatever interception the inner agent managed to register
            # simply passes through from now on.
            self._register_fault("init", exc)
            self._eject("init")

    # -- containment ------------------------------------------------------

    def _register_fault(self, name, exc):
        """Count one fault and apply the policy's immediate consequence.

        Under ``fail-stop`` this call does not return: the client
        process is terminated (cleanly, machine unaffected).  Under
        ``quarantine`` the agent is ejected once the budget is crossed.
        The caller then completes the interrupted operation one level
        down, whatever that means at its site.
        """
        ctx = self.ctx
        kernel = ctx.kernel
        self.stats.faults += 1
        self.last_fault = (name, _describe(exc))
        policy = self.policy
        _note(kernel, ctx.proc, ev.GUARD_FAULT, name,
              "%s: %s" % (policy.mode, _describe(exc)))
        if policy.mode == FAIL_STOP:
            self.stats.kills += 1
            _note(kernel, ctx.proc, ev.GUARD_KILL, name,
                  "agent fault: killing pid %d" % ctx.proc.pid)
            kernel.terminate(ctx.proc, sig.SIGSYS)
        if (policy.mode == QUARANTINE and not self.quarantined
                and self.stats.faults >= policy.max_faults):
            self._eject(name)

    def _eject(self, name):
        """Quarantine the inner agent: the wrapper passes through from
        here on, which removes the agent from the effective stack."""
        if self.quarantined:
            return
        self.quarantined = True
        self.stats.ejections += 1
        ctx = self.ctx
        _note(ctx.kernel, ctx.proc, ev.GUARD_QUARANTINE, name,
              "agent %s ejected after %d fault(s)"
              % (type(self.inner).__name__, self.stats.faults))

    # -- the interposed entry points --------------------------------------

    def handle_syscall(self, number, args):
        """One intercepted call, contained per the policy."""
        if self.quarantined:
            return self.syscall_down_numeric(number, args)
        inner = self.inner
        inner._bind(self.ctx)
        try:
            return inner.handle_syscall(number, args)
        except PASS_THROUGH:
            raise
        except BaseException as exc:
            self._register_fault(name_of(number), exc)
            # fail-open (and quarantine, before and after ejection):
            # finish the call without the faulty agent, one level down.
            return self.syscall_down_numeric(number, args)

    def handle_signal(self, signum, action):
        """One intercepted signal, contained per the policy."""
        if self.quarantined:
            self.signal_up(signum)
            return
        inner = self.inner
        inner._bind(self.ctx)
        try:
            inner.handle_signal(signum, action)
        except PASS_THROUGH:
            raise
        except BaseException as exc:
            self._register_fault(sig.signal_name(signum), exc)
            # Containment must not swallow the signal itself: forward it
            # to the application's disposition, as an absent agent would.
            self.signal_up(signum)

    def init_child(self):
        """Bind and notify the inner agent in a fresh fork child."""
        if self.quarantined:
            return
        inner = self.inner
        inner._bind(self.ctx)
        try:
            inner.init_child()
        except PASS_THROUGH:
            raise
        except BaseException as exc:
            self._register_fault("init_child", exc)

    def exec_client(self, path, argv=None, envp=None):
        """Exec through the inner agent, falling back to the toolkit's
        own exec reimplementation if the inner agent faults."""
        if self.quarantined:
            return self.reexec(path, argv, envp)
        inner = self.inner
        inner._bind(self.ctx)
        try:
            return inner.exec_client(path, argv, envp)
        except PASS_THROUGH:
            raise
        except BaseException as exc:
            self._register_fault(name_of(_NR_EXECVE), exc)
            # Perform exec's component steps ourselves, keeping the
            # wrapper (and any lower agents) interposed.
            return self.reexec(path, argv, envp)


class GuardRail:
    """Machine-wide trap-spine containment, installed as ``kernel.guard``.

    Where :class:`GuardedAgent` protects one agent by wrapping it, the
    guard rail protects the *machine* from every agent: the trap spine
    routes each emulation-vector handler invocation through
    :meth:`run_handler` (and each signal redirection through
    :meth:`run_signal`) whenever ``kernel.guard`` is set.  The same
    three policies apply; quarantine ejection is per *process* and per
    *agent* — the faulting agent's vector entries are restored to
    whatever interface was below them, so lower agents keep working.
    """

    def __init__(self, policy=FAIL_STOP, max_faults=None):
        policy = GuardPolicy.parse(policy)
        if max_faults is not None:
            policy = GuardPolicy(policy.mode, max_faults)
        self.policy = policy
        self.stats = GuardStats()
        #: fault count per contained agent instance (id -> count)
        self._fault_counts = {}
        #: agent instances this rail has ejected (ids)
        self._ejected = set()

    # -- the trap spine's entry points ------------------------------------

    def run_handler(self, ctx, handler, number, args):
        """Invoke an emulation-vector *handler*, containing its faults."""
        try:
            return handler(ctx, number, args)
        except PASS_THROUGH:
            raise
        except BaseException as exc:
            owner = getattr(handler, "__self__", None)
            self._register_fault(ctx, owner, name_of(number), exc)
            return self._delegate(ctx, owner, number, args)

    def run_signal(self, ctx, redirect, signum, action):
        """Invoke a signal redirection, containing its faults."""
        try:
            redirect(ctx, signum, action)
        except PASS_THROUGH:
            raise
        except BaseException as exc:
            owner = getattr(redirect, "__self__", None)
            self._register_fault(ctx, owner, sig.signal_name(signum), exc)
            # Deliver the signal as an absent agent would have.
            from repro.kernel.trap import deliver_signal_to_application
            deliver_signal_to_application(ctx.kernel, ctx.proc, signum)

    # -- containment ------------------------------------------------------

    def _register_fault(self, ctx, owner, name, exc):
        """Count one fault against *owner* and apply the policy.

        Under ``fail-stop`` this call does not return (the client is
        terminated).  Under ``quarantine`` the owning agent is ejected
        from the calling process once its budget is crossed.
        """
        kernel = ctx.kernel
        self.stats.faults += 1
        policy = self.policy
        _note(kernel, ctx.proc, ev.GUARD_FAULT, name,
              "%s: %s" % (policy.mode, _describe(exc)))
        if policy.mode == FAIL_STOP:
            self.stats.kills += 1
            _note(kernel, ctx.proc, ev.GUARD_KILL, name,
                  "agent fault: killing pid %d" % ctx.proc.pid)
            kernel.terminate(ctx.proc, sig.SIGSYS)
        if policy.mode == QUARANTINE and owner is not None:
            key = id(owner)
            count = self._fault_counts.get(key, 0) + 1
            self._fault_counts[key] = count
            if count >= policy.max_faults and key not in self._ejected:
                self._eject(ctx, owner, name)

    def _eject(self, ctx, owner, name):
        """Remove *owner*'s interception from the calling process.

        Each emulation-vector entry owned by the agent is restored to
        the interface below it (the agent's ``_down`` map) when known,
        or deleted outright — either way the calls reach what they
        reached before the agent registered.  The fast dispatch table is
        invalidated so the ejection is visible on every dispatch path.
        """
        self._ejected.add(id(owner))
        self.stats.ejections += 1
        proc = ctx.proc
        down = getattr(owner, "_down", {})
        vector = proc.emulation_vector
        entry = getattr(owner, "_emulation_entry", None)
        for number in [n for n, h in vector.items() if h == entry]:
            below = down.get(number)
            if below is not None:
                vector[number] = below
            else:
                del vector[number]
        if getattr(proc.signal_redirect, "__self__", None) is owner:
            proc.signal_redirect = None
        proc.fast_dispatch = None
        _note(ctx.kernel, proc, ev.GUARD_QUARANTINE, name,
              "agent %s ejected from pid %d"
              % (type(owner).__name__, proc.pid))

    def _delegate(self, ctx, owner, number, args):
        """Complete the call one level below the faulty agent.

        When the handler's owning agent and its downcall chain are
        recoverable, the call goes to exactly the layer the agent would
        have called down to; otherwise it goes straight to the kernel
        through the htg downcall.
        """
        down = getattr(owner, "_down", None)
        if down is not None:
            below = down.get(number)
            if below is not None:
                return below(ctx, number, tuple(args))
        from repro.kernel.trap import htg_unix_syscall
        return htg_unix_syscall(ctx.kernel, ctx.proc, number, args)


def install_guard(kernel, spec):
    """Install a guard rail on *kernel* from a policy spec; returns it.

    *spec* is a :class:`GuardRail` (installed as is), a
    :class:`GuardPolicy`, or a policy string accepted by
    :meth:`GuardPolicy.parse`.  ``Kernel(guard=...)`` calls this at
    boot; it may equally be called on a running kernel.
    """
    if isinstance(spec, GuardRail):
        kernel.guard = spec
    else:
        kernel.guard = GuardRail(spec)
    return kernel.guard


def uninstall_guard(kernel):
    """Remove the guard rail; returns the detached rail (or None).

    After this the trap spine is back to the seed behaviour — agent
    exceptions propagate raw, exactly as before the guard existed.
    """
    rail = kernel.guard
    kernel.guard = None
    return rail
