"""The boilerplate layers: everything Mach- and machine-specific.

These layers perform agent invocation, system call interception,
incoming signal handling, downcalls on behalf of the agent, and signal
delivery to applications running under agent code (paper Section 2.3).
They hide which interception mechanism is used, how downcalls bypass it,
and whether the agent shares the client's address space.  Agents do not
normally use this module directly — they derive from the numeric or
symbolic layers, which are built on it.
"""

import threading
import time

from repro.kernel import signals as sig
from repro.kernel.errno import EBADF, SyscallError
from repro.kernel.ofile import F_GETFD, FD_CLOEXEC
from repro.kernel.sysent import name_of, number_of
from repro.kernel.trap import deliver_signal_to_application

_NR_TASK_SET_EMULATION = number_of("task_set_emulation")
_NR_TASK_GET_EMULATION = number_of("task_get_emulation")
_NR_TASK_SET_SIGNAL_REDIRECT = number_of("task_set_signal_redirect")
_NR_IMAGE_HEADER = number_of("image_header")
_NR_TASK_GET_DESCRIPTORS = number_of("task_get_descriptors")
_NR_JUMP_TO_IMAGE = number_of("jump_to_image")
_NR_FCNTL = number_of("fcntl")
_NR_CLOSE = number_of("close")
_NR_SIGVEC = number_of("sigvec")
_NR_GETDTABLESIZE = number_of("getdtablesize")


class Agent:
    """Base class for every interposition agent.

    One agent instance may serve several client processes (the processes
    created under it by fork — paper Figure 1-4).  The boilerplate keeps
    a per-thread binding from the executing process to its user context,
    hiding that multiplicity from higher layers: within any handler,
    ``self.ctx`` is the context of the process whose call is being
    handled.
    """

    #: which toolkit layer this agent is written at, for the observability
    #: registry's per-layer cost attribution (each layer class overrides)
    OBS_LAYER = "boilerplate"

    def __init__(self):
        self._tls = threading.local()
        #: the previous instance of the system interface for each call
        #: number this agent intercepts (None means the kernel): agents
        #: stack by chaining their downcalls through this map
        self._down = {}

    # -- context plumbing (hidden mechanism) -----------------------------

    @property
    def ctx(self):
        """The user context of the process currently executing agent code."""
        return self._tls.ctx

    def _bind(self, ctx):
        self._tls.ctx = ctx

    def attach(self, ctx, agentargv=()):
        """Agent invocation: bind to a process and run agent ``init``."""
        self._bind(ctx)
        self.init(list(agentargv))

    # -- hooks for agent layers to override ---------------------------------

    def init(self, agentargv):
        """Agent-specific startup; register interception here."""

    def init_child(self):
        """Called in a newly forked child before it runs any client code."""

    def handle_syscall(self, number, args):
        """An intercepted call (already bound to the calling context)."""
        return self.syscall_down_numeric(number, args)

    def handle_signal(self, signum, action):
        """An intercepted incoming signal; default forwards it upward."""
        self.signal_up(signum)

    # -- interception registration ----------------------------------------------

    def _emulation_entry(self, ctx, number, args):
        self._bind(ctx)
        kernel = ctx.kernel
        prof = kernel.profiler
        if prof is not None:
            # The sampling profiler's agent frame: any virtual time the
            # kernel advances while this handler (and its downcalls)
            # run is attributed under agent:<layer>.  The same prof
            # reference pops in ``finally`` so push/pop always pair,
            # even if the profiler detaches mid-handler.
            prof.push(ctx.proc.pid, "agent:" + self.OBS_LAYER)
        try:
            obs = kernel.obs
            if obs is None:
                return self.handle_syscall(number, args)
            # Attribute the agent handler's *host* time to this agent's
            # toolkit layer — the virtual clock cannot see agent Python
            # code, so wall-clock is the honest measure (it is also what
            # bench_ablation_layers measures from outside).
            start = time.perf_counter()
            try:
                return self.handle_syscall(number, args)
            finally:
                usec = (time.perf_counter() - start) * 1e6
                obs.layer_usec(self.OBS_LAYER, name_of(number), usec)
        finally:
            if prof is not None:
                prof.pop(ctx.proc.pid)

    def _signal_entry(self, ctx, signum, action):
        self._bind(ctx)
        self.handle_signal(signum, action)

    def register_interest(self, number):
        """Intercept system call *number* for the bound process."""
        self.register_interest_many([number])

    def register_interest_range(self, low, high):
        """Intercept every call number in ``[low, high]``."""
        self.register_interest_many(range(low, high + 1))

    def register_interest_many(self, numbers):
        """Intercept each listed call number, chaining below any agent already interposed on it."""
        numbers = list(numbers)
        ctx = self.ctx
        for number in numbers:
            previous = ctx.htg(_NR_TASK_GET_EMULATION, number)
            if previous is not None and previous is not self._emulation_entry:
                self._down[number] = previous
        ctx.htg(_NR_TASK_SET_EMULATION, numbers, self._emulation_entry)

    def unregister_interest(self, numbers):
        """Stop intercepting the listed call numbers."""
        self.ctx.htg(_NR_TASK_SET_EMULATION, list(numbers), None)

    def register_signal_interest(self):
        """Route the process's incoming signals through this agent."""
        self.ctx.htg(_NR_TASK_SET_SIGNAL_REDIRECT, self._signal_entry)

    def unregister_signal_interest(self):
        """Stop receiving signal upcalls."""
        self.ctx.htg(_NR_TASK_SET_SIGNAL_REDIRECT, None)

    # -- calling down to the next-level system interface -------------------------

    def syscall_down(self, name, *args):
        """Make system call *name* on the next-level system interface.

        If another agent was interposed below this one, the call goes to
        that agent's handler; otherwise it goes to the kernel via
        ``htg_unix_syscall`` (bypassing this agent's own interception).
        """
        return self.syscall_down_numeric(number_of(name), args)

    def syscall_down_numeric(self, number, args):
        """Downcall by raw number with an argument vector."""
        below = self._down.get(number)
        if below is not None:
            return below(self.ctx, number, tuple(args))
        return self.ctx.htg(number, *args)

    # -- sending signals up to the application --------------------------------------

    def exec_close_descriptor(self, fd):
        """Close one descriptor during exec teardown (layers with
        descriptor state override this to stay consistent)."""
        return self.syscall_down_numeric(_NR_CLOSE, (fd,))

    def signal_up(self, signum):
        """Deliver *signum* to the application's own disposition."""
        ctx = self.ctx
        deliver_signal_to_application(ctx.kernel, ctx.proc, signum)

    # -- fork and exec support ----------------------------------------------------------

    def wrap_fork_entry(self, entry):
        """Wrap a fork child entry so the agent is bound (and told) in
        the child before any client code runs."""

        def child_entry(ctx):
            self._bind(ctx)
            self.init_child()
            return entry(ctx) if entry is not None else 0

        return child_entry

    def reexec(self, path, argv=None, envp=None):
        """The toolkit's reimplementation of ``execve``.

        The native call would replace the whole address space — agent
        included — and clear the emulation vector.  Instead the toolkit
        performs exec's component steps individually (paper Section
        3.5.1): validate the image, close close-on-exec descriptors,
        reset caught signal handlers, then jump into the loaded image,
        leaving the interposition machinery in place.
        """
        ctx = self.ctx
        # 1. Validate first, so failure leaves the caller intact.
        ctx.htg(_NR_IMAGE_HEADER, path)
        # 2. Close the subset of descriptors marked close-on-exec, found
        # from the emulator's own view of the descriptor table.  The
        # closes go through syscall_down so that any agent interposed
        # *below* this one observes them, as the kernel otherwise would.
        for fd, cloexec in ctx.htg(_NR_TASK_GET_DESCRIPTORS):
            if cloexec:
                self.exec_close_descriptor(fd)
        # 3. Reset caught handlers to the default; leave SIG_IGN alone.
        for signum in range(1, sig.NSIG):
            if signum in sig.UNCATCHABLE:
                continue
            old = self.syscall_down_numeric(_NR_SIGVEC, (signum, sig.SIG_DFL, 0))
            if old == sig.SIG_IGN:
                self.syscall_down_numeric(_NR_SIGVEC, (signum, sig.SIG_IGN, 0))
        # 4. Load the arguments and transfer control into the new image.
        ctx.htg(_NR_JUMP_TO_IMAGE, path, argv, envp)
        raise AssertionError("jump_to_image returned")

    def exec_client(self, path, argv=None, envp=None):
        """Exec the client binary, keeping this agent interposed."""
        return self.reexec(path, argv, envp)


def run_under_agent(kernel, agent, path, argv=None, envp=None,
                    agentargv=(), uid=0, timeout=120.0):
    """The agent loader: run the binary at *path* under *agent*.

    Equivalent to the paper's general agent loader program: it attaches
    the agent to a fresh process (which installs the agent's
    interception) and then execs the unmodified client binary through
    the agent's exec path, so interposition survives into the client.

    Returns the client's wait status.
    """
    argv = list(argv) if argv is not None else [path]

    def loader(ctx):
        agent.attach(ctx, agentargv)
        agent.exec_client(path, argv, envp)

    return kernel.run_entry(loader, uid=uid, timeout=timeout)
