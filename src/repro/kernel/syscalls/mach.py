"""The Mach-2.5-flavoured extension traps the interposition toolkit needs.

``task_set_emulation`` and ``task_set_signal_redirect`` are the general
system-call-handling facilities the paper's Goal 1 allows the kernel to
provide "once, so that agents can be written at all".  ``jump_to_image``
and ``image_header`` are the lower-level pieces an agent composes when it
reimplements ``execve`` (paper Section 3.5.1): unlike the native exec,
``jump_to_image`` replaces only the program image — the emulation vector,
descriptor table, and signal dispositions are left exactly as the caller
arranged them.
"""

from repro.kernel.errno import EINVAL, SyscallError
from repro.kernel.proc import ExecImage
from repro.kernel.sysent import SYSCALLS
from repro.kernel.syscalls import implements
from repro.obs import events as obs_events


@implements("task_set_emulation")
def sys_task_set_emulation(kernel, proc, numbers, handler):
    """Redirect the given system call numbers to *handler*.

    *handler* is called as ``handler(ctx, number, args)`` in the process's
    own context (*ctx* is the calling process's user context — the Mach
    analogue of the handler running in the client's address space) and
    must return the call's value or raise ``SyscallError``.  Passing
    ``None`` removes the redirection for those numbers.
    """
    if handler is not None and not callable(handler):
        raise SyscallError(EINVAL, "handler must be callable")
    for number in numbers:
        if not isinstance(number, int):
            raise SyscallError(EINVAL, "bad syscall number %r" % (number,))
        if handler is None:
            proc.emulation_vector.pop(number, None)
        else:
            proc.emulation_vector[number] = handler
    # The emulation vector changed: the precomputed fast dispatch table
    # no longer reflects it.  Rebuilt lazily on the next trap.
    proc.fast_dispatch = None
    return 0


@implements("task_get_emulation")
def sys_task_get_emulation(kernel, proc, number):
    """Return the handler currently redirecting *number* (or ``None``).

    A newly interposing agent reads this before installing itself, so it
    can call the *previous* instance of the system interface as its
    downward path — this is how agents stack (paper Figure 1-3: agents,
    like the kernel, provide instances of the system interface).
    """
    if not isinstance(number, int):
        raise SyscallError(EINVAL, "bad syscall number %r" % (number,))
    return proc.emulation_vector.get(number)


@implements("task_get_descriptors")
def sys_task_get_descriptors(kernel, proc):
    """List the process's open descriptors as ``[(fd, close_on_exec)]``.

    On Mach 2.5 the BSD emulator kept the descriptor table in the task's
    own address space, so an agent reimplementing ``execve`` could find
    the close-on-exec subset without probing every slot; this trap
    stands in for that in-address-space knowledge.
    """
    return [
        (fd, proc.fdtable.get_cloexec(fd))
        for fd in proc.fdtable.descriptors()
    ]


@implements("task_set_signal_redirect")
def sys_task_set_signal_redirect(kernel, proc, handler):
    """Route incoming signal delivery through *handler* first.

    *handler* is called as ``handler(ctx, signum, action)`` where *action*
    is the application's current :class:`~repro.kernel.signals.Sigaction`;
    it decides whether and how to forward.  ``None`` removes redirection.
    """
    if handler is not None and not callable(handler):
        raise SyscallError(EINVAL, "handler must be callable")
    proc.signal_redirect = handler
    return 0


@implements("image_header")
def sys_image_header(kernel, proc, path):
    """Validate and describe an executable image without running it.

    Returns ``(program_name, implicit_argv)``; raises ``ENOEXEC``/``EACCES``
    exactly as ``execve`` would, so an agent can fail *before* it starts
    tearing down descriptor and signal state.
    """
    factory, base_argv = kernel.load_image_locked(proc, path)
    return (factory.program_name, list(base_argv))


@implements("jump_to_image")
def sys_jump_to_image(kernel, proc, path, argv=None, envp=None):
    """Replace the running program image and nothing else."""
    kernel.exec_total += 1
    factory, base_argv = kernel.load_image_locked(proc, path)
    given = list(argv if argv is not None else [path])
    argv = base_argv + given[1:] if base_argv else given
    obs = kernel.obs
    if obs is not None:
        if obs.metrics_on:
            obs.metrics.inc(("proc.execve",))
        if obs.wants(proc):
            obs.emit(obs_events.PROC_EXECVE, proc,
                     detail="jump_to_image %s" % path)
    proc.comm = argv[0] if argv else path
    raise ExecImage(factory, argv, dict(envp or {}))
