"""Per-layer spans, recorded from outside the program.

The tracer replaces each layer's public entry points with a wrapper
that times the call on the calling thread and charges it to a span
name (``kernel.namei``, ``kernel.syscalls.open``, ``toolkit.down``...).
Nothing under ``src/`` is edited; the wrappers are installed by
assignment, once, before the process boots its first world:

* ``DISPATCH`` implementations are captured when the fast table
  (``trap._FULL_TABLE``) and compiled chains are built, so they are
  wrapped in place in the dict before any of those exist;
* ``namei`` is imported by name into three modules, so each binding is
  replaced;
* wrapped methods keep their identity relations (``Agent`` methods are
  replaced on ``Agent`` itself, so ``cls.method is Agent.method`` still
  holds for stock subclasses) and their signatures (``functools.wraps``
  sets ``__wrapped__``, which ``inspect.signature`` follows) — the two
  things the compiled-dispatch analysis inspects.  The suite's
  path-fidelity gate checks the result: every dispatch counter must
  read the same traced and untraced.

A span's self time is its duration minus the time its same-thread child
spans cover.  Per thread the wrapper keeps a stack of child-time
accumulators, so self times are exact without storing spans; raw spans
(name, start, end, id, parent, thread) are kept only while
:attr:`Tracer.recording` is set, for the Chrome-trace export.
"""

import functools
import importlib
import itertools
import json
import pkgutil
import threading
import time
import types

#: agent modules whose own classes are charged to ``agents.<name>``
AGENT_MODULES = {
    "union": "repro.agents.union_dirs",
    "txn": "repro.agents.txn",
    "monitor": "repro.agents.monitor",
}

#: Filesystem methods charged to ``kernel.ufs``
UFS_METHODS = ("link", "unlink", "rename", "mkdir_in", "rmdir_in",
               "create_file", "create_symlink", "create_fifo",
               "create_device", "create_directory")


class _ThreadState:
    """One thread's span stack, per-name totals, and recorded spans."""

    __slots__ = ("thread", "stack", "totals", "spans")

    def __init__(self, thread):
        self.thread = thread
        #: one ``[child_seconds, span_id]`` pair per open span
        self.stack = []
        #: span name -> [calls, self_seconds, total_seconds]
        self.totals = {}
        #: ``(name, start, end, span_id, parent_id)`` while recording
        self.spans = []


class Tracer:
    """Installs the span wrappers and collects what they measure."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._ids = itertools.count(1)
        #: keep raw spans (for the Chrome-trace export) when True
        self.recording = False
        self._origin = 0.0

    # -- the wrapper -------------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread())
            self._local.state = state
            self._states.append(state)  # list.append is atomic
            return state

    def wrap(self, name, func):
        """A wrapper that times *func* as a span called *name*."""
        clock = time.perf_counter
        state_of = self._state
        ids = self._ids
        tracer = self

        @functools.wraps(func)
        def span(*args, **kwargs):
            state = state_of()
            stack = state.stack
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration - frame[0]
                totals[2] += duration
                if tracer.recording:
                    state.spans.append((name, start, end, frame[1],
                                        stack[-1][1] if stack else 0))

        return span

    def count(self, name, func):
        """A wrapper that only counts calls to *func* (no span, no time)."""
        state_of = self._state

        @functools.wraps(func)
        def counted(*args, **kwargs):
            totals = state_of().totals
            row = totals.get(name)
            if row is None:
                row = totals[name] = [0, 0.0, 0.0]
            row[0] += 1
            return func(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, name):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer's entry points; call once per process."""
        from repro.kernel import compile as compile_mod
        from repro.kernel import journal, kernel, namei, trap, ufs
        from repro.kernel.syscalls import DISPATCH, pathcalls, process
        from repro.kernel.sysent import name_of
        from repro.obs import core
        from repro.toolkit import boilerplate

        self._patch(trap.UserContext, "trap", "kernel.trap")
        self._patch(trap.UserContext, "htg", "kernel.trap.htg")
        wrapped_build = self.wrap("kernel.compile",
                                  compile_mod.build_compiled_dispatch)
        trap.build_compiled_dispatch = wrapped_build
        compile_mod.build_compiled_dispatch = wrapped_build

        self._patch(boilerplate.Agent, "_emulation_entry", "toolkit.entry")
        self._patch(boilerplate.Agent, "syscall_down_numeric", "toolkit.down")
        for short, module_name in AGENT_MODULES.items():
            self._wrap_module_classes(importlib.import_module(module_name),
                                      "agents." + short)

        for number, impl in list(DISPATCH.items()):
            DISPATCH[number] = self.wrap("kernel.syscalls." + name_of(number),
                                         impl)

        wrapped_namei = self.wrap("kernel.namei", namei.namei)
        for module in (namei, kernel, pathcalls, process):
            module.namei = wrapped_namei

        for method in UFS_METHODS:
            self._patch(ufs.Filesystem, method, "kernel.ufs." + method)
        for method in ("begin", "commit", "abort"):
            self._patch(journal.Journal, method, "kernel.journal." + method)

        self._patch(kernel.Kernel, "sleep_until", "kernel.sched.sleep")
        # Counted, not timed: Thread.start() returns only when this
        # thread gets the interpreter lock back from the new process's
        # thread, so a span here would cover the child's first
        # switch interval as well and count that time twice.
        kernel.Kernel._start_process_thread = self.count(
            "kernel.proc.spawn", kernel.Kernel._start_process_thread)
        self._patch(kernel.Kernel, "load_image_locked",
                    "kernel.proc.exec_load")

        self._patch(core.Observability, "emit", "obs.emit")
        self._patch(core.Observability, "layer_usec", "obs.layer_usec")

        self._wrap_programs()

    def _wrap_module_classes(self, module, name):
        """Charge every plain method a module's own classes define."""
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for attr, value in list(vars(cls).items()):
                if (isinstance(value, types.FunctionType)
                        and not attr.startswith("__")):
                    setattr(cls, attr, self.wrap("%s.%s" % (name, attr),
                                                 value))

    def _wrap_programs(self):
        """Wrap every registered program factory (``programs.<name>``)."""
        import repro.programs
        from repro.programs.registry import PROGRAMS

        for info in pkgutil.iter_modules(repro.programs.__path__):
            importlib.import_module("repro.programs." + info.name)
        importlib.import_module("repro.toolkit.loader")
        for name, factory in list(PROGRAMS.items()):
            PROGRAMS[name] = self.wrap("programs." + name, factory)

    def attach(self, kernel):
        """Per-world wrappers: the kernel's own metrics registry.

        The registry class is shared with agents (the monitor agent
        counts into one), so only the kernel's instance is wrapped.
        """
        obs = kernel.obs
        if obs is not None:
            metrics = obs.metrics
            metrics.inc = self.wrap("obs.metrics.inc", metrics.inc)
            metrics.observe = self.wrap("obs.metrics.observe",
                                        metrics.observe)

    # -- collection --------------------------------------------------------

    def begin(self):
        """Start one measured client run: drop everything collected."""
        self._states = [s for s in self._states if s.thread.is_alive()]
        for state in self._states:
            state.totals.clear()
            state.spans.clear()
        self._origin = time.perf_counter()

    def end(self):
        """Finish the run; returns ``{span: [calls, self_s, total_s]}``."""
        merged = {}
        for state in self._states:
            for name, (calls, self_s, total_s) in state.totals.items():
                into = merged.setdefault(name, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += self_s
                into[2] += total_s
        return merged

    def chrome_trace(self):
        """The recorded spans as a Chrome trace-event document."""
        events = []
        for tid, state in enumerate(self._states, 1):
            if not state.spans:
                continue
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": tid, "args": {"name": state.thread.name}})
            for name, start, end, span_id, parent in state.spans:
                events.append({
                    "ph": "X", "name": name, "cat": name.split(".")[0],
                    "pid": 1, "tid": tid,
                    "ts": (start - self._origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"id": span_id, "parent": parent},
                })
        events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0)))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path):
        """Write and validate the recorded spans; returns the summary."""
        from repro.obs.export import validate_chrome_trace

        doc = self.chrome_trace()
        summary = validate_chrome_trace(doc)
        with open(path, "w") as handle:
            json.dump(doc, handle)
        return summary
