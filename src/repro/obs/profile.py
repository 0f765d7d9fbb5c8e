"""A simulated-time sampling profiler over the trap spine.

Host profilers sample on wall-clock timers; this one samples on the
*virtual* clock, which is the only clock the simulated machine agrees
on.  Every point where the kernel advances virtual time — the 100 µs
trap tick in :meth:`repro.kernel.kernel.Kernel.do_syscall` and the trap
fast paths, and the arbitrary advances of ``consume_cpu`` — asks the
profiler whether the advance crossed a sample boundary (a multiple of
``interval_usec``).  Each crossing charges one sample to the current
process's *layer stack*:

* ``user`` — the base frame every stack starts with;
* ``agent:<layer>`` — one frame per toolkit agent currently running a
  handler for the process (pushed/popped by
  ``Agent._emulation_entry``, so stacked agents nest naturally);
* ``kernel:<name>`` — the leaf frame while the kernel executes system
  call *name*.

Because sample points derive from the virtual clock and the per-pid
agent stacks — never from host time — a profile is a pure function of
the run: record/replay reproduces it bit for bit, and two runs of a
deterministic workload profile identically.

Pay-per-use: ``kernel.profiler`` is ``None`` by default and every hook
site is a single ``is None`` test.

Output formats (see ``scripts/profile.py`` for the CLI):

* :meth:`Profiler.collapsed` — Brendan-Gregg collapsed stacks
  (``user;agent:trace;kernel:read 42``), flamegraph.pl-compatible;
* :meth:`Profiler.table` — per-frame self/total sample costs;
* :meth:`Profiler.chrome_counters` — a Chrome-trace counter track of
  samples per time bucket, mergeable into ``trace_timeline`` output.
"""

from repro.kernel.clock import TRAP_TICK_USEC

#: default virtual-time distance between samples (µs); every 10th trap
#: tick lands on a boundary, so sampling cost stays off the common path
DEFAULT_INTERVAL_USEC = 1000


class Profiler:
    """Virtual-clock sampling state for one kernel."""

    def __init__(self, interval_usec=DEFAULT_INTERVAL_USEC):
        if interval_usec <= 0:
            raise ValueError("interval_usec must be positive")
        self.interval_usec = interval_usec
        self.kernel = None
        #: (pid, stack tuple) -> sample count
        self.samples = {}
        #: total samples taken
        self.sample_total = 0
        #: virtual-time bucket index -> samples in that bucket (the
        #: Chrome counter track); bucket width is ``interval_usec``
        self.timeline = {}
        #: pid -> list of live agent frames (leaf last); each list is
        #: only touched by the thread running that process, so no lock
        self._frames = {}
        #: virtual usec at attach, for relative timeline export
        self.start_usec = 0

    # -- lifecycle -------------------------------------------------------

    def attach(self, kernel):
        """Install on *kernel* (replacing any previous profiler)."""
        self.kernel = kernel
        self.start_usec = kernel.clock.usec()
        kernel.profiler = self
        return self

    def detach(self):
        """Remove from the kernel; collected samples are kept."""
        kernel = self.kernel
        if kernel is not None and kernel.profiler is self:
            kernel.profiler = None
        return self

    # -- the hot hooks (called with the kernel lock held) ----------------

    def sample_tick(self, proc, frame):
        """Account the trap tick that just advanced the clock.

        Called immediately after ``clock.tick()`` on the dispatch paths;
        the tick's 100 µs window is charged to *frame* (the
        ``kernel:<name>`` leaf) atop the process's current agent stack
        whenever the window crossed a sample boundary.
        """
        now = self.kernel.clock._usec
        interval = self.interval_usec
        crossed = now // interval - (now - TRAP_TICK_USEC) // interval
        if crossed:
            self._charge(proc, frame, crossed, now)

    def sample_span(self, proc, frame, start_usec):
        """Account an arbitrary virtual-time advance ``[start, now)``.

        ``consume_cpu`` uses this: the whole burned span is charged to
        the process's current stack (*frame* is ``None`` for pure user
        time), one sample per boundary crossed.
        """
        now = self.kernel.clock._usec
        interval = self.interval_usec
        crossed = now // interval - start_usec // interval
        if crossed:
            self._charge(proc, frame, crossed, now)

    def _charge(self, proc, frame, crossed, now):
        frames = self._frames.get(proc.pid)
        stack = ("user",)
        if frames:
            stack += tuple(frames)
        if frame is not None:
            stack += (frame,)
        key = (proc.pid, stack)
        self.samples[key] = self.samples.get(key, 0) + crossed
        self.sample_total += crossed
        bucket = now // self.interval_usec
        self.timeline[bucket] = self.timeline.get(bucket, 0) + crossed

    # -- agent frame maintenance (called from the client's thread) -------

    def push(self, pid, frame):
        """Enter an agent handler frame for *pid*."""
        self._frames.setdefault(pid, []).append(frame)

    def pop(self, pid):
        """Leave the innermost agent handler frame for *pid*."""
        frames = self._frames.get(pid)
        if frames:
            frames.pop()

    # -- exports ---------------------------------------------------------

    def collapsed(self, per_pid=False):
        """Collapsed-stack lines (``frame;frame count``), sorted.

        With *per_pid* true, stacks are prefixed with ``pid<N>`` so one
        flamegraph separates processes; the default folds all processes
        together (the usual whole-machine view).
        """
        folded = {}
        for (pid, stack), count in self.samples.items():
            if per_pid:
                stack = ("pid%d" % pid,) + stack
            folded[stack] = folded.get(stack, 0) + count
        return [
            "%s %d" % (";".join(stack), count)
            for stack, count in sorted(folded.items())
        ]

    def table(self):
        """Per-frame cost rows: ``(frame, self_samples, total_samples)``.

        *self* counts samples where the frame is the stack leaf; *total*
        counts samples where it appears anywhere — the flamegraph
        width.  Rows are sorted by total, then frame name.
        """
        self_counts = {}
        total_counts = {}
        for (_pid, stack), count in self.samples.items():
            leaf = stack[-1]
            self_counts[leaf] = self_counts.get(leaf, 0) + count
            for frame in set(stack):
                total_counts[frame] = total_counts.get(frame, 0) + count
        return sorted(
            ((frame, self_counts.get(frame, 0), total)
             for frame, total in total_counts.items()),
            key=lambda row: (-row[2], row[0]),
        )

    def chrome_counters(self, name="profile.samples"):
        """The timeline as Chrome-trace counter events (``ph: "C"``)."""
        interval = self.interval_usec
        return [
            {
                "name": name,
                "ph": "C",
                "ts": bucket * interval,
                "pid": 0,
                "args": {"samples": count},
            }
            for bucket, count in sorted(self.timeline.items())
        ]

    def stats(self):
        """Counters for the ``kernel_stats`` payload's profile section."""
        return {
            "enabled": True,
            "interval_usec": self.interval_usec,
            "samples": self.sample_total,
            "stacks": len(self.samples),
        }


def enable_profile(kernel, interval_usec=DEFAULT_INTERVAL_USEC):
    """Attach a fresh :class:`Profiler` to *kernel*; returns it.

    Idempotent in the useful sense: an already-attached profiler with
    the same interval is kept (its samples continue accumulating).
    """
    prof = kernel.profiler
    if prof is not None and prof.interval_usec == interval_usec:
        return prof
    return Profiler(interval_usec).attach(kernel)


def disable_profile(kernel):
    """Detach the kernel's profiler; returns it (or None) with its data."""
    prof = kernel.profiler
    if prof is not None:
        prof.detach()
    return prof
