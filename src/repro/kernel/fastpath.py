"""Flag-gated kernel fast paths (name cache, trap dispatch, zero-copy).

Real 4.3BSD earned its performance with a handful of well-placed fast
paths — most famously the directory name lookup cache — and the paper's
pay-per-use argument (Section 3) is only meaningful against a baseline
kernel that has them: every agent measurement is a *ratio* over the
uninterposed system.  This module is the switchboard for the
reproduction's equivalents:

``namecache``
    The 4.3BSD-style directory name lookup cache
    (:mod:`repro.kernel.namecache`), consulted per component by
    :func:`repro.kernel.namei.namei`.

``trap_fast``
    Per-process precomputed syscall dispatch in
    :meth:`repro.kernel.trap.UserContext.trap`: when a number has no
    emulation-vector entry, no ktrace flag, no observability and no
    DFSTrace collector, the trap jumps straight to the kernel handler
    without rebuilding the sysent row lookup on every call.

``zero_copy``
    ``RegularFile.read_at`` hands back a memoryview over the file's
    buffer instead of an intermediate ``bytearray`` slice; the open-file
    layer materialises it into ``bytes`` exactly once at the
    kernel/user boundary.

Every flag defaults **on** because all three paths are observably
equivalent to the seed behaviour (the equivalence test suite pins
this); booting with ``FastPathConfig.none()`` — or setting
``REPRO_FASTPATH=none`` — recovers the seed code paths bit for bit,
which is how ``benchmarks/bench_kernel_fastpath.py`` measures the
speedup A/B.

``stdio_readahead`` is the one knob that is *not* transparent: it sizes
libc's buffered-stdio chunking (``Sys.stdio_bufsiz``), which changes
workload trap counts.  It therefore defaults to 0 ("use the 1989
chunk sizes") and is only raised explicitly — the benchmark's "all on"
configuration uses :meth:`FastPathConfig.all_on`.
"""

import os

#: the three behaviour-transparent fast-path flags
FLAG_NAMES = ("namecache", "trap_fast", "zero_copy")

#: default name-cache capacity (4.3BSD sized its nc hash by maxusers)
DEFAULT_NAMECACHE_CAPACITY = 4096

#: stdio readahead used by the "all on" benchmark configuration
DEFAULT_READAHEAD = 65536


class FastPathConfig:
    """One kernel's fast-path flag word, fixed at boot."""

    __slots__ = ("namecache", "trap_fast", "zero_copy",
                 "namecache_capacity", "stdio_readahead")

    def __init__(self, namecache=True, trap_fast=True, zero_copy=True,
                 namecache_capacity=DEFAULT_NAMECACHE_CAPACITY,
                 stdio_readahead=0):
        self.namecache = bool(namecache)
        self.trap_fast = bool(trap_fast)
        self.zero_copy = bool(zero_copy)
        self.namecache_capacity = int(namecache_capacity)
        self.stdio_readahead = int(stdio_readahead)

    # -- constructors -----------------------------------------------------

    @classmethod
    def all_on(cls, stdio_readahead=DEFAULT_READAHEAD,
               namecache_capacity=DEFAULT_NAMECACHE_CAPACITY):
        """Every fast path on, including the stdio readahead sizing."""
        return cls(True, True, True,
                   namecache_capacity=namecache_capacity,
                   stdio_readahead=stdio_readahead)

    @classmethod
    def none(cls):
        """The seed kernel: every fast path off."""
        return cls(False, False, False, stdio_readahead=0)

    @classmethod
    def only(cls, *names, **kwargs):
        """A configuration with just the named flags on.

        ``only("namecache")`` isolates one path for A/B measurement;
        keyword arguments pass through to the constructor.
        """
        for name in names:
            if name not in FLAG_NAMES:
                raise ValueError("unknown fast-path flag %r" % (name,))
        flags = {name: name in names for name in FLAG_NAMES}
        flags.update(kwargs)
        return cls(**flags)

    @classmethod
    def parse(cls, spec):
        """Build a configuration from *spec*.

        Accepts an existing :class:`FastPathConfig` (returned as is),
        ``None`` (environment default), or a string: ``"all"``,
        ``"none"``/``"off"``, or a comma list of flag names optionally
        with ``readahead=N`` / ``capacity=N`` settings, e.g.
        ``"namecache,trap_fast,readahead=65536"``.
        """
        if isinstance(spec, cls):
            return spec
        if spec is None:
            return cls.from_env()
        if not isinstance(spec, str):
            raise TypeError("fastpaths must be a FastPathConfig, str, or None")
        text = spec.strip().lower()
        if text in ("", "all", "default", "on"):
            return cls()
        if text in ("none", "off"):
            return cls.none()
        if text == "all+readahead":
            return cls.all_on()
        names = []
        settings = {}
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" in piece:
                key, _, value = piece.partition("=")
                key = key.strip()
                if key == "readahead":
                    settings["stdio_readahead"] = int(value)
                elif key == "capacity":
                    settings["namecache_capacity"] = int(value)
                else:
                    raise ValueError("unknown fast-path setting %r" % (key,))
            else:
                if piece not in FLAG_NAMES:
                    raise ValueError("unknown fast-path flag %r" % (piece,))
                names.append(piece)
        return cls.only(*names, **settings)

    @classmethod
    def from_env(cls):
        """The configuration named by ``$REPRO_FASTPATH`` (default all on)."""
        return cls.parse(os.environ.get("REPRO_FASTPATH", "all"))

    # -- introspection ----------------------------------------------------

    def describe(self):
        """A plain-dict rendering for reports and ``kernel_stats``."""
        return {
            "namecache": self.namecache,
            "trap_fast": self.trap_fast,
            "zero_copy": self.zero_copy,
            "namecache_capacity": self.namecache_capacity,
            "stdio_readahead": self.stdio_readahead,
        }

    def __repr__(self):
        on = [name for name in FLAG_NAMES if getattr(self, name)]
        return "<FastPathConfig %s readahead=%d>" % (
            ",".join(on) or "none", self.stdio_readahead)
