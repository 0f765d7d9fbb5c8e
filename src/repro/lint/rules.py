"""The rule registry: stable ids, severities, and one-line contracts.

Every agentlint rule has a stable id (``L001`` .. ``L011``) used in
output, in ``# repro-lint: disable=`` suppressions, and in baseline
files.  The registry is the single source of truth the CLI, the docs
test, and ``docs/LINTING.md`` draw on; rule *implementations* live in
:mod:`repro.lint.checks`.
"""

from repro.lint.findings import ERROR


class Rule:
    """One registered rule: id, severity, and its contract in one line."""

    __slots__ = ("rule_id", "severity", "summary", "rationale")

    def __init__(self, rule_id, severity, summary, rationale):
        self.rule_id = rule_id
        self.severity = severity
        self.summary = summary
        self.rationale = rationale

    def __repr__(self):
        return "<Rule %s %s>" % (self.rule_id, self.severity)


#: id -> :class:`Rule` for every rule agentlint implements
RULES = {}


def _register(rule_id, severity, summary, rationale):
    RULES[rule_id] = Rule(rule_id, severity, summary, rationale)


_register(
    "L001", ERROR,
    "every sys_* override names a real syscall in repro.kernel.sysent",
    "a typo'd override is silently never called: BSDNumericSyscall "
    "binds methods by name, so the call falls through to the default "
    "behaviour and the agent is un-interposed on that call (paper "
    "Goal 2: agents must provide the entire interface).",
)
_register(
    "L002", ERROR,
    "init overrides call super().init(...) or register interception "
    "themselves",
    "an init that neither chains nor registers leaves the agent "
    "attached but intercepting nothing — every call bypasses it "
    "(paper Section 2.3: agent invocation installs interception).",
)
_register(
    "L004", ERROR,
    "error paths raise SyscallError with a known errno, never raw "
    "ints/None",
    "the symbolic protocol carries failure as SyscallError; a raw -1 "
    "or None return is marshalled as a *successful* result and the "
    "client never sees the error (kernel errno convention, "
    "repro.kernel.errno).",
)
_register(
    "L005", ERROR,
    "signal-path overrides forward via signal_up (or delegate to a "
    "handler that does)",
    "an agent that intercepts signals without forwarding swallows "
    "them: the client's own dispositions never run (paper Section "
    "2.3, the upward path).",
)
_register(
    "L006", ERROR,
    "agent code goes through syscall_down/toolkit objects, not "
    "repro.kernel internals",
    "importing kernel machinery from an agent bypasses the layering "
    "that makes agents stackable and placement-independent; only the "
    "kernel's value types and constants are agent-visible ABI.",
)
_register(
    "L007", ERROR,
    "sysent and SymbolicSyscall agree bidirectionally (every BSD "
    "table entry has a sys_* method and vice versa)",
    "a table entry without a method is a call agents cannot provide; "
    "a method without an entry can never be reached — either way "
    "completeness (paper Goal 2, Section 3.2) is broken before "
    "anything runs.",
)
_register(
    "L008", ERROR,
    "broad except clauses in handler methods re-raise or are preceded "
    "by a handler that does — SyscallError must not be swallowed",
    "a bare ``except:`` (or ``except Exception``/``BaseException``) in "
    "a sys_*/handle_syscall/handle_signal body catches SyscallError "
    "too; if nothing in the clause re-raises, the protocol's failure "
    "signal is converted into a silent success and the client sees a "
    "wrong result instead of an errno (the containment layer, "
    "repro.toolkit.guard, shows the sanctioned shape: re-raise the "
    "protocol exceptions first, then contain the rest).",
)
_register(
    "L009", ERROR,
    "handler methods never read host nondeterminism: no time.*/"
    "random.* module calls — use the virtual clock and seeded "
    "generators",
    "a sys_*/handle_syscall/handle_signal body that calls time.time() "
    "or module-level random.random() makes the agent's decisions "
    "depend on host wall clock and interpreter-global RNG state; such "
    "runs cannot be captured by the record/replay recorder "
    "(repro.obs.recorder) — read virtual time via gettimeofday "
    "downcalls and draw randomness from a seeded instance the way "
    "repro.agents.chaos does.",
)
_register(
    "L010", ERROR,
    "handler methods never mutate the emulation vector directly: "
    "interception changes go through register_interest/"
    "unregister_interest (task_set_emulation)",
    "a sys_*/handle_syscall/handle_signal body that assigns into, "
    "deletes from, or pops ``*.emulation_vector`` bypasses "
    "task_set_emulation — the single funnel that resets the "
    "process's fast-dispatch table (``proc.fast_dispatch``); a direct "
    "mutation leaves a stale table sending newly interposed numbers "
    "straight to the kernel.",
)
_register(
    "L011", ERROR,
    "handler methods never write to the host console: no print() or "
    "sys.stdout/sys.stderr writes — output goes through write "
    "downcalls",
    "a sys_*/handle_syscall/handle_signal body that calls print() or "
    "sys.stdout.write() emits bytes the simulated machine never sees: "
    "the output bypasses the client's descriptors, so no agent below "
    "can observe or rewrite it, the record/replay recorder cannot "
    "capture it, and in-world programs reading the console miss it — "
    "write through a syscall_down('write', fd, ...) downcall (or the "
    "trace agent's log descriptor pattern) instead.",
)


_register(
    "L000", ERROR,
    "the linter itself analyzed every file it was pointed at",
    "an unparseable or pathological file must not silently vanish "
    "from the sweep: the engine reports it as a per-file finding and "
    "the CLI exits 2, so CI distinguishes 'the code is dirty' from "
    "'the linter never looked'.",
)
_register(
    "F001", ERROR,
    "a fresh resource (make_inode/create_* result) is released, "
    "committed, or returned on every path — exception edges included",
    "PR 5's fault injection found creat/mknod/symlink leaking the "
    "fresh inode when the link step faulted: no single statement is "
    "wrong, the bug *is* the exception edge.  The flow analysis walks "
    "each path out of the allocation and requires a maybe_reclaim, a "
    "committing call, or an escape before the function unwinds.",
)
_register(
    "F002", ERROR,
    "incref/decref balance on every path out of a method (early "
    "returns, finally, handlers), unless the reference escapes",
    "a per-method counter misses try/finally and early "
    "returns; the typestate analysis tracks the net reference delta "
    "along each path and flags the exits where it is non-zero — the "
    "paper names refcount mistakes as its hardest agent bugs "
    "(Section 4.2).",
)
_register(
    "F003", ERROR,
    "every path out of a sys_* body returns a value or raises "
    "SyscallError — no falling off the end, no bare return",
    "the implicit None of a forgotten branch is marshalled to the "
    "client as a *successful* result (the path-aware face of L004); "
    "reachability of the implicit exit is a pure CFG question the "
    "syntactic rule could never answer.",
)
_register(
    "F004", ERROR,
    "no unbounded blocking call (.get/.join/.acquire/.wait without "
    "timeout) reachable from a handler method",
    "a handler that blocks forever hangs the client's syscall, and "
    "every agent stacked below it — the SeparateSpaceAgent hang class "
    "PR 5 fixed dynamically with watchdogs; pass a timeout and "
    "convert expiry to SyscallError (repro.toolkit.remote shows the "
    "shape).",
)
_register(
    "F005", ERROR,
    "every interposed syscall path delegates (syscall_down/sys_*), "
    "raises SyscallError, or carries an explicit absorb suppression",
    "a path that returns without ever reaching the layer below has "
    "silently absorbed the call — indistinguishable from success to "
    "the client and invisible to agents stacked underneath; if "
    "absorption is the agent's contract (an in-agent cache hit, a "
    "synthesized result), say so with a suppression justification.",
)


_register(
    "F006", ERROR,
    "every journal transaction begun by journal_begin reaches "
    "journal_commit or journal_abort (or is handed off) on every path "
    "— exception edges included",
    "the write-ahead journal's kill-anywhere guarantee rests on the "
    "commit mark: a transaction a path abandons (early return, raise "
    "nobody aborts on) is still *live* in the log, so the next mount "
    "replays it as torn and undoes its intents — silently discarding "
    "a mutation the caller believed durable.  F001's typestate walk, "
    "retargeted at the journal protocol (repro.kernel.journal).",
)


def rule_ids():
    """All registered rule ids in sorted order."""
    return sorted(RULES)


def severity_of(rule_id):
    """The registered severity for *rule_id* (KeyError if unknown)."""
    return RULES[rule_id].severity
