"""repro.lint — agentlint, the static agent-protocol analyzer.

The paper's Goal 2 requires that an agent "both use and provide the
entire system interface"; until now that invariant was checked only
dynamically (one representative call per syscall in
``tests/test_completeness_sweep.py``).  This package proves the
protocol obligations *statically* — agent modules are parsed, never
executed — so a typo'd ``sys_*`` override, a swallowed signal, or a
leaked open-object reference is caught at review time, before any
workload happens to hit it.

Two rule families share one engine, each id usable in
``# repro-lint: disable=RULE`` suppressions (see
:mod:`repro.lint.rules` and docs/LINTING.md).  The syntactic rules
pattern-match statements:

====  =================================================================
L001  every ``sys_*`` override names a real syscall in sysent
L002  ``init`` overrides chain to ``super().init`` or register
L004  error paths raise ``SyscallError`` with a known errno
L005  signal-path overrides forward via ``signal_up``
L006  agent code never imports ``repro.kernel`` internals
L007  sysent ↔ SymbolicSyscall parity, in both directions
L008  broad excepts in handlers re-raise — no swallowed SyscallError
L009  handlers never read host wall clock / global RNG
L010  handlers never mutate the emulation vector directly
L011  handlers never write to the host console
====  =================================================================

The flow rules (:mod:`repro.lint.flow`) build per-function control
flow graphs (:mod:`repro.lint.cfg`) and prove path-sensitive
properties the syntactic family cannot see — the PR 5 fault-injection
bugs (an inode leaked when the link step after its allocation raised)
are exactly this shape:

====  =================================================================
F001  fresh resources released/committed/returned on *every* path,
      exception edges included
F002  incref/decref balance per path
F003  every ``sys_*`` path returns a value or raises SyscallError
F004  no unbounded ``.get()``/``.join()``/``.acquire()``/``.wait()``
      reachable from a handler
F005  every interposed path delegates, fails, or explicitly absorbs
L000  the sweep itself is crash-proof: unanalyzable files become
      per-file findings, never aborted runs
====  =================================================================

Entry points: the ``repro-lint`` console script (or
``python scripts/agentlint.py``), and programmatically
:func:`repro.lint.run_lint`.
"""

from repro.lint.engine import (LintError, LintResult, changed_files,
                               run_lint)
from repro.lint.findings import ERROR, WARNING, Finding
from repro.lint.protocol import ProtocolModel, load_protocol
from repro.lint.rules import RULES, Rule, rule_ids
from repro.lint.sarif import to_sarif

__all__ = [
    "ERROR", "WARNING", "Finding", "LintError", "LintResult",
    "ProtocolModel", "RULES", "Rule", "changed_files", "load_protocol",
    "rule_ids", "run_lint", "to_sarif",
]
