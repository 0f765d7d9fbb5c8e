"""agentlint (repro.lint): per-rule fixtures and engine behaviour.

Each rule L001..L011 gets a failing fixture (true positive), a clean
fixture (true negative), and the suppression mechanism is proven to
silence exactly the suppressed rule.  The ``--json`` document schema is
pinned, baseline files round-trip, and — the acceptance criterion — the
repo's own agents and toolkit lint clean.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.lint import engine, rule_ids, run_lint
from repro.lint.checks import check_protocol
from repro.lint.protocol import load_protocol
from repro.lint.rules import RULES

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MINI_SYSENT = '''\
"""Fixture system call table."""

_TABLE = [
    _entry(3, "read", "fd:fd", "count:int"),
    _entry(5, "open", "path:str", "flags:oflags", "mode:mode"),
    _entry(6, "close", "fd:fd"),
    _entry(20, "getpid"),
    _entry(37, "kill", "pid:int", "sig:sig"),
    _entry(200, "task_set_emulation", "numbers:any", "handler:any"),
]

MAX_BSD_SYSCALL = 199
'''

MINI_ERRNO = '''\
"""Fixture errno table."""

EPERM = 1
EBADF = 9
EWOULDBLOCK = 35
EAGAIN = EWOULDBLOCK
ENOSYS = 78
'''

MINI_SYMBOLIC = '''\
"""Fixture symbolic layer."""


class SymbolicSyscall:
    def sys_read(self, fd, count):
        return self.syscall_down("read", fd, count)

    def sys_open(self, path, flags=0, mode=0o666):
        return self.syscall_down("open", path, flags, mode)

    def sys_close(self, fd):
        return self.syscall_down("close", fd)

    def sys_getpid(self):
        return self.syscall_down("getpid")

    def sys_kill(self, pid, signum):
        return self.syscall_down("kill", pid, signum)
'''


@pytest.fixture
def proto_root(tmp_path):
    """A miniature protocol tree (sysent/errno/symbolic) for fixtures."""
    (tmp_path / "kernel").mkdir()
    (tmp_path / "toolkit").mkdir()
    (tmp_path / "kernel" / "sysent.py").write_text(MINI_SYSENT)
    (tmp_path / "kernel" / "errno.py").write_text(MINI_ERRNO)
    (tmp_path / "toolkit" / "symbolic.py").write_text(MINI_SYMBOLIC)
    return tmp_path


def lint_source(tmp_path, proto_root, source, name="agent_mod.py",
                in_agents=True, parity=False):
    """Lint one fixture module; returns the LintResult."""
    directory = tmp_path / ("agents" if in_agents else "plain")
    directory.mkdir(exist_ok=True)
    target = directory / name
    target.write_text(textwrap.dedent(source))
    return run_lint([str(target)], protocol_root=str(proto_root),
                    check_parity=parity)


def rules_fired(result):
    """Active rule ids in a result, as a set."""
    return {f.rule for f in result.active}


CLEAN_AGENT = """
from repro.toolkit.symbolic import SymbolicSyscall
from repro.kernel.errno import EPERM, SyscallError


class GoodAgent(SymbolicSyscall):
    def init(self, agentargv):
        super().init(agentargv)

    def sys_open(self, path, flags=0, mode=0o666):
        if path.startswith("/forbidden"):
            raise SyscallError(EPERM, path)
        return super().sys_open(path, flags, mode)

    def signal_handler(self, signum, code, context):
        self.signal_up(signum)
"""


def test_clean_agent_has_no_findings(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, CLEAN_AGENT)
    assert result.findings == []


# -- L001: sys_* names -----------------------------------------------------


def test_l001_fires_on_typoed_override(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class TypoAgent(SymbolicSyscall):
        def sys_opne(self, path, flags=0, mode=0o666):
            return super().sys_open(path, flags, mode)
    """)
    assert rules_fired(result) == {"L001"}
    (finding,) = result.active
    assert finding.symbol == "TypoAgent.sys_opne"
    assert "did you mean sys_open" in finding.message


def test_l001_quiet_on_real_calls_and_non_agent_classes(tmp_path,
                                                        proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Fine(SymbolicSyscall):
        def sys_getpid(self):
            return super().sys_getpid()

    class NotAnAgent:
        def sys_tem_of_record(self):
            return 1
    """)
    assert rules_fired(result) == set()


def test_l001_sees_agents_through_unknown_intermediates(tmp_path,
                                                        proto_root):
    # Base name matches no toolkit class, but the class defines sys_*
    # methods itself — it is an agent reached through an imported
    # intermediate and must still be checked.
    result = lint_source(tmp_path, proto_root, """
    from somewhere import Intermediate

    class Indirect(Intermediate):
        def sys_getpdi(self):
            return 0
    """)
    # F005 also fires: the method returns without ever delegating.
    assert rules_fired(result) == {"L001", "F005"}


# -- L002: init chains or registers ---------------------------------------


def test_l002_fires_when_init_neither_chains_nor_registers(tmp_path,
                                                           proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Lost(SymbolicSyscall):
        def init(self, agentargv):
            self.args = agentargv
    """)
    assert rules_fired(result) == {"L002"}


def test_l002_quiet_for_chained_and_self_registering_inits(tmp_path,
                                                           proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.numeric import NumericSyscall
    from repro.toolkit.symbolic import SymbolicSyscall

    class Chains(SymbolicSyscall):
        def init(self, agentargv):
            super().init(agentargv)

    class Registers(NumericSyscall):
        def init(self, agentargv):
            self.register_interest_range(1, 199)
            self.register_signal_interest()
    """)
    assert rules_fired(result) == set()


# -- F002: refcount pairing (the tests keep the retired L003's names) ------


def test_l003_alias_unbalanced_reference_traffic_fires_f002(tmp_path,
                                                            proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.descriptors import DescSymbolicSyscall

    class Leaky(DescSymbolicSyscall):
        def sys_close(self, fd):
            obj = self.dset.lookup(fd).open_object.incref()
            return super().sys_close(fd)
    """)
    assert rules_fired(result) == {"F002"}


def test_l003_quiet_when_references_pair(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.descriptors import DescSymbolicSyscall

    class Careful(DescSymbolicSyscall):
        def sys_close(self, fd):
            obj = self.dset.lookup(fd).open_object.incref()
            try:
                return super().sys_close(fd)
            finally:
                obj.decref()
    """)
    assert rules_fired(result) == set()


# -- L004: errno discipline ------------------------------------------------


def test_l004_fires_on_raw_returns_and_unknown_errnos(tmp_path,
                                                      proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.kernel.errno import SyscallError
    from repro.toolkit.symbolic import SymbolicSyscall

    class Sloppy(SymbolicSyscall):
        def sys_read(self, fd, count):
            if fd < 0:
                return -1
            return None

        def sys_open(self, path, flags=0, mode=0o666):
            raise SyscallError(9999)

        def sys_kill(self, pid, signum):
            raise SyscallError(ENOCOFFEE)
    """)
    l004 = [f for f in result.active if f.rule == "L004"]
    assert len(l004) == 4
    messages = "\n".join(f.message for f in l004)
    assert "raw negative int" in messages
    assert "returns None" in messages
    assert "9999" in messages
    assert "ENOCOFFEE" in messages


def test_l004_quiet_on_known_errnos_and_dynamic_values(tmp_path,
                                                       proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.kernel.errno import EPERM, SyscallError
    from repro.toolkit.symbolic import SymbolicSyscall

    class Disciplined(SymbolicSyscall):
        def sys_open(self, path, flags=0, mode=0o666):
            raise SyscallError(EPERM, path)

        def sys_read(self, fd, count):
            try:
                return super().sys_read(fd, count)
            except SyscallError as err:
                raise SyscallError(err.errno, "wrapped")
    """)
    assert rules_fired(result) == set()


# -- L005: signal forwarding -----------------------------------------------


def test_l005_fires_when_signals_are_swallowed(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Muffler(SymbolicSyscall):
        def signal_handler(self, signum, code, context):
            self.seen = signum
    """)
    assert rules_fired(result) == {"L005"}


def test_l005_quiet_for_forwarding_and_delegation(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.numeric import NumericSyscall
    from repro.toolkit.symbolic import SymbolicSyscall

    class Forwards(SymbolicSyscall):
        def signal_handler(self, signum, code, context):
            self.signal_up(signum)

    class Chains(SymbolicSyscall):
        def signal_handler(self, signum, code, context):
            super().signal_handler(signum, code, context)

    class Delegates(NumericSyscall):
        def handle_signal(self, signum, action):
            self.inner.handle_signal(signum, action)
    """)
    assert rules_fired(result) == set()


# -- L006: layer bypass ----------------------------------------------------


def test_l006_fires_on_kernel_internal_imports_from_agents(tmp_path,
                                                           proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.kernel.trap import deliver_signal_to_application
    from repro.kernel import proc
    import repro.kernel.namei
    from repro.toolkit.symbolic import SymbolicSyscall

    class Bypasser(SymbolicSyscall):
        pass
    """)
    l006 = [f for f in result.active if f.rule == "L006"]
    assert len(l006) == 3


def test_l006_allows_abi_modules_and_non_agent_code(tmp_path, proto_root):
    clean = """
    from repro.kernel import signals as sig
    from repro.kernel.errno import EPERM, SyscallError
    from repro.kernel.ofile import O_CREAT
    from repro.kernel.stat import Stat
    from repro.toolkit.symbolic import SymbolicSyscall

    class Clean(SymbolicSyscall):
        pass
    """
    assert rules_fired(lint_source(tmp_path, proto_root, clean)) == set()
    # The same internals import outside an agents package is not L006's
    # business (the toolkit boilerplate is the sanctioned mechanism).
    outside = """
    from repro.kernel.trap import deliver_signal_to_application
    """
    result = lint_source(tmp_path, proto_root, outside, in_agents=False)
    assert rules_fired(result) == set()


# -- L007: table <-> symbolic parity ---------------------------------------


def test_l007_fires_in_both_directions(tmp_path, proto_root):
    symbolic = proto_root / "toolkit" / "symbolic.py"
    # Drop sys_kill (table entry without method) and add sys_bogus
    # (method without table entry).
    text = symbolic.read_text().replace("sys_kill", "sys_bogus")
    symbolic.write_text(text.replace(
        'self.syscall_down("kill", pid, signum)',
        'self.syscall_down("bogus", pid, signum)'))
    model = load_protocol(str(proto_root))
    findings = check_protocol(model)
    by_symbol = {f.symbol: f.message for f in findings}
    assert all(f.rule == "L007" for f in findings)
    assert "kill" in by_symbol
    assert "no sys_kill method" in by_symbol["kill"]
    assert "SymbolicSyscall.sys_bogus" in by_symbol
    # Mach-range traps (task_set_emulation, 200) need no method:
    assert "task_set_emulation" not in by_symbol


def test_l007_quiet_when_table_and_layer_agree(proto_root):
    model = load_protocol(str(proto_root))
    assert check_protocol(model) == []


def test_l007_runs_from_engine(tmp_path, proto_root):
    symbolic = proto_root / "toolkit" / "symbolic.py"
    symbolic.write_text(
        symbolic.read_text().replace("sys_kill", "sys_kilt"))
    result = lint_source(tmp_path, proto_root, CLEAN_AGENT, parity=True)
    assert "L007" in rules_fired(result)


# -- L008: broad excepts must not swallow SyscallError ---------------------


def test_l008_fires_on_swallowing_broad_excepts(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Swallower(SymbolicSyscall):
        def sys_open(self, path, flags=0, mode=0o666):
            try:
                return super().sys_open(path, flags, mode)
            except Exception:
                return 0

        def sys_read(self, fd, count):
            try:
                return super().sys_read(fd, count)
            except:
                return b""

        def handle_signal(self, signum, action):
            try:
                self.signal_up(signum)
            except BaseException:
                pass
    """)
    l008 = [f for f in result.active if f.rule == "L008"]
    assert len(l008) == 3
    symbols = {f.symbol for f in l008}
    assert symbols == {"Swallower.sys_open", "Swallower.sys_read",
                       "Swallower.handle_signal"}
    messages = "\n".join(f.message for f in l008)
    assert "'except:'" in messages
    assert "'except Exception'" in messages
    assert "swallowed" in messages


def test_l008_quiet_for_reraising_and_protected_shapes(tmp_path,
                                                       proto_root):
    # Three sanctioned shapes: a broad clause whose own body re-raises
    # (bare or translated), the guard layer's pattern (an earlier
    # clause re-raising the protocol exceptions — by name or via an
    # ALL_CAPS alias tuple), and narrow clauses that never see
    # SyscallError at all.
    result = lint_source(tmp_path, proto_root, """
    from repro.kernel.errno import EPERM, SyscallError
    from repro.toolkit.symbolic import SymbolicSyscall

    PASS_THROUGH = (SyscallError,)

    class Careful(SymbolicSyscall):
        def sys_open(self, path, flags=0, mode=0o666):
            try:
                return super().sys_open(path, flags, mode)
            except Exception:
                raise SyscallError(EPERM, path)

        def sys_read(self, fd, count):
            try:
                return super().sys_read(fd, count)
            except SyscallError:
                raise
            except Exception:
                return b""

        def sys_close(self, fd):
            try:
                return super().sys_close(fd)
            except PASS_THROUGH:
                raise
            except BaseException:
                return 0

        def sys_getpid(self):
            try:
                return super().sys_getpid()
            except ValueError:
                return 0
    """)
    assert rules_fired(result) == set()


def test_l008_earlier_foreign_reraise_does_not_protect(tmp_path,
                                                       proto_root):
    # Re-raising ValueError first is no shield: SyscallError still
    # lands in (and dies in) the broad clause below it.
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class FalseShield(SymbolicSyscall):
        def sys_open(self, path, flags=0, mode=0o666):
            try:
                return super().sys_open(path, flags, mode)
            except ValueError:
                raise
            except Exception:
                return 0
    """)
    assert rules_fired(result) == {"L008"}


def test_l008_ignores_non_handler_methods(tmp_path, proto_root):
    # Helpers are free to absorb errors; only handler methods carry
    # the errno protocol.
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Helpers(SymbolicSyscall):
        def _best_effort(self, path):
            try:
                return self.cache[path]
            except Exception:
                return None
    """)
    assert rules_fired(result) == set()


# -- L009: no host nondeterminism in handler methods -----------------------


def test_l009_fires_on_wallclock_and_global_rng(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    import random
    import time

    from repro.toolkit.symbolic import SymbolicSyscall

    class Jittery(SymbolicSyscall):
        def sys_open(self, path, flags=0, mode=0o666):
            if random.random() < 0.5:
                time.sleep(0.01)
            return super().sys_open(path, flags, mode)

        def sys_getpid(self):
            return int(time.time())
    """)
    l009 = [f for f in result.active if f.rule == "L009"]
    assert len(l009) == 3
    symbols = {f.symbol for f in l009}
    assert symbols == {"Jittery.sys_open", "Jittery.sys_getpid"}
    messages = "\n".join(f.message for f in l009)
    assert "time.time()" in messages
    assert "random.random()" in messages
    assert "unreplayable" in messages


def test_l009_quiet_for_seeded_instances_and_helpers(tmp_path, proto_root):
    # The sanctioned shapes: a seeded random.Random held on the agent,
    # virtual time via downcall, and helpers outside the handler scope
    # (the boilerplate's own perf_counter bookkeeping lives there).
    result = lint_source(tmp_path, proto_root, """
    import random
    import time

    from repro.toolkit.symbolic import SymbolicSyscall

    class Seeded(SymbolicSyscall):
        def init(self, interposed=0):
            self._rng = random.Random(42)
            return super().init(interposed)

        def sys_open(self, path, flags=0, mode=0o666):
            if self._rng.random() < 0.5:
                now = self.syscall_down("gettimeofday")
            return super().sys_open(path, flags, mode)

        def _measure(self):
            return time.perf_counter()
    """)
    assert rules_fired(result) == set()


# -- L010: interception changes go through task_set_emulation --------------


def test_l010_fires_on_direct_vector_mutation(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Hijacker(SymbolicSyscall):
        def sys_open(self, path, flags=0, mode=0o666):
            # Re-route close while handling open: behind the kernel's back.
            self.ctx.proc.emulation_vector[6] = self._emulation_entry
            return super().sys_open(path, flags, mode)

        def sys_close(self, fd):
            self.ctx.proc.emulation_vector.pop(6, None)
            return super().sys_close(fd)

        def handle_signal(self, signum, action):
            del self.ctx.proc.emulation_vector[20]
            self.signal_up(signum)
    """)
    l010 = [f for f in result.active if f.rule == "L010"]
    assert len(l010) == 3
    symbols = {f.symbol for f in l010}
    assert symbols == {"Hijacker.sys_open", "Hijacker.sys_close",
                       "Hijacker.handle_signal"}
    messages = "\n".join(f.message for f in l010)
    assert "task_set_emulation" in messages
    assert "register_interest" in messages


def test_l010_quiet_for_sanctioned_interception_changes(tmp_path,
                                                        proto_root):
    # The sanctioned shapes: register/unregister helpers (which funnel
    # through task_set_emulation), and merely *reading* the vector.
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Narrowing(SymbolicSyscall):
        def sys_open(self, path, flags=0, mode=0o666):
            self.unregister_interest([6])
            self.register_interest(3)
            interposed = 6 in self.ctx.proc.emulation_vector
            return super().sys_open(path, flags, mode)

        def _install(self, numbers):
            # Outside the handler scope: boilerplate-style plumbing is
            # where the toolkit itself manipulates interception.
            self.register_interest_many(numbers)
    """)
    assert rules_fired(result) == set()


# -- L011: no host console writes in handler methods -----------------------


def test_l011_fires_on_print_and_host_stream_writes(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    import sys

    from repro.toolkit.symbolic import SymbolicSyscall

    class Chatty(SymbolicSyscall):
        def sys_open(self, path, flags=0, mode=0o666):
            print("opening", path)
            return super().sys_open(path, flags, mode)

        def sys_close(self, fd):
            sys.stdout.write("closing %d\\n" % fd)
            return super().sys_close(fd)

        def handle_signal(self, signum, action):
            sys.stderr.write("signal %d\\n" % signum)
            self.signal_up(signum)
    """)
    l011 = [f for f in result.active if f.rule == "L011"]
    assert len(l011) == 3
    symbols = {f.symbol for f in l011}
    assert symbols == {"Chatty.sys_open", "Chatty.sys_close",
                       "Chatty.handle_signal"}
    messages = "\n".join(f.message for f in l011)
    assert "print()" in messages
    assert "sys.stdout.write()" in messages
    assert "sys.stderr.write()" in messages
    assert "syscall_down" in messages


def test_l011_quiet_for_downcall_writes_and_helpers(tmp_path, proto_root):
    # The sanctioned shapes: writing through a downcall to a descriptor
    # the simulated machine knows about, and host printing in helper
    # methods outside the handler scope (debug scaffolding that never
    # runs on the dispatch spine).
    result = lint_source(tmp_path, proto_root, """
    import sys

    from repro.toolkit.symbolic import SymbolicSyscall

    class Quiet(SymbolicSyscall):
        def sys_open(self, path, flags=0, mode=0o666):
            self.syscall_down("write", 44, b"opening\\n")
            return super().sys_open(path, flags, mode)

        def _debug(self, text):
            sys.stderr.write(text)
            print(text)
    """)
    assert rules_fired(result) == set()


# -- suppressions ----------------------------------------------------------


def test_trailing_suppression_silences_exactly_that_rule(tmp_path,
                                                         proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Odd(SymbolicSyscall):
        def sys_opne(self, path):  # repro-lint: disable=L001
            return self.syscall_down("open", path)
    """)
    assert result.active == []
    assert [f.rule for f in result.suppressed] == ["L001"]


def test_comment_above_suppression_carries_past_justification(tmp_path,
                                                              proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Odd(SymbolicSyscall):
        # repro-lint: disable=L005 -- this fixture swallows signals on
        # purpose, and the justification spans two comment lines.
        def signal_handler(self, signum, code, context):
            self.seen = signum
    """)
    assert result.active == []
    assert [f.rule for f in result.suppressed] == ["L005"]


def test_suppressing_one_rule_does_not_silence_another(tmp_path,
                                                       proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Odd(SymbolicSyscall):
        def sys_opne(self, path):  # repro-lint: disable=L005
            return self.syscall_down("open", path)
    """)
    assert rules_fired(result) == {"L001"}


# -- baseline files --------------------------------------------------------


def test_baseline_roundtrip_tolerates_recorded_findings(tmp_path,
                                                        proto_root):
    source = """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Odd(SymbolicSyscall):
        def sys_opne(self, path):
            return path
    """
    result = lint_source(tmp_path, proto_root, source)
    assert rules_fired(result) == {"L001", "F005"}
    baseline_path = tmp_path / "baseline.json"
    engine.write_baseline(str(baseline_path), result)
    baseline = engine.load_baseline(str(baseline_path))
    again = run_lint([str(tmp_path / "agents" / "agent_mod.py")],
                     protocol_root=str(proto_root), check_parity=False,
                     baseline=baseline)
    assert again.active == []
    assert sorted(f.rule for f in again.baselined) == ["F005", "L001"]


def test_baseline_entries_may_carry_reasons(tmp_path, proto_root):
    source = """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Odd(SymbolicSyscall):
        def sys_opne(self, path):
            return path
    """
    result = lint_source(tmp_path, proto_root, source)
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps([
        {"fingerprint": f.fingerprint(),
         "reason": "known debt, tracked in the fixture"}
        for f in result.active
    ]))
    baseline = engine.load_baseline(str(baseline_path))
    assert all(reason for reason in baseline.values())
    again = run_lint([str(tmp_path / "agents" / "agent_mod.py")],
                     protocol_root=str(proto_root), check_parity=False,
                     baseline=baseline)
    assert again.active == []
    assert len(again.baselined) == 2


# -- JSON schema golden ----------------------------------------------------


def test_json_document_schema(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Odd(SymbolicSyscall):
        def sys_opne(self, path):
            return path
    """)
    doc = result.to_dict()
    assert sorted(doc) == ["files", "findings", "summary", "version"]
    assert doc["version"] == 2
    assert doc["files"] == 1
    assert sorted(doc["summary"]) == [
        "active", "baselined", "by_rule", "suppressed",
        "suppressed_by_rule"]
    finding = doc["findings"][0]
    assert sorted(finding) == [
        "baselined", "col", "line", "message", "occurrence", "path",
        "rule", "severity", "suppressed", "symbol"]
    assert finding["rule"] == "L001"
    assert finding["severity"] == "error"
    assert finding["suppressed"] is False
    assert finding["occurrence"] == 0
    json.dumps(doc)  # must be serializable as-is


# -- CLI -------------------------------------------------------------------


def _run_cli(args):
    return subprocess.run(
        [sys.executable,
         os.path.join(REPO_ROOT, "scripts", "agentlint.py")] + args,
        capture_output=True, text=True)


def test_cli_exit_codes_and_json_output(tmp_path, proto_root):
    bad = tmp_path / "agents"
    bad.mkdir()
    (bad / "bad.py").write_text(
        "from repro.toolkit.symbolic import SymbolicSyscall\n"
        "class A(SymbolicSyscall):\n"
        "    def sys_opne(self):\n        return 0\n")
    clean = _run_cli(["--protocol-root", str(proto_root), "--no-parity",
                      str(proto_root / "toolkit")])
    assert clean.returncode == 0, clean.stderr
    findings = _run_cli(["--protocol-root", str(proto_root), "--json",
                         "--no-parity", str(bad)])
    assert findings.returncode == 1
    doc = json.loads(findings.stdout)
    assert doc["summary"]["by_rule"] == {"F005": 1, "L001": 1}
    missing = _run_cli([str(tmp_path / "nonexistent")])
    assert missing.returncode == 2


def test_cli_list_rules_covers_every_registered_rule():
    listing = _run_cli(["--list-rules"])
    assert listing.returncode == 0
    for rule_id in rule_ids():
        assert rule_id in listing.stdout


# -- the registry and the repo itself --------------------------------------


def test_registry_defines_every_rule():
    assert rule_ids() == ["F001", "F002", "F003", "F004", "F005", "F006",
                          "L000", "L001", "L002", "L004",
                          "L005", "L006", "L007", "L008", "L009",
                          "L010", "L011"]
    for rule in RULES.values():
        assert rule.summary and rule.rationale
        assert rule.severity in ("error", "warning")


def test_repo_agents_and_toolkit_lint_clean():
    result = run_lint([
        os.path.join(REPO_ROOT, "src", "repro", "agents"),
        os.path.join(REPO_ROOT, "src", "repro", "toolkit"),
    ])
    assert result.active == [], [f.render() for f in result.active]
    # The intentional, justified suppressions stay visible: the three
    # descriptor-table release points (disable=F002 comments), the
    # IPC-delegating handle_syscall, and the IPC-forwarding
    # handle_signal in remote.py.
    assert result.suppressed_counts() == {"F002": 3, "F005": 1,
                                          "L005": 1}
