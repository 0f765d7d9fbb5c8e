"""The flow rules (repro.lint.flow) and their CFG substrate.

Covers, per the agentflow acceptance criteria:

* CFG construction — try/finally inlining, nested ``with``,
  ``while``/``else``, constant-test loops, implicit-exit reachability;
* true-positive / true-negative fixture pairs for F001..F005 against
  the mini protocol tree;
* the checked-in **pre-fix PR 5** creat/symlink fixtures
  (tests/fixtures/flow/): F001 must flag both inode leaks statically,
  and must stay quiet on the fixed shapes;
* the crash-proof sweep (L000), the occurrence-indexed fingerprints,
  ``--diff`` restriction, SARIF output, and the repo-wide self-run —
  agents, toolkit, *and* kernel — linting clean.
"""

import ast
import json
import os
import subprocess
import textwrap

import pytest

from repro.lint import engine, run_lint
from repro.lint.cfg import build_cfg
from repro.lint.sarif import to_sarif
from tests.test_lint import (
    MINI_ERRNO,
    MINI_SYSENT,
    MINI_SYMBOLIC,
    REPO_ROOT,
    _run_cli,
    lint_source,
    rules_fired,
)

FLOW_FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "flow")


@pytest.fixture
def proto_root(tmp_path):
    """A miniature protocol tree (sysent/errno/symbolic) for fixtures."""
    (tmp_path / "kernel").mkdir()
    (tmp_path / "toolkit").mkdir()
    (tmp_path / "kernel" / "sysent.py").write_text(MINI_SYSENT)
    (tmp_path / "kernel" / "errno.py").write_text(MINI_ERRNO)
    (tmp_path / "toolkit" / "symbolic.py").write_text(MINI_SYMBOLIC)
    return tmp_path


def _cfg(source):
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[0]
    return build_cfg(func), func


def _reachable_ids(cfg):
    return {id(node) for node in cfg.reachable()}


# -- CFG construction ------------------------------------------------------


def test_cfg_try_finally_inlines_one_copy_per_route():
    cfg, func = _cfg("""
    def f():
        try:
            risky()
            return 1
        finally:
            cleanup()
    """)
    reach = _reachable_ids(cfg)
    assert id(cfg.exit_return) in reach
    assert id(cfg.exit_raise) in reach
    # Every path out of the body runs cleanup() first, so the return
    # and the exception routes each get their own inlined copy.
    cleanup = func.body[0].finalbody[0]
    assert len(cfg.nodes_for(cleanup)) >= 2
    # The body ends in return: nothing falls off the end.
    assert not cfg.implicit_exit_reachable()


def test_cfg_try_finally_normal_completion_gets_its_own_copy():
    cfg, func = _cfg("""
    def f():
        try:
            step()
        finally:
            cleanup()
        return 0
    """)
    cleanup = func.body[0].finalbody[0]
    # Normal completion and exception propagation: two copies.
    assert len(cfg.nodes_for(cleanup)) == 2
    assert id(cfg.exit_return) in _reachable_ids(cfg)


def test_cfg_nested_with_chains_one_header_per_item():
    cfg, func = _cfg("""
    def f():
        with first() as a, second() as b:
            use(a, b)
        return 0
    """)
    with_stmt = func.body[0]
    # One header node per context manager, holding only its own
    # context expression (an analysis never sees into the body).
    headers = cfg.nodes_for(with_stmt)
    assert len(headers) == 2
    assert {h.expr.func.id for h in headers} == {"first", "second"}
    assert id(cfg.exit_return) in _reachable_ids(cfg)
    assert not cfg.implicit_exit_reachable()


def test_cfg_while_else_runs_on_normal_exit():
    cfg, func = _cfg("""
    def f():
        while more():
            if stop():
                break
            step()
        else:
            wrapup()
        return 0
    """)
    reach = _reachable_ids(cfg)
    wrapup = func.body[0].orelse[0]
    (node,) = cfg.nodes_for(wrapup)
    assert id(node) in reach
    assert id(cfg.exit_return) in reach
    assert not cfg.implicit_exit_reachable()


def test_cfg_while_true_without_break_never_falls_through():
    cfg, _func = _cfg("""
    def f():
        while True:
            step()
    """)
    reach = _reachable_ids(cfg)
    assert not cfg.implicit_exit_reachable()
    assert id(cfg.exit_return) not in reach
    # step() may raise: the exception route is the only way out.
    assert id(cfg.exit_raise) in reach


def test_cfg_while_true_break_reaches_the_implicit_exit():
    cfg, _func = _cfg("""
    def f():
        while True:
            if done():
                break
    """)
    assert cfg.implicit_exit_reachable()


def test_cfg_if_without_else_falls_through():
    cfg, _func = _cfg("""
    def f(x):
        if x:
            return 1
    """)
    assert cfg.implicit_exit_reachable()
    assert id(cfg.exit_return) in _reachable_ids(cfg)


# -- F001: resource leak on error path -------------------------------------


def test_f001_fires_on_unguarded_commit(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    def make_file(fs, parent, name, cred):
        node = fs.create_file(0o644, cred)
        fs.link(parent, name, node)
        return node
    """, in_agents=False)
    assert rules_fired(result) == {"F001"}
    (finding,) = result.active
    assert finding.symbol == "make_file"
    assert "'node' acquired from create_file()" in finding.message
    assert "leaks when the call at line" in finding.message


def test_f001_fires_on_explicit_raise_path(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    def checked(fs, parent, cred, ok):
        node = fs.create_file(0o644, cred)
        if not ok:
            raise ValueError("rejected after allocation")
        fs.link(parent, "name", node)
        return node
    """, in_agents=False)
    assert rules_fired(result) == {"F001"}


def test_f001_quiet_when_failure_path_releases(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    def make_file(fs, parent, name, cred):
        node = fs.create_file(0o644, cred)
        try:
            fs.link(parent, name, node)
        except Exception:
            fs.maybe_reclaim(node)
            raise
        return node
    """, in_agents=False)
    assert rules_fired(result) == set()


def test_f001_quiet_when_resource_escapes(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    def returned(fs, cred):
        node = fs.create_file(0o644, cred)
        return node

    def stored(self, fs, cred):
        node = fs.create_file(0o644, cred)
        self.staged = node
        return 0
    """, in_agents=False)
    assert rules_fired(result) == set()


def test_f001_flags_both_prefix_pr5_fixture_bugs():
    # The acceptance criterion: the checked-in pre-fix creat/symlink
    # shapes — the exact bugs PR 5's fault injection caught — are
    # flagged statically.
    result = run_lint(
        [os.path.join(FLOW_FIXTURES, "prefix_pathcalls.py")],
        check_parity=False)
    assert [f.rule for f in result.active] == ["F001", "F001"]
    assert {f.symbol for f in result.active} == {"sys_open", "sys_symlink"}


def test_f001_quiet_on_postfix_pr5_fixture():
    result = run_lint(
        [os.path.join(FLOW_FIXTURES, "postfix_pathcalls.py")],
        check_parity=False)
    assert result.active == []


# -- F002: path-sensitive refcount balance ----------------------------------


def test_f002_fires_on_early_return_leak(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.descriptors import DescSymbolicSyscall

    class EarlyOut(DescSymbolicSyscall):
        def sys_close(self, fd):
            obj = self.dset.lookup(fd).open_object.incref()
            if fd < 0:
                return 0
            obj.decref()
            return super().sys_close(fd)
    """)
    assert rules_fired(result) == {"F002"}
    (finding,) = result.active
    assert "1 more open-object reference(s)" in finding.message
    assert "ending in return" in finding.message


def test_f002_fires_on_over_release(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.descriptors import DescSymbolicSyscall

    class Dropper(DescSymbolicSyscall):
        def sys_close(self, fd):
            obj = self.dset.lookup(fd).open_object
            obj.decref()
            if fd > 100:
                obj.decref()
            return super().sys_close(fd)
    """)
    assert rules_fired(result) == {"F002"}
    (finding,) = result.active
    assert "decref" in finding.message
    assert "freed while still referenced" in finding.message


def test_f002_quiet_when_reference_escapes(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.descriptors import DescSymbolicSyscall

    class Handing(DescSymbolicSyscall):
        def sys_read(self, fd, count):
            obj = self.dset.lookup(fd).open_object.incref()
            self.held[fd] = obj
            return super().sys_read(fd, count)

        def sys_open(self, path, flags=0, mode=0o666):
            obj = self.pset.open(path, flags, mode).incref()
            return obj
    """)
    assert rules_fired(result) == set()


# -- F003: errno discipline on all paths ------------------------------------


def test_f003_fires_on_fall_through_and_bare_return(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    def sys_chmod(proc, path, mode):
        if mode:
            return 0

    def sys_sync(proc):
        return
    """, in_agents=False)
    f003 = [f for f in result.active if f.rule == "F003"]
    assert rules_fired(result) == {"F003"}
    assert len(f003) == 2
    messages = "\n".join(f.message for f in f003)
    assert "falls off the end" in messages
    assert "returns bare" in messages


def test_f003_fires_on_agent_override_fall_through(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Partial(SymbolicSyscall):
        def sys_read(self, fd, count):
            if fd == 0:
                return super().sys_read(fd, count)
    """)
    assert "F003" in rules_fired(result)
    (finding,) = [f for f in result.active if f.rule == "F003"]
    assert finding.symbol == "Partial.sys_read"


def test_f003_quiet_when_every_path_returns_or_raises(tmp_path,
                                                      proto_root):
    result = lint_source(tmp_path, proto_root, """
    def sys_chmod(proc, path, mode):
        if mode < 0:
            raise ValueError(mode)
        return 0
    """, in_agents=False)
    assert rules_fired(result) == set()


# -- F004: unbounded block reachable from a handler --------------------------


def test_f004_fires_through_helper_reachable_from_handler(tmp_path,
                                                          proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Remote(SymbolicSyscall):
        def sys_read(self, fd, count):
            self._await()
            return super().sys_read(fd, count)

        def _await(self):
            return self.replies.get()
    """)
    assert rules_fired(result) == {"F004"}
    (finding,) = result.active
    assert finding.symbol == "Remote._await"
    assert ".get() with no timeout" in finding.message


def test_f004_quiet_for_bounded_and_unreachable_blocking(tmp_path,
                                                         proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Bounded(SymbolicSyscall):
        def sys_read(self, fd, count):
            self._await()
            return super().sys_read(fd, count)

        def _await(self):
            if not self.flags.get("ready"):
                return None
            self.lock.acquire(False)
            self.worker.join(0.5)
            return self.replies.get(timeout=1.0)

        def _maintenance_only(self):
            return self.replies.get()
    """)
    assert rules_fired(result) == set()


# -- F005: must-delegate-or-fail --------------------------------------------


def test_f005_fires_on_a_path_that_never_delegates(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Caching(SymbolicSyscall):
        def sys_open(self, path, flags=0, mode=0o666):
            if path in self.cache:
                return self.cache[path]
            return super().sys_open(path, flags, mode)
    """)
    assert rules_fired(result) == {"F005"}
    (finding,) = result.active
    assert finding.symbol == "Caching.sys_open"
    assert "silently absorbed" in finding.message


def test_f005_quiet_for_raising_and_delegating_paths(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.kernel.errno import EPERM, SyscallError
    from repro.toolkit.symbolic import SymbolicSyscall

    class Denier(SymbolicSyscall):
        def sys_open(self, path, flags=0, mode=0o666):
            raise SyscallError(EPERM, path)

        def sys_read(self, fd, count):
            data = super().sys_read(fd, count)
            return data
    """)
    assert rules_fired(result) == set()


# -- F006: unresolved journal transaction ------------------------------------


def test_f006_fires_when_no_path_resolves_the_txn(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    def torn_link(self, dirnode, name, inode):
        txn = self.journal_begin("link")
        if txn is None:
            return 0
        txn.intent("enter", dirnode.ino, name, inode.ino)
        dirnode.enter(name, inode)
        return 0
    """, in_agents=False)
    assert rules_fired(result) == {"F006"}
    (finding,) = result.active
    assert finding.symbol == "torn_link"
    assert "journal transaction 'txn'" in finding.message
    assert "replays as torn" in finding.message


def test_f006_fires_on_explicit_raise_before_commit(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    def raise_path(self, op, ok):
        txn = self.journal_begin(op)
        if not ok:
            raise ValueError("rejected after begin")
        self.journal_commit(txn)
        return 0
    """, in_agents=False)
    assert rules_fired(result) == {"F006"}


def test_f006_quiet_on_the_ufs_abort_on_unwind_shape(tmp_path, proto_root):
    # The in-tree shape: mutate under try, abort on SyscallError and
    # re-raise, commit on the normal path (repro.kernel.ufs.link).
    result = lint_source(tmp_path, proto_root, """
    def good_link(self, dirnode, name, inode):
        txn = self.journal_begin("link")
        try:
            dirnode.enter(name, inode)
            inode.nlink += 1
        except Exception:
            self.journal_abort(txn)
            raise
        self.journal_commit(txn)
        return 0
    """, in_agents=False)
    assert rules_fired(result) == set()


def test_f006_quiet_when_the_txn_escapes_or_is_handed_off(tmp_path,
                                                          proto_root):
    # Storing the live transaction transfers the resolution obligation;
    # so does handing it to a helper, provided the exception edge still
    # aborts (the _make/_alloc_inode split in repro.kernel.ufs).
    result = lint_source(tmp_path, proto_root, """
    from repro.kernel.errno import SyscallError

    def stashed(self, op):
        self.pending = self.journal_begin(op)
        return 0

    def delegating(self, cls, mode):
        txn = self.journal_begin("alloc")
        try:
            inode = self._alloc_inode(txn, cls, mode)
        except SyscallError:
            self.journal_abort(txn)
            raise
        self.journal_commit(txn)
        return inode
    """, in_agents=False)
    assert rules_fired(result) == set()


# -- L000: the crash-proof sweep --------------------------------------------


def test_l000_syntax_error_does_not_abort_sweep(tmp_path, proto_root):
    agents = tmp_path / "agents"
    agents.mkdir()
    (agents / "broken.py").write_text("def broken(:\n    pass\n")
    (agents / "typo.py").write_text(textwrap.dedent("""
    from repro.toolkit.symbolic import SymbolicSyscall

    class Typo(SymbolicSyscall):
        def sys_opne(self, path):
            return self.syscall_down("open", path)
    """))
    result = run_lint([str(agents)], protocol_root=str(proto_root),
                      check_parity=False)
    # The broken file is reported, and the sweep still reached typo.py.
    assert len(result.files) == 2
    assert rules_fired(result) == {"L000", "L001"}
    (l000,) = result.internal_errors
    assert l000.symbol == "<file>"
    assert "cannot parse" in l000.message
    assert l000.path.endswith("broken.py")


def test_l000_turns_into_cli_exit_2(tmp_path, proto_root):
    agents = tmp_path / "agents"
    agents.mkdir()
    (agents / "broken.py").write_text("def broken(:\n    pass\n")
    run = _run_cli(["--protocol-root", str(proto_root), "--no-parity",
                    str(agents)])
    assert run.returncode == 2
    assert "could not be analyzed" in run.stderr


# -- occurrence-indexed fingerprints ----------------------------------------


def test_same_symbol_findings_get_distinct_fingerprints(tmp_path,
                                                        proto_root):
    source = """
    def fill(fs, parent, cred):
        first = fs.create_file(0o644, cred)
        second = fs.create_file(0o644, cred)
        fs.link(parent, "a", first)
        fs.link(parent, "b", second)
        return 0
    """
    directory = tmp_path / "plain"
    directory.mkdir()
    target = directory / "fill.py"
    target.write_text(textwrap.dedent(source))
    result = run_lint([str(target)], protocol_root=str(proto_root),
                      check_parity=False)
    assert [f.rule for f in result.active] == ["F001", "F001"]
    one, two = result.active
    assert one.fingerprint() != two.fingerprint()
    assert two.fingerprint() == one.fingerprint() + "#1"
    # A baseline naming only the first fingerprint absorbs exactly one
    # finding — the collision fix: fixing one baselined leak cannot
    # silently re-key the entry onto the other.
    baseline = {one.fingerprint(): "known debt"}
    again = run_lint([str(target)], protocol_root=str(proto_root),
                     check_parity=False, baseline=baseline)
    assert len(again.baselined) == 1
    assert len(again.active) == 1


# -- --diff: restrict the sweep to changed files -----------------------------


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo)] + list(args), check=True,
                   capture_output=True)


def test_diff_restricts_sweep_to_changed_files(tmp_path, proto_root,
                                               monkeypatch):
    repo = tmp_path / "work"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "one.py").write_text("x = 1\n")
    (repo / "two.py").write_text("y = 1\n")
    _git(repo, "add", "-A")
    _git(repo, "-c", "user.email=lint@test", "-c", "user.name=lint",
         "commit", "-q", "-m", "seed")
    (repo / "two.py").write_text("y = 2\n")
    (repo / "three.py").write_text("z = 3\n")  # untracked counts too

    changed = engine.changed_files("HEAD", cwd=str(repo))
    assert {os.path.basename(p) for p in changed} == {"two.py", "three.py"}

    monkeypatch.chdir(repo)
    result = run_lint([str(repo)], protocol_root=str(proto_root),
                      check_parity=False, diff_ref="HEAD")
    assert sorted(os.path.basename(p) for p in result.files) == [
        "three.py", "two.py"]


# -- SARIF output ------------------------------------------------------------


def test_sarif_document_shape(tmp_path, proto_root):
    result = lint_source(tmp_path, proto_root, """
    from repro.toolkit.symbolic import SymbolicSyscall

    class Odd(SymbolicSyscall):
        def sys_opne(self, path):
            return self.syscall_down("open", path)

        # repro-lint: disable=L005 -- fixture swallows on purpose
        def signal_handler(self, signum, code, context):
            self.seen = signum
    """)
    assert rules_fired(result) == {"L001"}
    doc = to_sarif(result)
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    rules = run["tool"]["driver"]["rules"]
    from repro.lint import rule_ids
    assert [r["id"] for r in rules] == rule_ids()
    # One result per finding, suppressed ones marked as such.
    assert len(run["results"]) == len(result.findings)
    by_rule = {r["ruleId"]: r for r in run["results"]}
    active = by_rule["L001"]
    (finding,) = result.active
    location = active["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith(".py")
    assert location["region"]["startLine"] == finding.line
    assert location["region"]["startColumn"] == finding.col + 1
    assert active["partialFingerprints"]["reproLint/v1"] == \
        finding.fingerprint()
    assert "suppressions" not in active
    suppressed = by_rule["L005"]
    assert suppressed["suppressions"][0]["kind"] == "inSource"
    json.dumps(doc)  # must serialize as-is


def test_cli_writes_sarif_file(tmp_path, proto_root):
    agents = tmp_path / "agents"
    agents.mkdir()
    (agents / "bad.py").write_text(
        "from repro.toolkit.symbolic import SymbolicSyscall\n"
        "class A(SymbolicSyscall):\n"
        "    def sys_opne(self):\n"
        "        return self.syscall_down('open')\n")
    sarif_path = tmp_path / "lint.sarif"
    run = _run_cli(["--protocol-root", str(proto_root), "--no-parity",
                    "--sarif", str(sarif_path), str(agents)])
    assert run.returncode == 1
    doc = json.loads(sarif_path.read_text())
    assert doc["runs"][0]["results"]


# -- the repo itself, kernel included ----------------------------------------


def test_repo_source_tree_lints_clean_including_kernel():
    result = run_lint([os.path.join(REPO_ROOT, "src", "repro")])
    assert result.internal_errors == []
    assert result.active == [], [f.render() for f in result.active]
