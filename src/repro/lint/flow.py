"""The flow rules: typestate analyses over per-function CFGs.

Where :mod:`repro.lint.checks` pattern-matches statements, the rules
here (F001..F006) run small abstract interpretations over the control
flow graphs built by :mod:`repro.lint.cfg`, so they can prove (or
refute) properties of *every path* through a handler or kernel method
— including the exception edges that PR 5's fault injection exercised
dynamically.  The motivating regression: ``creat``/``mknod``/
``symlink`` allocated a fresh inode and then called ``fs.link``; when
``link`` raised, the inode leaked in the table.  No single statement
is wrong there — the bug *is* the exception edge — which is exactly
what F001 walks.

Scope decisions, per rule:

* **F001** (resource leak on error path) runs over every linted file —
  the kernel's ufs/namei/pathcalls unwind paths are its home turf.  It
  tracks values returned by the allocation sites named in
  ``ALLOC_NAMES`` and requires every path to release, commit, or
  escape them.  A call that *mentions* the resource commits it on the
  call's normal edge but leaves it pending on the exception edge: the
  callee saw the value, but never got to store it.  Exception edges
  from calls that do not mention the resource are not treated as
  leak-bearing (the analysis assumes unrelated calls do not raise —
  the price of not guarding every statement in Python).
* **F002** (path-sensitive refcount balance) runs where the OpenObject
  protocol lives (``agents``/``toolkit`` trees) and checks that the
  ``incref``/``decref`` delta is zero on every path out of a function
  — early returns and explicit raises included — unless the reference
  escapes (returned, stored into an attribute/subscript, or handed to
  another owner).  The kernel's ``fs.incref``/``fs.decref`` open-count
  protocol is balanced *across* functions by design (open increfs,
  close decrefs) and is deliberately out of scope.
* **F003** (errno discipline on all paths) checks every ``sys_*``
  function — module-level kernel implementations and agent overrides
  alike: no path may fall off the end or ``return`` bare, because the
  implicit ``None`` is marshalled to the client as a *successful*
  result (the path-aware face of L004).
* **F004** (unbounded block reachable from a handler) flags
  ``.get()``/``.join()``/``.acquire()``/``.wait()`` calls with neither
  a timeout nor a non-blocking flag, in any method reachable from an
  agent's handler methods — the SeparateSpaceAgent hang class PR 5
  fixed dynamically with watchdogs.
* **F005** (must-delegate-or-fail) requires every path out of an
  interposed ``sys_*``/``handle_syscall`` body to reach a downcall or
  delegation, end in a raise, or carry an explicit suppression — a
  silently absorbed call is indistinguishable from a successful one.
* **F006** (unresolved journal transaction) is F001's machinery
  retargeted at the write-ahead journal protocol
  (:mod:`repro.kernel.journal`): a transaction begun by
  ``journal_begin`` must reach ``journal_commit`` or ``journal_abort``
  (or be handed off) on every path — an abandoned transaction replays
  as *torn* at the next mount and its intents are undone.  Runs over
  every linted file, like F001.
"""

import ast
import re

from repro.lint.cfg import build_cfg, walk_own
from repro.lint.checks import agent_like_classes, _FunctionCollector
from repro.lint.findings import Finding
from repro.lint.rules import severity_of

#: allocation sites whose return value F001 tracks (fresh, unlinked
#: kernel objects: the ufs inode constructors and their kin)
ALLOC_NAMES = frozenset({
    "create_file", "create_symlink", "create_fifo", "create_device",
    "create_directory", "make_inode",
})

#: calls that dispose of a tracked resource on failure paths
RELEASE_NAMES = frozenset({
    "maybe_reclaim", "reclaim", "release", "discard_inode",
})

#: F006's allocation sites: a live write-ahead journal transaction
#: (repro.kernel.journal) begun and not yet resolved
JOURNAL_ALLOC_NAMES = frozenset({"journal_begin"})

#: F006's resolution calls: the only ways a journal transaction ends
JOURNAL_RELEASE_NAMES = frozenset({"journal_commit", "journal_abort"})

#: handler methods — where the agent protocol obligations live
HANDLER_RE = re.compile(r"^(sys_\w+|handle_syscall|handle_signal|"
                        r"signal_handler)$")

#: delegation calls that satisfy F005 (the downcall spine and the
#: sanctioned delegation shapes: the numeric entry point ``syscall``
#: and the toolkit's exec reimplementation ``reexec``)
DELEGATE_NAMES = frozenset({
    "syscall_down", "syscall_down_numeric", "handle_syscall",
    "signal_up", "trap", "syscall", "reexec",
})

#: toolkit objects whose methods *are* the delegation machinery — a
#: call routed through ``self.dset``/``self.pset`` (descriptor and
#: pathname tables) reaches the layer below by construction
DELEGATE_OBJECTS = frozenset({"dset", "pset"})

#: attribute calls that block forever when called with no timeout
BLOCKING_ATTRS = frozenset({"get", "join", "acquire", "wait"})


def _finding(rule, path, line, col, symbol, message):
    return Finding(rule, severity_of(rule), path, line, col, symbol,
                   message)


def _callee_name(call):
    """The rightmost name of a call's function expression."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _receiver_name(call):
    """For ``x.meth(...)``: ``x``; otherwise None."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id
    return None


def _names_in(tree):
    """Every Name id appearing in *tree* (not descending into defs)."""
    return {node.id for node in walk_own(tree)
            if isinstance(node, ast.Name)}


def _calls_own(tree):
    """Every Call lexically in *tree*, outside nested defs."""
    return [node for node in walk_own(tree) if isinstance(node, ast.Call)]


def dataflow(cfg, init, transfer, join):
    """Forward worklist iteration to a fixpoint.

    *transfer(node, state, label)* produces the state carried along
    one outgoing edge (or ``None`` for an edge the analysis treats as
    dead); *join* merges states at joins.  Returns ``{node: state}``
    of entry states for every reached node.
    """
    states = {id(cfg.entry): init}
    by_id = {id(cfg.entry): cfg.entry}
    work = [cfg.entry]
    guard = 0
    while work:
        guard += 1
        if guard > 20000:  # pathological function: give up quietly
            break
        node = work.pop()
        state = states[id(node)]
        for succ, label in node.succs:
            out = transfer(node, state, label)
            if out is None:
                continue
            key = id(succ)
            if key in states:
                merged = join(states[key], out)
            else:
                merged = out
            if key not in states or merged != states[key]:
                states[key] = merged
                by_id[key] = succ
                work.append(succ)
    return {by_id[key]: value for key, value in states.items()}


# -- F001: resource leak on error path ----------------------------------


#: typestate per tracked resource
_PENDING = "pending"
_DONE = "done"          # committed, released, or escaped


def _alloc_sites(func, alloc_names=ALLOC_NAMES):
    """``[(stmt, target_name, call, callee)]`` for each tracked alloc."""
    sites = []
    for stmt in walk_own(func):
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        value = stmt.value
        if not (isinstance(value, ast.Call)
                and _callee_name(value) in alloc_names):
            continue
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        else:
            targets = [stmt.target]
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            sites.append((stmt, targets[0].id, value,
                          _callee_name(value)))
    return sites


#: disjunction width before worlds are merged conservatively
_WORLD_CAP = 64


class _LeakAnalysis:
    """F001's transfer function over one function's CFG.

    The dataflow state is a *disjunction of worlds*, one per
    distinguishable path: each world is a ``(res, env)`` pair mapping
    resource ids to their typestate and names to the resource they
    hold.  Keeping paths separate matters — ``sys_mknod`` binds
    ``inode`` from a different allocation site on each format branch,
    and a merged environment would have to drop the conflicting name
    right before the ``link`` that commits it.  The width is capped at
    :data:`_WORLD_CAP`; past that, worlds are merged pessimistically
    (worst status wins, conflicting names dropped) so the analysis
    stays sound-for-leaks on pathological functions.
    """

    def __init__(self, sites, alloc_names=ALLOC_NAMES,
                 release_names=RELEASE_NAMES):
        #: rid -> (alloc stmt, name, call, callee)
        self.sites = dict(enumerate(sites))
        self.by_stmt = {id(site[0]): rid
                        for rid, site in self.sites.items()}
        self.alloc_names = alloc_names
        self.release_names = release_names

    def initial(self):
        return frozenset({(frozenset(), frozenset())})

    def join(self, left, right):
        return self._cap(left | right)

    def _cap(self, worlds):
        if len(worlds) > _WORLD_CAP:
            return frozenset({self._merge(worlds)})
        return frozenset(worlds)

    def _merge(self, worlds):
        res = {}
        env = {}
        dropped = set()
        for world_res, world_env in worlds:
            for rid, status in world_res:
                old = res.get(rid)
                res[rid] = (status if old is None
                            else self._worse(old, status))
            for name, rid in world_env:
                if name in dropped:
                    continue
                if name in env and env[name] != rid:
                    del env[name]
                    dropped.add(name)
                else:
                    env[name] = rid
        return (frozenset(res.items()), frozenset(env.items()))

    @staticmethod
    def _worse(a, b):
        # leaked > pending > done
        for status in (a, b):
            if isinstance(status, tuple):  # ("leaked", blame_line)
                return status
        if _PENDING in (a, b):
            return _PENDING
        return _DONE

    def transfer(self, node, state, label):
        stmt = node.stmt
        if stmt is None or node.kind != "stmt":
            return state
        return self._cap({self._step(node, world, label)
                          for world in state})

    def _step(self, node, world, label):
        stmt = node.stmt
        res = dict(world[0])
        env = dict(world[1])
        # Live = not yet committed/released: pending resources *and*
        # leak-marked ones — the handler that catches the failed
        # commit still releases the resource through its name (the
        # maybe_reclaim-in-except shape the PR 5 fixes use).
        live = {name: rid for name, rid in env.items()
                if rid in res and res[rid] != _DONE}
        scan = node.scan_target()

        calls = _calls_own(scan)
        released = set()
        mentioned = set()
        for call in calls:
            callee = _callee_name(call)
            receiver = _receiver_name(call)
            arg_names = set()
            for arg in list(call.args) + [kw.value
                                          for kw in call.keywords]:
                arg_names |= _names_in(arg)
            hit = {live[name] for name in arg_names if name in live}
            if not hit:
                continue
            if receiver in live and live[receiver] in hit:
                # x.meth(..., x.ino, ...): operating on the resource
                # itself is a use, not a transfer.
                hit.discard(live[receiver])
            if callee in self.release_names:
                released |= hit
            elif callee in self.alloc_names and id(stmt) in self.by_stmt:
                pass  # the allocation itself
            else:
                mentioned |= hit

        if label == "exc":
            # The statement raised.  A release still counts (reclaim
            # does not fail in-model); a call that was handed the
            # resource never got to store it; an explicit raise leaks
            # everything still pending.
            for rid in released:
                res[rid] = _DONE
            blame = getattr(stmt, "lineno", 0)
            if isinstance(stmt, ast.Raise):
                for rid, status in list(res.items()):
                    if status == _PENDING:
                        res[rid] = ("leaked", blame)
            else:
                for rid in mentioned:
                    if res.get(rid) == _PENDING:
                        res[rid] = ("leaked", blame)
            return (frozenset(res.items()), frozenset(env.items()))

        # Normal edge.
        for rid in released:
            res[rid] = _DONE
        for rid in mentioned:
            if res.get(rid) != _DONE:
                res[rid] = _DONE  # handed to another owner
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            for name in _names_in(stmt.value):
                if name in live:
                    res[live[name]] = _DONE
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            stores = any(isinstance(t, (ast.Attribute, ast.Subscript))
                         for t in targets)
            if stores and stmt.value is not None:
                for name in _names_in(stmt.value):
                    if name in live:
                        res[live[name]] = _DONE
            rid = self.by_stmt.get(id(stmt))
            if rid is not None:
                # The allocation: bind the fresh resource.
                res[rid] = _PENDING
                env[self.sites[rid][1]] = rid
            elif (len(targets) == 1 and isinstance(targets[0], ast.Name)
                    and stmt.value is not None):
                target = targets[0].id
                if (isinstance(stmt.value, ast.Name)
                        and stmt.value.id in env):
                    env[target] = env[stmt.value.id]  # alias
                elif target in env:
                    del env[target]  # rebound away from the resource
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        return (frozenset(res.items()), frozenset(env.items()))


def _leaked_sites(func, analysis):
    """``{rid: blame_line_or_None}`` of resources some path abandons."""
    cfg = build_cfg(func)
    states = dataflow(cfg, analysis.initial(), analysis.transfer,
                      analysis.join)
    reported = {}
    for exit_node, on_error in ((cfg.exit_raise, True),
                                (cfg.exit_return, False),
                                (cfg.exit_implicit, False)):
        state = states.get(exit_node)
        if state is None:
            continue
        for world in state:
            for rid, status in world[0]:
                if status == _DONE:
                    continue
                if status == _PENDING and on_error:
                    # Reached the raise exit via an edge the analysis
                    # does not treat as leak-bearing (unrelated call).
                    continue
                blame = status[1] if isinstance(status, tuple) else None
                if rid in reported and reported[rid] is not None:
                    continue
                reported[rid] = blame
    return reported


def _check_f001(path, symbol, func, out):
    sites = _alloc_sites(func)
    if not sites:
        return
    analysis = _LeakAnalysis(sites)
    for rid, blame in sorted(_leaked_sites(func, analysis).items()):
        stmt, name, call, callee = analysis.sites[rid]
        if blame is not None:
            detail = ("leaks when the call at line %d fails before "
                      "storing it" % blame)
        else:
            detail = ("is never linked, released, or returned on some "
                      "path to an exit")
        out(_finding(
            "F001", path, call.lineno, call.col_offset, symbol,
            "%s: %r acquired from %s() %s — every path, including "
            "exception edges, must release (%s), commit, or return "
            "the fresh resource"
            % (symbol, name, callee, detail,
               "/".join(sorted(RELEASE_NAMES)))))


def _check_f006(path, symbol, func, out):
    """F006: a begun journal transaction commits or aborts on every path.

    Same typestate machinery as F001, retargeted at the write-ahead
    journal's begin/commit/abort protocol (repro.kernel.journal): a
    transaction begun by ``journal_begin`` that some path abandons —
    early return, explicit raise, an exception edge nobody aborts on —
    replays as *torn* at the next mount and its intents are undone,
    silently discarding a mutation the caller believed durable.
    """
    sites = _alloc_sites(func, JOURNAL_ALLOC_NAMES)
    if not sites:
        return
    analysis = _LeakAnalysis(sites, JOURNAL_ALLOC_NAMES,
                             JOURNAL_RELEASE_NAMES)
    for rid, blame in sorted(_leaked_sites(func, analysis).items()):
        stmt, name, call, callee = analysis.sites[rid]
        if blame is not None:
            detail = ("is abandoned when the call at line %d raises"
                      % blame)
        else:
            detail = "never reaches journal_commit or journal_abort"
        out(_finding(
            "F006", path, call.lineno, call.col_offset, symbol,
            "%s: journal transaction %r begun by %s() %s on some path — "
            "an unresolved transaction replays as torn at the next "
            "mount and its intents are undone; every path must "
            "journal_commit, journal_abort, or hand the transaction off"
            % (symbol, name, callee, detail)))


# -- F002: path-sensitive refcount balance ------------------------------


_CLAMP = 3


def _count_ref_calls(tree):
    inc = dec = 0
    for call in _calls_own(tree):
        if isinstance(call.func, ast.Attribute):
            if call.func.attr == "incref":
                inc += 1
            elif call.func.attr == "decref":
                dec += 1
    return inc, dec


def _incref_bound_names(func):
    """Names assigned from an expression containing ``.incref()``."""
    names = set()
    for stmt in walk_own(func):
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        if stmt.value is None or not _count_ref_calls(stmt.value)[0]:
            continue
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _check_f002(path, symbol, func, out):
    source_tokens = _count_ref_calls(func)
    if not (source_tokens[0] or source_tokens[1]):
        return
    if func.name in ("incref", "decref"):
        return  # the counters' own definitions
    bound = _incref_bound_names(func)
    cfg = build_cfg(func)

    def escapes(stmt, scan):
        """True when this statement transfers the reference away."""
        carries = bool(_count_ref_calls(scan)[0])
        names = _names_in(scan) & bound
        if isinstance(stmt, ast.Return):
            return carries or bool(names)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            if any(isinstance(t, (ast.Attribute, ast.Subscript))
                   for t in targets):
                return carries or bool(names)
        for call in _calls_own(scan):
            if isinstance(call.func, ast.Attribute) and \
                    call.func.attr in ("incref", "decref"):
                continue
            arg_names = set()
            for arg in list(call.args) + [kw.value
                                          for kw in call.keywords]:
                arg_names |= _names_in(arg)
                if _count_ref_calls(arg)[0]:
                    return True  # handing x.incref() straight in
            if arg_names & bound:
                return True
        return False

    def transfer(node, state, label):
        stmt = node.stmt
        if stmt is None or node.kind != "stmt":
            return state
        if label == "exc":
            # The statement raised before its incref/decref took
            # effect: carry the entry state into the handler so a
            # decref-on-unwind (or a missing one) is still analyzed.
            return state
        scan = node.scan_target()
        inc, dec = _count_ref_calls(scan)
        esc = escapes(stmt, scan)
        next_state = set()
        for net, escaped in state:
            net = net + inc - dec
            net = max(-_CLAMP, min(_CLAMP, net))
            next_state.add((net, escaped or esc))
        return frozenset(next_state)

    states = dataflow(cfg, frozenset({(0, False)}), transfer,
                      lambda a, b: a | b)
    # Leaks (net > 0) are reported at the *normal* exits only: flagging
    # every may-raise statement between an incref and its decref would
    # drown the signal (leak-on-error-path for owned resources is
    # F001's job).  Over-release (net < 0) is reported at every exit —
    # a double decref is wrong no matter how the path ends.
    exits = {"return": cfg.exit_return,
             "the implicit end": cfg.exit_implicit}
    leaked = over = None
    for label, node in sorted(exits.items()):
        for net, escaped in states.get(node, ()):
            if net > 0 and not escaped and leaked is None:
                leaked = (label, net)
    for label, node in sorted(list(exits.items())
                              + [("raise", cfg.exit_raise)]):
        for net, escaped in states.get(node, ()):
            if net < 0 and over is None:
                over = (label, net)
    if leaked is not None:
        out(_finding(
            "F002", path, func.lineno, func.col_offset, symbol,
            "%s takes %d more open-object reference(s) (incref) than "
            "it releases on a path ending in %s — references must "
            "balance on every path (or escape to a new owner)"
            % (symbol, leaked[1], leaked[0])))
    if over is not None:
        out(_finding(
            "F002", path, func.lineno, func.col_offset, symbol,
            "%s releases %d more open-object reference(s) (decref) "
            "than it takes on a path ending in %s — the shared object "
            "may be freed while still referenced"
            % (symbol, -over[1], over[0])))


# -- F003: errno discipline on all paths --------------------------------


def _check_f003(path, symbol, func, out):
    cfg = build_cfg(func)
    reachable = set(id(node) for node in cfg.reachable())
    if id(cfg.exit_implicit) in reachable:
        out(_finding(
            "F003", path, func.lineno, func.col_offset, symbol,
            "%s falls off the end on some path — the implicit None is "
            "marshalled to the client as a successful result; every "
            "path must return a value or raise SyscallError with a "
            "known errno" % symbol))
    seen = set()
    for node in cfg.nodes:
        if (node.kind == "stmt" and isinstance(node.stmt, ast.Return)
                and node.stmt.value is None
                and id(node) in reachable
                and id(node.stmt) not in seen):
            seen.add(id(node.stmt))
            out(_finding(
                "F003", path, node.stmt.lineno, node.stmt.col_offset,
                symbol,
                "%s returns bare on this path — the implicit None is "
                "marshalled as success; return the call's value or "
                "raise SyscallError" % symbol))


# -- F004: unbounded block reachable from a handler ---------------------


def _is_false_constant(node):
    return isinstance(node, ast.Constant) and node.value is False


def _unbounded_block(call):
    """The attr name when *call* blocks with no timeout, else None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    if attr not in BLOCKING_ATTRS:
        return None
    kwargs = {kw.arg: kw.value for kw in call.keywords}
    if "timeout" in kwargs and not (
            isinstance(kwargs["timeout"], ast.Constant)
            and kwargs["timeout"].value is None):
        return None
    if attr == "get":
        if call.args and not (isinstance(call.args[0], ast.Constant)
                              and call.args[0].value is True):
            return None  # dict-style .get(key[, default])
        block = kwargs.get("block")
        if block is not None and _is_false_constant(block):
            return None
        return attr
    if attr == "acquire":
        if call.args and _is_false_constant(call.args[0]):
            return None  # non-blocking acquire
        blocking = kwargs.get("blocking")
        if blocking is not None and _is_false_constant(blocking):
            return None
        return attr
    # join / wait: a positional arg is the timeout
    if call.args:
        return None
    return attr


def _check_f004(path, agentish, out):
    for class_name, node in sorted(agentish.items()):
        methods = {item.name: item for item in node.body
                   if isinstance(item, ast.FunctionDef)}
        reachable = set()
        work = [name for name in methods if HANDLER_RE.match(name)]
        while work:
            name = work.pop()
            if name in reachable:
                continue
            reachable.add(name)
            for call in _calls_own(methods[name]):
                func = call.func
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                        and func.attr in methods
                        and func.attr not in reachable):
                    work.append(func.attr)
        for name in sorted(reachable):
            method = methods[name]
            symbol = "%s.%s" % (class_name, name)
            for call in _calls_own(method):
                attr = _unbounded_block(call)
                if attr is None:
                    continue
                out(_finding(
                    "F004", path, call.lineno, call.col_offset, symbol,
                    "%s calls .%s() with no timeout on a path reachable "
                    "from the agent's handler methods — a peer that "
                    "never answers hangs the client forever; pass a "
                    "timeout and convert expiry to SyscallError "
                    "(the watchdog shape in repro.toolkit.remote)"
                    % (symbol, attr)))


# -- F005: must-delegate-or-fail ----------------------------------------


def _delegates(tree):
    """True when *tree* contains a downcall/delegation call."""
    for call in _calls_own(tree):
        name = _callee_name(call)
        if name in DELEGATE_NAMES or (name or "").startswith("sys_"):
            return True
        # self.dset.lookup(fd).read(...), self.pset.open(...): routed
        # through the descriptor/pathname tables, the toolkit layers'
        # own delegation spine.
        for node in ast.walk(call.func):
            if (isinstance(node, ast.Attribute)
                    and node.attr in DELEGATE_OBJECTS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                return True
    return False


def _check_f005(path, class_name, method, out):
    if not (method.name.startswith("sys_")
            or method.name == "handle_syscall"):
        return
    symbol = "%s.%s" % (class_name, method.name)
    cfg = build_cfg(method)

    def transfer(node, state, label):
        stmt = node.stmt
        if stmt is None or node.kind != "stmt":
            return state
        if _delegates(node.scan_target()):
            # A downcall that raises still *reached* the layer below:
            # a handler that converts its failure into a result made a
            # policy decision, not a silent absorption.
            return frozenset({True})
        return state

    states = dataflow(cfg, frozenset({False}), transfer,
                      lambda a, b: a | b)
    seen = set()
    for node in cfg.nodes:
        if not (node.kind == "stmt" and isinstance(node.stmt, ast.Return)
                and node.stmt.value is not None):
            continue
        state = states.get(node)
        if state is None or False not in state:
            continue
        if _delegates(node.stmt):
            continue
        if id(node.stmt) in seen:
            continue
        seen.add(id(node.stmt))
        out(_finding(
            "F005", path, node.stmt.lineno, node.stmt.col_offset, symbol,
            "%s returns on a path that never delegated (no "
            "syscall_down/super().sys_* downcall) and never failed — "
            "the interposed call is silently absorbed; delegate, raise "
            "SyscallError, or suppress with a justification if "
            "absorption is the agent's contract" % symbol))


# -- the per-file entry point -------------------------------------------


def check_module_flow(path, tree, model, in_agents, in_toolkit):
    """Run the flow rules over one parsed module.

    *in_agents*/*in_toolkit* select the agent-protocol rules (F002,
    F004, F005); F001, F003, and F006 run everywhere the sweep goes —
    including ``repro.kernel``, where the PR 5 unwind bugs lived and
    where the journal's begin/commit/abort protocol is implemented.
    """
    findings = []
    out = findings.append
    protocol_scope = in_agents or in_toolkit

    collector = _FunctionCollector()
    collector.visit(tree)
    for symbol, func in collector.functions:
        if isinstance(func, ast.AsyncFunctionDef):
            continue
        _check_f001(path, symbol, func, out)
        _check_f006(path, symbol, func, out)
        if protocol_scope:
            _check_f002(path, symbol, func, out)
        if "." not in symbol and func.name.startswith("sys_"):
            # Module-level syscall implementations (the kernel's).
            _check_f003(path, symbol, func, out)

    agentish = agent_like_classes(tree)
    for class_name, node in sorted(agentish.items()):
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            symbol = "%s.%s" % (class_name, item.name)
            if item.name.startswith("sys_"):
                _check_f003(path, symbol, item, out)
            if protocol_scope:
                _check_f005(path, class_name, item, out)
    if protocol_scope:
        _check_f004(path, agentish, out)
    return findings
