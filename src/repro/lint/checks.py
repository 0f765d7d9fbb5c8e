"""The rule implementations: AST passes over one parsed module.

Everything here is static — agent modules are *parsed*, never imported,
so linting cannot boot the world or run agent side effects (the same
reason :mod:`repro.lint.protocol` reads the toolkit contract from
source).  The per-file entry point is :func:`check_module`; the
project-wide sysent ↔ symbolic parity pass is :func:`check_protocol`.

Scope decisions each rule makes:

* "agent-like" classes are found by base-name heuristics plus
  in-module inheritance (see :func:`agent_like_classes`) — agents
  derive from the toolkit layers by name, and the linter must work
  without resolving imports.
* L006 applies only to modules under an ``agents`` directory: the
  toolkit's boilerplate *is* the sanctioned kernel-facing mechanism.
* L008 looks only at handler methods (``sys_*``, ``handle_syscall``,
  ``handle_signal``): those are where an escaping ``SyscallError`` *is*
  the call's errno result, so a broad ``except`` that fails to re-raise
  silently converts failure into success.
* L009 shares L008's handler-method scope: host wall-clock and
  interpreter-global RNG reads matter exactly where the agent decides
  protocol outcomes, because those decisions are what record/replay
  (:mod:`repro.obs.recorder`) has to reproduce.
* L010 shares the same handler-method scope: a handler that writes
  ``*.emulation_vector`` directly, instead of going through
  ``task_set_emulation``, skips the funnel that resets the process's
  fast-dispatch table (``proc.fast_dispatch``).
"""

import ast
import difflib
import re

from repro.lint.findings import Finding
from repro.lint.rules import severity_of

#: toolkit base classes whose subclasses are interposition agents
AGENT_BASE_NAMES = frozenset({
    "Agent",
    "NumericSyscall",
    "BSDNumericSyscall",
    "SymbolicSyscall",
    "DescSymbolicSyscall",
    "PathSymbolicSyscall",
    "SeparateSpaceAgent",
})

#: kernel modules that are agent-visible ABI (value types and constants);
#: anything else under repro.kernel is interposition-bypassing machinery
ALLOWED_KERNEL_MODULES = frozenset({
    "errno",      # errno values and SyscallError
    "sysent",     # the system call table (numbers and names)
    "stat",       # struct stat and S_IS* predicates
    "signals",    # signal numbers and names
    "ofile",      # open(2)/fcntl(2) flag constants
    "clock",      # the Timeval value type
    "inode",      # the Dirent value type returned by getdirentries
    "ktrace",     # ktrace(2) op constants and record layout
    "dfstrace",   # DFSTrace record layout (the comparison format)
    "devices",    # ioctl request constants
})

#: calls that install interception; an init doing one of these (or
#: chaining to super().init) satisfies L002
_REGISTRATION_CALLS = frozenset({
    "register_all",
    "register_interest",
    "register_interest_many",
    "register_interest_range",
    "register_signal_interest",
})

#: signal overrides must reach one of these somewhere in the body
_SIGNAL_FORWARDERS = frozenset({
    "signal_up", "signal_handler", "handle_signal",
})

_ERRNO_LOOKING = re.compile(r"^E[A-Z0-9]+$")

SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]\d+(?:\s*,\s*[A-Z]\d+)*)")


def _base_name(node):
    """The rightmost name of a base-class expression (``a.b.C`` -> C)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _looks_like_agent_base(name):
    return (name in AGENT_BASE_NAMES
            or name.endswith("Syscall")
            or name.endswith("Agent"))


def agent_like_classes(tree):
    """The module's agent classes: ``{class_name: ClassDef}``.

    A class is agent-like when a base name matches the toolkit layer
    classes (or the ``*Syscall``/``*Agent`` naming convention), when it
    derives — transitively, within this module — from such a class, or
    when it defines ``sys_*`` methods itself while having any base
    (an agent reached through an imported intermediate subclass).
    """
    classes = [node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    agentish = {}
    changed = True
    while changed:
        changed = False
        for node in classes:
            if node.name in agentish:
                continue
            bases = [_base_name(base) for base in node.bases]
            bases = [name for name in bases if name]
            hit = any(_looks_like_agent_base(name) or name in agentish
                      for name in bases)
            if not hit and bases:
                hit = any(isinstance(item, ast.FunctionDef)
                          and item.name.startswith("sys_")
                          for item in node.body)
            if hit:
                agentish[node.name] = node
                changed = True
    return agentish


def _calls_in(node):
    """Every Call node under *node*, including nested ones."""
    return [child for child in ast.walk(node)
            if isinstance(child, ast.Call)]


def _finding(rule, path, node, symbol, message):
    return Finding(rule, severity_of(rule), path, node.lineno,
                   getattr(node, "col_offset", 0), symbol, message)


# -- L001: sys_* overrides name real system calls -----------------------


def _check_sys_names(path, agentish, model, out):
    for class_name, node in sorted(agentish.items()):
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef)
                    and item.name.startswith("sys_")):
                continue
            call_name = item.name[4:]
            if model.is_syscall(call_name):
                continue
            hint = ""
            close = difflib.get_close_matches(
                call_name, list(model.syscalls), n=1)
            if close:
                hint = " (did you mean sys_%s?)" % close[0]
            out(_finding(
                "L001", path, item, "%s.%s" % (class_name, item.name),
                "%s overrides %s, but %r is not a system call in "
                "repro.kernel.sysent — the override will never be "
                "invoked%s" % (class_name, item.name, call_name, hint)))


# -- L002: init overrides chain or register -----------------------------


def _is_super_call(call, method):
    """True for ``super().method(...)`` / ``super(C, self).method(...)``."""
    func = call.func
    return (isinstance(func, ast.Attribute)
            and func.attr == method
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super")


def _check_init_overrides(path, agentish, out):
    for class_name, node in sorted(agentish.items()):
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef)
                    and item.name == "init"):
                continue
            satisfied = False
            for call in _calls_in(item):
                if _is_super_call(call, "init"):
                    satisfied = True
                    break
                func = call.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _REGISTRATION_CALLS):
                    satisfied = True
                    break
            if not satisfied:
                out(_finding(
                    "L002", path, item, "%s.init" % class_name,
                    "%s.init neither calls super().init(...) nor "
                    "registers interception itself — the agent will "
                    "attach but intercept nothing" % class_name))


# -- function collection (shared with repro.lint.flow) -------------------


class _FunctionCollector(ast.NodeVisitor):
    """Collect every function/method with its enclosing symbol name."""

    def __init__(self):
        self.functions = []  # (symbol, FunctionDef)
        self._stack = []

    def visit_ClassDef(self, node):
        """Track the class name while descending."""
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def _visit_function(self, node):
        symbol = ".".join(self._stack + [node.name])
        self.functions.append((symbol, node))
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def visit_FunctionDef(self, node):
        """Record a function and recurse for nested definitions."""
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node):
        """Async defs are collected the same way."""
        self._visit_function(node)


# -- L004: errno discipline ---------------------------------------------


def _check_error_returns(path, agentish, out):
    for class_name, node in sorted(agentish.items()):
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef)
                    and item.name.startswith("sys_")):
                continue
            symbol = "%s.%s" % (class_name, item.name)
            for child in ast.walk(item):
                if not isinstance(child, ast.Return) or child.value is None:
                    continue
                value = child.value
                if (isinstance(value, ast.UnaryOp)
                        and isinstance(value.op, ast.USub)
                        and isinstance(value.operand, ast.Constant)
                        and isinstance(value.operand.value, int)):
                    out(_finding(
                        "L004", path, child, symbol,
                        "%s returns a raw negative int; failures must "
                        "raise SyscallError(errno) — a plain return is "
                        "marshalled as success" % symbol))
                elif (isinstance(value, ast.Constant)
                        and value.value is None):
                    out(_finding(
                        "L004", path, child, symbol,
                        "%s returns None explicitly; failures must "
                        "raise SyscallError(errno), and successes "
                        "should return the call's real value" % symbol))


def _check_syscallerror_args(path, tree, model, out):
    for call in _calls_in(tree):
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name != "SyscallError":
            continue
        if not call.args:
            out(_finding(
                "L004", path, call, "SyscallError",
                "SyscallError raised without an errno; pass a value "
                "from repro.kernel.errno"))
            continue
        arg = call.args[0]
        if (isinstance(arg, ast.Constant) and isinstance(arg.value, int)
                and arg.value not in model.errno_values):
            out(_finding(
                "L004", path, call, "SyscallError",
                "SyscallError raised with raw int %r, which is not a "
                "known errno value" % arg.value))
        elif (isinstance(arg, ast.Name)
                and _ERRNO_LOOKING.match(arg.id)
                and arg.id not in model.errno_names):
            out(_finding(
                "L004", path, call, "SyscallError",
                "SyscallError raised with %s, which is not an errno "
                "defined in repro.kernel.errno" % arg.id))


# -- L005: signal overrides forward -------------------------------------


def _check_signal_forwarding(path, agentish, out):
    for class_name, node in sorted(agentish.items()):
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef)
                    and item.name in ("signal_handler", "handle_signal")):
                continue
            forwards = any(
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _SIGNAL_FORWARDERS
                for call in _calls_in(item))
            if not forwards:
                out(_finding(
                    "L005", path, item,
                    "%s.%s" % (class_name, item.name),
                    "%s.%s neither forwards via signal_up nor delegates "
                    "to another handler — signals die here and the "
                    "client's dispositions never run"
                    % (class_name, item.name)))


# -- L008: broad except clauses must not swallow SyscallError -----------

#: handler methods whose exceptions are protocol-bearing: a SyscallError
#: escaping one IS the call's errno result
_HANDLER_METHOD_RE = re.compile(r"^(sys_\w+|handle_syscall|handle_signal)$")

_BROAD_EXC_NAMES = frozenset({"Exception", "BaseException"})


def _is_broad_handler(handler):
    """True for ``except:``, ``except Exception``, ``except BaseException``."""
    if handler.type is None:
        return True
    name = _base_name(handler.type)
    return name in _BROAD_EXC_NAMES


def _reraises(handler):
    """True when the except clause's body contains any ``raise``."""
    return any(isinstance(child, ast.Raise) for child in ast.walk(handler))


def _names_syscallerror(type_node):
    """True when an except type plausibly includes SyscallError.

    Matches ``SyscallError`` itself (bare, dotted, or inside a tuple)
    and ALL_CAPS alias names — the convention for module-level
    exception tuples like the guard layer's ``PASS_THROUGH``.  A
    concrete foreign exception (``ValueError``, ...) does not match:
    re-raising *that* still lets a broad later clause eat SyscallError.
    """
    for node in ast.walk(type_node):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None:
            continue
        if name == "SyscallError" or name.isupper():
            return True
    return False


def _check_error_swallowing(path, agentish, out):
    """L008: in handler methods, a broad except that swallows.

    A broad clause is fine when its own body re-raises (bare ``raise``
    or a translated error), or when an *earlier* clause of the same
    ``try`` re-raises — the guard layer's ``except PASS_THROUGH: raise``
    followed by ``except BaseException`` is the sanctioned containment
    shape, and the earlier clause is what keeps SyscallError flowing.
    Anything else turns the protocol's failure signal into a silent
    success the client cannot distinguish from a real result.
    """
    for class_name, node in sorted(agentish.items()):
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef)
                    and _HANDLER_METHOD_RE.match(item.name)):
                continue
            symbol = "%s.%s" % (class_name, item.name)
            for child in ast.walk(item):
                if not isinstance(child, ast.Try):
                    continue
                protected = False
                for handler in child.handlers:
                    if _is_broad_handler(handler):
                        if protected or _reraises(handler):
                            continue
                        shown = ("except:" if handler.type is None
                                 else "except %s"
                                 % _base_name(handler.type))
                        out(_finding(
                            "L008", path, handler, symbol,
                            "%s catches SyscallError in a broad %r "
                            "clause and never re-raises — the call's "
                            "errno result is swallowed and marshalled "
                            "as success; re-raise the protocol "
                            "exceptions first (see repro.toolkit.guard "
                            "PASS_THROUGH), then contain the rest"
                            % (symbol, shown)))
                    elif (_reraises(handler)
                            and _names_syscallerror(handler.type)):
                        # An earlier clause that catches the protocol
                        # exceptions and re-raises them: broad clauses
                        # after it can no longer see SyscallError.
                        protected = True


# -- L009: no host nondeterminism in handler methods --------------------

#: module names whose top-level functions read host nondeterminism
_NONDET_MODULES = frozenset({"time", "random"})


def _check_wallclock(path, agentish, out):
    """L009: handler methods must not call time.*/random.* directly.

    Flags any call whose function is an attribute of the *bare module
    name* ``time`` or ``random`` (``time.time()``, ``random.choice``,
    ...) inside a ``sys_*``/``handle_syscall``/``handle_signal`` body.
    A seeded ``random.Random`` instance held on the agent
    (``self._rng.random()``) does not match — that is the sanctioned
    shape: its stream is a function of the seed and the call sequence,
    which the record/replay recorder makes deterministic.
    """
    for class_name, node in sorted(agentish.items()):
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef)
                    and _HANDLER_METHOD_RE.match(item.name)):
                continue
            symbol = "%s.%s" % (class_name, item.name)
            for child in ast.walk(item):
                if not isinstance(child, ast.Call):
                    continue
                func = child.func
                if not (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id in _NONDET_MODULES):
                    continue
                shown = "%s.%s()" % (func.value.id, func.attr)
                out(_finding(
                    "L009", path, child, symbol,
                    "%s calls %s — host nondeterminism in a handler "
                    "makes the agent's decisions unreplayable; read "
                    "virtual time with a gettimeofday downcall and "
                    "draw randomness from a seeded random.Random "
                    "instance instead" % (symbol, shown)))


# -- L010: interception changes go through task_set_emulation -----------

#: call-attribute names that mutate a dict in place
_DICT_MUTATORS = frozenset({"pop", "clear", "update", "setdefault",
                            "popitem"})


def _is_emulation_vector(node):
    """True for any ``<expr>.emulation_vector`` attribute access."""
    return (isinstance(node, ast.Attribute)
            and node.attr == "emulation_vector")


def _check_vector_mutation(path, agentish, out):
    """L010: handler methods must not mutate ``*.emulation_vector``.

    Flags subscript assignment/deletion and the in-place dict mutators
    (``pop``/``clear``/``update``/``setdefault``/``popitem``) applied
    to any ``.emulation_vector`` attribute inside a handler body.
    Reading the vector is fine — the rule is about the write funnel:
    ``register_interest``/``unregister_interest`` route the change
    through ``task_set_emulation``, which is where the kernel resets
    the process's fast-dispatch table (``proc.fast_dispatch``).  A
    direct mutation skips that reset, so a stale table keeps sending
    newly interposed numbers straight to the kernel.
    """
    for class_name, node in sorted(agentish.items()):
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef)
                    and _HANDLER_METHOD_RE.match(item.name)):
                continue
            symbol = "%s.%s" % (class_name, item.name)

            def flag(child, shown, symbol=symbol):
                out(_finding(
                    "L010", path, child, symbol,
                    "%s mutates the emulation vector directly (%s) — "
                    "this bypasses task_set_emulation, so the "
                    "process's fast-dispatch table is never reset and "
                    "keeps sending newly interposed numbers straight to "
                    "the kernel; change interception with "
                    "register_interest/unregister_interest instead"
                    % (symbol, shown)))

            for child in ast.walk(item):
                if isinstance(child, (ast.Assign, ast.AugAssign)):
                    targets = (child.targets
                               if isinstance(child, ast.Assign)
                               else [child.target])
                    for target in targets:
                        if (isinstance(target, ast.Subscript)
                                and _is_emulation_vector(target.value)):
                            flag(child, "subscript assignment")
                elif isinstance(child, ast.Delete):
                    for target in child.targets:
                        if (isinstance(target, ast.Subscript)
                                and _is_emulation_vector(target.value)):
                            flag(child, "del of a vector entry")
                elif isinstance(child, ast.Call):
                    func = child.func
                    if (isinstance(func, ast.Attribute)
                            and func.attr in _DICT_MUTATORS
                            and _is_emulation_vector(func.value)):
                        flag(child, "emulation_vector.%s()" % func.attr)


# -- L011: no host console writes in handler methods --------------------


def _is_host_stream(node):
    """True for ``sys.stdout`` / ``sys.stderr`` attribute access."""
    return (isinstance(node, ast.Attribute)
            and node.attr in ("stdout", "stderr")
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys")


def _check_host_print(path, agentish, out):
    """L011: handler methods must not write to the host console.

    Flags ``print(...)`` calls and ``sys.stdout.write()`` /
    ``sys.stderr.write()`` (and any other method on those streams)
    inside a ``sys_*``/``handle_syscall``/``handle_signal`` body.  The
    bytes such a call emits exist only on the host: agents stacked
    below never see them, the record/replay recorder cannot capture
    them, and the client's own descriptors are bypassed.  The
    sanctioned shapes are a ``syscall_down("write", fd, ...)`` to a
    descriptor the agent opened (the trace agent's high-fd log) or the
    client's own stdout/stderr descriptors.
    """
    for class_name, node in sorted(agentish.items()):
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef)
                    and _HANDLER_METHOD_RE.match(item.name)):
                continue
            symbol = "%s.%s" % (class_name, item.name)
            for child in ast.walk(item):
                if not isinstance(child, ast.Call):
                    continue
                func = child.func
                if isinstance(func, ast.Name) and func.id == "print":
                    shown = "print()"
                elif (isinstance(func, ast.Attribute)
                        and _is_host_stream(func.value)):
                    shown = "sys.%s.%s()" % (func.value.attr, func.attr)
                else:
                    continue
                out(_finding(
                    "L011", path, child, symbol,
                    "%s writes to the host console (%s) — the bytes "
                    "bypass the simulated machine entirely, so agents "
                    "below cannot interpose on them and replay runs "
                    "lose them; write through a "
                    "syscall_down('write', fd, ...) downcall instead"
                    % (symbol, shown)))


# -- L006: no kernel internals from agent code --------------------------


def _kernel_submodule(dotted):
    """The first component under ``repro.kernel`` in a dotted path."""
    parts = dotted.split(".")
    if parts[:2] != ["repro", "kernel"]:
        return None
    return parts[2] if len(parts) > 2 else ""


def _check_layer_bypass(path, tree, out):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                sub = _kernel_submodule(alias.name)
                if sub is None:
                    continue
                if sub == "" or sub not in ALLOWED_KERNEL_MODULES:
                    out(_finding(
                        "L006", path, node, alias.name,
                        "agent code imports %s; go through "
                        "syscall_down/toolkit objects — only kernel "
                        "value types and constants (%s) are "
                        "agent-visible" % (alias.name, "repro.kernel."
                        + "/".join(sorted(ALLOWED_KERNEL_MODULES)))))
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level:
                continue  # relative imports cannot reach repro.kernel
            parts = node.module.split(".")
            if parts[:2] != ["repro", "kernel"]:
                continue
            if len(parts) == 2:
                subs = [(alias.name, "repro.kernel." + alias.name)
                        for alias in node.names]
            else:
                subs = [(parts[2], node.module)]
            for sub, shown in subs:
                if sub not in ALLOWED_KERNEL_MODULES:
                    out(_finding(
                        "L006", path, node, shown,
                        "agent code imports repro.kernel internals "
                        "(%s); go through syscall_down/toolkit objects "
                        "instead" % shown))


# -- the per-file entry point -------------------------------------------


def check_module(path, tree, model, in_agents_package):
    """Run every per-file rule over one parsed module.

    *path* is the display path for findings, *tree* the parsed AST,
    *model* the :class:`~repro.lint.protocol.ProtocolModel`, and
    *in_agents_package* selects the L006 layering rule (it applies to
    ``repro.agents.*`` code only).
    """
    findings = []
    out = findings.append
    agentish = agent_like_classes(tree)
    _check_sys_names(path, agentish, model, out)
    _check_init_overrides(path, agentish, out)
    _check_error_returns(path, agentish, out)
    _check_syscallerror_args(path, tree, model, out)
    _check_signal_forwarding(path, agentish, out)
    _check_error_swallowing(path, agentish, out)
    _check_wallclock(path, agentish, out)
    _check_vector_mutation(path, agentish, out)
    _check_host_print(path, agentish, out)
    if in_agents_package:
        _check_layer_bypass(path, tree, out)
    return findings


# -- L007: table <-> symbolic layer parity (project-wide) ---------------


def check_protocol(model, sysent_display=None, symbolic_display=None):
    """Bidirectional sysent ↔ SymbolicSyscall parity, statically.

    Every BSD-range table entry must have a ``sys_*`` method on
    :class:`~repro.toolkit.symbolic.SymbolicSyscall` (Mach extension
    traps above ``MAX_BSD_SYSCALL`` are boilerplate machinery and may
    be method-less), and every ``sys_*`` method must name some table
    entry.  Display paths default to the model's source files.
    """
    findings = []
    sysent_path = sysent_display or model.sysent_path
    symbolic_path = symbolic_display or model.symbolic_path
    for name in model.bsd_names():
        info = model.syscalls[name]
        if ("sys_" + name) not in model.symbolic_methods:
            findings.append(Finding(
                "L007", severity_of("L007"), sysent_path, info.line, 0,
                name,
                "sysent entry %d (%s) has no sys_%s method on "
                "SymbolicSyscall — agents cannot provide this call"
                % (info.number, name, name)))
    for method, line in sorted(model.symbolic_methods.items()):
        if not model.is_syscall(method[4:]):
            findings.append(Finding(
                "L007", severity_of("L007"), symbolic_path, line, 0,
                "SymbolicSyscall.%s" % method,
                "SymbolicSyscall.%s names no sysent entry — the method "
                "is unreachable dead interface" % method))
    return findings
