"""The lint engine: discovery, suppression, baselines, and orchestration.

:func:`run_lint` is the programmatic entry point the CLI, the tests,
and ``scripts/generate_experiments.py`` all share.  It walks the given
paths, parses each Python file once, runs the per-file rules from
:mod:`repro.lint.checks`, runs the project-wide L007 parity pass, then
applies ``# repro-lint: disable=RULE`` suppressions and any baseline
before returning a :class:`LintResult`.

Suppression comments are honored on the finding's own line or on the
line directly above it, and should carry a one-line justification::

    # repro-lint: disable=F002  -- ownership transfers to Descriptor
    def install(self, fd, open_object):
        ...

A baseline file (``--baseline``) is a JSON list of finding
fingerprints (``rule:path:symbol``, no line numbers, with a ``#N``
occurrence suffix when one symbol holds several same-rule findings);
matching findings are reported but do not affect the exit code — the
adoption path for linting a codebase with known debt.  Entries may
also be objects ``{"fingerprint": ..., "reason": ...}`` so the debt
carries its justification in the file itself.

The sweep is crash-proof: a file the engine cannot parse or analyze
yields a per-file ``L000`` internal-error finding and the sweep
continues; the CLI turns any L000 into exit code 2 so CI can tell
"the code is dirty" from "the linter never looked".
"""

import ast
import json
import os
import subprocess

from repro.lint import checks, flow
from repro.lint.findings import Finding, sort_findings
from repro.lint.protocol import load_protocol
from repro.lint.rules import severity_of


class LintError(Exception):
    """A problem with the lint run itself (bad path, unparseable file)."""


class LintResult:
    """Everything one lint run produced."""

    def __init__(self, findings, files):
        #: every finding, sorted, including suppressed/baselined ones
        self.findings = sort_findings(findings)
        #: the files that were scanned, in scan order
        self.files = list(files)

    @property
    def active(self):
        """Findings that count toward the exit code."""
        return [f for f in self.findings if f.active]

    @property
    def suppressed(self):
        """Findings silenced by ``# repro-lint: disable=`` comments."""
        return [f for f in self.findings if f.suppressed]

    @property
    def baselined(self):
        """Findings silenced by the baseline file."""
        return [f for f in self.findings if f.baselined]

    def counts(self):
        """``{rule_id: active finding count}`` (zero-count rules omitted)."""
        table = {}
        for finding in self.active:
            table[finding.rule] = table.get(finding.rule, 0) + 1
        return table

    def suppressed_counts(self):
        """``{rule_id: suppressed finding count}``."""
        table = {}
        for finding in self.suppressed:
            table[finding.rule] = table.get(finding.rule, 0) + 1
        return table

    @property
    def internal_errors(self):
        """L000 findings: files the engine could not analyze."""
        return [f for f in self.findings if f.rule == "L000"]

    def to_dict(self):
        """The ``--json`` document (schema pinned by tests/test_lint.py)."""
        return {
            "version": 2,
            "files": len(self.files),
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "active": len(self.active),
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined),
                "by_rule": self.counts(),
                "suppressed_by_rule": self.suppressed_counts(),
            },
        }


def discover_files(paths):
    """Expand files and directories into a sorted list of ``.py`` files."""
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__")
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        else:
            raise LintError("no such file or directory: %s" % path)
    return files


def _display_path(path):
    relative = os.path.relpath(path)
    return path if relative.startswith("..") else relative


def suppressions_for(source):
    """Map line number -> set of rule ids disabled on that line.

    A trailing comment suppresses its own line.  A comment-only line
    suppresses the first following code line, so a justification may
    continue over several comment lines between the directive and the
    ``def`` it covers.
    """
    lines = source.splitlines()
    table = {}

    def note(lineno, rules):
        table.setdefault(lineno, set()).update(rules)

    for lineno, line in enumerate(lines, start=1):
        match = checks.SUPPRESS_RE.search(line)
        if not match:
            continue
        rules = {part.strip() for part in match.group(1).split(",")}
        rules = {r for r in rules if r}
        note(lineno, rules)
        if line.lstrip().startswith("#"):
            # Comment-only directive: carry it to the code line below,
            # past any continuation comment lines.
            for ahead in range(lineno, len(lines)):
                text = lines[ahead].strip()
                if text and not text.startswith("#"):
                    note(ahead + 1, rules)
                    break
    return table


def _apply_suppressions(findings, table):
    for finding in findings:
        if finding.rule in table.get(finding.line, ()):
            finding.suppressed = True


def load_baseline(path):
    """Read a baseline file into ``{fingerprint: reason}``.

    Entries are plain fingerprint strings (reason ``""``) or objects
    ``{"fingerprint": ..., "reason": ...}`` carrying a justification.
    """
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise LintError("baseline %s is not a JSON list" % path)
    table = {}
    for entry in data:
        if isinstance(entry, str):
            table[entry] = ""
        elif isinstance(entry, dict) and "fingerprint" in entry:
            table[entry["fingerprint"]] = entry.get("reason", "")
        else:
            raise LintError(
                "baseline %s: entries must be fingerprint strings or "
                "{fingerprint, reason} objects (got %r)" % (path, entry))
    return table


def changed_files(ref, cwd=None):
    """Absolute paths of files changed relative to git *ref*.

    Includes working-tree modifications and untracked files, so
    ``--diff`` sees exactly what a PR (or a dirty checkout) touches.
    """
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", "-z", ref, "--"],
            cwd=cwd, capture_output=True, text=True, check=True)
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard", "-z"],
            cwd=cwd, capture_output=True, text=True, check=True)
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=cwd, capture_output=True, text=True, check=True)
    except FileNotFoundError:
        raise LintError("--diff requires git on PATH") from None
    except subprocess.CalledProcessError as err:
        raise LintError("git diff against %r failed: %s"
                        % (ref, err.stderr.strip())) from None
    root = top.stdout.strip()
    names = [name for name in
             (diff.stdout.split("\0") + untracked.stdout.split("\0"))
             if name]
    return {os.path.abspath(os.path.join(root, name)) for name in names}


def _assign_occurrences(findings):
    """Number same-(rule, path, symbol) findings in source order.

    Gives the second leak in a function fingerprint ``...#1`` so a
    baseline entry can only ever absorb one finding — fixing one of
    two baselined leaks resurfaces the other instead of silently
    re-keying it onto the freed entry.
    """
    groups = {}
    for finding in findings:
        key = (finding.rule, finding.path, finding.symbol)
        groups.setdefault(key, []).append(finding)
    for members in groups.values():
        members.sort(key=lambda f: (f.line, f.col, f.message))
        for index, finding in enumerate(members):
            finding.occurrence = index


def write_baseline(path, result):
    """Record every active finding's fingerprint as the new baseline."""
    fingerprints = sorted({f.fingerprint() for f in result.active})
    with open(path, "w") as handle:
        json.dump(fingerprints, handle, indent=1)
        handle.write("\n")
    return fingerprints


def _package_membership(path):
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    return "agents" in parts, "toolkit" in parts


def _internal_error(path, line, message):
    return Finding("L000", severity_of("L000"), path, max(line, 1), 0,
                   "<file>", message)


def _lint_one_file(path, model, run_flow):
    """All findings for one file — never raises.

    A parse or analysis failure becomes a per-file L000 finding so one
    broken file cannot abort the sweep of the rest.
    """
    display = _display_path(path)
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as err:
        return [_internal_error(display, 1,
                                "cannot read file: %s" % err)]
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [_internal_error(
            display, err.lineno or 1,
            "cannot parse file: %s" % (err.msg or err))]
    in_agents, in_toolkit = _package_membership(path)
    try:
        file_findings = checks.check_module(display, tree, model,
                                            in_agents)
        if run_flow:
            file_findings.extend(flow.check_module_flow(
                display, tree, model, in_agents, in_toolkit))
    except RecursionError:
        return [_internal_error(display, 1,
                                "analysis overflowed on this file")]
    except Exception as err:  # crash-proof sweep: report, keep going
        return [_internal_error(
            display, 1, "internal error while analyzing: %r" % err)]
    _apply_suppressions(file_findings, suppressions_for(source))
    return file_findings


def run_lint(paths, protocol_root=None, check_parity=True, baseline=None,
             only_rules=None, diff_ref=None):
    """Lint *paths* and return a :class:`LintResult`.

    *protocol_root* overrides where the sysent/symbolic/errno sources
    are read from (tests point it at fixture trees); *check_parity*
    gates the project-wide L007 pass; *baseline* maps tolerated
    fingerprints to their justifications; *only_rules* restricts
    reporting to the given rule ids; *diff_ref* restricts the sweep to
    files changed relative to that git ref.
    """
    model = load_protocol(protocol_root)
    files = discover_files(paths)
    if diff_ref is not None:
        changed = changed_files(diff_ref)
        files = [path for path in files
                 if os.path.abspath(path) in changed]
    findings = []
    for path in files:
        findings.extend(_lint_one_file(path, model, run_flow=True))
    if check_parity:
        parity = checks.check_protocol(
            model,
            sysent_display=_display_path(model.sysent_path),
            symbolic_display=_display_path(model.symbolic_path))
        for source_path in (model.sysent_path, model.symbolic_path):
            with open(source_path) as handle:
                table = suppressions_for(handle.read())
            matching = [f for f in parity
                        if f.path == _display_path(source_path)]
            _apply_suppressions(matching, table)
        findings.extend(parity)
    if only_rules is not None:
        findings = [f for f in findings if f.rule in only_rules]
    _assign_occurrences(findings)
    if baseline:
        for finding in findings:
            if finding.fingerprint() in baseline:
                finding.baselined = True
    return LintResult(findings, files)
