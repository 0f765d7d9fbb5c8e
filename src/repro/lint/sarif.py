"""SARIF 2.1.0 output: lint findings as code-scanning annotations.

:func:`to_sarif` renders a :class:`~repro.lint.engine.LintResult` as a
Static Analysis Results Interchange Format document, the schema GitHub
code scanning ingests — so a CI upload turns every finding into an
inline PR annotation on the offending line.

Mapping decisions:

* every registered rule appears in the tool's rule table (id, summary,
  rationale, severity), so the annotation UI can show the contract the
  finding violated;
* suppressed and baselined findings are emitted with a ``suppressions``
  entry (kind ``inSource`` / ``external``) — SARIF consumers hide them
  by default but the record of tolerated debt stays visible;
* the engine's line-number-free fingerprint rides in
  ``partialFingerprints`` so code scanning tracks a finding across
  unrelated edits the same way the baseline machinery does.
"""

import json

from repro.lint.findings import ERROR
from repro.lint.rules import RULES, rule_ids

SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")
SARIF_VERSION = "2.1.0"

#: repository URL-ish identity for the tool entry
_INFORMATION_URI = "docs/LINTING.md"


def _level(severity):
    return "error" if severity == ERROR else "warning"


def _rule_entry(rule):
    return {
        "id": rule.rule_id,
        "shortDescription": {"text": rule.summary},
        "fullDescription": {"text": rule.rationale},
        "defaultConfiguration": {"level": _level(rule.severity)},
    }


def _result(finding):
    result = {
        "ruleId": finding.rule,
        "level": _level(finding.severity),
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path.replace("\\", "/"),
                    "uriBaseId": "SRCROOT",
                },
                "region": {
                    "startLine": max(finding.line, 1),
                    "startColumn": finding.col + 1,
                },
            },
        }],
        "partialFingerprints": {
            "reproLint/v1": finding.fingerprint(),
        },
    }
    suppressions = []
    if finding.suppressed:
        suppressions.append({
            "kind": "inSource",
            "justification": "repro-lint: disable= comment",
        })
    if finding.baselined:
        suppressions.append({
            "kind": "external",
            "justification": "recorded in the lint baseline",
        })
    if suppressions:
        result["suppressions"] = suppressions
    return result


def to_sarif(result):
    """The SARIF 2.1.0 document (a plain dict) for one lint run."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri": _INFORMATION_URI,
                    "rules": [_rule_entry(RULES[rule_id])
                              for rule_id in rule_ids()],
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"description": {
                    "text": "repository root (lint paths are "
                            "repo-relative)"}},
            },
            "results": [_result(finding) for finding in result.findings],
            "columnKind": "utf16CodeUnits",
        }],
    }


def write_sarif(path, result):
    """Serialize :func:`to_sarif` to *path*."""
    with open(path, "w") as handle:
        json.dump(to_sarif(result), handle, indent=1)
        handle.write("\n")
