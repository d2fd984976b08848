"""Rendering: human text for terminals, JSON for CI artifacts."""

from __future__ import annotations

import json

from repro.lint.findings import Finding
from repro.lint.registry import all_rules
from repro.lint.runner import LintResult

#: Schema version of the JSON report (bump on breaking changes).
JSON_REPORT_VERSION = 2


def render_text(result: LintResult, verbose: bool = False) -> str:
    """The terminal report: one ``path:line: CODE message`` per finding."""
    lines = []
    for finding in result.findings:
        where = f" (in {finding.symbol})" if finding.symbol else ""
        lines.append(
            f"{finding.location()}: {finding.code} {finding.message}{where}"
        )
    if verbose:
        for finding, pragma in result.suppressed:
            lines.append(
                f"{finding.location()}: {finding.code} suppressed by pragma: "
                f"{pragma.justification}"
            )
    lines.append(
        f"{len(result.findings)} finding(s) "
        f"({len(result.suppressed)} suppressed by pragma) "
        f"across {result.files_checked} file(s)"
    )
    return "\n".join(lines)


def _finding_dict(finding: Finding) -> dict:
    return {
        "code": finding.code,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "symbol": finding.symbol,
    }


def render_json(result: LintResult) -> dict:
    """The machine report uploaded as a CI artifact."""
    per_rule: dict[str, int] = {}
    for finding in result.findings:
        per_rule[finding.code] = per_rule.get(finding.code, 0) + 1
    return {
        "version": JSON_REPORT_VERSION,
        "tool": "repro.lint",
        "ok": result.ok,
        "summary": {
            "files": result.files_checked,
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
            "by_rule": dict(sorted(per_rule.items())),
        },
        "findings": [_finding_dict(f) for f in result.findings],
        "suppressed": [
            {**_finding_dict(f), "justification": p.justification}
            for f, p in result.suppressed
        ],
    }


def render_json_text(result: LintResult) -> str:
    """:func:`render_json`, serialized with stable key order."""
    return json.dumps(render_json(result), indent=2, sort_keys=True)


def render_rule_table() -> str:
    """``--list-rules``: code, title, and rationale for every rule."""
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.code}  {rule.title}")
        lines.append(f"        why: {rule.rationale}")
    return "\n".join(lines)


__all__ = [
    "JSON_REPORT_VERSION",
    "render_json",
    "render_json_text",
    "render_rule_table",
    "render_text",
]
