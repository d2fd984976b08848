"""The lint engine: walk, check, waive, and collect.

:func:`run_lint` is the one entry point both the CLI and the tier-1
gate (``tests/test_static_analysis.py``) call, so the command line and
the test suite can never disagree about what a violation is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import repro.lint.rules  # noqa: F401  (importing registers every rule)
from repro.lint.findings import Finding
from repro.lint.pragmas import (
    Pragma,
    unused_pragma_findings,
    validate_pragmas,
)
from repro.lint.registry import checkable_rules, rule_codes
from repro.lint.walker import ModuleInfo, Project


@dataclass(slots=True)
class LintResult:
    """Everything one lint run produced.

    Attributes:
        findings: unsuppressed violations, in report order (a clean run
            has none).
        suppressed: findings waived by a justified pragma, paired with
            the pragma that waived them.
        files_checked: number of python files examined.
        rule_codes: every registered rule code, for reporting.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, Pragma]] = field(default_factory=list)
    files_checked: int = 0
    rule_codes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the run is clean (exit code 0)."""
        return not self.findings


def _module_findings(module: ModuleInfo, project: Project) -> list[Finding]:
    """Raw rule findings for one module, before waivers."""
    if module.parse_error is not None:
        line, message = module.parse_error
        return [
            Finding(
                code="LINT000",
                path=module.relpath,
                line=line,
                col=0,
                message=f"file does not parse: {message}",
            )
        ]
    findings = []
    for rule in checkable_rules():
        findings.extend(rule.check(module, project))
    return findings


def _apply_pragmas(
    module: ModuleInfo, findings: list[Finding]
) -> tuple[list[Finding], list[tuple[Finding, Pragma]]]:
    """Waive findings covered by a justified pragma; flag bad pragmas.

    Engine-level findings (LINT00x) cannot be waived by pragma — a
    waiver that silences the waiver checker is no contract at all.
    """
    kept = []
    suppressed = []
    for finding in findings:
        pragma = None
        if not finding.code.startswith("LINT"):
            pragma = next(
                (
                    p
                    for p in module.pragmas
                    if p.justification
                    and p.covers(finding.code, finding.line)
                ),
                None,
            )
        if pragma is None:
            kept.append(finding)
        else:
            pragma.used = True
            suppressed.append((finding, pragma))
    kept.extend(validate_pragmas(module.relpath, module.pragmas, rule_codes()))
    kept.extend(unused_pragma_findings(module.relpath, module.pragmas))
    return kept, suppressed


def run_lint(
    paths: list[str | Path],
    root: str | Path | None = None,
) -> LintResult:
    """Run the full pass over ``paths`` and return the result.

    Args:
        paths: files and/or directories to lint.
        root: directory findings are reported relative to (default:
            the current working directory).

    Raises:
        FileNotFoundError: when a requested path does not exist.
    """
    root_path = Path(root).resolve() if root is not None else Path.cwd()
    project = Project.load([Path(p) for p in paths], root_path)
    result = LintResult(
        files_checked=len(project.modules),
        rule_codes=tuple(sorted(rule_codes())),
    )
    for module in project.modules:
        raw = _module_findings(module, project)
        kept, suppressed = _apply_pragmas(module, raw)
        result.findings.extend(kept)
        result.suppressed.extend(suppressed)
    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=lambda pair: pair[0].sort_key())
    return result


__all__ = ["LintResult", "run_lint"]
