"""repro.lint: the repo's determinism & bit-identity contract checker.

A standalone static-analysis pass (stdlib ``ast`` only) over the repo's
own source, enforcing by machine the conventions every guarantee rests
on: seeded RNG only (DET001), the simulated clock only (DET002), no
hash-ordered set iteration into folds (DET003), justified float folds
in bit-identity modules (BIT001), audited export surfaces (API001),
seed threading through every public entry point (API002), and
``__slots__`` on hot-path classes (PERF001).

Deliberate exceptions are waived inline with a justification::

    total = sum(ts)  # repro: allow[BIT001] strict left fold, fixed order

Run it: ``python -m repro.lint src`` (or ``repro-lint`` once installed
with the ``lint`` extra).  The tier-1 gate in
``tests/test_static_analysis.py`` runs the same pass over ``src/``.
"""

from repro.lint.findings import Finding
from repro.lint.pragmas import Pragma, scan_pragmas
from repro.lint.registry import Rule, all_rules, register, rule_codes
from repro.lint.report import (
    JSON_REPORT_VERSION,
    render_json,
    render_json_text,
    render_rule_table,
    render_text,
)
from repro.lint.runner import LintResult, run_lint
from repro.lint.walker import ModuleInfo, Project, load_module

__all__ = [
    "Finding",
    "JSON_REPORT_VERSION",
    "LintResult",
    "ModuleInfo",
    "Pragma",
    "Project",
    "Rule",
    "all_rules",
    "load_module",
    "register",
    "render_json",
    "render_json_text",
    "render_rule_table",
    "render_text",
    "rule_codes",
    "run_lint",
    "scan_pragmas",
]
