"""``python -m repro.lint`` — the determinism & contract checker CLI.

Exit codes: 0 clean, 1 findings, 2 usage errors (bad arguments or a
missing path).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.report import (
    render_json,
    render_json_text,
    render_rule_table,
    render_text,
)
from repro.lint.runner import run_lint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism & bit-identity contract checker for "
            "the PCNNA reproduction (see docs/architecture.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the JSON report to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="directory findings are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list pragma-suppressed findings",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_table())
        return 0
    try:
        result = run_lint(args.paths, root=args.root)
    except FileNotFoundError as error:
        print(f"repro.lint: error: {error}", file=sys.stderr)
        return 2
    if args.output:
        Path(args.output).write_text(
            json.dumps(render_json(result), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        print(render_json_text(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


__all__ = ["build_parser", "main"]
