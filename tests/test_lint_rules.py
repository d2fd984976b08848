"""Per-rule tests for ``repro.lint`` against the fixture corpus.

The fixtures under ``tests/lint_fixtures/`` are self-describing: a
trailing ``# EXPECT: CODE[,CODE]`` marks a line the linter must flag,
and a ``# EXPECT-FILE: CODE@LINE`` comment (``LINE`` may be ``*``)
declares findings whose reported line is fixed by the rule rather than
by the marked statement.  The harness diffs the declared corpus against
one real :func:`repro.lint.run_lint` pass, so every rule is pinned by
positive *and* negative examples and a fixture edit that shifts a line
updates the expectation with it.
"""

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import (
    JSON_REPORT_VERSION,
    render_json,
    render_text,
    rule_codes,
    run_lint,
    scan_pragmas,
)
from repro.lint.cli import main
from repro.lint.registry import Rule, checkable_rules, register

FIXTURES = Path(__file__).parent / "lint_fixtures"

_INLINE = re.compile(r"#.*\bEXPECT:\s*(?P<codes>[A-Z0-9,]+)")
_FILE_LEVEL = re.compile(r"#\s*EXPECT-FILE:\s*(?P<code>[A-Z0-9]+)@(?P<line>\d+|\*)")


def _declared_expectations():
    """(exact, wildcard) findings declared by the fixture corpus."""
    exact = []
    wildcard = []
    for path in sorted(FIXTURES.rglob("*.py")):
        rel = path.relative_to(FIXTURES).as_posix()
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = _INLINE.search(line)
            if match:
                for code in match.group("codes").split(","):
                    exact.append((rel, code, lineno))
            for match in _FILE_LEVEL.finditer(line):
                if match.group("line") == "*":
                    wildcard.append((rel, match.group("code")))
                else:
                    exact.append(
                        (rel, match.group("code"), int(match.group("line")))
                    )
    return exact, wildcard


@pytest.fixture(scope="module")
def fixture_result():
    """One lint pass over the whole corpus."""
    return run_lint([FIXTURES], root=FIXTURES)


class TestFixtureCorpus:
    def test_findings_match_declarations_exactly(self, fixture_result):
        """Every declared finding fires; nothing undeclared fires."""
        exact, wildcard = _declared_expectations()
        actual = Counter(
            (f.path, f.code, f.line) for f in fixture_result.findings
        )
        for rel, code in wildcard:
            matching = [key for key in actual if key[:2] == (rel, code)]
            assert matching, f"expected a {code} finding in {rel}"
            actual[matching[0]] -= 1
        actual -= Counter()  # drop zeroed entries
        assert actual == Counter(exact)

    def test_every_rule_code_has_fixture_coverage(self, fixture_result):
        """Meta-test: no rule ships without a fixture that triggers it."""
        exact, wildcard = _declared_expectations()
        exercised = {code for _, code, _ in exact}
        exercised.update(code for _, code in wildcard)
        assert exercised == set(rule_codes())
        assert fixture_result.rule_codes == tuple(sorted(rule_codes()))

    def test_findings_are_sorted_and_located(self, fixture_result):
        keys = [f.sort_key() for f in fixture_result.findings]
        assert keys == sorted(keys)
        for finding in fixture_result.findings:
            assert finding.location().startswith(f"{finding.path}:")
            assert not Path(finding.path).is_absolute()

    def test_messages_carry_enclosing_symbol(self, fixture_result):
        def first(path, code):
            return next(
                f
                for f in fixture_result.findings
                if (f.path, f.code) == (path, code)
            )

        finding = first("det001_bad.py", "DET001")
        assert finding.symbol == "draw_legacy"


class TestRegistry:
    def test_register_rejects_missing_and_duplicate_codes(self):
        with pytest.raises(ValueError, match="no code"):
            register(type("NoCode", (Rule,), {}))
        with pytest.raises(ValueError, match="duplicate"):
            register(type("DupCode", (Rule,), {"code": "DET001"}))

    def test_engine_level_rules_are_not_checkable(self):
        assert list(Rule().check(None, None)) == []
        codes = {rule.code for rule in checkable_rules()}
        assert codes == set(rule_codes()) - {"LINT000", "LINT001", "LINT002"}


class TestPragmas:
    def test_good_fixture_pragmas_suppress_and_are_used(self, fixture_result):
        suppressed = {
            (finding.path, finding.code): pragma
            for finding, pragma in fixture_result.suppressed
        }
        for key in [
            ("pragma_good.py", "DET002"),
            ("pragma_good.py", "BIT001"),
            ("bit001_good.py", "BIT001"),
            ("api002_good.py", "API002"),
        ]:
            assert key in suppressed, f"expected {key} to be pragma-waived"
            assert suppressed[key].used
            assert suppressed[key].justification

    def test_trailing_pragma_covers_only_its_own_line(self):
        pragmas = scan_pragmas(
            "x = 1  # repro: allow[DET001] trailing\ny = 2\n"
        )
        (pragma,) = pragmas
        assert pragma.covers("DET001", 1)
        assert not pragma.covers("DET001", 2)
        assert not pragma.covers("DET002", 1)

    def test_comment_block_pragma_skips_continuation_comments(self):
        source = (
            "# repro: allow[BIT001,DET002] a justification that wraps\n"
            "# onto a second comment line\n"
            "total = sum(values)\n"
        )
        (pragma,) = scan_pragmas(source)
        assert pragma.codes == ("BIT001", "DET002")
        assert pragma.target_line == 3
        assert pragma.covers("DET002", 3)

    def test_docstring_examples_are_not_pragmas(self):
        source = '"""Example: ``# repro: allow[DET001] why``."""\nx = 1\n'
        assert scan_pragmas(source) == []

    def test_engine_findings_cannot_be_pragma_waived(self, tmp_path):
        """A waiver that silences the waiver checker is no contract."""
        target = tmp_path / "sneaky.py"
        target.write_text(
            "# repro: allow[LINT002] trying to waive the waiver checker\n"
            "x = 1  # repro: allow[DET001] leftover\n",
            encoding="utf-8",
        )
        result = run_lint([target], root=tmp_path)
        assert [f.code for f in result.findings] == ["LINT002", "LINT002"]
        assert not result.suppressed


class TestReports:
    def test_json_report_schema(self, fixture_result):
        report = render_json(fixture_result)
        assert report["version"] == JSON_REPORT_VERSION
        assert report["tool"] == "repro.lint"
        assert report["ok"] is False
        summary = report["summary"]
        assert set(summary) == {"files", "findings", "suppressed", "by_rule"}
        assert summary["findings"] == len(fixture_result.findings)
        assert summary["suppressed"] == len(fixture_result.suppressed)
        assert summary["files"] == fixture_result.files_checked
        assert sum(summary["by_rule"].values()) == summary["findings"]
        for entry in report["findings"]:
            assert set(entry) >= {"code", "path", "line", "col", "message"}
        for entry in report["suppressed"]:
            assert entry["justification"]
        json.dumps(report)  # must be serializable as-is

    def test_text_report_lists_locations(self, fixture_result):
        text = render_text(fixture_result, verbose=True)
        for finding in fixture_result.findings:
            assert finding.location() in text
        assert "suppressed by pragma" in text


class TestCli:
    def test_dirty_corpus_exits_1(self, capsys):
        code = main([str(FIXTURES), "--root", str(FIXTURES)])
        assert code == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "det001_bad.py" in out

    def test_clean_tree_exits_0(self, capsys):
        code = main(
            [str(FIXTURES / "benchmarks"), "--root", str(FIXTURES)]
        )
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_format_prints_the_report(self, capsys):
        code = main(
            [
                str(FIXTURES),
                "--root",
                str(FIXTURES),
                "--format",
                "json",
            ]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False

    def test_output_writes_the_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "lint_report.json"
        code = main(
            [
                str(FIXTURES),
                "--root",
                str(FIXTURES),
                "--output",
                str(artifact),
            ]
        )
        assert code == 1
        capsys.readouterr()
        report = json.loads(artifact.read_text(encoding="utf-8"))
        assert report["version"] == JSON_REPORT_VERSION
        assert report["summary"]["findings"] > 0

    def test_list_rules_prints_every_code(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in rule_codes():
            assert code in out

    def test_missing_path_exits_2(self, capsys):
        assert main(["no/such/path"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--baseline", "lint_baseline.toml"],
            ["--no-baseline"],
            ["--write-baseline"],
        ],
    )
    def test_baseline_flags_are_usage_errors(self, flag, capsys):
        """Justified pragmas are the only waiver: no baseline flag parses."""
        with pytest.raises(SystemExit) as exit_info:
            main([str(FIXTURES), *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
