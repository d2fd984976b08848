"""Tier-1 gate: ``src/`` must satisfy every determinism contract.

This is the enforcement end of ``repro.lint`` — the same
:func:`repro.lint.run_lint` pass the CLI runs, executed over the real
source tree.  A clean tree is a hard requirement: any unwaived
finding fails the suite with the rule code and ``file:line`` in the
assertion message.  The companion tests prove the gate has teeth by
re-introducing violations into copies of the tree and watching them
fail, and by checking the pinned contract registries still point at
real modules.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.lint import render_text, run_lint
from repro.lint.rules.bitident import REQUIRED_BIT_IDENTITY
from repro.lint.rules.perf import REQUIRED_HOT_PATH
from repro.lint.walker import Project

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _lint_src():
    return run_lint([SRC], root=REPO_ROOT)


class TestSourceTreeContracts:
    def test_src_has_no_unbaselined_findings(self):
        """The gate itself: one finding anywhere in src/ fails tier 1."""
        result = _lint_src()
        assert result.ok, (
            "repro.lint found contract violations:\n"
            + render_text(result)
        )
        assert result.files_checked > 50

    def test_every_waiver_is_justified(self):
        """Waivers exist (the contracts bite) and all carry reasons.

        No DET002 waiver is allowed: simulation code reads no wall
        clock, so a new clock read in src/ fails here, not just lint.
        """
        result = _lint_src()
        assert result.suppressed, "expected justified pragmas in src/"
        for finding, pragma in result.suppressed:
            assert pragma.justification, (
                f"unjustified pragma at {finding.location()}"
            )
        waived_codes = {f.code for f, _ in result.suppressed}
        assert {"BIT001", "API002"} <= waived_codes
        assert "DET002" not in waived_codes

    def test_contract_registries_point_at_real_modules(self):
        """A rename must update the pinned registries, not evade them."""
        project = Project.load([SRC], REPO_ROOT)
        for suffix in REQUIRED_BIT_IDENTITY:
            module = project.module_by_suffix(suffix)
            assert module is not None, f"registry names missing {suffix}"
            assert module.bit_identity
        for suffix, classes in REQUIRED_HOT_PATH.items():
            module = project.module_by_suffix(suffix)
            assert module is not None, f"registry names missing {suffix}"
            assert classes <= set(module.hot_path)


class TestGateHasTeeth:
    """Deleting a waiver or re-adding a violation must fail loudly."""

    def test_deleting_bit001_pragmas_resurfaces_the_folds(self, tmp_path):
        original = SRC / "repro" / "core" / "traffic.py"
        source = original.read_text(encoding="utf-8")
        stripped, count = re.subn(
            r"#\s*repro:\s*allow\[BIT001\][^\n]*", "", source
        )
        assert count >= 3, "expected justified BIT001 pragmas in traffic.py"

        copy_dir = tmp_path / "repro" / "core"
        copy_dir.mkdir(parents=True)
        target = copy_dir / "traffic.py"

        target.write_text(source, encoding="utf-8")
        clean = run_lint([target], root=tmp_path)
        assert clean.ok, render_text(clean)

        target.write_text(stripped, encoding="utf-8")
        broken = run_lint([target], root=tmp_path)
        assert len(broken.findings) == count
        for finding in broken.findings:
            assert finding.code == "BIT001"
            assert finding.path == "repro/core/traffic.py"
            assert finding.line > 0

    def test_reintroduced_numpy_fold_is_flagged_at_its_line(self, tmp_path):
        target = tmp_path / "pinned.py"
        target.write_text(
            "import numpy as np\n"
            "\n"
            "__bit_identity__ = True\n"
            "\n"
            "\n"
            "def fold(array):\n"
            "    return np.sum(array)\n",
            encoding="utf-8",
        )
        result = run_lint([target], root=tmp_path)
        assert [(f.code, f.line) for f in result.findings] == [("BIT001", 7)]

    def test_reintroduced_wall_clock_is_flagged_at_its_line(self, tmp_path):
        target = tmp_path / "clocky.py"
        target.write_text(
            "import time\n\n\ndef now():\n    return time.time()\n",
            encoding="utf-8",
        )
        result = run_lint([target], root=tmp_path)
        assert [(f.code, f.line) for f in result.findings] == [("DET002", 5)]

    def test_dropping_a_bit_identity_marker_is_flagged(self, tmp_path):
        original = SRC / "repro" / "core" / "faults.py"
        stripped = original.read_text(encoding="utf-8").replace(
            "__bit_identity__ = True", "", 1
        )
        copy_dir = tmp_path / "repro" / "core"
        copy_dir.mkdir(parents=True)
        (copy_dir / "faults.py").write_text(stripped, encoding="utf-8")
        result = run_lint([copy_dir / "faults.py"], root=tmp_path)
        assert "BIT001" in {f.code for f in result.findings}


class TestCliAgreesWithGate:
    """The CLI and the test gate must render the same verdict."""

    def _run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_cli_is_clean_on_src(self, tmp_path):
        artifact = tmp_path / "lint_report.json"
        proc = self._run_cli("src", "--output", str(artifact))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout
        report = json.loads(artifact.read_text(encoding="utf-8"))
        assert report["ok"] is True
        assert report["summary"]["suppressed"] > 0

    def test_cli_fails_on_a_reintroduced_violation(self, tmp_path):
        bad_dir = tmp_path / "tree"
        bad_dir.mkdir()
        bad = bad_dir / "seedless.py"
        bad.write_text(
            "import numpy as np\n\nDRAW = np.random.rand(3)\n",
            encoding="utf-8",
        )
        proc = self._run_cli(str(tmp_path / "tree"), "--root", str(tmp_path))
        assert proc.returncode == 1
        assert "DET001" in proc.stdout
        assert "tree/seedless.py:3" in proc.stdout
