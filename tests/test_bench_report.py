"""Smoke tests for the experiment-report harness (fast experiments only)."""

import pytest

from repro.bench import report


class TestExperiments:
    def test_paper_answers_all_ok(self):
        lines = report.experiment_paper_answers()
        assert lines[0].startswith("##")
        assert all("MISMATCH" not in line for line in lines), lines

    def test_thm31_full_agreement(self):
        lines = report.experiment_thm31()
        assert any("6/6" in line for line in lines), lines

    def test_typing_spectrum(self):
        text = "\n".join(report.experiment_typing_spectrum())
        assert "fragment (17): strict via plan p0 -> p1" in text
        assert "fragment (19): strict via plan p2 -> p1 -> p0" in text
        assert "liberal-only" in text and "strict" in text

    def test_engt_rows(self):
        lines = report.experiment_engt()
        assert len(lines) == 4
        assert all("ms" in line for line in lines[1:])

    def test_pvsq_equivalence_enforced(self):
        lines = report.experiment_pvsq()
        assert len(lines) == 4  # header + three formulations


def test_package_import_leaves_report_unloaded():
    """``python -m repro.bench.report`` must not find the module preloaded."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = (
        "import sys, repro.bench; "
        "print('repro.bench.report' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "False"
