"""Smoke tests: every shipped example runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)

#: Examples that run large workloads (minutes, not seconds).
_SLOW_EXAMPLES = {"typed_optimization"}

_EXAMPLE_PARAMS = [
    pytest.param(p, marks=pytest.mark.slow) if p.stem in _SLOW_EXAMPLES
    else p
    for p in EXAMPLES
]


@pytest.mark.parametrize(
    "script", _EXAMPLE_PARAMS, ids=[p.stem for p in EXAMPLES]
)
def test_example_runs(script, child_env):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
        env=child_env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples should print their results"


def test_quickstart_shows_paper_answers(child_env):
    script = next(p for p in EXAMPLES if p.stem == "quickstart")
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
        env=child_env,
    )
    assert "newyork" in completed.stdout
    assert "uniSQL" in completed.stdout
    assert "ben" in completed.stdout
