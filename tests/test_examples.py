"""Smoke tests: every example script runs end-to-end (scaled down)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script), "--small"],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "partitioning_study", "scaling_study",
            "streaming_generation"} <= names
