"""Smoke tests: every shipped example must run to completion.

Examples are documentation that executes; these tests keep them green.
Each runs in a subprocess exactly as a user would run it.
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parents[1] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, f"{script.name} failed:\n{result.stdout}\n{result.stderr}"
    assert result.stdout.strip(), f"{script.name} produced no output"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_output_ignores_hash_seed(script):
    """An example prints the same under any string-hash seed."""
    outputs = []
    for hash_seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=300,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        )
        assert result.returncode == 0, f"{script.name} failed:\n{result.stderr}"
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1], f"{script.name} prints differently under PYTHONHASHSEED=0 and =1"


def test_all_examples_discovered():
    names = {path.stem for path in EXAMPLES}
    assert {
        "quickstart",
        "environment_reports",
        "multichain_comparison",
        "attack_gauntlet",
    } <= names
