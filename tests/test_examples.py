"""Smoke tests: every shipped example must run to completion.

Examples are documentation that executes; these tests keep them green.
Each runs in a subprocess exactly as a user would run it.
"""

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


def test_all_examples_discovered():
    names = {path.stem for path in EXAMPLES}
    assert {
        "quickstart",
        "environment_reports",
        "multichain_comparison",
        "attack_gauntlet",
    } <= names


def test_cli_demo_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "demo"], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "published reports" in result.stdout


def test_cli_verify_contract_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "verify-contract"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "No failures!" in result.stdout
