"""Every demo script runs to completion in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

import pytest

import koszulhh

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def run_demo(script):
    # the child imports the same koszulhh as this test run
    src = os.path.dirname(os.path.dirname(os.path.abspath(koszulhh.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_massey_demo_claims_all_hold():
    # the demo prints True or False for each claim it checks
    proc = run_demo(next(p for p in DEMOS if p.name == "massey_products.py"))
    words = proc.stdout.split()
    assert proc.returncode == 0 and "False" not in words
    assert words.count("True") == 7
