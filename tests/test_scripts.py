"""The experiment scripts stay runnable."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import hotypes.oracle

from conftest import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BENCH = SCRIPTS.parent / "bench"


def _load_crossvalidate():
    spec = importlib.util.spec_from_file_location("crossvalidate", SCRIPTS / "crossvalidate.py")
    crossvalidate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(crossvalidate)
    return crossvalidate


def test_worked_example_runs_clean():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "worked_example.py")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert "inadmissible" in result.stdout
    assert "no-signalling" in result.stdout


def test_bench_selftest_passes():
    # the self-test runs the benchmark's workloads on the package under
    # test, so renaming a name the benchmark reads fails here
    result = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True,
        text=True,
        env={**child_env(), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count("ok  ") == 3 and "FAIL" not in result.stdout


def test_crossvalidate_reports_no_disagreements():
    result = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "crossvalidate.py"),
            "--types",
            "5",
            "--trials",
            "3",
            "--seed",
            "2",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert "0 disagreements" in result.stdout


def test_crossvalidate_reaches_eight_qubits():
    result = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "crossvalidate.py"),
            "--max-systems",
            "8",
            "--types",
            "5",
            "--trials",
            "2",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert "0 disagreements" in result.stdout


def test_crossvalidate_refusal_is_a_usage_error(capsys, monkeypatch):
    crossvalidate = _load_crossvalidate()
    monkeypatch.setattr(hotypes.oracle, "BASIS_BYTES", 1)
    code = crossvalidate.main(["--types", "2", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "bytes, over the budget of 1" in captured.err


@pytest.mark.parametrize(
    "option, value",
    [("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"), ("--trials", "-1")],
)
def test_crossvalidate_bad_tolerance_or_trials_is_a_usage_error(capsys, option, value):
    crossvalidate = _load_crossvalidate()
    code = crossvalidate.main(["--types", "1", option, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and option[2:] in captured.err
