"""Tests of the benchmark itself; the library's own suite lives in tests/.

    python3 -m pytest perfbench

Smoke runs of every workload at minimal length in both modes, the
correctness checker against corrupted determinants, and the repeatability of
the traced run's exact counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def cube():
    df = run.import_detform()
    return df, wl.build_matrix(df, wl.ladder_instances()[0])


def test_corrupted_determinant_counts_as_failure(cube):
    df, matrix = cube
    draw = wl.eval_pass(0, 0, 1)[0][2]
    zero = wl.evaluation(df, matrix, "zero", draw)
    generic = wl.evaluation(df, matrix, "generic", draw)
    recorded = wl.digest(str(generic))

    tally = run.Tally()
    tally.record("zero", wl.check_evaluation("zero", zero, None))
    tally.record("generic", wl.check_evaluation("generic", generic, recorded))
    assert (tally.attempted, tally.failed) == (2, 0)
    # A nonzero value where the oracle demands zero, a zero where it demands
    # a nonzero value, and a generic value that passes its oracle but not the
    # recorded digest each count as one failed operation.
    tally.record("zero+1", wl.check_evaluation("zero", zero + 1, None))
    tally.record("generic*0", wl.check_evaluation("generic", generic * 0, None))
    tally.record("generic+1", wl.check_evaluation("generic", generic + 1, recorded))
    assert (tally.attempted, tally.failed) == (5, 3)


def test_corrupted_evaluation_fails_in_the_timed_loop(cube, monkeypatch):
    df, matrix = cube
    clean = wl.evaluation
    monkeypatch.setattr(wl, "evaluation", lambda *args: clean(*args) + 1)
    state = {"seed": 0, "matrices": [matrix], "names": ["cube"], "expected": []}
    tally = run.Tally()
    run.tally_pass(tally, run.run_pass("evaluate", df, state, 0))
    # The common-root evaluation no longer vanishes; the generic one stays
    # nonzero and, with no recorded digest, passes.
    assert (tally.attempted, tally.failed) == (2, 1)


def test_traced_counts_repeat_exactly(cube):
    df, _ = cube
    state = {"seed": 0, "instances": wl.ladder_instances()[:1], "expected": [None]}
    first = run.traced_pass("ladder", df, state, 0)
    second = run.traced_pass("ladder", df, state, 1)
    assert not any(r["problems"] for r in first[0] + second[0])
    assert first[2] == second[2]
    assert first[2]["exterior.pieces.cover"] == 10
    assert first[2]["exterior.pieces.exactness"] == 16
