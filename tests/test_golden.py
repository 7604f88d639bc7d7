"""Output pins: the tier-1 rows of tests/rungs.py, the check that pins
them, and a cross-selection oracle on the determinant."""

from __future__ import annotations

import dataclasses
import random
import re
from pathlib import Path

import pytest

from detform.bracket import apply_U4, evaluate, random_coefficients
from detform.exterior import FreeModuleMap
from detform.tate import build_window
from rungs import RUNGS, check


@pytest.mark.parametrize("name", [name for name, row in RUNGS.items() if row.ceiling is None])
def test_rung(name):
    check(name)


@pytest.mark.parametrize("field, value, check_name", [
    ("window", "0" * 16, "window"), ("matrix", "0" * 16, "matrix"),
    ("selection", (0, 1, 5), "selection"),
    # one block more handed to kernel_vectors than the row pins, and one
    # block reaching block_kernel where the row pins none
    ("fallbacks", {("left", -4): 7}, "fallback blocks"),
    ("reduced", {("left", -4): 1}, "reduced blocks"),
], ids=["window", "matrix", "selection", "fallbacks", "reduced"])
def test_the_check_fails_on_a_changed_row(field, value, check_name, monkeypatch):
    monkeypatch.setitem(RUNGS, "cube", dataclasses.replace(RUNGS["cube"], **{field: value}))
    with pytest.raises(AssertionError, match=f"rung cube: {check_name}"):
        check("cube")


def test_the_check_fails_on_a_nonzero_composition(monkeypatch):
    compose = FreeModuleMap.compose

    def off(self, inner):
        out = compose(self, inner)
        out.columns[-1] = {(0, ()): 1}
        return out

    monkeypatch.setattr(FreeModuleMap, "compose", off)
    with pytest.raises(AssertionError, match="rung cube: compositions"):
        check("cube")


def test_every_rung_runs_in_tier1_or_ci():
    # no row drops out of both: tier-1 runs the rows without a ceiling, and
    # CI one `rungs.py NAME` command per row with one
    workflow = Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml"
    assert set(test_rung.pytestmark[0].args[1]) == {
        name for name, row in RUNGS.items() if row.ceiling is None}
    assert set(re.findall(r"tests/rungs\.py (\w+)$", workflow.read_text("utf-8"), re.M)) == {
        name for name, row in RUNGS.items() if row.ceiling is not None}


def test_two_selections_give_the_same_determinant(cube):
    # both matrices have determinant c * Res_A, so their ratio cannot
    # depend on the coefficients
    strip = apply_U4(build_window(cube, (0, 1, 4)).maps[0])
    corner = apply_U4(build_window(cube, (2, 4, 5)).maps[0])
    assert (strip.size, corner.size) == (6, 12)
    rng = random.Random(11)
    ratios = []
    for _ in range(3):
        system = random_coefficients(8, rng)
        denominator = evaluate(corner, system)
        assert denominator != 0
        ratios.append(evaluate(strip, system) / denominator)
    assert ratios == [1, 1, 1]
