"""Output pins: golden digests of the window and the matrix, and a
cross-selection oracle on the determinant."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from detform.bracket import apply_U4, evaluate, export_matrix, random_coefficients
from detform.lattice import convex_hull_with_facets
from detform.shelling import best_selection
from detform.tate import build_window, window_dump


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


DIGESTS = [
    ("cube", "f0710d057a4fb249", "392586e8fd7e4ea4"),
    ("octahedron", "22b805c2197eae7e", "a3ff0bed791d37e6"),
]


@pytest.mark.parametrize("name, window_digest, matrix_digest", DIGESTS)
def test_golden_digests(name, window_digest, matrix_digest, request):
    Q = request.getfixturevalue(name)
    sel = (0, 1, 4) if name == "cube" else best_selection(Q, seed=0).selection
    assert sel == ((0, 1, 4) if name == "cube" else (0, 1, 2, 4))
    w = build_window(Q, sel)
    assert digest(window_dump(w)) == window_digest
    assert digest(export_matrix(apply_U4(w.maps[0]))) == matrix_digest


def test_golden_digests_box():
    # the 3x2x2 box (N=12): the largest weight blocks tier-1 can afford, most
    # of them certified by rank, pinned to the digests of the kernel-basis cover
    Q = convex_hull_with_facets(list(itertools.product(range(3), range(2), range(2))))
    sel = best_selection(Q, seed=0).selection
    assert sel == (0, 1, 4)
    w = build_window(Q, sel)
    assert digest(window_dump(w)) == "5ec2edb4a2141b51"
    assert digest(export_matrix(apply_U4(w.maps[0]))) == "6db4d8901b747966"


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
