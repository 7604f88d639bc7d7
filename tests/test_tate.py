"""Window construction: counts, labels, block degrees, exactness."""

from __future__ import annotations

import json
import random

import pytest

from detform.errors import DimensionMismatch
from detform.exterior import (
    ExteriorAlgebra,
    ExteriorElement,
    FreeModuleMap,
    GradedFreeModule,
    Generator,
    graded_piece,
    minimal_free_cover,
)
from detform.lattice import lattice_points_scaled, points_off_facets, translate
from detform.shelling import best_selection
from detform.tate import build_phi2, build_window, check_exactness, window_dump

from conftest import random_polytope

STRIP = (0, 1, 4)
CORNER = (2, 4, 5)


def test_phi2_cube_shapes(cube):
    rightmost = build_phi2(cube, STRIP)
    assert rightmost.source.rank == 24
    assert rightmost.target.rank == 60
    piece = graded_piece(rightmost, 1)
    assert piece.shape == (480, 24)
    cols = {}
    for (i, j), v in rightmost.entries.items():
        assert v.degree() == -1
        assert len(v.terms) == 1
        cols.setdefault(j, 0)
        cols[j] += 1
    assert all(n == 8 for n in cols.values())


def test_phi2_octahedron_columns(octahedron):
    sel = best_selection(octahedron).selection
    rightmost = build_phi2(octahedron, sel)
    cols = {}
    for (i, j), v in rightmost.entries.items():
        cols[j] = cols.get(j, 0) + 1
    assert all(n == 7 for n in cols.values())


def test_phi2_rejects_non_disk(cube):
    with pytest.raises(ValueError):
        build_phi2(cube, (2, 3))


def test_cube_strip_window(cube):
    w = build_window(cube, STRIP)
    assert w.generator_counts() == {
        -1: {-4: 6}, 0: {0: 6}, 1: {1: 24}, 2: {2: 60},
    }
    assert sorted(g.label for g in w.terms[0].generators) == points_off_facets(cube, 2, STRIP)
    dual_pts = sorted(g.label[1] for g in w.terms[-1].generators)
    comp = tuple(i for i in range(6) if i not in STRIP)
    assert dual_pts == points_off_facets(cube, 2, comp)
    assert {v.degree() for v in w.maps[0].entries.values()} == {-4}
    assert w.maps[2].compose(w.maps[1]).is_zero()
    assert w.maps[1].compose(w.maps[0]).is_zero()


def test_cube_corner_window(cube):
    w = build_window(cube, CORNER)
    assert w.generator_counts() == {
        -1: {-1: 1, -4: 8}, 0: {0: 8, -3: 1}, 1: {1: 27}, 2: {2: 64},
    }
    assert [g.label for g in w.terms[-1].generators if g.degree == -1] == [(1, 1, 0)]
    assert [g.label for g in w.terms[0].generators if g.degree == -3] == [("dual", (0, 0, 1))]
    blocks = sorted({
        (w.maps[0].source.generators[j].degree, w.maps[0].target.generators[i].degree)
        for (i, j) in w.maps[0].entries
    })
    assert blocks == [(-4, -3), (-4, 0), (-1, 0)]


def test_octahedron_window(octahedron):
    sel = best_selection(octahedron).selection
    w = build_window(octahedron, sel)
    assert w.generator_counts() == {
        -1: {-1: 1, -4: 10}, 0: {0: 10, -3: 1}, 1: {1: 35}, 2: {2: 84},
    }
    check_exactness(w)


def test_translated_support_same_counts(cube):
    w = build_window(cube, STRIP)
    shifted = translate(cube, (-2, 1, 3))
    w2 = build_window(shifted, STRIP)
    assert w.generator_counts() == w2.generator_counts()
    # labels translate along: degree-0 generators shift by 2v
    assert [g.label for g in w2.terms[0].generators] == [
        tuple(c + 2 * v for c, v in zip(m, (-2, 1, 3)))
        for g in w.terms[0].generators
        for m in [g.label]
    ]


def test_cover_counts_survive_support_permutation(cube):
    # same map built with the exterior variables in a shuffled order; the
    # cover generator counts must not notice
    sel = STRIP
    support = lattice_points_scaled(cube, 1)
    rng = random.Random(5)
    perm = list(range(len(support)))
    rng.shuffle(perm)
    shuffled = [support[p] for p in perm]
    algebra = ExteriorAlgebra(len(shuffled), tuple(tuple(-c for c in a) for a in shuffled))
    src_pts = points_off_facets(cube, 3, sel)
    tgt_pts = points_off_facets(cube, 4, sel)
    tgt_at = {m: i for i, m in enumerate(tgt_pts)}
    source = GradedFreeModule(algebra, tuple(Generator(1, m, m) for m in src_pts))
    target = GradedFreeModule(algebra, tuple(Generator(2, m, m) for m in tgt_pts))
    entries = {}
    for j, m in enumerate(src_pts):
        for i_var, a in enumerate(shuffled):
            row = tgt_at[tuple(x + y for x, y in zip(m, a))]
            entries[(row, j)] = ExteriorElement.generator(i_var)
    permuted = FreeModuleMap(source, target, entries)
    cover, _ = minimal_free_cover(permuted, degree_floor=-3)
    reference = build_window(cube, sel).terms[0]
    assert cover.counts_by_degree() == reference.counts_by_degree()


def test_window_dump_is_json(cube):
    w = build_window(cube, STRIP)
    blob = json.dumps(window_dump(w))
    back = json.loads(blob)
    assert back["selection"] == list(STRIP)
    assert len(back["terms"]["0"]) == 6
    assert all(cell["degree"] == -4 for cell in back["maps"]["0"])


def test_random_small_windows():
    rng = random.Random(2468)
    done = 0
    while done < 3:
        Q = random_polytope(rng, span=2, max_points=6)
        if len(lattice_points_scaled(Q, 1)) > 10:
            continue
        sel = best_selection(Q, seed=rng.randint(0, 10**6)).selection
        w = build_window(Q, sel)
        comp = tuple(i for i in range(Q.num_facets) if i not in sel)
        want = {
            -1: {-1: len(points_off_facets(Q, 1, sel)),
                 -4: len(points_off_facets(Q, 2, comp))},
            0: {0: len(points_off_facets(Q, 2, sel)),
                -3: len(points_off_facets(Q, 1, comp))},
            1: {1: len(points_off_facets(Q, 3, sel))},
            2: {2: len(points_off_facets(Q, 4, sel))},
        }
        want = {k: {d: n for d, n in v.items() if n} for k, v in want.items()}
        assert w.generator_counts() == want
        done += 1


@pytest.mark.parametrize("name", ["cube", "octahedron"])
def test_window_is_integral_with_negated_dual_labels(name, request):
    Q = request.getfixturevalue(name)
    sel = CORNER if name == "cube" else best_selection(Q).selection
    w = build_window(Q, sel)
    coeffs = [c for phi in w.maps.values()
              for v in phi.entries.values() for c in v.terms.values()]
    assert coeffs and all(type(c) is int for c in coeffs)
    duals = [(g.label[1], g.weight) for module in w.terms.values()
             for g in module.generators if g.label[0] == "dual"]
    assert duals
    assert all(point == tuple(-c for c in weight) for point, weight in duals)
