"""Window construction: counts, points, block degrees, exactness."""

from __future__ import annotations

import itertools
import json
import random
import re

import pytest

from detform import tate
from detform.errors import DimensionMismatch
from detform.exterior import (
    ExteriorAlgebra,
    FreeModuleMap,
    GradedFreeModule,
    Generator,
    GradedPiece,
    graded_piece,
    minimal_free_cover,
)
from detform.lattice import (
    convex_hull_with_facets,
    lattice_points_scaled,
    points_off_facets,
)
from detform.shelling import best_selection, is_disk
from detform.tate import (
    build_phi2,
    build_window,
    check_exactness,
    point_of,
    support_of,
    window_dump,
)

from conftest import (CUBE_POINTS, OCTA_POINTS, SIMPLEX2_POINTS, acceptance_corpus,
                      random_polytope, translate)
from rungs import RUNGS, composes_to_zero

STRIP = (0, 1, 4)
CORNER = (2, 4, 5)
# Cube, octahedron and the first three instances of the acceptance corpus
# (seed 1729 recipe in tests/test_acceptance.py), with their selections.
WINDOW_CASES = {
    "cube": (CUBE_POINTS, CORNER),
    "octahedron": (OCTA_POINTS, (0, 1, 2, 4)),
    "corpus0": ([(0, 1, 2), (1, 3, 0), (2, 2, 1), (3, 3, 1)], (0, 1)),
    "corpus1": ([(0, 3, 2), (0, 3, 3), (1, 2, 0), (2, 3, 1), (3, 2, 0), (3, 3, 1)], (0, 1, 3)),
    "corpus2": ([(1, 0, 2), (2, 0, 0), (2, 1, 1), (2, 1, 3), (3, 1, 2), (3, 2, 2)], (0, 1, 2, 4)),
}


def test_phi2_cube_shapes(cube):
    rightmost = build_phi2(cube, STRIP)
    assert rightmost.source.rank == 24
    assert rightmost.target.rank == 60
    # degree 1: one column per source point, alone in its weight block; the
    # 24 * 8 entries land on distinct (target point, variable) rows
    piece = graded_piece(rightmost, 1)
    assert len(piece.source_coords) == 24
    assert [w for _, w, _ in piece.blocks] == [g.weight for g in rightmost.source.generators]
    columns = [piece.block_columns(ids) for ids, _, _ in piece.blocks]
    assert [len(cols) for cols in columns] == [1] * 24
    assert sum(len(col) for [col] in columns) == 24 * 8
    assert piece.rank() == 24
    rightmost.validate_degrees()
    for col in rightmost.columns:
        assert len(col) == 8
        assert {len(S) for _, S in col} == {1}
        assert set(col.values()) == {1}
        assert len({i for i, _ in col}) == 8


def test_phi2_octahedron_columns(octahedron):
    sel = best_selection(octahedron).selection
    rightmost = build_phi2(octahedron, sel)
    assert all(len({i for i, _ in col}) == 7 for col in rightmost.columns)


def test_phi2_rejects_non_disk(cube):
    with pytest.raises(ValueError):
        build_phi2(cube, (2, 3))


def test_cube_strip_window(cube):
    w = build_window(cube, STRIP)
    assert w.generator_counts() == {
        -1: {-4: 6}, 0: {0: 6}, 1: {1: 24}, 2: {2: 60},
    }
    assert sorted(point_of(g) for g in w.terms[0].generators) == points_off_facets(cube, 2, STRIP)
    dual_pts = sorted(point_of(g) for g in w.terms[-1].generators)
    comp = tuple(i for i in range(6) if i not in STRIP)
    assert dual_pts == points_off_facets(cube, 2, comp)
    assert {-len(S) for col in w.maps[0].columns for _, S in col} == {-4}


def test_cube_corner_window(cube):
    w = build_window(cube, CORNER)
    assert w.generator_counts() == {
        -1: {-1: 1, -4: 8}, 0: {0: 8, -3: 1}, 1: {1: 27}, 2: {2: 64},
    }
    assert [point_of(g) for g in w.terms[-1].generators if g.degree == -1] == [(1, 1, 0)]
    assert [point_of(g) for g in w.terms[0].generators if g.degree == -3] == [(0, 0, 1)]
    blocks = sorted({
        (w.maps[0].source.generators[j].degree, w.maps[0].target.generators[i].degree)
        for (i, j) in w.maps[0].cells()
    })
    assert blocks == [(-4, -3), (-4, 0), (-1, 0)]


def test_octahedron_window(octahedron):
    sel = best_selection(octahedron).selection
    w = build_window(octahedron, sel)
    assert w.generator_counts() == {
        -1: {-1: 1, -4: 10}, 0: {0: 10, -3: 1}, 1: {1: 35}, 2: {2: 84},
    }
    check_exactness(w)


def rung_cases(name):
    """(polytope, selection) of a tests/rungs.py row, of the benchmark's
    2-simplex, or of each acceptance-corpus instance."""
    if name == "corpus":
        return [(Q, selection) for _, Q, selection in acceptance_corpus()]
    if name == "simplex2":
        Q = convex_hull_with_facets(SIMPLEX2_POINTS)
        return [(Q, best_selection(Q, seed=0).selection)]
    return [(convex_hull_with_facets(RUNGS[name].points), RUNGS[name].selection)]


def rung_windows(name):
    """The window of each case of rung_cases(name)."""
    return [build_window(Q, selection) for Q, selection in rung_cases(name)]


@pytest.mark.parametrize("name", ["cube", "octahedron", "box12", "corpus"])
def test_every_window_composes_to_zero(name):
    # the build proves each cover column a kernel vector over block keys and
    # composes nothing; compose, over (generator, subset) coordinates, is
    # the reference on the cube, the octahedron, box12 and all 25
    # acceptance-corpus windows
    for w in rung_windows(name):
        assert all(any(phi.columns) for phi in w.maps.values())
        assert composes_to_zero(w)


def koszul_columns(phi, degree):
    """Σ_a (m + a) ⊗ e_a for each degree-`degree` source generator of phi, at
    point m, over the support points a: each m + a is looked up among the
    target's generators of degree + 1, never a dual one at the same point."""
    at = {point_of(t): i for i, t in enumerate(phi.target.generators)
          if t.degree == degree + 1}
    support = support_of(phi.source.algebra)
    return {j: {(at[tuple(x + y for x, y in zip(point_of(g), a))], (i,)): 1
                for i, a in enumerate(support)}
            for j, g in enumerate(phi.source.generators) if g.degree == degree}


@pytest.mark.parametrize("name", ["cube", "octahedron", "box12", "corpus"])
def test_the_linear_cover_columns_are_koszul_columns(name):
    # the covers find the middle map's degree-0 columns and the left map's
    # degree -1 columns by reduction; each is the Koszul column of its
    # point, every coefficient +1, as in phi_2
    checked = 0
    for w in rung_windows(name):
        for k, degree in ((1, 0), (0, -1)):
            for j, column in koszul_columns(w.maps[k], degree).items():
                assert w.maps[k].columns[j] == column, (k, j)
                checked += 1
    assert checked


@pytest.mark.parametrize("name", ["cube", "octahedron", "simplex2", "box12", "corpus"])
def test_given_koszul_columns_build_the_window_reduction_finds(name, monkeypatch):
    # step_left gives the middle cover its degree-0 and the left cover its
    # degree -1 Koszul columns; covers given none find them by reduction,
    # and must give the same maps and piece dims. With them given, only the
    # middle cover's degree -3 and the left cover's degree -4 pieces take
    # block_kernel
    reduced = []
    kernel_vectors = GradedPiece.kernel_vectors

    def recorded(self, ids, products=()):
        reduced.append((self.phi, self.d))
        return kernel_vectors(self, ids, products)

    monkeypatch.setattr(GradedPiece, "kernel_vectors", recorded)
    for Q, selection in rung_cases(name):
        reduced.clear()
        w = build_window(Q, selection)
        assert all((phi is w.maps[2] and d == -3) or (phi is w.maps[1] and d == -4)
                   for phi, d in reduced)
        middle, phi2_dims = minimal_free_cover(w.maps[2], degree_floor=-3)
        left, middle_dims = minimal_free_cover(middle, degree_floor=-4)
        assert (middle, left) == (w.maps[1], w.maps[0])
        assert {2: phi2_dims, 1: middle_dims} == w.piece_dims


def test_the_koszul_map_reads_its_points_off_the_module(cube):
    # degree 0 of the middle cover at 2Q off the selection, degree -1 of the
    # left cover at Q off it: every m with m + A among the generators one
    # degree up, and no generator point of another degree counts
    w = build_window(cube, CORNER)
    for k, degree, dilation in ((1, 0, 2), (0, -1, 1)):
        given = tate.koszul_map(w.maps[k].target, degree)
        assert sorted(point_of(g) for g in given.source.generators) == points_off_facets(
            cube, dilation, CORNER)
        mine = [j for j, g in enumerate(w.maps[k].source.generators) if g.degree == degree]
        assert sorted(given.columns, key=sorted) == sorted(
            (w.maps[k].columns[j] for j in mine), key=sorted)


def nullity(piece) -> int:
    """The piece's kernel dimension, block by block."""
    return sum(piece.kernel_vectors(ids)[0] for ids, _, _ in piece.blocks)


@pytest.mark.parametrize("case", WINDOW_CASES)
def test_piece_dims_match_fresh_pieces(case):
    # check_exactness trusts these records in place of reducing the pieces
    # of maps[2] and maps[1] again, so each must equal a fresh reduction
    points, sel = WINDOW_CASES[case]
    w = build_window(convex_hull_with_facets(points), sel)
    assert {k: sorted(dims, reverse=True) for k, dims in w.piece_dims.items()} == {
        2: [1, 0, -1, -2, -3], 1: [0, -1, -2, -3, -4]}
    for k, dims in w.piece_dims.items():
        for d, recorded in dims.items():
            piece = graded_piece(w.maps[k], d)
            assert recorded == (len(piece.source_coords), nullity(piece))
    # check_exactness covers maps[0] the same way; each piece's exact rank is
    # the reference for the image those dims give
    _, left = minimal_free_cover(w.maps[0], degree_floor=-4)
    for d in range(-1, -5, -1):
        piece = graded_piece(w.maps[0], d)
        recorded = left.get(d, (0, 0))
        assert d in left or not piece.source_coords
        assert recorded == (len(piece.source_coords), nullity(piece))
        assert recorded[0] - recorded[1] == piece.rank()
    check_exactness(w)


# Solids with their disk selection counts and the number of those windows
# whose middle term has no degree-0 generator.
SMALL_SOLIDS = {
    "simplex": ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 14, 4),
    "prism": ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)], 28, 2),
    "pyramid": ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 26, 4),
}


@pytest.mark.parametrize("name", SMALL_SOLIDS)
def test_every_disk_window_is_exact(name):
    # a cover scans from its map's top generator down, so without degree-0
    # generators the middle cover records no degree above -3; those pieces
    # are empty and count as (0, 0)
    points, disks, short = SMALL_SOLIDS[name]
    Q = convex_hull_with_facets(points)
    selections = [sel for size in range(1, Q.num_facets)
                  for sel in itertools.combinations(range(Q.num_facets), size)
                  if is_disk(Q, sel)]
    assert len(selections) == disks
    unscanned = 0
    for sel in selections:
        w = build_window(Q, sel)
        unscanned += 0 not in w.piece_dims[1]
        check_exactness(w)
    assert unscanned == short


@pytest.mark.parametrize("column, message", [
    (0, "term 0, degree -1: kernel 1, image 0"),
    (1, "term 0, degree -4: kernel 45, image 44"),
], ids=["degree-1-generator", "degree-4-generator"])
def test_emptied_left_column_breaks_exactness(octahedron, column, message):
    w = build_window(octahedron, best_selection(octahedron).selection)
    left = w.maps[0]
    assert [g.degree for g in left.source.generators[:2]] == [-1, -4]
    columns = list(left.columns)
    columns[column] = {}
    broken = w._replace(maps={**w.maps, 0: FreeModuleMap(left.source, left.target, columns)})
    with pytest.raises(DimensionMismatch, match=message):
        check_exactness(broken)


def _patched_degree0_points(monkeypatch, change):
    # replaces the prediction of the middle term's degree-0 points (2Q off
    # the selection) and leaves every other points_off_facets call alone
    original = tate.points_off_facets

    def patched(Q, k, selection):
        points = original(Q, k, selection)
        return change(points) if (k, tuple(selection)) == (2, STRIP) else points

    monkeypatch.setattr(tate, "points_off_facets", patched)


def test_audit_rejects_shifted_points(cube, monkeypatch):
    _patched_degree0_points(
        monkeypatch, lambda pts: [tuple(c + 1 for c in m) for m in pts])
    with pytest.raises(DimensionMismatch,
                       match="middle term: degree 0 weights do not match the predicted points"):
        build_window(cube, STRIP)


def test_audit_rejects_wrong_counts(cube, monkeypatch):
    _patched_degree0_points(monkeypatch, lambda pts: pts[1:])
    with pytest.raises(DimensionMismatch,
                       match=re.escape("middle term: generator counts {0: 6}, predicted {0: 5}")):
        build_window(cube, STRIP)


def test_translated_support_same_counts(cube):
    w = build_window(cube, STRIP)
    shifted = translate(cube, (-2, 1, 3))
    w2 = build_window(shifted, STRIP)
    assert w.generator_counts() == w2.generator_counts()
    # points translate along: degree-0 generators shift by 2v
    assert [point_of(g) for g in w2.terms[0].generators] == [
        tuple(c + 2 * v for c, v in zip(point_of(g), (-2, 1, 3)))
        for g in w.terms[0].generators
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
    source = GradedFreeModule(algebra, tuple(Generator(1, m) for m in src_pts))
    target = GradedFreeModule(algebra, tuple(Generator(2, m) for m in tgt_pts))
    columns = [{(tgt_at[tuple(x + y for x, y in zip(m, a))], (i_var,)): 1
                for i_var, a in enumerate(shuffled)} for m in src_pts]
    permuted = FreeModuleMap(source, target, columns)
    onto, _ = minimal_free_cover(permuted, degree_floor=-3)
    reference = build_window(cube, sel).terms[0]
    assert onto.source.counts_by_degree() == reference.counts_by_degree()


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
    coeffs = [c for phi in w.maps.values() for col in phi.columns for c in col.values()]
    assert coeffs and all(type(c) is int for c in coeffs)
    # dual generators stand for the negated weight, a point of kQ off the
    # complement: k = 1 in degree -3, k = 2 in degree -4
    comp = tuple(i for i in range(Q.num_facets) if i not in sel)
    dilation = {-3: 1, -4: 2}
    duals = [g for module in w.terms.values() for g in module.generators
             if g.degree in dilation]
    assert duals
    for g in duals:
        assert point_of(g) == tuple(-c for c in g.weight)
        assert point_of(g) in points_off_facets(Q, dilation[g.degree], comp)

