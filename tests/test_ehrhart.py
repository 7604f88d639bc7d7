"""Counting polynomial interpolation, reciprocity, and size prediction."""

from __future__ import annotations

import random

import pytest

from detform.ehrhart import (
    ehrhart_pair,
    interpolate_cubic,
    poly_eval,
    predicted_size,
    resultant_degree,
    size_bounds_report,
    squareness_check,
)
from detform.lattice import convex_hull_with_facets, points_off_facets
from detform.linalg import QQ
from detform.shelling import best_selection, boundary_lattice_count, is_disk
from detform.errors import InterpolationMismatch, InvariantViolation

from conftest import facet_index, random_polytope

SIMPLEX_POINTS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def cube_strip(cube):
    return tuple(sorted(facet_index(cube, n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0)]))


def test_interpolate_cubic_exact():
    assert interpolate_cubic([1, 8, 27, 64]) == (QQ(1), QQ(3), QQ(3), QQ(1))
    assert interpolate_cubic([0, 0, 6, 24]) == (QQ(0), QQ(-1), QQ(0), QQ(1))
    assert poly_eval((QQ(1), QQ(3), QQ(3), QQ(1)), -1) == 0


def test_interpolate_cubic_needs_four_values():
    # ehrhart_pair always passes four counts, so another length is a bug
    with pytest.raises(InvariantViolation, match="exactly"):
        interpolate_cubic([1, 8, 27])


def test_cube_pair(cube):
    pair = ehrhart_pair(cube, cube_strip(cube))
    assert pair.p == (QQ(1), QQ(3), QQ(3), QQ(1))
    assert pair.p_off == (QQ(0), QQ(-1), QQ(0), QQ(1))
    assert (pair.volume, pair.interior, pair.boundary, pair.boundary_selected) == (6, 0, 8, 8)
    assert pair.chi == 1
    assert predicted_size(pair) == 6
    assert squareness_check(pair)
    assert resultant_degree(pair) == (6, 24)
    assert size_bounds_report(pair) == (6, None)


def test_cube_corner(cube):
    corner = [facet_index(cube, n) for n in [(1, 0, 0), (0, 1, 0), (0, 0, -1)]]
    pair = ehrhart_pair(cube, corner)
    assert pair.boundary_selected == 6
    assert predicted_size(pair) == 12


def test_octahedron_pair(octahedron):
    best = best_selection(octahedron)
    pair = ehrhart_pair(octahedron, best)
    assert pair.p == (QQ(1), QQ(8, 3), QQ(2), QQ(4, 3))
    assert (pair.volume, pair.interior, pair.boundary, pair.boundary_selected) == (8, 1, 6, 6)
    assert predicted_size(pair) == 14
    assert resultant_degree(pair) == (8, 32)
    assert size_bounds_report(pair) == (8, 24)
    assert pair.p_off_at(1) == 1 and pair.p_off_at(2) == 10
    assert pair.p_off_at(-1) == -1 and pair.p_off_at(-2) == -10


def test_simplex_pair():
    simplex = convex_hull_with_facets(SIMPLEX_POINTS)
    pair = ehrhart_pair(simplex, best_selection(simplex))
    assert (pair.volume, pair.interior, pair.boundary) == (1, 0, 4)
    assert predicted_size(pair) == 1
    assert resultant_degree(pair) == (1, 4)


def test_annulus_selection_is_counted_but_not_sized(cube):
    ring = [facet_index(cube, n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]]
    pair = ehrhart_pair(cube, ring)
    assert pair.chi == 0
    assert pair.p_off_at(0) == 1
    assert pair.p_off == (QQ(1), QQ(-1), QQ(-1), QQ(1))
    with pytest.raises(ValueError):
        predicted_size(pair)


def test_boundary_count_matches_combinatorial(cube, octahedron):
    for Q in (cube, octahedron):
        best = best_selection(Q)
        pair = ehrhart_pair(Q, best)
        assert pair.boundary_selected == boundary_lattice_count(Q, best.selection)


def test_random_corpus_identities():
    rng = random.Random(777)
    for _ in range(6):
        Q = random_polytope(rng, max_points=8)
        best = best_selection(Q, seed=rng.randint(0, 10**6))
        pair = ehrhart_pair(Q, best)
        # out-of-sample agreement at k = 5 (construction already checks k = 4)
        from detform.lattice import lattice_points_scaled
        assert poly_eval(pair.p, 5) == len(lattice_points_scaled(Q, 5))
        assert squareness_check(pair)
        assert predicted_size(pair) >= pair.volume
        assert poly_eval(pair.p, 1) + poly_eval(pair.p, -1) == pair.boundary
        union = [poly_eval(pair.p, x) - pair.p_off_at(x) for x in (1, -1)]
        assert union[0] - union[1] == pair.boundary_selected
        assert pair.boundary_selected == boundary_lattice_count(Q, best.selection)
        comp = tuple(i for i in range(Q.num_facets) if i not in best.selection)
        for k in (1, 2, 3):
            assert -pair.p_off_at(-k) == len(points_off_facets(Q, k, comp))
