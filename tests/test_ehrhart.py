"""Counting polynomial differences, reciprocity, and size prediction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from detform.ehrhart import (
    _binomial_eval,
    _differences,
    ehrhart_pair,
    predicted_size,
    resultant_degree,
    size_bounds_report,
    squareness_check,
)
from detform.lattice import convex_hull_with_facets, lattice_points_scaled, points_off_facets
from detform.shelling import best_selection, boundary_lattice_count
from detform.errors import InvariantViolation

from conftest import ANNULUS, ANNULUS_POINTS, acceptance_corpus, facet_index, random_polytope

SIMPLEX_POINTS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


# The pair once kept each cubic's Fraction coefficients as well; Lagrange
# interpolation in Fractions is kept here as the reference for them.

def fraction_cubic(values) -> tuple:
    """Coefficients, ascending, of the cubic through (x, values[x]), x = 0..3."""
    coeffs = [Fraction(0)] * 4
    for j, v in enumerate(values):
        basis = [Fraction(1)]  # prod over i != j of (x - i) / (j - i), ascending
        for i in range(4):
            if i != j:
                basis = [((basis[k - 1] if k else 0) - i * (basis[k] if k < len(basis) else 0))
                         / (j - i) for k in range(len(basis) + 1)]
        coeffs = [c + v * b for c, b in zip(coeffs, basis)]
    return tuple(coeffs)


def poly_eval(coeffs, x):
    return sum(c * Fraction(x) ** n for n, c in enumerate(coeffs))


def coefficients(differences) -> tuple:
    """The cubic kept as the given differences, through its values at 0..3."""
    return fraction_cubic([_binomial_eval(differences, x) for x in range(4)])


def cube_strip(cube):
    return tuple(sorted(facet_index(cube, n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0)]))


def test_differences_match_the_fraction_cubic():
    assert fraction_cubic([1, 8, 27, 64]) == (1, 3, 3, 1)
    assert fraction_cubic([0, 0, 6, 24]) == (0, -1, 0, 1)
    assert _differences([1, 8, 27, 64]) == (1, 7, 12, 6)
    rng = random.Random(1331)
    for values in [[1, 8, 27, 64], [0, 0, 6, 24]] + [
            [rng.randint(-50, 50) for _ in range(4)] for _ in range(40)]:
        d, cubic = _differences(values), fraction_cubic(values)
        for x in range(-7, 8):
            value = _binomial_eval(d, x)
            assert type(value) is int and value == poly_eval(cubic, x), (values, x)


def test_differences_need_four_values():
    # ehrhart_pair always passes four counts, so another length is a bug
    with pytest.raises(InvariantViolation, match="exactly"):
        _differences([1, 8, 27])


def test_cube_pair(cube):
    pair = ehrhart_pair(cube, cube_strip(cube))
    assert pair.p_differences == (1, 7, 12, 6)
    assert coefficients(pair.p_differences) == (1, 3, 3, 1)
    assert coefficients(pair.p_off_differences) == (0, -1, 0, 1)
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
    assert coefficients(pair.p_differences) == (1, Fraction(8, 3), 2, Fraction(4, 3))
    assert (pair.volume, pair.interior, pair.boundary, pair.boundary_selected) == (8, 1, 6, 6)
    assert predicted_size(pair) == 14
    assert resultant_degree(pair) == (8, 32)
    assert size_bounds_report(pair) == (8, 24)
    values = [pair.p_off_at(x) for x in (1, 2, -1, -2)]
    assert values == [1, 10, -1, -10] and all(type(v) is int for v in values)


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
    assert coefficients(pair.p_off_differences) == (1, -1, -1, 1)
    assert not squareness_check(pair)
    with pytest.raises(ValueError):
        predicted_size(pair)


def window_shape(Q, sel) -> tuple[int, int]:
    """Rows p_off(2) - 4 p_off(-1) and columns 4 p_off(1) - p_off(-2) of the
    window on sel, each p_off(-k) counted by facet-removed reciprocity."""
    comp = tuple(i for i in range(Q.num_facets) if i not in sel)

    def off(k, facets):
        return len(points_off_facets(Q, k, facets))

    return off(2, sel) + 4 * off(1, comp), 4 * off(1, sel) + off(2, comp)


def test_squareness_compares_the_window_rows_and_columns():
    # the 14-facet annulus has chi = 0: six more columns than rows
    Q = convex_hull_with_facets(ANNULUS_POINTS)
    pair = ehrhart_pair(Q, ANNULUS)
    assert pair.chi == 0
    assert window_shape(Q, ANNULUS) == (203, 209)
    assert not squareness_check(pair)
    for _, Q, selection in acceptance_corpus():
        pair = ehrhart_pair(Q, selection)
        rows, columns = window_shape(Q, selection)
        assert squareness_check(pair) and rows == columns == predicted_size(pair), Q.vertices


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
        p = pair.p_differences
        # out-of-sample agreement at k = 5 (construction already checks k = 4)
        assert _binomial_eval(p, 5) == len(lattice_points_scaled(Q, 5))
        assert squareness_check(pair)
        assert predicted_size(pair) >= pair.volume
        assert _binomial_eval(p, 1) + _binomial_eval(p, -1) == pair.boundary
        union = [_binomial_eval(p, x) - pair.p_off_at(x) for x in (1, -1)]
        assert union[0] - union[1] == pair.boundary_selected
        assert pair.boundary_selected == boundary_lattice_count(Q, best.selection)
        comp = tuple(i for i in range(Q.num_facets) if i not in best.selection)
        for k in (1, 2, 3):
            assert -pair.p_off_at(-k) == len(points_off_facets(Q, k, comp))
