"""Shelling certification, disk tests, and selection search."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from detform.errors import NonGenericDirection
from detform.lattice import convex_hull_with_facets
from detform.shelling import (
    best_selection,
    boundary_lattice_count,
    euler_characteristic,
    is_disk,
    is_partial_shelling,
    line_shelling,
    shelling_order_for,
)

from conftest import random_polytope

SIMPLEX_POINTS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_cube_strip_is_shelling(cube):
    x0, y0, x1 = cube.facet_index((1, 0, 0)), cube.facet_index((0, 1, 0)), cube.facet_index((-1, 0, 0))
    ok, steps = is_partial_shelling(cube, (x0, y0, x1))
    assert ok
    assert steps[0].shared_edges == ()
    assert len(steps[1].shared_edges) == 1
    assert len(steps[2].shared_edges) == 1


def test_cube_opposite_pair_fails(cube):
    z0, z1 = cube.facet_index((0, 0, 1)), cube.facet_index((0, 0, -1))
    ok, steps = is_partial_shelling(cube, (z0, z1))
    assert not ok
    assert steps[-1].shared_edges == ()


def test_single_facet_is_shelling(cube):
    for i in range(cube.num_facets):
        ok, _ = is_partial_shelling(cube, (i,))
        assert ok


def test_shelling_preconditions(cube):
    with pytest.raises(ValueError):
        is_partial_shelling(cube, (0, 0, 1))
    with pytest.raises(ValueError):
        is_partial_shelling(cube, tuple(range(6)))


def test_is_disk_cube(cube):
    strip = [cube.facet_index(n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0)]]
    assert is_disk(cube, strip)
    assert not is_disk(cube, [cube.facet_index((0, 0, 1)), cube.facet_index((0, 0, -1))])
    # four facets wrapping around the cube form an annulus
    ring = [cube.facet_index(n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]]
    assert not is_disk(cube, ring)
    assert euler_characteristic(cube, ring) == 0


def test_is_disk_vertex_contact(octahedron):
    # facets with inner normals (1,1,1) and (-1,-1,1) meet only at a vertex
    pair = [octahedron.facet_index((1, 1, 1)), octahedron.facet_index((-1, -1, 1))]
    assert not is_disk(octahedron, pair)
    assert euler_characteristic(octahedron, pair) == 1


def test_line_shelling_cube(cube):
    sh = line_shelling(cube, (1, 2, 5), 3)
    assert sh.order == (3, 4, 5)
    assert is_disk(cube, sh.selection)
    with pytest.raises(NonGenericDirection):
        line_shelling(cube, (1, 0, 0), 3)
    with pytest.raises(ValueError):
        line_shelling(cube, (1, 2, 5), 6)


def test_line_shelling_rejects_a_direction_of_another_dimension(octahedron):
    # the direction is zipped against the polar vertices, so a length other
    # than the dimension would drop or pad coordinates silently
    assert line_shelling(octahedron, (9, 5, 3), 4).selection == (4, 5, 6, 7)
    for direction in ((9, 5, 3, 7), (9, 5)):
        with pytest.raises(ValueError, match=f"direction has {len(direction)} coordinates, expected 3"):
            line_shelling(octahedron, direction, 4)


def test_line_shelling_octahedron(octahedron):
    sh = line_shelling(octahedron, (1, 2, 5), 4)
    assert is_disk(octahedron, sh.selection)
    # the swept facets are the star of the bottom vertex
    assert boundary_lattice_count(octahedron, sh.selection) == 4


def test_boundary_counts(cube):
    strip = [cube.facet_index(n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0)]]
    corner = [cube.facet_index(n) for n in [(1, 0, 0), (0, 1, 0), (0, 0, -1)]]
    assert boundary_lattice_count(cube, strip) == 8
    assert boundary_lattice_count(cube, corner) == 6


def test_best_selection_cube(cube):
    best = best_selection(cube)
    assert best.selection == (0, 1, 4)
    assert boundary_lattice_count(cube, best.selection) == 8


def test_best_selection_octahedron(octahedron):
    best = best_selection(octahedron)
    assert len(best.selection) == 4
    assert boundary_lattice_count(octahedron, best.selection) == 6
    assert is_disk(octahedron, best.selection)


def test_best_selection_simplex():
    simplex = convex_hull_with_facets(SIMPLEX_POINTS)
    best = best_selection(simplex)
    assert is_disk(simplex, best.selection)
    assert best.selection == (0, 1)
    assert boundary_lattice_count(simplex, best.selection) == 4


def test_shelling_order_for_recovers_disk(cube):
    sel = (0, 1, 4)
    sh = shelling_order_for(cube, sel)
    assert sh.selection == sel
    ok, _ = is_partial_shelling(cube, sh.order)
    assert ok


def test_random_line_shellings_are_disks():
    rng = random.Random(314159)
    for _ in range(6):
        Q = random_polytope(rng, max_points=8)
        for _ in range(4):
            direction = tuple(rng.randint(-9, 9) for _ in range(3))
            k = rng.randint(1, Q.num_facets - 1)
            try:
                sh = line_shelling(Q, direction, k)
            except NonGenericDirection:
                continue
            ok, _ = is_partial_shelling(Q, sh.order)
            assert ok
            assert is_disk(Q, sh.selection)
            assert euler_characteristic(Q, sh.selection) == 1
            assert boundary_lattice_count(Q, sh.selection) >= 3


def test_boundary_count_is_the_lattice_length_of_the_boundary_cycle():
    # reference: an edge in exactly one selected facet is a boundary edge and
    # carries gcd(b - a) lattice steps; the closed cycle counts each point once
    rng = random.Random(2718)
    for _ in range(6):
        Q = random_polytope(rng, max_points=8)
        for size in range(1, Q.num_facets):
            for sel in itertools.combinations(range(Q.num_facets), size):
                if not is_disk(Q, sel):
                    continue
                steps = sum(
                    math.gcd(*(b - a for a, b in zip(*(Q.vertices[v] for v in e.vertex_ids))))
                    for e in Q.edges if len(set(e.facet_ids) & set(sel)) == 1)
                assert boundary_lattice_count(Q, sel) == steps
