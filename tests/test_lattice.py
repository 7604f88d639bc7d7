"""Hull construction, point enumeration, duality."""

from __future__ import annotations

import random
import re

import pytest

from detform.ehrhart import ehrhart_pair
from detform.errors import DegenerateSpan, EmptyInput, ParseError
from detform.lattice import (
    affine_rank,
    convex_hull_with_facets,
    facet_bits,
    interior_points,
    lattice_points_scaled,
    parse_support,
    points_off_facets,
    polar_dual_vertices,
    translate,
)
from detform.linalg import QQ
from detform.shelling import (
    boundary_lattice_count,
    euler_characteristic,
    is_disk,
    is_partial_shelling,
    shelling_order_for,
)
from detform.tate import build_window
from detform.verify import divisor_cohomology, facet_complex, nerve_reduced_betti

from conftest import CUBE_POINTS, random_polytope


def test_cube_facets(cube):
    assert cube.dim == 3
    assert len(cube.vertices) == 8
    got = [(f.normal, f.offset) for f in cube.facets]
    assert got == [
        ((-1, 0, 0), 1), ((0, -1, 0), 1), ((0, 0, -1), 1),
        ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0),
    ]


def test_octahedron_facets(octahedron):
    assert len(octahedron.vertices) == 6
    assert len(octahedron.facets) == 8
    for f in octahedron.facets:
        assert f.offset == 1
        assert sorted(abs(c) for c in f.normal) == [1, 1, 1]


def test_hull_drops_non_vertices():
    big = convex_hull_with_facets(lattice_points_scaled(convex_hull_with_facets(CUBE_POINTS), 2))
    assert len(big.vertices) == 8
    assert big.vertices == tuple(sorted((2 * a, 2 * b, 2 * c) for a, b, c in CUBE_POINTS))


def test_degenerate_inputs():
    with pytest.raises(EmptyInput):
        convex_hull_with_facets([])
    with pytest.raises(DegenerateSpan):
        convex_hull_with_facets([(0, 0, 0), (0, 0, 0)])
    with pytest.raises(DegenerateSpan):
        convex_hull_with_facets([(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0)])


def test_point_counts(cube, octahedron):
    assert len(lattice_points_scaled(cube, 1)) == 8
    assert len(lattice_points_scaled(cube, 2)) == 27
    assert len(lattice_points_scaled(octahedron, 1)) == 7
    assert len(lattice_points_scaled(octahedron, 2)) == 25


def test_point_order_is_lex(cube):
    pts = lattice_points_scaled(cube, 1)
    assert pts == sorted(pts)
    assert pts[:3] == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]


def test_points_off_facets_cube(cube):
    sel = [cube.facet_index((1, 0, 0)), cube.facet_index((-1, 0, 0)),
           cube.facet_index((0, 1, 0))]
    assert points_off_facets(cube, 2, sel) == [
        (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 0), (1, 2, 1), (1, 2, 2),
    ]
    assert points_off_facets(cube, 1, sel) == []


def test_points_off_facets_octahedron(octahedron):
    # The four facets whose normals have first coordinate +1 form a disk
    # around the vertex (1, 0, 0) together with one opposite facet.
    sel = [octahedron.facet_index(n)
           for n in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]]
    assert points_off_facets(octahedron, 1, sel) == [(0, 0, 0)]


def test_polar_dual_cube(octahedron, cube):
    duals = polar_dual_vertices(cube)
    assert sorted(duals) == sorted(
        tuple(QQ(2) * c for c in v) for v in octahedron.vertices)


def test_polar_dual_octahedron(octahedron):
    duals = polar_dual_vertices(octahedron)
    assert sorted(duals) == sorted(
        tuple(QQ(s) for s in signs)
        for signs in [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)])


def test_face_complex(cube, octahedron):
    assert len(cube.edges) == 12
    assert all(len(cyc) == 4 for cyc in cube.facet_cycles)
    assert len(octahedron.edges) == 12
    assert all(len(cyc) == 3 for cyc in octahedron.facet_cycles)


def test_interior_points(cube, octahedron):
    assert interior_points(cube, 1) == []
    assert interior_points(cube, 2) == [(1, 1, 1)]
    assert interior_points(octahedron, 1) == [(0, 0, 0)]


def test_point_queries_reject_nonpositive_dilation(octahedron):
    # -Q contains the origin, so an unchecked k = -1 would answer wrongly
    queries = (lattice_points_scaled, interior_points,
               lambda Q, k: points_off_facets(Q, k, (0,)))
    for query in queries:
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                query(octahedron, k)


def test_points_off_facets_rejects_out_of_range_ids(cube):
    # the cube has facets 0..5; an unknown id used to be ignored silently
    for selection, named in (((99,), "[99]"), ((-1,), "[-1]"), ((0, 6, 7), "[6, 7]")):
        with pytest.raises(ValueError, match=re.escape(f"out of range 0..5: {named}")):
            points_off_facets(cube, 1, selection)


FACET_ID_QUERIES = {
    "facet_bits": facet_bits,
    "points_off_facets": lambda Q, sel: points_off_facets(Q, 1, sel),
    "boundary_lattice_count": boundary_lattice_count,
    "is_partial_shelling": is_partial_shelling,
    "is_disk": is_disk,
    "shelling_order_for": shelling_order_for,
    "facet_complex": facet_complex,
    "nerve_reduced_betti": nerve_reduced_betti,
    "build_window": build_window,
    "divisor_cohomology": lambda Q, sel: divisor_cohomology(Q, sel, 1),
    "euler_characteristic": euler_characteristic,
    "ehrhart_pair": ehrhart_pair,
}


@pytest.mark.parametrize("query", FACET_ID_QUERIES)
@pytest.mark.parametrize("bad", [-1, 6, 0.9, "1", True])
def test_facet_id_queries_reject_ids_outside_the_facets(cube, query, bad):
    # -1 would wrap to the last facet, or shift by a negative count; 6 would
    # index past the end or name a bit no census point carries; int() would
    # read 0.9 as facet 0 and "1" as facet 1, and a bool is an int to Python
    if type(bad) is int:
        message = f"facet ids out of range 0..5: [{bad}]"
    else:
        message = f"facet id {bad!r} is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        FACET_ID_QUERIES[query](cube, (bad,))


def test_parse_support_roundtrip():
    text = "# support of a cube\n0 0 0\n1 0 0\n\n0 1 0  # inline note\n1 1 1\n"
    assert parse_support(text) == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]
    with pytest.raises(EmptyInput):
        parse_support("# nothing here\n\n")
    with pytest.raises(ParseError):
        parse_support("0 0 x\n")
    with pytest.raises(ParseError):
        parse_support("0 0 0\n1 1\n")


def test_vertex_facet_incidence_random():
    rng = random.Random(20260821)
    for _ in range(8):
        Q = random_polytope(rng)
        for f in Q.facets:
            for vid in f.vertex_ids:
                assert sum(a * b for a, b in zip(Q.vertices[vid], f.normal)) == -f.offset
            on = [list(Q.vertices[v]) for v in f.vertex_ids]
            assert affine_rank([tuple(p) for p in on]) == 2
        # every ridge lies in exactly two facets and Euler characteristic holds
        assert len(Q.vertices) - len(Q.edges) + len(Q.facets) == 2


def test_partition_property_random():
    rng = random.Random(987)
    for _ in range(6):
        Q = random_polytope(rng, max_points=8)
        k = rng.randint(1, 3)
        sel = rng.sample(range(Q.num_facets), rng.randint(0, Q.num_facets))
        off = set(points_off_facets(Q, k, sel))
        allpts = set(lattice_points_scaled(Q, k))
        on_some = {
            m for m in allpts
            if any(sum(a * b for a, b in zip(m, Q.facets[i].normal)) == -k * Q.facets[i].offset
                   for i in sel)
        }
        assert off | on_some == allpts
        assert off & on_some == set()


def test_translation_equivariance_random():
    rng = random.Random(555)
    for _ in range(5):
        Q = random_polytope(rng, max_points=8)
        v = tuple(rng.randint(-2, 2) for _ in range(3))
        QT = translate(Q, v)
        assert [f.normal for f in QT.facets] == [f.normal for f in Q.facets]
        k = rng.randint(1, 3)
        sel = rng.sample(range(Q.num_facets), rng.randint(0, Q.num_facets))
        shifted = [tuple(c + k * w for c, w in zip(m, v))
                   for m in points_off_facets(Q, k, sel)]
        assert shifted == points_off_facets(QT, k, sel)
