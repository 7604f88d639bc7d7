"""Hull construction, point enumeration, facet queries."""

from __future__ import annotations

import itertools
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detform import lattice
from detform.ehrhart import ehrhart_pair
from detform.errors import DegenerateSpan, DetformError, EmptyInput, ParseError
from detform.lattice import (
    Edge,
    Facet,
    Polytope,
    _cofactors,
    affine_rank,
    convex_hull_with_facets,
    facet_bits,
    interior_points,
    lattice_points_scaled,
    parse_support,
    points_off_facets,
)
from detform.linalg import Echelon, det_bareiss, primitive_integer_vector
from detform.shelling import (
    boundary_lattice_count,
    euler_characteristic,
    is_disk,
    is_partial_shelling,
    shelling_order_for,
)
from detform.tate import build_window
from detform.verify import divisor_cohomology, reduced_cohomology

from conftest import CUBE_POINTS, acceptance_corpus, facet_index, random_polytope, translate

ROOT = Path(__file__).resolve().parents[1]


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
    sel = [facet_index(cube, (1, 0, 0)), facet_index(cube, (-1, 0, 0)),
           facet_index(cube, (0, 1, 0))]
    assert points_off_facets(cube, 2, sel) == [
        (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 0), (1, 2, 1), (1, 2, 2),
    ]
    assert points_off_facets(cube, 1, sel) == []


def test_points_off_facets_octahedron(octahedron):
    # The four facets whose normals have first coordinate +1 form a disk
    # around the vertex (1, 0, 0) together with one opposite facet.
    sel = [facet_index(octahedron, n)
           for n in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]]
    assert points_off_facets(octahedron, 1, sel) == [(0, 0, 0)]


def test_face_complex(cube, octahedron):
    assert len(cube.edges) == 12
    assert len(octahedron.edges) == 12


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
    "nerve_reduced_betti": reduced_cohomology,
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


def test_hull_refuses_a_coordinate_that_is_not_an_int():
    # int() would read 1.9 as 1, and True and "1" both as 1
    cube = [list(p) for p in itertools.product((0, 1), repeat=3)]
    for bad in (1.9, True, "1"):
        points = cube + [[0, bad, 2]]
        with pytest.raises(ParseError, match=re.escape(f"point {(0, bad, 2)}")):
            convex_hull_with_facets(points)
    assert convex_hull_with_facets(cube).vertices == tuple(map(tuple, cube))


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


# The hull before facet normals came from integer cofactors and vertices from
# facet bit sets: one Echelon per point subset, a rank test per vertex and a
# pairwise face walk. Kept here as the reference the hull must agree with.

def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def reference_hull(points):
    pts = sorted(set(tuple(int(c) for c in p) for p in points))
    if not pts:
        raise EmptyInput("no points given")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise ParseError(f"mixed point dimensions {sorted(dims)}")
    n = dims.pop()
    if affine_rank(pts) < n:
        raise DegenerateSpan(f"points span a flat of dimension {affine_rank(pts)} < {n}")
    seen = {}
    for subset in itertools.combinations(range(len(pts)), n):
        base = pts[subset[0]]
        ech = Echelon(dict(enumerate(c - b for c, b in zip(pts[i], base))) for i in subset[1:])
        free = ech.free_columns(n)
        if len(free) != 1:
            continue
        kernel = primitive_integer_vector(ech.kernel_vector(free[0]))
        normal = tuple(kernel.get(j, 0) for j in range(n))
        level = dot(base, normal)
        lo = any(dot(p, normal) < level for p in pts)
        hi = any(dot(p, normal) > level for p in pts)
        if lo and hi:
            continue
        if lo:
            normal, level = tuple(-c for c in normal), -level
        seen.setdefault((normal, -level), None)
    keys = sorted(seen)
    on = {key: [i for i, p in enumerate(pts) if dot(p, key[0]) == -key[1]] for key in keys}
    vertex_ids = [i for i in range(len(pts))
                  if Echelon(dict(enumerate(key[0])) for key in keys if i in on[key]).rank == n]
    vid_of = {pts[i]: k for k, i in enumerate(vertex_ids)}
    facets = tuple(Facet(normal, offset, tuple(sorted(vid_of[pts[i]] for i in on[normal, offset]
                                                      if pts[i] in vid_of)))
                   for normal, offset in keys)
    edges = ()
    if n == 3:
        pairs = {}
        for (i, a), (j, b) in itertools.combinations(enumerate(facets), 2):
            common = tuple(sorted(set(a.vertex_ids) & set(b.vertex_ids)))
            if len(common) == 2:
                pairs.setdefault(common, set()).update((i, j))
        for pair, incident in pairs.items():
            if len(incident) != 2:
                raise DegenerateSpan(f"ridge {pair} lies in {len(incident)} facets")
        edges = tuple(Edge(pair, tuple(sorted(pairs[pair]))) for pair in sorted(pairs))
    return Polytope(n, tuple(pts), tuple(pts[i] for i in vertex_ids), facets, edges)


def _hull_outcome(hull, points):
    try:
        return hull(points)
    except DetformError as exc:
        return type(exc), str(exc)


def _symmetries(points):
    """The 48 symmetries of the box [0,3]^3 applied to the points."""
    for axes in itertools.permutations(range(3)):
        for flips in itertools.product((False, True), repeat=3):
            yield [tuple(3 - p[a] if f else p[a] for a, f in zip(axes, flips)) for p in points]


def test_hull_matches_the_echelon_reference():
    # the supports (the 4-simplex among them), the corpus in every position
    # in its box, random draws, flat and malformed inputs, a 6-polytope; the
    # 7-dimensional support is left out, its C(15, 7) reference echelons
    # would take seconds
    cases = [points for points in (parse_support(path.read_text())
                                   for path in sorted((ROOT / "supports").glob("*.txt")))
             if len(points[0]) <= 4]
    cases += [CUBE_POINTS] + [moved for points, _, _ in acceptance_corpus() for moved in _symmetries(points)]
    rng = random.Random(300)
    cases += [[tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(1, 9))]
              for _ in range(300)]
    cases += [[(0, 0, 0), (0, 0, 0)], [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0)], [],
              [(0, 0, 0), (1, 1)], [(0,), (3,)], [(0, 0), (2, 1), (1, 3), (1, 1)]]
    cases.append([tuple(s * (i == j) for j in range(6)) for i in range(6) for s in (1, -1)])
    degenerate = 0
    for points in cases:
        got = _hull_outcome(convex_hull_with_facets, points)
        assert got == _hull_outcome(reference_hull, points), points
        degenerate += type(got) is tuple and got[0] is DegenerateSpan
    assert degenerate > 10


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.tuples(*[st.one_of(st.integers(-2, 2), st.integers(-60, 60))] * n),
    min_size=n - 1, max_size=n - 1)))
def test_cofactors_are_the_signed_maximal_minors(rows):
    # the normals of hulls in Z^1 up to Z^8 (initial forms lift 3-polytopes
    # into Z^4): both base cases and the Laplace rule against minors through
    # det_bareiss, small entries making dependent rows, hence zero normals,
    # and repeated sub-matrices sharing a memo entry, likely
    n = len(rows) + 1
    minors = [int(det_bareiss([r[:j] + r[j + 1:] for r in rows])) for j in range(n)]
    normal = _cofactors(rows)
    assert normal == tuple((-1) ** j * m for j, m in enumerate(minors))
    assert all(dot(r, normal) == 0 for r in rows)


def test_cofactors_expand_each_lower_sub_matrix_once(monkeypatch):
    # 6 rows in Z^7 whose column-deleted sub-matrices all differ: each of the
    # C(7, 4) sub-matrices of 3 rows takes 4 cross products, once, where
    # Laplace without the memo takes 7! / 3! = 840
    rows = [tuple((i + 2) ** j for j in range(7)) for i in range(6)]
    crosses = []
    cofactors = lattice._cofactors

    def counted(rows, memo=None):
        crosses.append(len(rows) == 2)
        return cofactors(rows, memo)

    monkeypatch.setattr(lattice, "_cofactors", counted)
    normal = lattice._cofactors(rows)
    assert sum(crosses) == 4 * math.comb(7, 4) == 140
    minors = [int(det_bareiss([r[:j] + r[j + 1:] for r in rows])) for j in range(7)]
    assert normal == tuple((-1) ** j * m for j, m in enumerate(minors))
