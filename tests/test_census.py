"""The lattice point census: one column walk per polytope and dilation.

A brute-force walk over the bounding box of kQ, written here, is the
reference for the census and for the three point queries filtered from it.
"""

from __future__ import annotations

import copy
import itertools
import math
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detform import lattice
from detform.ehrhart import ehrhart_pair
from detform.lattice import (
    Polytope,
    affine_rank,
    convex_hull_with_facets,
    interior_points,
    lattice_points_scaled,
    parse_support,
    point_census,
    points_off_facets,
)
from detform.tate import build_window

from conftest import CUBE_POINTS, acceptance_corpus, translate

SUPPORTS = Path(__file__).resolve().parents[1] / "supports"

STRIP = (0, 1, 4)

supports = st.one_of(
    st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=4, max_size=8, unique=True),
    st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=5, max_size=8, unique=True),
)


def reference_census(Q, k):
    """Every point of the bounding box of kQ inside kQ, with the set of
    facets it lies on: those with <m, normal> = -k * offset."""
    box = [range(k * min(v[j] for v in Q.vertices), k * max(v[j] for v in Q.vertices) + 1)
           for j in range(Q.dim)]
    out = []
    for m in itertools.product(*box):
        levels = [sum(a * b for a, b in zip(m, f.normal)) + k * f.offset for f in Q.facets]
        if min(levels) >= 0:
            out.append((m, {i for i, level in enumerate(levels) if level == 0}))
    return out


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(supports, st.data())
def test_census_matches_box_reference(points, data):
    assume(affine_rank(points) == len(points[0]))
    Q = convex_hull_with_facets(points)
    for k in range(1, 6):
        ref = reference_census(Q, k)
        found, bits = point_census(Q, k)
        assert list(found) == [m for m, _ in ref]
        assert [{i for i in range(Q.num_facets) if b >> i & 1} for b in bits] == [on for _, on in ref]
        selection = data.draw(st.sets(st.integers(0, Q.num_facets - 1)))
        assert lattice_points_scaled(Q, k) == [m for m, _ in ref]
        assert interior_points(Q, k) == [m for m, on in ref if not on]
        assert points_off_facets(Q, k, selection) == [m for m, on in ref if not on & selection]


def _cross(n):
    return [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]


# (support, dilations) in every dimension the hull accepts: segments and
# polygons; 3-polytopes with negative coordinates and vertical facets; thin
# skew simplices, nearly all of whose box columns are empty; 4-polytopes,
# with and without vertical facets; and two 5-polytopes
EVERY_DIMENSION = {
    "segment": ([(0,), (3,)], range(1, 5)),
    "negative segment": ([(-2,), (5,), (1,)], range(1, 5)),
    "unit segment": ([(-1,), (0,)], range(1, 5)),
    "triangle": ([(0, 0), (3, 1), (1, 4)], range(1, 5)),
    "square": ([(-2, -1), (1, -1), (1, 2), (-2, 2)], range(1, 5)),
    "pentagon": ([(-1, 0), (2, -3), (3, 1), (0, 2), (-2, 1)], range(1, 5)),
    "prism": ([(-2, -1, -1), (1, -1, -1), (-2, 2, -1), (-2, -1, 2), (1, -1, 2), (-2, 2, 2)],
              range(1, 5)),
    "pyramid": ([(-1, -1, -2), (2, -1, -2), (2, 2, -2), (-1, 2, -2), (-1, -1, 1)], range(1, 5)),
    "skew simplex": ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (6, 5, 1)], range(1, 5)),
    "skew simplex, one vertical facet": ([(-3, 2, 1), (-2, 2, 1), (-3, 3, 1), (2, -2, 2)],
                                         range(1, 5)),
    "skew simplex, negative": ([(0, 0, 0), (1, 1, 0), (0, 1, 1), (5, -4, 3)], range(1, 5)),
    "4-cube": (list(itertools.product((-1, 1), repeat=4)), range(1, 5)),
    "4-cross-polytope": (_cross(4) + [(0,) * 4], range(1, 5)),
    "skew 4-simplex": ([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (3, -2, 4, 1)],
                       range(1, 5)),
    "5-simplex": ([(0,) * 5] + [tuple(-(i == j) for j in range(5)) for i in range(5)]
                  + [(2, 1, 1, -1, 1)], range(1, 3)),
    "5-cross-polytope": (_cross(5), range(1, 3)),
}


def test_census_matches_box_reference_on_the_supports_and_the_corpus():
    # fresh hulls, so each dilation is walked here; the 7-dimensional
    # support's box reference at k = 4 holds 9^7 points
    supports = [points for points in (parse_support(path.read_text())
                                      for path in sorted(SUPPORTS.glob("*.txt")))
                if len(points[0]) <= 4]
    cases = [(str(points), (points, range(1, 5)))
             for points in supports + [points for points, _, _ in acceptance_corpus()]]
    for name, (points, dilations) in cases + list(EVERY_DIMENSION.items()):
        Q = convex_hull_with_facets(points)
        for k in dilations:
            ref = reference_census(Q, k)
            found, bits = point_census(Q, k)
            assert list(found) == [m for m, _ in ref], (name, k)
            assert [{i for i in range(Q.num_facets) if b >> i & 1} for b in bits] == \
                [on for _, on in ref], (name, k)
        if name.startswith("skew"):
            # thin indeed: at k = 4 fewer than one column of the box in five holds a point
            box = math.prod(k * (max(c) - min(c)) + 1 for c in list(zip(*Q.vertices))[:-1])
            assert len({m[:-1] for m in found}) * 5 < box, name


def test_census_lifecycle(monkeypatch):
    Q = convex_hull_with_facets(CUBE_POINTS)
    twin = Polytope(Q.dim, Q.points, Q.vertices, Q.facets, Q.edges)
    digest = hash(Q)
    walks = []
    walk = lattice._column_walk

    def counted(Q, k):
        walks.append(k)
        return walk(Q, k)

    monkeypatch.setattr(lattice, "_column_walk", counted)
    build_window(Q, STRIP)
    ehrhart_pair(Q, STRIP)
    # the window and the counting polynomials share one walk per dilation
    assert sorted(walks) == [1, 2, 3, 4]
    assert sorted(Q._census) == [1, 2, 3, 4]

    # a filled census changes neither equality nor hashing, and copies start empty
    assert Q == twin and hash(Q) == hash(twin) == digest
    assert twin._census == {}
    assert copy.copy(Q)._census == {}
    assert translate(Q, (1, 0, 0))._census == {}

    # every query hands out a fresh list
    for query in (lattice_points_scaled, interior_points,
                  lambda Q, k: points_off_facets(Q, k, STRIP)):
        first = query(Q, 3)
        expected = list(first)
        first.append((9, 9, 9))
        first.reverse()
        assert query(Q, 3) == expected
    assert sorted(walks) == [1, 2, 3, 4]
