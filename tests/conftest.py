"""Shared fixtures: reference polytopes and a seeded random polytope source."""

from __future__ import annotations

import itertools
import random

import pytest

from detform.lattice import Polytope, affine_rank, convex_hull_with_facets

CUBE_POINTS = list(itertools.product((0, 1), repeat=3))
OCTA_POINTS = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
# a 14-facet polytope whose facets other than 0 and 7 form an annulus
ANNULUS_POINTS = [p for p in itertools.product(range(4), repeat=3)
                  if 2 <= sum(p) <= 7 and max(p) - min(p) <= 2]
ANNULUS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13)


@pytest.fixture(scope="session")
def cube() -> Polytope:
    return convex_hull_with_facets(CUBE_POINTS)


@pytest.fixture(scope="session")
def octahedron() -> Polytope:
    return convex_hull_with_facets(OCTA_POINTS)


def random_polytope(rng: random.Random, span: int = 3, max_points: int = 10) -> Polytope:
    """Random full-dimensional lattice 3-polytope with vertices in [0, span]^3."""
    while True:
        pts = [tuple(rng.randint(0, span) for _ in range(3))
               for _ in range(rng.randint(4, max_points))]
        if affine_rank(sorted(set(pts))) == 3:
            return convex_hull_with_facets(pts)
