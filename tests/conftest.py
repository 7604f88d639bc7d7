"""Shared fixtures: reference polytopes, a seeded random polytope source, and
the test-only helpers that look facets up and move hulls."""

from __future__ import annotations

import contextlib
import functools
import itertools
import random
import signal
from pathlib import Path

import pytest

from detform.errors import DetformError
from detform.lattice import (
    Polytope,
    affine_rank,
    convex_hull_with_facets,
    lattice_points_scaled,
    points_off_facets,
)
from detform.shelling import best_selection

CUBE_POINTS = list(itertools.product((0, 1), repeat=3))
OCTA_POINTS = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
SIMPLEX2_POINTS = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
# a 14-facet polytope whose facets other than 0 and 7 form an annulus
ANNULUS_POINTS = [p for p in itertools.product(range(4), repeat=3)
                  if 2 <= sum(p) <= 7 and max(p) - min(p) <= 2]
ANNULUS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13)
# the radius-3 lattice ball: 56 facets, and no nonzero direction in
# [-9, 9]^3 sweeps them without a tie
BALL3_PATH = Path(__file__).resolve().parents[1] / "supports" / "ball3.txt"


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block once it has run seconds of wall time,
    so a search that never ends fails its test instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def facet_index(Q: Polytope, normal) -> int:
    """Index of Q's facet with the given primitive inner normal."""
    return [f.normal for f in Q.facets].index(tuple(normal))


def translate(Q: Polytope, v) -> Polytope:
    """Hull of Q's points moved by v."""
    return convex_hull_with_facets([tuple(a + b for a, b in zip(p, v)) for p in Q.points])


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


@functools.lru_cache(maxsize=None)
def acceptance_corpus() -> tuple:
    """(points, Q, selection) of the acceptance gate's 25 polytopes: the draw
    and filter of tests/test_acceptance.py (seed 1729), without the windows."""
    rng = random.Random(1729)
    out = []
    while len(out) < 25:
        npts = rng.randint(4, 8)
        pts = sorted({tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(npts)})
        try:
            Q = convex_hull_with_facets(pts)
        except DetformError:
            continue
        if Q.dim != 3 or len(lattice_points_scaled(Q, 1)) > 10:
            continue
        try:
            selection = best_selection(Q, seed=rng.randint(0, 10 ** 6)).selection
        except ValueError:
            continue
        if len(points_off_facets(Q, 4, selection)) <= 90:
            out.append((pts, Q, selection))
    return tuple(out)
