"""Cohomology and feasibility oracles."""

from __future__ import annotations

import random

import pytest

from detform.bracket import apply_U4, evaluate
from detform.errors import NotStabilized
from detform.lattice import (
    convex_hull_with_facets,
    lattice_points_scaled,
    points_off_facets,
)
from detform.shelling import best_selection, is_disk, line_shelling
from detform.tate import build_window
from detform.verify import (
    cohomology_profile,
    common_root_system,
    divisor_cohomology,
    facet_complex,
    feasibility_dim4,
    feasibility_high_dim,
    high_dim_feasible_selection,
    nerve_reduced_betti,
    polynomial_value,
    reduced_cohomology,
)

from conftest import random_polytope


def dilated_simplex(n, d):
    verts = [tuple(0 for _ in range(n))]
    for i in range(n):
        verts.append(tuple(d if j == i else 0 for j in range(n)))
    return convex_hull_with_facets(verts)


def test_facet_complex_cells_and_boundaries(cube):
    fc = facet_complex(cube, (0, 4, 5))
    assert fc.cell_counts() == (8, 10, 3)
    assert fc.boundary_squared_entries() == 0
    with pytest.raises(ValueError):
        facet_complex(cube, ())
    with pytest.raises(ValueError):
        facet_complex(cube, (0, 9))


def test_boundaries_square_to_zero_randomly():
    rng = random.Random(41)
    for _ in range(12):
        Q = random_polytope(rng)
        size = rng.randint(1, Q.num_facets)
        sel = tuple(sorted(rng.sample(range(Q.num_facets), size)))
        fc = facet_complex(Q, sel)
        assert fc.boundary_squared_entries() == 0
        # Euler characteristic agrees with the Betti alternating sum
        nv, ne, nf = fc.cell_counts()
        b = fc.reduced_betti()
        assert b[0] - b[1] + b[2] == (nv - ne + nf) - 1


def test_reduced_cohomology_reference_shapes(cube, octahedron):
    assert reduced_cohomology(cube, (0, 4, 5)) == (0, 0, 0)
    assert reduced_cohomology(cube, (2, 3)) == (1, 0, 0)
    assert reduced_cohomology(cube, range(6)) == (0, 0, 1)
    assert reduced_cohomology(octahedron, range(8)) == (0, 0, 1)
    assert reduced_cohomology(octahedron, (3,)) == (0, 0, 0)
    # two octahedron facets sharing a single vertex are still contractible
    assert reduced_cohomology(octahedron, (0, 6)) == (0, 0, 0)
    # a ring of four cube facets is a circle
    assert reduced_cohomology(cube, (0, 1, 4, 5)) == (0, 1, 0)


def test_nerve_matches_direct_complex():
    rng = random.Random(97)
    for _ in range(10):
        Q = random_polytope(rng)
        size = rng.randint(1, Q.num_facets)
        sel = tuple(sorted(rng.sample(range(Q.num_facets), size)))
        assert nerve_reduced_betti(Q, sel) == reduced_cohomology(Q, sel)


def test_divisor_cohomology_disk_twists(octahedron):
    sel = best_selection(octahedron).selection
    for k, h0 in ((1, 1), (2, 10), (3, 35), (4, 84)):
        entry = divisor_cohomology(octahedron, sel, k)
        assert entry.dims == (h0, 0, 0, 0)
        assert entry.stabilized
        assert entry.dims[0] == len(points_off_facets(octahedron, k, sel))


def test_divisor_cohomology_vertex_contact_pair(octahedron):
    assert divisor_cohomology(octahedron, (0, 6), -1).dims == (0, 0, 1, 1)
    assert divisor_cohomology(octahedron, (0, 6), -2).dims[2] == 1


def test_divisor_cohomology_strip_negative_twist(cube):
    assert divisor_cohomology(cube, (0, 1, 4), -1).dims == (0, 0, 0, 0)


def test_divisor_cohomology_box_controls(octahedron):
    with pytest.raises(NotStabilized):
        divisor_cohomology(octahedron, (0, 1, 2, 4), 3, box_radius=2)
    with pytest.raises(ValueError):
        divisor_cohomology(octahedron, (0, 1, 2, 4), 1, box_radius=0)


def test_cohomology_profile_window(cube):
    entries = cohomology_profile(cube, (2, 4, 5), -2, 2)
    assert [e.k for e in entries] == [-2, -1, 0, 1, 2]
    for e in entries:
        assert e.dims[1] == e.dims[2] == 0
    with pytest.raises(ValueError):
        cohomology_profile(cube, (2, 4, 5), 2, 1)


def test_middle_cohomology_vanishes_for_random_disks():
    rng = random.Random(230)
    done = 0
    while done < 3:
        Q = random_polytope(rng, span=2, max_points=6)
        try:
            order = line_shelling(
                Q, (rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)),
                rng.randint(1, Q.num_facets - 1))
        except Exception:
            continue
        sel = order.selection
        if not is_disk(Q, sel):
            continue
        for k in range(-2, 3):
            entry = divisor_cohomology(Q, sel, k)
            assert entry.dims[1] == 0 and entry.dims[2] == 0, (Q.points, sel, k)
        done += 1


def test_common_root_rows_vanish(octahedron):
    A = lattice_points_scaled(octahedron, 1)
    for seed, x0 in ((1, (1, 1, 1)), (2, (1, 2, 3)), (3, (-2, 3, 7)),
                     (4, ("1/2", 5, "-3/4"))):
        C = common_root_system(A, x0, seed=seed)
        for k in range(4):
            assert polynomial_value(A, C.rows[k], x0) == 0
    with pytest.raises(ValueError):
        common_root_system(A, (1, 0, 2), seed=0)
    # zip used to truncate: a 2-coordinate root gave rows with no common root
    for x0 in ((2, 3), (2, 3, 5, 7)):
        with pytest.raises(ValueError, match="coordinates"):
            common_root_system(A, x0, seed=0)
        with pytest.raises(ValueError, match="coordinates"):
            polynomial_value(A, C.rows[0], x0)
    with pytest.raises(ValueError, match="6 coefficients for 7 support points"):
        polynomial_value(A, C.rows[0][:-1], (1, 1, 1))


def test_common_roots_kill_determinants(cube, octahedron):
    for Q, sel in ((cube, (2, 4, 5)), (octahedron, (0, 1, 2, 4))):
        M = apply_U4(build_window(Q, sel).maps[0])
        A = lattice_points_scaled(Q, 1)
        for seed in range(4):
            C = common_root_system(A, (seed + 1, 2, 3), seed=seed)
            assert evaluate(M, C) == 0


def test_feasibility_dim4_dilated_simplices():
    results = {d: feasibility_dim4(dilated_simplex(4, d)) for d in (1, 2, 3, 4, 5)}
    for d in (1, 2, 3):
        feasible, witness = results[d]
        assert feasible and witness is not None
    assert results[4] == (False, None)
    assert results[5] == (False, None)
    with pytest.raises(ValueError):
        feasibility_dim4(dilated_simplex(3, 1))


def test_feasibility_high_dim_simplices():
    Q5 = dilated_simplex(5, 2)
    sel = high_dim_feasible_selection(Q5)
    assert sel == (0, 1, 2)
    assert feasibility_high_dim(Q5, sel)
    # a single facet is not enough for the degree-2 simplex
    assert not feasibility_high_dim(Q5, (0,))
    assert not feasibility_high_dim(Q5, (1,))
    assert high_dim_feasible_selection(dilated_simplex(5, 3)) is None

    Q6 = dilated_simplex(6, 1)
    sel6 = high_dim_feasible_selection(Q6)
    assert sel6 is not None and feasibility_high_dim(Q6, sel6)
    assert high_dim_feasible_selection(dilated_simplex(6, 2)) is None


def test_feasibility_high_dim_guards():
    Q5 = dilated_simplex(5, 2)
    with pytest.raises(ValueError):
        feasibility_high_dim(dilated_simplex(4, 1), (0,))
    with pytest.raises(ValueError):
        feasibility_high_dim(Q5, ())
    with pytest.raises(ValueError):
        feasibility_high_dim(Q5, range(Q5.num_facets))
