"""Cohomology and feasibility oracles."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from detform.bracket import apply_U4, evaluate
from detform.errors import NoDiskSelection, NotStabilized, UnsupportedDimension
from detform.lattice import (
    convex_hull_with_facets,
    lattice_points_scaled,
    points_off_facets,
)
from detform.linalg import Echelon, qq
from detform.shelling import best_selection, is_disk, line_shelling
from detform.tate import build_window
from detform.verify import (
    cohomology_profile,
    common_root_system,
    divisor_cohomology,
    feasibility_dim4,
    feasibility_high_dim,
    high_dim_feasible_selection,
    reduced_cohomology,
    _signed_faces,
)

from conftest import acceptance_corpus, random_polytope


def dilated_simplex(n, d):
    verts = [tuple(0 for _ in range(n))]
    for i in range(n):
        verts.append(tuple(d if j == i else 0 for j in range(n)))
    return convex_hull_with_facets(verts)


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


# The cellular chain complex that computed the cohomology of dimension-3
# facet unions from stored facet cycles: the union's vertices, edges and
# facets, each facet bounded by its cycle of edges, kept here as the
# reference that reduced_cohomology must match.

def facet_cycle(Q, j):
    """Vertex ids around facet j, walked along Q.edges from its least vertex."""
    nbrs = {v: [] for v in Q.facets[j].vertex_ids}
    for e in Q.edges:
        if j in e.facet_ids:
            a, b = e.vertex_ids
            nbrs[a].append(b)
            nbrs[b].append(a)
    start = min(nbrs)
    cycle = [start, min(nbrs[start])]
    while len(cycle) < len(nbrs):
        prev, cur = cycle[-2], cycle[-1]
        cycle.append(nbrs[cur][0] if nbrs[cur][0] != prev else nbrs[cur][1])
    return cycle


def cellular_reduced_betti(Q, sel):
    """Reduced Betti numbers of a union of facets of a 3-polytope, edges
    oriented from the smaller vertex id to the larger."""
    chosen = set(sel)
    vertices = sorted({v for j in sel for v in Q.facets[j].vertex_ids})
    vpos = {v: p for p, v in enumerate(vertices)}
    pairs = [e.vertex_ids for e in Q.edges if chosen.intersection(e.facet_ids)]
    epos = {pair: p for p, pair in enumerate(pairs)}
    d1 = [{vpos[b]: 1, vpos[a]: -1} for a, b in pairs]
    d2 = []
    for j in sel:
        cycle = facet_cycle(Q, j)
        d2.append({epos[min(v, w), max(v, w)]: 1 if v < w else -1
                   for v, w in zip(cycle, cycle[1:] + cycle[:1])})
    for signs2 in d2:
        acc = {}
        for e, s2 in signs2.items():
            for v, s1 in d1[e].items():
                acc[v] = acc.get(v, 0) + s2 * s1
        assert not any(acc.values()), "facet complex boundaries do not square to zero"
    r1, r2 = Echelon(d1).rank, Echelon(d2).rank
    return (len(vertices) - 1 - r1, len(pairs) - r1 - r2, len(sel) - r2)


def test_boundaries_square_to_zero_randomly():
    rng = random.Random(41)
    for _ in range(12):
        Q = random_polytope(rng)
        size = rng.randint(1, Q.num_facets)
        sel = tuple(sorted(rng.sample(range(Q.num_facets), size)))
        # the cellular reference asserts d∘d = 0 while it computes the Betti numbers
        b = cellular_reduced_betti(Q, sel)
        # Euler characteristic agrees with the Betti alternating sum
        nv = len({v for j in sel for v in Q.facets[j].vertex_ids})
        ne = sum(1 for e in Q.edges if set(sel).intersection(e.facet_ids))
        assert b[0] - b[1] + b[2] == (nv - ne + size) - 1
        assert reduced_cohomology(Q, sel) == b


def test_cells_match_the_cycle_complex_on_every_selection(cube, octahedron):
    for Q in (cube, octahedron, dilated_simplex(3, 2)):
        for size in range(1, Q.num_facets + 1):
            for sel in itertools.combinations(range(Q.num_facets), size):
                assert reduced_cohomology(Q, sel) == cellular_reduced_betti(Q, sel), sel
    with pytest.raises(ValueError, match="empty facet selection"):
        reduced_cohomology(cube, ())


def test_nerve_matches_direct_complex():
    # hulls of 13 to 18 facets, with selections of up to all of them
    rng = random.Random(97)
    large = 0
    for _ in range(20):
        Q = random_polytope(rng, span=5, max_points=16)
        while not 13 <= Q.num_facets <= 18:
            Q = random_polytope(rng, span=5, max_points=16)
        n = Q.num_facets
        for _ in range(15):
            size = rng.choice((rng.randint(1, n), rng.randint(n - 2, n)))
            sel = tuple(sorted(rng.sample(range(n), size)))
            assert reduced_cohomology(Q, sel) == cellular_reduced_betti(Q, sel), sel
            large += size > 16
    assert large >= 10


# a lattice 17-gon in [0, 12]^2, its vertices in counterclockwise order
HEPTADECAGON = [(6, 12), (3, 11), (2, 10), (0, 7), (0, 6), (1, 3), (2, 2), (5, 0), (6, 0),
                (9, 1), (10, 2), (11, 4), (12, 7), (12, 8), (11, 10), (10, 11), (7, 12)]


def test_a_vertex_on_17_selected_facets_is_answered():
    # the apex of a pyramid over a 17-gon lies on its 17 lateral facets,
    # where the nerve has 2^17 simplices
    Q = convex_hull_with_facets([(x, y, 0) for x, y in HEPTADECAGON] + [(6, 6, 1)])
    apex = Q.vertices.index((6, 6, 1))
    lateral = tuple(j for j, f in enumerate(Q.facets) if apex in f.vertex_ids)
    base = next(j for j in range(18) if j not in lateral)
    assert len(lateral) == 17
    rng = random.Random(17)
    picks = [lateral, lateral[:9], lateral[::2], (base,) + lateral[::3], range(18)]
    picks += [rng.sample(range(18), rng.randint(1, 18)) for _ in range(40)]
    for sel in picks:
        assert reduced_cohomology(Q, sel) == cellular_reduced_betti(Q, sorted(sel)), sel
    assert reduced_cohomology(Q, lateral) == (0, 0, 0)
    assert reduced_cohomology(Q, range(18)) == (0, 0, 1)


def nerve_reference(Q, sel):
    """Reduced Betti numbers of the nerve: the nonempty sets of selected
    facets through one vertex, the reference in dimension 4 and up. Facets
    meet in faces, so the nerve has the homotopy type of their union."""
    through = {}
    for j in sel:
        for v in Q.facets[j].vertex_ids:
            through.setdefault(v, []).append(j)
    levels = [set() for _ in range(max(map(len, through.values())))]
    for facets in through.values():
        for size in range(1, len(facets) + 1):
            levels[size - 1].update(itertools.combinations(facets, size))
    ranks = [0]
    for faces, level in zip(levels, levels[1:]):
        pos = {s: p for p, s in enumerate(faces)}
        ranks.append(Echelon({pos[s[:i] + s[i + 1:]]: (-1) ** i for i in range(len(s))}
                             for s in level).rank)
    ranks.append(0)
    betti = [len(level) - ranks[d] - ranks[d + 1] for d, level in enumerate(levels)]
    betti[0] -= 1
    return tuple((betti + [0] * Q.dim)[:Q.dim])


def cross_polytope(n):
    return convex_hull_with_facets(
        [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)])


def test_cells_match_the_nerve_in_higher_dimensions():
    rng = random.Random(6)
    cube4 = convex_hull_with_facets(list(itertools.product((0, 1), repeat=4)))
    for Q in (dilated_simplex(4, 1), dilated_simplex(5, 1), dilated_simplex(5, 2),
              dilated_simplex(6, 1), cube4, cross_polytope(4)):
        n = Q.num_facets
        sels = [c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)]
        for sel in sels if len(sels) < 300 else rng.sample(sels, 300):
            assert reduced_cohomology(Q, sel) == nerve_reference(Q, sel), (Q.dim, sel)


def test_cell_boundaries_square_to_zero_in_every_dimension(cube, octahedron):
    for Q in (cube, octahedron, dilated_simplex(5, 1), cross_polytope(5)):
        faces = _signed_faces(Q)
        assert sum(dim == Q.dim - 1 for dim, _ in faces.values()) == Q.num_facets
        for dim, sides in faces.values():
            acc = {}
            for y, s in sides.items():
                assert faces[y][0] == dim - 1 and s in (1, -1)
                for z, t in faces[y][1].items():
                    acc[z] = acc.get(z, 0) + s * t
            assert not any(acc.values())


def test_cost_does_not_grow_with_facets_through_a_vertex():
    # every vertex of the 6-dimensional cross-polytope lies on 32 facets, but
    # its boundary, a 5-sphere, has only 728 faces
    cross = cross_polytope(6)
    assert cross.num_facets == 64
    assert reduced_cohomology(cross, range(64)) == (0, 0, 0, 0, 0, 1)
    assert reduced_cohomology(cross, (0,)) == (0,) * 6
    # the facets with a positive first normal coordinate: a closed hemisphere
    half = [j for j, f in enumerate(cross.facets) if f.normal[0] > 0]
    assert reduced_cohomology(cross, half) == (0,) * 6


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


def polynomial_value(support, coeffs, x0):
    """The Laurent polynomial with the given coefficient row, at x0, term by term."""
    total = qq(0)
    for point, c in zip(support, coeffs, strict=True):
        term = qq(c)
        for base, e in zip(x0, point, strict=True):
            term *= qq(base) ** e
        total += term
    return total


def test_common_root_rows_vanish(octahedron):
    A = lattice_points_scaled(octahedron, 1)
    for seed, x0 in ((1, (1, 1, 1)), (2, (1, 2, 3)), (3, (-2, 3, 7)),
                     (4, ("1/2", 5, "-3/4"))):
        C = common_root_system(A, x0, seed=seed)
        for k in range(4):
            assert polynomial_value(A, C.rows[k], x0) == 0
    with pytest.raises(ValueError):
        common_root_system(A, (1, 0, 2), seed=0)
    # a float coordinate used to be taken at its binary value, a bool as 0 or 1
    for x0 in ((0.1, 2, 3), (1, True, 3)):
        with pytest.raises(ValueError, match="not an exact rational"):
            common_root_system(A, x0, seed=0)
    # zip used to truncate: a 2-coordinate root gave rows with no common root
    for x0 in ((2, 3), (2, 3, 5, 7)):
        with pytest.raises(ValueError, match="coordinates"):
            common_root_system(A, x0, seed=0)


def fraction_common_root_rows(support, x0, seed):
    """The common-root rows built in Fractions throughout: every monomial
    value, head entry and row sum. The reference for the integer build."""
    x0 = tuple(qq(c) for c in x0)
    monos = [prod((c ** e for c, e in zip(x0, p)), start=qq(1)) for p in support]
    rng = random.Random(seed)
    rows = []
    for _ in range(4):
        head = [qq(rng.randint(-9, 9)) for _ in range(len(support) - 1)]
        solved = -sum((c * m for c, m in zip(head, monos[:-1])), qq(0)) / monos[-1]
        rows.append(tuple(head) + (solved,))
    return tuple(rows)


def test_common_root_rows_match_the_fraction_formula(cube, octahedron):
    # no determinant digest pins these rows (a common-root determinant is
    # 0), so the integer build is checked entry for entry; the cube's
    # exponents are 0 and 1, the octahedron's reach -1 and 2Δ's reach 2
    supports = [lattice_points_scaled(Q, 1)
                for Q in (cube, octahedron, dilated_simplex(3, 2))]
    assert [(min(map(min, A)), max(map(max, A))) for A in supports] == [(0, 1), (-1, 1), (0, 2)]
    roots = ((-3, "5/7", 2), ("-1/2", 3, -1), (1, 1, 1), ("2/3", "-4/9", "7/5"),
             (Fraction(-9, 4), 5, "1/6"))
    for A in supports:
        for seed, x0 in enumerate(roots):
            C = common_root_system(A, x0, seed=seed)
            assert C.rows == fraction_common_root_rows(A, x0, seed)
            for row in C.rows:
                assert [type(c) for c in row] == [int] * (len(A) - 1) + [Fraction]


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


# The feasibility tests as they read before they shared one predicate over
# the census bits: lattice point lists off the selected facets, kept here as
# the reference for results and error messages.

def reference_feasibility_dim4(Q):
    if Q.dim != 4:
        raise ValueError("expected a 4-polytope")
    for i in range(Q.num_facets):
        others = tuple(j for j in range(Q.num_facets) if j != i)
        if not points_off_facets(Q, 1, others):
            return (True, i)
    return (False, None)


def reference_feasibility_high_dim(Q, selection):
    n = Q.dim
    if n < 5:
        raise ValueError("expected dimension at least 5")
    sel = tuple(sorted(set(selection)))
    if not sel or len(sel) >= Q.num_facets:
        raise NoDiskSelection("selection must be a nonempty proper facet subset")
    if any(reduced_cohomology(Q, sel)):
        raise NoDiskSelection("facet union carries reduced homology")
    k1, k2 = (n + 1) // 2 - 2, (n + 2) // 2 - 2
    comp = tuple(j for j in range(Q.num_facets) if j not in set(sel))
    if k1 >= 1 and points_off_facets(Q, k1, sel):
        return False
    if k2 >= 1 and points_off_facets(Q, k2, comp):
        return False
    return True


def _feasibility_outcome(test, *args):
    try:
        return test(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_feasibility_matches_the_point_list_reference():
    calls = 0
    for d in range(1, 6):
        Q = dilated_simplex(4, d)
        assert feasibility_dim4(Q) == reference_feasibility_dim4(Q), d
        calls += 1
    for n, scales in ((5, (1, 2, 3)), (6, (1, 2))):
        for d in scales:
            Q = dilated_simplex(n, d)
            first = None
            for size in range(Q.num_facets):
                for sel in itertools.combinations(range(Q.num_facets), size):
                    got = _feasibility_outcome(feasibility_high_dim, Q, sel)
                    assert got == _feasibility_outcome(reference_feasibility_high_dim, Q, sel), (n, d, sel)
                    calls += 1
                    if got is True and first is None:
                        first = sel
            assert high_dim_feasible_selection(Q) == first, (n, d)
    assert calls == 448


def test_feasibility_high_dim_guards():
    Q5 = dilated_simplex(5, 2)
    with pytest.raises(ValueError):
        feasibility_high_dim(dilated_simplex(4, 1), (0,))
    with pytest.raises(ValueError):
        feasibility_high_dim(Q5, ())
    with pytest.raises(ValueError):
        feasibility_high_dim(Q5, range(Q5.num_facets))


# divisor_cohomology before it cut the box into column runs: every character
# tests every facet. Kept here as the reference the runs must agree with.

def per_character_cohomology(Q, selection, k, box_radius=None):
    if Q.dim != 3:
        raise UnsupportedDimension(
            f"divisor cohomology enumeration needs a 3-polytope, not dimension {Q.dim}")
    chosen = set(selection)
    coeffs = [k * f.offset - (j in chosen) for j, f in enumerate(Q.facets)]
    if box_radius is None:
        scale = max([abs(f.offset) for f in Q.facets] + [abs(c) for v in Q.vertices for c in v])
        box_radius = abs(k) * scale + 2
    dims, memo = [0] * 4, {}
    rng = range(-box_radius, box_radius + 1)
    for u in itertools.product(rng, rng, rng):
        neg = tuple(j for j, (c, f) in enumerate(zip(coeffs, Q.facets))
                    if c + sum(a * b for a, b in zip(u, f.normal)) < 0)
        if neg not in memo:
            memo[neg] = (0,) + reduced_cohomology(Q, neg) if neg else (1, 0, 0, 0)
        betti = memo[neg]
        if any(betti) and max(map(abs, u)) == box_radius:
            raise NotStabilized(f"twist {k}: contribution at {u} on the box boundary "
                                f"(radius {box_radius})")
        dims = [d + b for d, b in zip(dims, betti)]
    return tuple(dims), box_radius


def _cohomology_outcome(divisor, Q, selection, k, box_radius=None):
    try:
        entry = divisor(Q, selection, k, box_radius)
    except (NotStabilized, UnsupportedDimension, ValueError) as exc:
        return type(exc), str(exc)
    return (entry.dims, entry.box_radius) if hasattr(entry, "dims") else entry


def test_column_runs_match_the_per_character_cohomology(octahedron):
    cases = [(octahedron, sel, k, None) for k in range(-2, 3)
             for sel in (best_selection(octahedron).selection, (0, 6), (3,), tuple(range(7)))]
    cases += [(octahedron, (0, 1, 2, 4), 3, 2), (dilated_simplex(4, 1), (0,), 1, None)]
    # the whole corpus at twist 0 and, in a radius-4 box, at twist 2; the
    # per-character walk is slow, so only every eighth at twists -1 and 1
    corpus = acceptance_corpus()
    cases += [(Q, sel, k, None) for i, (_, Q, sel) in enumerate(corpus)
              for k in ((-1, 0, 1) if i % 8 == 0 else (0,))]
    cases += [(Q, sel, 2, 4) for _, Q, sel in corpus]
    for n in range(10, 18):
        Q = convex_hull_with_facets([(x, y, 0) for x, y in HEPTADECAGON[:n]] + [(6, 6, 1)])
        cases += [(Q, sel, k, 3) for k in (-1, 0, 1) for sel in ((0,), tuple(range(1, n, 2)))]
    outcomes = set()
    for Q, sel, k, radius in cases:
        got = _cohomology_outcome(divisor_cohomology, Q, sel, k, radius)
        assert got == _cohomology_outcome(per_character_cohomology, Q, sel, k, radius), \
            (Q.vertices, sel, k, radius)
        outcomes.add(got[0] if got[0] in (NotStabilized, UnsupportedDimension, ValueError)
                     else "dims")
    assert outcomes == {NotStabilized, UnsupportedDimension, "dims"}
