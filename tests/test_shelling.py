"""Shelling certification, disk tests, and selection search."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from detform import shelling
from detform.errors import NonGenericDirection
from detform.lattice import convex_hull_with_facets
from detform.shelling import (
    best_selection,
    boundary_lattice_count,
    certify,
    euler_characteristic,
    is_disk,
    is_partial_shelling,
    line_shelling,
    shelling_order_for,
)

from conftest import ANNULUS, ANNULUS_POINTS, CUBE_POINTS, OCTA_POINTS, random_polytope

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


def test_line_shelling_rejects_a_direction_that_is_not_integers(cube):
    # a float ranks the facets by inexact values and ties them by float
    # comparison; a bool is an int to Python but not a coordinate
    for direction in ((0.5, 5, 3), (1, 2.0, 5), (True, 2, 5)):
        with pytest.raises(ValueError, match="not an integer"):
            line_shelling(cube, direction, 3)


def test_line_shelling_rejects_a_step_count_that_is_not_an_int(octahedron):
    # a float count would reach a slice; a bool would quietly take one facet
    for k in (2.0, True):
        with pytest.raises(ValueError, match=f"k must be an int .*, got {k!r}"):
            line_shelling(octahedron, (9, 5, 3), k)


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


def test_queries_take_a_partial_shelling_for_its_selection(cube):
    best = best_selection(cube)
    for query in (is_disk, shelling_order_for, euler_characteristic, boundary_lattice_count):
        assert query(cube, best) == query(cube, best.selection), query.__name__


def test_annulus_is_refused_without_a_search(monkeypatch):
    Q = convex_hull_with_facets(ANNULUS_POINTS)
    assert Q.num_facets == 14
    assert euler_characteristic(Q, ANNULUS) == 0
    calls = 0

    def counted(Q, order):
        nonlocal calls
        calls += 1
        assert calls <= len(ANNULUS) ** 2, "the order search backtracks"
        return is_partial_shelling(Q, order)

    monkeypatch.setattr(shelling, "is_partial_shelling", counted)
    with pytest.raises(ValueError, match=r"admits no shelling order"):
        shelling_order_for(Q, ANNULUS)


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


# The graph rules the counts in is_disk and is_partial_shelling replaced,
# kept here as the reference they must agree with.

def _connected(nodes, linked) -> bool:
    nodes = list(nodes)
    if not nodes:
        return False
    todo, reached = [nodes[0]], {nodes[0]}
    while todo:
        a = todo.pop()
        for b in nodes:
            if b not in reached and linked(a, b):
                reached.add(b)
                todo.append(b)
    return len(reached) == len(nodes)


def _meet(a, b) -> bool:
    return bool(set(a) & set(b))


def reference_is_disk(Q, sel) -> bool:
    """Adjacency-connected, no edge in more than two selected facets, Euler
    characteristic one, and frontier degrees two forming one cycle."""
    hits = {e.vertex_ids: [f for f in e.facet_ids if f in sel] for e in Q.edges}
    hits = {e: h for e, h in hits.items() if h}
    if any(len(h) > 2 for h in hits.values()):
        return False
    inner = [set(h) for h in hits.values() if len(h) == 2]
    if not _connected(sel, lambda a, b: {a, b} in inner):
        return False
    verts = {v for i in sel for v in Q.facets[i].vertex_ids}
    if len(verts) - len(hits) + len(sel) != 1:
        return False
    frontier = [e for e, h in hits.items() if len(h) == 1]
    degree = {v: sum(v in e for e in frontier) for e in frontier for v in e}
    return all(d == 2 for d in degree.values()) and _connected(frontier, _meet)


def reference_shelling(Q, order):
    """Each step shares a nonempty connected set of whole edges with the
    union before it, and no shared vertex lies off those edges."""
    steps = [(order[0], (), True)]
    for k, fid in enumerate(order[1:], 1):
        seen = set(order[:k])
        shared = tuple(e.vertex_ids for e in Q.edges
                       if fid in e.facet_ids and set(e.facet_ids) & seen)
        vertices = set(Q.facets[fid].vertex_ids) & {
            v for f in seen for v in Q.facets[f].vertex_ids}
        ok = (bool(shared) and vertices == {v for e in shared for v in e}
              and _connected(shared, _meet))
        steps.append((fid, shared, ok))
        if not ok:
            return False, steps
    return True, steps


def _equivalence_polytopes():
    yield convex_hull_with_facets(CUBE_POINTS)
    yield convex_hull_with_facets(OCTA_POINTS)
    yield convex_hull_with_facets([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    yield convex_hull_with_facets(list(itertools.product((0, 1, 2), (0, 1), (0, 1))))
    rng = random.Random(2024)
    for _ in range(12):
        yield random_polytope(rng)


def test_counts_agree_with_the_graph_rules():
    checks = 0
    for Q in _equivalence_polytopes():
        s = Q.num_facets
        for size in range(1, s):
            for sel in itertools.combinations(range(s), size):
                assert is_disk(Q, sel) == reference_is_disk(Q, sel), (Q.vertices, sel)
                checks += 1
        # every polytope has at least four facets, so a triple is proper
        for order in itertools.chain(itertools.permutations(range(s), 2),
                                     itertools.permutations(range(s), 3)):
            ok, steps = is_partial_shelling(Q, order)
            assert (ok, [(st.facet_id, st.shared_edges, st.ok) for st in steps]) == \
                reference_shelling(Q, order), (Q.vertices, order)
            checks += 1
    assert checks > 6000


def test_ring_step_meeting_in_two_edges_fails(cube):
    # the fourth side facet closes the ring: it meets the first and third in
    # two disjoint edges, four vertices and two edges, so the step fails
    ring = [cube.facet_index(n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]]
    ok, steps = is_partial_shelling(cube, ring)
    assert not ok
    assert [st.ok for st in steps] == [True, True, True, False]
    shared = steps[3].shared_edges
    assert len(shared) == 2 and not set(shared[0]) & set(shared[1])
    assert reference_shelling(cube, ring)[0] is False


# The depth-first search the greedy pass in shelling_order_for replaced, kept
# here as the reference it must agree with on orders, steps and errors.

def reference_shelling_order_for(Q, sel):
    sel = tuple(sorted(set(sel)))

    def extend(order, used):
        if len(order) == len(sel):
            return list(order)
        for fid in sel:
            if fid in used:
                continue
            ok, _ = is_partial_shelling(Q, order + [fid])
            if ok:
                used.add(fid)
                found = extend(order + [fid], used)
                if found:
                    return found
                used.remove(fid)
        return None

    for first in sel:
        found = extend([first], {first})
        if found:
            return certify(Q, found)
    raise ValueError(f"selection {sel} admits no shelling order")


def _outcome(search, Q, sel):
    try:
        return search(Q, sel)
    except ValueError as exc:
        return type(exc), str(exc)


def _agrees_with_the_search(Q, sel) -> bool:
    return _outcome(shelling_order_for, Q, sel) == _outcome(reference_shelling_order_for, Q, sel)


def test_greedy_order_matches_the_search_on_every_proper_subset():
    for Q in itertools.islice(_equivalence_polytopes(), 4):
        s = Q.num_facets
        for size in range(1, s):
            for sel in itertools.combinations(range(s), size):
                assert _agrees_with_the_search(Q, sel), (Q.vertices, sel)
        for sel in ((), tuple(range(s)), (0, s), (-1, 1), (s,), (1, 0, 1)):
            assert _agrees_with_the_search(Q, sel), (Q.vertices, sel)


def test_greedy_order_matches_the_search_on_random_hulls():
    # every sweep prefix is a disk, so each hull gives disks of every size;
    # the search is factorial on non-disks, so those stop at six facets
    rng = random.Random(4242)
    disks = others = 0
    for _ in range(40):
        Q = random_polytope(rng, span=4, max_points=12)
        s = Q.num_facets
        while True:
            try:
                sweep = line_shelling(Q, tuple(rng.randint(-9, 9) for _ in range(3)), s - 1)
                break
            except NonGenericDirection:
                continue
        for k in range(1, s):
            assert _agrees_with_the_search(Q, sweep.order[:k]), (Q.vertices, sweep.order[:k])
            disks += 1
        for size in range(2, s - 1):
            for _ in range(6):
                sel = tuple(sorted(rng.sample(range(s), size)))
                disk = is_disk(Q, sel)
                if disk or size <= 6:
                    assert _agrees_with_the_search(Q, sel), (Q.vertices, sel)
                    disks += disk
                    others += not disk
    assert disks > 600 and others > 500


# The argmin best_selection took through a closure before it became one min
# over its candidates, kept here as the reference for the choice it makes.

def reference_best_selection(Q, seed=0):
    best = None

    def consider(sel):
        nonlocal best
        score = boundary_lattice_count(Q, sel)
        key = (-score, tuple(sorted(sel)))
        if best is None or key < (-best[0], best[1]):
            best = (score, tuple(sorted(sel)))

    s = Q.num_facets
    if s <= shelling.EXHAUSTIVE_FACET_LIMIT:
        for size in range(1, s):
            for sel in itertools.combinations(range(s), size):
                if is_disk(Q, sel):
                    consider(sel)
    else:
        rng = random.Random(seed)
        drawn = 0
        while drawn < shelling._SWEEP_SAMPLES:
            direction = tuple(rng.randint(-9, 9) for _ in range(Q.dim))
            if not any(direction):
                continue
            try:
                full = line_shelling(Q, direction, s - 1)
            except NonGenericDirection:
                continue
            drawn += 1
            for k in range(1, s):
                consider(tuple(sorted(full.order[:k])))
    if best is None:
        raise ValueError("no disk selection found")
    return shelling_order_for(Q, best[1])


def test_best_selection_matches_the_closure_argmin():
    ladder = [convex_hull_with_facets(pts) for pts in (CUBE_POINTS, OCTA_POINTS)]
    ladder.append(convex_hull_with_facets(
        [p for p in itertools.product(range(3), repeat=3) if sum(p) <= 2]))
    cases = [(Q, 0) for Q in ladder]
    annulus = convex_hull_with_facets(ANNULUS_POINTS)
    cases += [(annulus, seed) for seed in range(4)]
    rng = random.Random(1818)
    hulls = 0
    while hulls < 6:
        Q = random_polytope(rng, span=5, max_points=16)
        if Q.num_facets > shelling.EXHAUSTIVE_FACET_LIMIT:
            cases.append((Q, rng.randint(0, 10**6)))
            hulls += 1
    for Q, seed in cases:
        assert best_selection(Q, seed) == reference_best_selection(Q, seed), (Q.vertices, seed)
