"""Shelling certification, disk tests, and selection search."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from detform import shelling
from detform.errors import NoDiskSelection, NonGenericDirection
from detform.lattice import convex_hull_with_facets, parse_support
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

from conftest import (
    ANNULUS,
    ANNULUS_POINTS,
    BALL3_PATH,
    CUBE_POINTS,
    OCTA_POINTS,
    facet_index,
    random_polytope,
    time_limit,
)

SIMPLEX_POINTS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_cube_strip_is_shelling(cube):
    x0, y0, x1 = (facet_index(cube, n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0)])
    ok, steps = is_partial_shelling(cube, (x0, y0, x1))
    assert ok
    assert steps[0].shared_edges == ()
    assert len(steps[1].shared_edges) == 1
    assert len(steps[2].shared_edges) == 1


def test_cube_opposite_pair_fails(cube):
    z0, z1 = facet_index(cube, (0, 0, 1)), facet_index(cube, (0, 0, -1))
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
    strip = [facet_index(cube, n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0)]]
    assert is_disk(cube, strip)
    assert not is_disk(cube, [facet_index(cube, (0, 0, 1)), facet_index(cube, (0, 0, -1))])
    # four facets wrapping around the cube form an annulus
    ring = [facet_index(cube, n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]]
    assert not is_disk(cube, ring)
    assert euler_characteristic(cube, ring) == 0


def test_is_disk_vertex_contact(octahedron):
    # facets with inner normals (1,1,1) and (-1,-1,1) meet only at a vertex
    pair = [facet_index(octahedron, (1, 1, 1)), facet_index(octahedron, (-1, -1, 1))]
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
    strip = [facet_index(cube, n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0)]]
    corner = [facet_index(cube, n) for n in [(1, 0, 0), (0, 1, 0), (0, 0, -1)]]
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


# The Fraction polar vertices the sweep ranked facets by before it ranked
# them by integer multiples, kept here as the reference for its order and ties.

def fraction_polar_vertices(Q):
    """normal_i / (offset_i + <c, normal_i>) per facet, c the vertex centroid."""
    t = [Fraction(sum(c), len(Q.vertices)) for c in zip(*Q.vertices)]
    out = []
    for f in Q.facets:
        shifted = f.offset + sum(tc * nc for tc, nc in zip(t, f.normal))
        assert shifted > 0, "centroid is not strictly interior"
        out.append(tuple(Fraction(c) / shifted for c in f.normal))
    return out


def reference_sweep_order(duals, direction):
    """Facet ids by the direction's value on their polar vertex, largest
    first, or None when two values tie."""
    values = [sum(d * c for d, c in zip(direction, v)) for v in duals]
    if len(set(values)) != len(values):
        return None
    return sorted(range(len(duals)), key=lambda i: values[i], reverse=True)


def test_sweep_order_matches_the_fraction_polar_vertices():
    rng = random.Random(6174)
    polytopes = [convex_hull_with_facets(pts) for pts in (CUBE_POINTS, OCTA_POINTS, ANNULUS_POINTS)]
    while len(polytopes) < 15:
        Q = random_polytope(rng, span=5, max_points=16)
        if Q.num_facets > shelling.EXHAUSTIVE_FACET_LIMIT:
            polytopes.append(Q)
    orders = ties = 0
    for Q in polytopes:
        s, duals = Q.num_facets, fraction_polar_vertices(Q)
        directions = [d for d in itertools.product(range(-2, 3), repeat=3) if any(d)]
        directions += [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(60)]
        for direction in directions:
            want = reference_sweep_order(duals, direction)
            try:
                got = line_shelling(Q, direction, s - 1).order
            except NonGenericDirection as exc:
                assert want is None, (Q.vertices, direction)
                assert str(exc) == f"direction {direction} ties two polar vertices"
                ties += 1
                continue
            assert got == tuple(want[:-1]), (Q.vertices, direction)
            orders += 1
    assert orders > 1000 and ties > 500


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
    ring = [facet_index(cube, n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]]
    ok, steps = is_partial_shelling(cube, ring)
    assert not ok
    assert [st.ok for st in steps] == [True, True, True, False]
    shared = steps[3].shared_edges
    assert len(shared) == 2 and not set(shared[0]) & set(shared[1])
    assert reference_shelling(cube, ring)[0] is False


def test_every_refusal_of_a_disk_is_a_no_disk_selection(cube, monkeypatch):
    # the four places the library finds no disk or no order of one; each
    # is still a ValueError for callers that catch that. V - E + F = 1 over
    # edges marks a disk on a 3-polytope boundary only, so best_selection
    # refuses any other dimension without searching: the 5-dimensional
    # cross-polytope's 32 facets are past the enumeration, and no direction
    # in [-9, 9]^5 sweeps it without a tie, so a sweep would draw forever
    simplex4 = convex_hull_with_facets([(0, 0, 0, 0)] + [
        tuple(int(i == j) for j in range(4)) for i in range(4)])
    cross5 = convex_hull_with_facets([(0,) * 5] + [
        tuple(s * (i == j) for j in range(5)) for i in range(5) for s in (1, -1)])
    assert cross5.num_facets == 32
    monkeypatch.setattr(shelling, "_sweep_prefixes", None)
    sides = [facet_index(cube, n) for n in [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]]
    top, bottom = facet_index(cube, (0, 0, 1)), facet_index(cube, (0, 0, -1))
    for refuse, message in [
        (lambda: best_selection(simplex4), "no disk selection found"),
        (lambda: best_selection(cross5), "no disk selection found"),
        (lambda: shelling_order_for(cube, (top, bottom)),
         f"selection {tuple(sorted((top, bottom)))} admits no shelling order"),
        (lambda: is_partial_shelling(cube, range(6)),
         "order must be a nonempty proper subset of the facets"),
        (lambda: certify(cube, sides),
         f"order {sides} is not a partial shelling (fails at facet {sides[3]})"),
    ]:
        with time_limit(10), pytest.raises(NoDiskSelection) as caught:
            refuse()
        assert isinstance(caught.value, ValueError) and str(caught.value) == message


# The depth-first search the greedy pass in shelling_order_for replaced, kept
# here as the reference it must agree with on orders, steps and errors,
# the type of each error included.

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
    raise NoDiskSelection(f"selection {sel} admits no shelling order")


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


def test_the_sweep_ends_once_every_direction_has_tied(monkeypatch):
    # no nonzero direction in [-9, 9]^3 is generic on the radius-3 ball: each
    # of the 19^3 - 1 is evaluated once, then the search is refused
    ball = convex_hull_with_facets(parse_support(BALL3_PATH.read_text()))
    assert ball.num_facets == 56
    evaluated, order = [], shelling._sweep_order

    def sweep_order(duals, direction):
        evaluated.append(direction)
        return order(duals, direction)

    monkeypatch.setattr(shelling, "_sweep_order", sweep_order)
    with time_limit(10), pytest.raises(NonGenericDirection) as caught:
        best_selection(ball, seed=3)
    assert str(caught.value) == "every nonzero direction in [-9, 9]^3 ties two polar vertices"
    assert len(evaluated) == len(set(evaluated)) == 19 ** 3 - 1


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


# The edge walk is_disk made before selections became bit sets, and the
# exhaustive search best_selection ran over it, kept here as the references
# the masks must agree with.

def edge_walk_is_disk(Q, sel) -> bool:
    chosen = set(sel)
    edges = {e.vertex_ids: [f for f in e.facet_ids if f in chosen] for e in Q.edges}
    edges = {pair: hits for pair, hits in edges.items() if hits}
    verts = {v for i in sel for v in Q.facets[i].vertex_ids}
    if len(verts) - len(edges) + len(sel) != 1:
        return False
    adj = {i: set() for i in sel}
    for hits in edges.values():
        if len(hits) == 2:
            adj[hits[0]].add(hits[1])
            adj[hits[1]].add(hits[0])
    todo, reached = [sel[0]], {sel[0]}
    while todo:
        for nb in adj[todo.pop()]:
            if nb not in reached:
                reached.add(nb)
                todo.append(nb)
    return len(reached) == len(sel)


def edge_walk_best_selection(Q):
    s = Q.num_facets
    disks = [sel for size in range(1, s) for sel in itertools.combinations(range(s), size)
             if edge_walk_is_disk(Q, sel)]
    best = min(disks, key=lambda sel: (-boundary_lattice_count(Q, sel), sel))
    return shelling_order_for(Q, best)


def test_masks_match_the_edge_walk_on_every_subset():
    twelve = convex_hull_with_facets([(0, 1, 2), (2, 0, 2), (2, 4, 4), (3, 3, 0),
                                      (3, 3, 4), (3, 4, 0), (4, 1, 0), (4, 3, 4)])
    assert twelve.num_facets == shelling.EXHAUSTIVE_FACET_LIMIT
    disks = 0
    for points in (SIMPLEX_POINTS, CUBE_POINTS, OCTA_POINTS):
        Q = convex_hull_with_facets(points)
        for size in range(1, Q.num_facets):
            for sel in itertools.combinations(range(Q.num_facets), size):
                disk = is_disk(Q, sel)
                assert disk == edge_walk_is_disk(Q, sel), (points, sel)
                disks += disk
        assert best_selection(Q) == edge_walk_best_selection(Q)
    for mask in range(1, (1 << 12) - 1):
        sel = tuple(i for i in range(12) if mask >> i & 1)
        disk = is_disk(twelve, sel)
        assert disk == edge_walk_is_disk(twelve, sel), sel
        disks += disk
    assert best_selection(twelve) == edge_walk_best_selection(twelve)
    assert disks > 800
