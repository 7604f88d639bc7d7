"""Partial shellings of 3-polytope boundaries and disk certification.

A selection of facets is usable downstream only when its union is a
topological disk. Partial shellings produce disks by construction; counts
on the boundary sphere certify arbitrary selections. A disk's shelling
order comes from one greedy pass that never backtracks, as every partial
shelling of a disk extends; a selection that is not a disk is refused at once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import NonGenericDirection
from .lattice import Polytope, facet_bits, point_census, polar_dual_vertices

Selection = tuple[int, ...]


def as_selection(Q: Polytope, sel) -> Selection:
    """Sorted distinct facet ids of a selection or of anything carrying one
    (a PartialShelling, a TateWindow). Every id is checked once, by
    facet_bits: it must be an int naming a facet of Q, else ValueError."""
    bits = facet_bits(Q, getattr(sel, "selection", sel))
    return tuple(i for i in range(Q.num_facets) if bits >> i & 1)


@dataclass(frozen=True)
class ShellingStep:
    """Intersection of one facet with the union of the facets before it."""

    facet_id: int
    shared_edges: tuple[tuple[int, int], ...]
    ok: bool


@dataclass(frozen=True)
class PartialShelling:
    order: tuple[int, ...]
    steps: tuple[ShellingStep, ...]

    @property
    def selection(self) -> Selection:
        return tuple(sorted(self.order))


def _selected_edges(Q: Polytope, sel) -> dict[tuple[int, int], list[int]]:
    """Edges of the subcomplex, each with the selected facets containing it."""
    chosen = set(sel)
    out: dict[tuple[int, int], list[int]] = {}
    for e in Q.edges:
        hits = [f for f in e.facet_ids if f in chosen]
        if hits:
            out[e.vertex_ids] = hits
    return out


def is_partial_shelling(Q: Polytope, order) -> tuple[bool, tuple[ShellingStep, ...]]:
    """Check the shelling condition step by step, returning a certificate.

    Each facet after the first must meet the union of its predecessors in
    one path of its boundary cycle. The union so far is a disk, so that
    meeting is a subgraph of the cycle, and a subgraph with an edge is one
    path exactly when it has one more vertex than edges.
    """
    order = tuple(order)
    if len(set(order)) != len(order):
        raise ValueError("facet indices must be distinct")
    facet_bits(Q, order)
    if not 1 <= len(order) < Q.num_facets:
        raise ValueError("order must be a nonempty proper subset of the facets")

    steps = [ShellingStep(order[0], (), True)]
    seen_vertices = set(Q.facets[order[0]].vertex_ids)
    seen_facets = {order[0]}
    for fid in order[1:]:
        facet = Q.facets[fid]
        shared_edges = tuple(
            e.vertex_ids for e in Q.edges
            if fid in e.facet_ids and (set(e.facet_ids) - {fid}) & seen_facets
        )
        shared_vertices = set(facet.vertex_ids) & seen_vertices
        ok = bool(shared_edges) and len(shared_vertices) - len(shared_edges) == 1
        steps.append(ShellingStep(fid, shared_edges, ok))
        if not ok:
            return False, tuple(steps)
        seen_vertices |= set(facet.vertex_ids)
        seen_facets.add(fid)
    return True, tuple(steps)


def certify(Q: Polytope, order) -> PartialShelling:
    ok, steps = is_partial_shelling(Q, order)
    if not ok:
        raise ValueError(f"order {order} is not a partial shelling (fails at facet {steps[-1].facet_id})")
    return PartialShelling(tuple(order), steps)


def euler_characteristic(Q: Polytope, sel) -> int:
    sel = as_selection(Q, sel)
    edges = _selected_edges(Q, sel)
    verts = {v for i in sel for v in Q.facets[i].vertex_ids}
    return len(verts) - len(edges) + len(sel)


def is_disk(Q: Polytope, sel) -> bool:
    """Whether the union of the selected facets is a topological disk.

    The boundary is a sphere in which every edge lies in two facets. Split
    each vertex of a union connected through shared edges into one copy per
    fan of selected facets around it. The result is a connected surface in
    the sphere with b >= 1 boundary circles, so its Euler characteristic is
    2 - b, and the union's is that minus the number of extra copies. So the
    union is a disk iff it is connected and V - E + F is one.
    """
    sel = as_selection(Q, sel)
    if not 1 <= len(sel) < Q.num_facets:
        raise ValueError("selection must be a nonempty proper subset of the facets")
    edges = _selected_edges(Q, sel)
    verts = {v for i in sel for v in Q.facets[i].vertex_ids}
    if len(verts) - len(edges) + len(sel) != 1:
        return False

    adj = {i: set() for i in sel}
    for hits in edges.values():
        if len(hits) == 2:
            a, b = hits
            adj[a].add(b)
            adj[b].add(a)
    todo, reached = [sel[0]], {sel[0]}
    while todo:
        for nb in adj[todo.pop()]:
            if nb not in reached:
                reached.add(nb)
                todo.append(nb)
    return len(reached) == len(sel)


def boundary_lattice_count(Q: Polytope, sel) -> int:
    """Number of lattice points on the boundary cycle of the selected disk.

    The cycle is the frontier of the disk in the boundary sphere, so its
    points are the points of Q on both a selected and an unselected facet.
    """
    chosen = facet_bits(Q, as_selection(Q, sel))
    return sum(1 for b in point_census(Q, 1)[1] if b & chosen and b & ~chosen)


def line_shelling(Q: Polytope, direction, k: int) -> PartialShelling:
    """First k facets in the order induced by a generic sweep direction.

    Facets are ranked by the value of the direction functional on their
    polar dual vertices, largest first. A tie between any two polar
    vertices means the direction is not generic. Components and k must be
    ints (a bool or a float is not), so the ranking and the tie test are
    exact and k counts facets.
    """
    if type(k) is not int or not 1 <= k < Q.num_facets:
        raise ValueError(f"k must be an int satisfying 1 <= k < number of facets, got {k!r}")
    if len(direction) != Q.dim:
        raise ValueError(f"direction has {len(direction)} coordinates, expected {Q.dim}")
    if any(type(c) is not int for c in direction):
        raise ValueError(f"direction {tuple(direction)} has a component that is not an integer")
    duals = polar_dual_vertices(Q)
    values = [sum(d * c for d, c in zip(direction, v)) for v in duals]
    if len(set(values)) != len(values):
        raise NonGenericDirection(f"direction {tuple(direction)} ties two polar vertices")
    ranked = sorted(range(Q.num_facets), key=lambda i: values[i], reverse=True)
    return certify(Q, ranked[:k])


def shelling_order_for(Q: Polytope, sel) -> PartialShelling:
    """Shelling order of a disk selection, found in one greedy pass.

    From the smallest selected facet, each step appends the smallest unused
    facet that keeps the order a partial shelling, and no step is undone:
    a facet that meets the shelled disk in more than one path encloses a
    pocket of the selection, and a facet of an innermost pocket that shares
    an edge with the disk meets it in one path. So the pass sticks only on
    a selection that is not a disk.
    """
    sel = as_selection(Q, sel)
    order, rest = list(sel[:1]), list(sel[1:])
    while rest:
        step = next((f for f in rest if is_partial_shelling(Q, order + [f])[0]), None)
        if step is None:
            break
        order.append(step)
        rest.remove(step)
    if rest or not order:
        raise ValueError(f"selection {sel} admits no shelling order")
    return certify(Q, order)


EXHAUSTIVE_FACET_LIMIT = 12
_SWEEP_SAMPLES = 64  # generic sweep directions drawn above the limit


def best_selection(Q: Polytope, seed: int = 0) -> PartialShelling:
    """Disk selection maximizing the boundary lattice point count.

    With few facets the candidates are every proper subset that is a disk;
    otherwise they are the sweep prefixes drawn from the seed. The choice
    is one minimum over them: highest score first, ties to the smallest
    sorted index tuple.
    """
    s = Q.num_facets
    if s <= EXHAUSTIVE_FACET_LIMIT:
        candidates = (sel for size in range(1, s)
                      for sel in itertools.combinations(range(s), size) if is_disk(Q, sel))
    else:
        candidates = _sweep_prefixes(Q, seed)
    best = min(candidates, key=lambda sel: (-boundary_lattice_count(Q, sel), sel), default=None)
    if best is None:
        raise ValueError("no disk selection found")
    return shelling_order_for(Q, best)


def _sweep_prefixes(Q: Polytope, seed: int):
    """Each proper prefix, sorted, of the facet orders of _SWEEP_SAMPLES
    generic sweep directions drawn from the seed."""
    rng = random.Random(seed)
    drawn = 0
    while drawn < _SWEEP_SAMPLES:
        direction = tuple(rng.randint(-9, 9) for _ in range(Q.dim))
        if not any(direction):
            continue
        try:
            full = line_shelling(Q, direction, Q.num_facets - 1)
        except NonGenericDirection:
            continue
        drawn += 1
        for k in range(1, Q.num_facets):
            yield tuple(sorted(full.order[:k]))
