"""Partial shellings of 3-polytope boundaries and disk certification.

A selection of facets is usable downstream only when its union is a
topological disk. Partial shellings produce disks by construction; counts
on the boundary sphere, popcounts of per-facet vertex, edge and neighbour
masks, certify arbitrary selections. A disk's shelling order comes from
one greedy pass that never backtracks, as every partial shelling of a disk
extends; a selection that is not a disk is refused at once. Line shellings
rank facets on polar vertices scaled to integer vectors, so ties are exact.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .errors import NoDiskSelection, NonGenericDirection
from .lattice import Polytope, _dot, facet_bits, facet_ids, point_census

Selection = tuple[int, ...]


def as_selection(Q: Polytope, sel) -> Selection:
    """Sorted distinct facet ids of a selection or of anything carrying one
    (a PartialShelling, a TateWindow). Every id is checked once, by
    facet_bits: it must be an int naming a facet of Q, else ValueError."""
    return facet_ids(_bits(Q, sel))


def _bits(Q: Polytope, sel) -> int:
    return facet_bits(Q, getattr(sel, "selection", sel))


def _masks(Q: Polytope) -> tuple[list[int], list[int], list[int]]:
    """Per facet the bit sets of its vertices, its edges (bit j: Q.edges[j]) and
    the facets across them, once per polytope; they decide disks in dimension 3
    only, since from dimension 4 on Q has no edges."""
    if not Q._masks:
        edges, adjacent = [0] * Q.num_facets, [0] * Q.num_facets
        for j, e in enumerate(Q.edges):
            for a, b in (e.facet_ids, e.facet_ids[::-1]):
                edges[a] |= 1 << j
                adjacent[a] |= 1 << b
        Q._masks.update(vertices=[sum(1 << v for v in f.vertex_ids) for f in Q.facets],
                        edges=edges, adjacent=adjacent)
    return Q._masks["vertices"], Q._masks["edges"], Q._masks["adjacent"]


class ShellingStep(NamedTuple):
    """Intersection of one facet with the union of the facets before it."""

    facet_id: int
    shared_edges: tuple[tuple[int, int], ...]
    ok: bool


class PartialShelling(NamedTuple):
    order: tuple[int, ...]
    steps: tuple[ShellingStep, ...]

    @property
    def selection(self) -> Selection:
        return tuple(sorted(self.order))


def is_partial_shelling(Q: Polytope, order) -> tuple[bool, tuple[ShellingStep, ...]]:
    """Check the shelling condition step by step, returning a certificate.

    Each facet after the first must meet the union of its predecessors in
    one path of its boundary cycle. The union so far is a disk, so that
    meeting is a subgraph of the cycle, and a subgraph with an edge is one
    path exactly when it has one more vertex than edges. An order of every
    facet, or of none, is NoDiskSelection: no proper disk.
    """
    order = tuple(order)
    if len(set(order)) != len(order):
        raise ValueError("facet indices must be distinct")
    facet_bits(Q, order)
    if not 1 <= len(order) < Q.num_facets:
        raise NoDiskSelection("order must be a nonempty proper subset of the facets")

    vertices, edges, _ = _masks(Q)
    steps = [ShellingStep(order[0], (), True)]
    seen_vertices, seen_edges = vertices[order[0]], edges[order[0]]
    for fid in order[1:]:
        # an edge of fid lies in one more facet, so it is shared iff seen
        shared = edges[fid] & seen_edges
        ok = bool(shared) and (vertices[fid] & seen_vertices).bit_count() - shared.bit_count() == 1
        steps.append(ShellingStep(fid, tuple(Q.edges[j].vertex_ids for j in facet_ids(shared)), ok))
        if not ok:
            return False, tuple(steps)
        seen_vertices |= vertices[fid]
        seen_edges |= edges[fid]
    return True, tuple(steps)


def certify(Q: Polytope, order) -> PartialShelling:
    """The order with its shelling certificate, or NoDiskSelection."""
    ok, steps = is_partial_shelling(Q, order)
    if not ok:
        raise NoDiskSelection(f"order {order} is not a partial shelling (fails at facet {steps[-1].facet_id})")
    return PartialShelling(tuple(order), steps)


def euler_characteristic(Q: Polytope, sel) -> int:
    return _euler(Q, _bits(Q, sel))


def _euler(Q: Polytope, chosen: int) -> int:
    """V - E + F of the union of the facets in the bit set chosen."""
    vertices, edges, _ = _masks(Q)
    v = e = 0
    for i in facet_ids(chosen):
        v |= vertices[i]
        e |= edges[i]
    return v.bit_count() - e.bit_count() + chosen.bit_count()


def is_disk(Q: Polytope, sel) -> bool:
    """Whether the union of the selected facets is a topological disk.

    The boundary is a sphere in which every edge lies in two facets. Split
    each vertex of a union connected through shared edges into one copy per
    fan of selected facets around it. The result is a connected surface in
    the sphere with b >= 1 boundary circles, so its Euler characteristic is
    2 - b, and the union's is that minus the number of extra copies. So the
    union is a disk iff it is connected and V - E + F is one: popcounts of
    the facet masks, and connectivity a flood fill over neighbour masks.
    """
    chosen = _bits(Q, sel)
    if not 1 <= chosen.bit_count() < Q.num_facets:
        raise ValueError("selection must be a nonempty proper subset of the facets")
    return _is_disk(Q, chosen)


def _is_disk(Q: Polytope, chosen: int) -> bool:
    """is_disk on a bit set: the Euler count, then a flood fill across edges."""
    if _euler(Q, chosen) != 1:
        return False
    adjacent = _masks(Q)[2]
    reached, todo = 0, chosen & -chosen
    while todo:
        reached |= todo
        grown = 0
        for i in facet_ids(todo):
            grown |= adjacent[i]
        todo = grown & chosen & ~reached
    return reached == chosen


def boundary_lattice_count(Q: Polytope, sel) -> int:
    """Number of lattice points on the boundary cycle of the selected disk.

    The cycle is the frontier of the disk in the boundary sphere, so its
    points are the points of Q on both a selected and an unselected facet.
    """
    return _frontier(Q, _bits(Q, sel))


def _frontier(Q: Polytope, chosen: int) -> int:
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
    return certify(Q, _sweep_order(_polar_vertices(Q), direction)[:k])


def _polar_vertices(Q: Polytope) -> list[tuple[int, ...]]:
    """The polar dual's vertices, one per facet, after centering Q, each times
    one common positive factor that makes them all integer vectors.

    The vertex centroid c is interior, so facet i's polar vertex is
    normal_i / s_i with s_i = offset_i + <c, normal_i> > 0. S_i = |V| s_i is
    an integer; with L = lcm(S), the vertex times L / |V| is (L / S_i) normal_i.
    """
    total = [sum(c) for c in zip(*Q.vertices)]
    scaled = [len(Q.vertices) * f.offset + _dot(total, f.normal) for f in Q.facets]
    common = math.lcm(*scaled)
    return [tuple(common // s * c for c in f.normal) for s, f in zip(scaled, Q.facets)]


def _sweep_order(duals, direction) -> list[int]:
    """Facet ids, largest direction value on their polar vertex first; a tie raises."""
    values = [sum(d * c for d, c in zip(direction, v)) for v in duals]
    if len(set(values)) != len(values):
        raise NonGenericDirection(f"direction {tuple(direction)} ties two polar vertices")
    return sorted(range(len(duals)), key=lambda i: values[i], reverse=True)


def shelling_order_for(Q: Polytope, sel) -> PartialShelling:
    """Shelling order of a disk selection, found in one greedy pass.

    From the smallest selected facet, each step appends the smallest unused
    facet that keeps the order a partial shelling, and no step is undone:
    a facet that meets the shelled disk in more than one path encloses a
    pocket of the selection, and a facet of an innermost pocket that shares
    an edge with the disk meets it in one path. So the pass sticks only on
    a selection that is not a disk, which it refuses with NoDiskSelection.
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
        raise NoDiskSelection(f"selection {sel} admits no shelling order")
    return certify(Q, order)


EXHAUSTIVE_FACET_LIMIT = 12
_SWEEP_SAMPLES = 64  # generic sweep directions drawn above the limit


def best_selection(Q: Polytope, seed: int = 0) -> PartialShelling:
    """Disk selection maximizing the boundary lattice point count.

    With few facets the candidates are every proper subset that is a disk,
    enumerated as bit sets; otherwise they are the sweep prefixes drawn from
    the seed. The choice is one minimum over them: highest score first, ties
    to the smallest sorted index tuple. With no candidate, or outside
    dimension 3, where the disk test does not hold, it raises NoDiskSelection.
    """
    s = Q.num_facets
    if Q.dim != 3:
        candidates = ()
    elif s <= EXHAUSTIVE_FACET_LIMIT:
        candidates = (m for m in range(1, (1 << s) - 1) if _is_disk(Q, m))
    else:
        candidates = _sweep_prefixes(Q, seed)
    best = min(candidates, key=lambda m: (-_frontier(Q, m), facet_ids(m)), default=None)
    if best is None:
        raise NoDiskSelection("no disk selection found")
    return shelling_order_for(Q, facet_ids(best))


def _sweep_prefixes(Q: Polytope, seed: int):
    """Each proper prefix, as a bit set, of the facet orders of _SWEEP_SAMPLES
    generic sweep directions drawn from the seed: line shellings, hence disks;
    NonGenericDirection once every nonzero direction in [-9, 9]^3 has tied."""
    rng = random.Random(seed)
    duals = _polar_vertices(Q)
    drawn, tied = 0, set()
    while drawn < _SWEEP_SAMPLES:
        direction = tuple(rng.randint(-9, 9) for _ in range(Q.dim))
        if not any(direction) or direction in tied:
            continue
        try:
            order = _sweep_order(duals, direction)
        except NonGenericDirection:
            tied.add(direction)
            if len(tied) < 19 ** 3 - 1:
                continue
            raise NonGenericDirection("every nonzero direction in [-9, 9]^3 ties two polar vertices")
        drawn += 1
        chosen = 0
        for i in order[:-1]:
            chosen |= 1 << i
            yield chosen
