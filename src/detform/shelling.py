"""Partial shellings of 3-polytope boundaries and disk certification.

A selection of facets is usable downstream only when its union is a
topological disk. Partial shellings produce disks by construction; the
four-condition combinatorial test certifies arbitrary selections.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd

from .errors import NonGenericDirection
from .lattice import Polytope, polar_dual_vertices

Selection = tuple[int, ...]


def as_selection(sel) -> Selection:
    """Sorted distinct facet ids of a selection or of anything carrying one."""
    return tuple(sorted(set(int(i) for i in getattr(sel, "selection", sel))))


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

    Each facet after the first must meet the union of its predecessors in a
    nonempty connected set of whole edges: at least one shared edge, no
    stray shared vertex outside those edges, and the shared edges connected.
    """
    order = tuple(order)
    if len(set(order)) != len(order):
        raise ValueError("facet indices must be distinct")
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
        covered = {v for e in shared_edges for v in e}
        shared_vertices = set(facet.vertex_ids) & seen_vertices
        ok = bool(shared_edges) and shared_vertices == covered and _edges_connected(shared_edges)
        steps.append(ShellingStep(fid, shared_edges, ok))
        if not ok:
            return False, tuple(steps)
        seen_vertices |= set(facet.vertex_ids)
        seen_facets.add(fid)
    return True, tuple(steps)


def _edges_connected(edges) -> bool:
    if not edges:
        return False
    todo = [edges[0]]
    reached = {edges[0]}
    while todo:
        a = set(todo.pop())
        for e in edges:
            if e not in reached and a & set(e):
                reached.add(e)
                todo.append(e)
    return len(reached) == len(edges)


def certify(Q: Polytope, order) -> PartialShelling:
    ok, steps = is_partial_shelling(Q, order)
    if not ok:
        raise ValueError(f"order {order} is not a partial shelling (fails at facet {steps[-1].facet_id})")
    return PartialShelling(tuple(order), steps)


def boundary_edges(Q: Polytope, sel) -> list[tuple[int, int]]:
    """Edges of the subcomplex lying in exactly one selected facet."""
    return [e for e, hits in _selected_edges(Q, sel).items() if len(hits) == 1]


def euler_characteristic(Q: Polytope, sel) -> int:
    edges = _selected_edges(Q, sel)
    verts = {v for i in sel for v in Q.facets[i].vertex_ids}
    return len(verts) - len(edges) + len(set(sel))


def is_disk(Q: Polytope, sel) -> bool:
    """Whether the union of the selected facets is a topological disk.

    Tests, in order: facet adjacency connectivity, every edge in at most two
    selected facets, Euler characteristic one, and boundary edges forming a
    single closed cycle. All four together characterize disks here.
    """
    sel = tuple(sorted(set(sel)))
    if not 1 <= len(sel) < Q.num_facets:
        raise ValueError("selection must be a nonempty proper subset of the facets")
    edges = _selected_edges(Q, sel)
    if any(len(hits) > 2 for hits in edges.values()):
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
    if len(reached) != len(sel):
        return False

    if euler_characteristic(Q, sel) != 1:
        return False

    bdry = [e for e, hits in edges.items() if len(hits) == 1]
    if not bdry:
        return False
    degree: dict[int, int] = {}
    for a, b in bdry:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    if any(d != 2 for d in degree.values()):
        return False
    return _edges_connected(tuple(bdry))


def boundary_lattice_count(Q: Polytope, sel) -> int:
    """Number of lattice points on the boundary cycle of the selected disk.

    Each boundary edge from vertex a to b carries gcd(b - a) lattice steps;
    summing over the closed cycle counts every boundary point exactly once.
    """
    total = 0
    for a, b in boundary_edges(Q, sel):
        va, vb = Q.vertices[a], Q.vertices[b]
        g = 0
        for x, y in zip(va, vb):
            g = gcd(g, y - x)
        total += abs(g) if g else 0
    return total


def line_shelling(Q: Polytope, direction, k: int) -> PartialShelling:
    """First k facets in the order induced by a generic sweep direction.

    Facets are ranked by the value of the direction functional on their
    polar dual vertices, largest first. A tie between any two polar
    vertices means the direction is not generic.
    """
    if not 1 <= k < Q.num_facets:
        raise ValueError("k must satisfy 1 <= k < number of facets")
    duals = polar_dual_vertices(Q)
    values = [sum(d * c for d, c in zip(direction, v)) for v in duals]
    if len(set(values)) != len(values):
        raise NonGenericDirection(f"direction {tuple(direction)} ties two polar vertices")
    ranked = sorted(range(Q.num_facets), key=lambda i: values[i], reverse=True)
    return certify(Q, ranked[:k])


def shelling_order_for(Q: Polytope, sel) -> PartialShelling:
    """Find a shelling order of a disk selection by depth-first search.

    Facets are tried in ascending index, so the first order found is
    canonical. Disks in dimension two always admit one.
    """
    sel = tuple(sorted(set(sel)))

    def extend(order: list[int], used: set[int]):
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


EXHAUSTIVE_FACET_LIMIT = 12
_SWEEP_SAMPLES = 64  # generic sweep directions drawn above the limit


def best_selection(Q: Polytope, seed: int = 0) -> PartialShelling:
    """Disk selection maximizing the boundary lattice point count.

    With few facets every proper subset is tested; otherwise random sweep
    directions are drawn from the seed and every prefix of each induced
    order is scored. Ties go to the smallest sorted index tuple.
    """
    best: tuple[int, Selection] | None = None

    def consider(sel: Selection):
        nonlocal best
        score = boundary_lattice_count(Q, sel)
        key = (-score, tuple(sorted(sel)))
        if best is None or key < (-best[0], best[1]):
            best = (score, tuple(sorted(sel)))

    s = Q.num_facets
    if s <= EXHAUSTIVE_FACET_LIMIT:
        for size in range(1, s):
            for sel in itertools.combinations(range(s), size):
                if is_disk(Q, sel):
                    consider(sel)
    else:
        rng = random.Random(seed)
        drawn = 0
        while drawn < _SWEEP_SAMPLES:
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
