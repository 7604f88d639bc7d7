"""Independent oracles: cohomology of facet unions, divisor cohomology by
graded decomposition, common-root coefficient systems, and feasibility tests
in dimension four and higher.

Everything here is deliberately separate from the resolution machinery so the
two sides can check each other.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .bracket import CoefficientSystem
from .errors import InvariantViolation, NotStabilized
from .lattice import Polytope, facet_bits, point_census, points_off_facets
from .linalg import QQ, Echelon, qq
from .shelling import as_selection


@dataclass(frozen=True)
class FacetComplex:
    """Cells of a union of facets of a 3-polytope, with oriented boundaries.

    Edges are oriented from the smaller vertex id to the larger; facets by
    their stored boundary cycle.  d1[e] and d2[f] map cell positions to
    incidence signs.
    """

    vertex_ids: tuple[int, ...]
    edge_pairs: tuple[tuple[int, int], ...]
    facet_ids: tuple[int, ...]
    d1: tuple[dict, ...]
    d2: tuple[dict, ...]

    def cell_counts(self) -> tuple[int, int, int]:
        return (len(self.vertex_ids), len(self.edge_pairs), len(self.facet_ids))

    def boundary_squared_entries(self) -> int:
        """Largest |entry| of the composite boundary map; zero means d.d = 0."""
        worst = 0
        for signs2 in self.d2:
            acc: dict[int, int] = {}
            for epos, s2 in signs2.items():
                for vpos, s1 in self.d1[epos].items():
                    acc[vpos] = acc.get(vpos, 0) + s2 * s1
            worst = max([worst] + [abs(v) for v in acc.values()])
        return worst

    def reduced_betti(self) -> tuple[int, int, int]:
        r1 = Echelon(self.d1).rank
        r2 = Echelon(self.d2).rank
        nv, ne, nf = self.cell_counts()
        return (nv - 1 - r1, ne - r1 - r2, nf - r2)


def facet_complex(Q: Polytope, selection) -> FacetComplex:
    sel = as_selection(selection)
    if Q.dim != 3:
        raise ValueError("facet complexes are built from 3-polytopes")
    if not sel:
        raise ValueError("empty facet selection")
    facet_bits(Q, sel)
    chosen = set(sel)

    vertices = sorted({v for j in sel for v in Q.facets[j].vertex_ids})
    vpos = {v: p for p, v in enumerate(vertices)}
    edge_ids = [
        ei for ei, e in enumerate(Q.edges)
        if chosen.intersection(e.facet_ids)
    ]
    epos = {ei: p for p, ei in enumerate(edge_ids)}

    d1 = []
    pairs = []
    for ei in edge_ids:
        a, b = Q.edges[ei].vertex_ids
        pairs.append((a, b))
        d1.append({vpos[b]: 1, vpos[a]: -1})

    pair_to_eid = {Q.edges[ei].vertex_ids: ei for ei in edge_ids}
    d2 = []
    for j in sel:
        cycle = Q.facet_cycles[j]
        signs: dict[int, int] = {}
        for t in range(len(cycle)):
            v, w = cycle[t], cycle[(t + 1) % len(cycle)]
            key = (v, w) if v < w else (w, v)
            signs[epos[pair_to_eid[key]]] = 1 if v < w else -1
        d2.append(signs)

    complex_ = FacetComplex(tuple(vertices), tuple(pairs), sel, tuple(d1), tuple(d2))
    if complex_.boundary_squared_entries() != 0:
        raise InvariantViolation("facet complex boundaries do not square to zero")
    return complex_


def nerve_reduced_betti(Q: Polytope, selection) -> tuple[int, ...]:
    """Reduced Betti numbers of a facet union via the nerve, indices 0..dim-1.

    Facets are convex and intersect in faces, so the nerve has the homotopy
    type of the union in any dimension.
    """
    sel = as_selection(selection)
    if not sel:
        raise ValueError("empty facet selection")
    facet_bits(Q, sel)
    if len(sel) > 16:
        raise ValueError("facet selection too large for nerve enumeration")
    verts = {j: set(Q.facets[j].vertex_ids) for j in sel}

    simplices: list[list[tuple[int, ...]]] = []
    live: list[tuple[tuple[int, ...], set]] = [((j,), verts[j]) for j in sel]
    while live:
        simplices.append([s for s, _ in live])
        nxt = []
        for s, common in live:
            for j in sel:
                if j <= s[-1]:
                    continue
                shared = common & verts[j]
                if shared:
                    nxt.append((s + (j,), shared))
        live = nxt

    betti = [0] * Q.dim
    pos = [{s: p for p, s in enumerate(level)} for level in simplices]
    ranks = []
    for d in range(1, len(simplices)):
        rows = []
        for s in simplices[d]:
            row = {}
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                row[pos[d - 1][face]] = (-1) ** drop
            rows.append(row)
        ranks.append(Echelon(rows).rank)
    ranks.append(0)
    for d in range(len(simplices)):
        below = ranks[d - 1] if d >= 1 else 0
        b = len(simplices[d]) - below - ranks[d]
        if d == 0:
            b -= 1
        if d < Q.dim:
            betti[d] = b
    return tuple(betti)


def reduced_cohomology(Q: Polytope, selection) -> tuple[int, ...]:
    """Rational reduced Betti numbers of a facet union, indices 0..dim-1."""
    if Q.dim == 3:
        return facet_complex(Q, selection).reduced_betti()
    return nerve_reduced_betti(Q, selection)


@dataclass(frozen=True)
class CohomologyEntry:
    """Sheaf cohomology dimensions of one divisor twist, all degrees 0..dim."""

    k: int
    dims: tuple[int, ...]
    box_radius: int
    stabilized: bool


def divisor_cohomology(Q: Polytope, selection, k: int,
                       box_radius: int | None = None,
                       _memo: dict | None = None) -> CohomologyEntry:
    """Graded decomposition: each character contributes the reduced cohomology
    of the facet union where its divisor coefficients go negative.

    Raises NotStabilized when a nonzero contribution touches the enumeration
    box boundary; call again with a larger box_radius. A selected id that
    names no facet is a ValueError.
    """
    if Q.dim != 3:
        raise ValueError("divisor cohomology enumeration is for 3-polytopes")
    chosen = facet_bits(Q, as_selection(selection))
    coeffs = [
        k * f.offset - (chosen >> j & 1)
        for j, f in enumerate(Q.facets)
    ]
    if box_radius is None:
        scale = max(
            [abs(f.offset) for f in Q.facets]
            + [abs(c) for v in Q.vertices for c in v])
        box_radius = abs(k) * scale + 2
    if box_radius < 1:
        raise ValueError("box radius must be at least 1")

    memo = _memo if _memo is not None else {}
    dims = [0] * (Q.dim + 1)
    rng = range(-box_radius, box_radius + 1)
    normals = [f.normal for f in Q.facets]
    for u in itertools.product(rng, rng, rng):
        neg = frozenset(
            j for j, (c, eta) in enumerate(zip(coeffs, normals))
            if c + u[0] * eta[0] + u[1] * eta[1] + u[2] * eta[2] < 0)
        if neg:
            if neg not in memo:
                memo[neg] = reduced_cohomology(Q, neg)
            betti = memo[neg]
            hit = any(betti)
        else:
            betti = None
            hit = True
        if hit and max(abs(c) for c in u) == box_radius:
            raise NotStabilized(
                f"twist {k}: contribution at {u} on the box boundary "
                f"(radius {box_radius})")
        if betti is None:
            dims[0] += 1
        else:
            for i, b in enumerate(betti):
                dims[i + 1] += b
    return CohomologyEntry(k, tuple(dims), box_radius, True)


def cohomology_profile(Q: Polytope, selection, k_lo: int, k_hi: int,
                       box_radius: int | None = None) -> list[CohomologyEntry]:
    if k_lo > k_hi:
        raise ValueError("empty twist range")
    memo: dict = {}
    return [
        divisor_cohomology(Q, selection, k, box_radius=box_radius, _memo=memo)
        for k in range(k_lo, k_hi + 1)
    ]


def polynomial_value(support, coeffs, x0) -> QQ:
    """Evaluate a Laurent polynomial with the given coefficient row at x0.

    A root whose length is not the points' dimension, or a coefficient row
    whose length is not the number of points, is a ValueError.
    """
    if len(coeffs) != len(support):
        raise ValueError(
            f"{len(coeffs)} coefficients for {len(support)} support points")
    for point in support:
        if len(point) != len(x0):
            raise ValueError(
                f"point {tuple(point)} has {len(point)} coordinates, "
                f"the root {len(x0)}")
    total = qq(0)
    for point, c in zip(support, coeffs):
        term = qq(c)
        for base, e in zip(x0, point):
            term *= qq(base) ** e
        total += term
    return total


def common_root_system(support, x0, seed: int = 0) -> CoefficientSystem:
    """Four random rows, each adjusted in its last entry to vanish at x0.

    A root whose length is not the points' dimension is a ValueError.
    """
    x0 = tuple(qq(c) for c in x0)
    if any(c == 0 for c in x0):
        raise ValueError("the common root must have nonzero coordinates")
    if len(support) < 2:
        raise ValueError("need at least two support points")
    rng = random.Random(seed)
    monos = [polynomial_value([p], [1], x0) for p in support]
    rows = []
    for _ in range(4):
        head = [qq(rng.randint(-9, 9)) for _ in range(len(support) - 1)]
        solved = -sum((c * m for c, m in zip(head, monos[:-1])), qq(0)) / monos[-1]
        rows.append(tuple(head) + (solved,))
    return CoefficientSystem(tuple(rows))


def feasibility_dim4(Q: Polytope) -> tuple[bool, int | None]:
    """A 4-polytope admits the construction iff some facet sees no points of
    the interior-plus-own-relative-interior set."""
    if Q.dim != 4:
        raise ValueError("expected a 4-polytope")
    for i in range(Q.num_facets):
        others = tuple(j for j in range(Q.num_facets) if j != i)
        if not points_off_facets(Q, 1, others):
            return (True, i)
    return (False, None)


def _high_dim_scales(n: int) -> tuple[int, int]:
    return ((n + 1) // 2 - 2, (n + 2) // 2 - 2)


def feasibility_high_dim(Q: Polytope, selection) -> bool:
    """Dimension >= 5 test: two dilation point counts must both be zero.

    The selection's facet union must carry no reduced rational homology
    (checked through the nerve); being a manifold is the caller's lookout.
    """
    n = Q.dim
    if n < 5:
        raise ValueError("expected dimension at least 5")
    sel = as_selection(selection)
    if not sel or len(sel) >= Q.num_facets:
        raise ValueError("selection must be a nonempty proper facet subset")
    if any(nerve_reduced_betti(Q, sel)):
        raise ValueError("facet union carries reduced homology")
    k1, k2 = _high_dim_scales(n)
    comp = tuple(j for j in range(Q.num_facets) if j not in set(sel))
    if k1 >= 1 and points_off_facets(Q, k1, sel):
        return False
    if k2 >= 1 and points_off_facets(Q, k2, comp):
        return False
    return True


def high_dim_feasible_selection(Q: Polytope):
    """Search all proper facet subsets; return the first feasible one or None.

    Touch sets are the facet bit sets of each dilation's census, so the
    subset sweep is bit algebra rather than repeated lattice enumeration.
    """
    n = Q.dim
    if n < 5:
        raise ValueError("expected dimension at least 5")
    if Q.num_facets > 16:
        raise ValueError("facet count too large for exhaustive search")
    k1, k2 = _high_dim_scales(n)
    touches1 = point_census(Q, k1)[1] if k1 >= 1 else ()
    touches2 = point_census(Q, k2)[1] if k2 >= 1 else ()
    ids = range(Q.num_facets)
    for size in range(1, Q.num_facets):
        for sel in itertools.combinations(ids, size):
            chosen = facet_bits(Q, sel)
            if any(not t & chosen for t in touches1):
                continue
            if any(t | chosen == chosen for t in touches2):
                continue
            if any(nerve_reduced_betti(Q, sel)):
                continue
            return sel
    return None
