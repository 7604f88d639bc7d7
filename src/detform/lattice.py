"""Exact lattice polytope geometry: hulls, facets, faces, point enumeration.

All arithmetic is integer or exact rational; nothing here touches floats.
Points are plain integer tuples, ordered lexicographically ascending wherever
an order matters (this fixes every index used downstream). The points of kQ
are walked once per polytope and k into a census of each point with the bit
set of its facets; every point query is a filter over that census.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from operator import mul

from .errors import DegenerateSpan, EmptyInput, NoInteriorPoint, ParseError
from .linalg import QQ, Echelon, primitive_integer_vector

Point = tuple[int, ...]


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _add(u: Point, v: Point) -> Point:
    return tuple(a + b for a, b in zip(u, v))


def _sub(u: Point, v: Point) -> Point:
    return tuple(a - b for a, b in zip(u, v))


def affine_rank(points: list[Point]) -> int:
    """Dimension of the affine span of the given integer points."""
    if not points:
        return -1
    base = points[0]
    return Echelon(dict(enumerate(_sub(p, base))) for p in points[1:]).rank


@dataclass(frozen=True)
class Facet:
    """One facet inequality <m, normal> >= -offset plus its vertex set."""

    normal: Point
    offset: int
    vertex_ids: tuple[int, ...]


@dataclass(frozen=True)
class Edge:
    vertex_ids: tuple[int, int]
    facet_ids: tuple[int, int]


@dataclass(frozen=True)
class Polytope:
    """Full-dimensional lattice polytope with its facet and face data.

    Facets are sorted by (normal, offset); vertices lexicographically. In
    dimension 3 the edge list is populated, each edge with its two facets.
    """

    dim: int
    points: tuple[Point, ...]
    vertices: tuple[Point, ...]
    facets: tuple[Facet, ...]
    edges: tuple[Edge, ...] = field(default=())
    _census: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _faces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    def facet_index(self, normal: Point) -> int:
        """Index of the facet with the given primitive inner normal."""
        for i, f in enumerate(self.facets):
            if f.normal == tuple(normal):
                return i
        raise KeyError(f"no facet with normal {normal}")


def convex_hull_with_facets(points) -> Polytope:
    """Exact convex hull of integer points, with facet inequalities and faces.

    Facet normals are found by enumerating hyperplanes spanned by point
    subsets and keeping the supporting ones; this is exact and adequate for
    the point-set sizes in scope, in any ambient dimension.
    """
    pts = sorted(set(tuple(int(c) for c in p) for p in points))
    if not pts:
        raise EmptyInput("no points given")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise ParseError(f"mixed point dimensions {sorted(dims)}")
    n = dims.pop()
    if affine_rank(pts) < n:
        raise DegenerateSpan(f"points span a flat of dimension {affine_rank(pts)} < {n}")

    seen: dict[tuple[Point, int], None] = {}
    for subset in itertools.combinations(range(len(pts)), n):
        base = pts[subset[0]]
        ech = Echelon(dict(enumerate(_sub(pts[i], base))) for i in subset[1:])
        free = ech.free_columns(n)
        if len(free) != 1:
            continue
        kernel = primitive_integer_vector(ech.kernel_vector(free[0]))
        normal = tuple(kernel.get(j, 0) for j in range(n))
        level = _dot(base, normal)
        lo = hi = False
        for p in pts:
            d = _dot(p, normal)
            if d < level:
                lo = True
            elif d > level:
                hi = True
            if lo and hi:
                break
        if lo and hi:
            continue
        if lo:
            normal = tuple(-c for c in normal)
            level = -level
        seen.setdefault((normal, -level), None)

    verts_on: dict[tuple[Point, int], list[int]] = {}
    facet_keys = sorted(seen)
    point_facets: list[list[int]] = [[] for _ in pts]
    for fi, (normal, offset) in enumerate(facet_keys):
        on = [i for i, p in enumerate(pts) if _dot(p, normal) == -offset]
        verts_on[(normal, offset)] = on
        for i in on:
            point_facets[i].append(fi)

    vertex_ids = [
        i for i, fids in enumerate(point_facets)
        if len(fids) >= n and Echelon(dict(enumerate(facet_keys[f][0])) for f in fids).rank == n
    ]
    vertices = tuple(pts[i] for i in vertex_ids)
    vid_of = {pts[i]: k for k, i in enumerate(vertex_ids)}

    facets = tuple(
        Facet(normal, offset,
              tuple(sorted(vid_of[pts[i]] for i in verts_on[(normal, offset)] if pts[i] in vid_of)))
        for normal, offset in facet_keys
    )

    edges = _build_face_complex(facets) if n == 3 else ()
    return Polytope(n, tuple(pts), vertices, facets, edges)


def _build_face_complex(facets: tuple[Facet, ...]) -> tuple[Edge, ...]:
    """Edges (ridges) of a 3-polytope, each with its two facets. Every facet
    must be a simple polygon: each of its vertices on exactly two of its edges."""
    pair_to_facets: dict[tuple[int, int], list[int]] = {}
    for fi, fj in itertools.combinations(range(len(facets)), 2):
        common = sorted(set(facets[fi].vertex_ids) & set(facets[fj].vertex_ids))
        if len(common) == 2:
            pair_to_facets.setdefault((common[0], common[1]), []).append(fi)
            pair_to_facets[(common[0], common[1])].append(fj)
    edges = []
    for pair in sorted(pair_to_facets):
        incident = sorted(set(pair_to_facets[pair]))
        if len(incident) != 2:
            raise DegenerateSpan(f"ridge {pair} lies in {len(incident)} facets")
        edges.append(Edge(pair, (incident[0], incident[1])))

    on_edges = Counter((fi, v) for e in edges for fi in e.facet_ids for v in e.vertex_ids)
    for fi, facet in enumerate(facets):
        for v in facet.vertex_ids:
            if on_edges[fi, v] != 2:
                raise DegenerateSpan(f"facet {fi} is not a simple polygon at vertex {v}")
    return tuple(edges)


def point_census(Q: Polytope, k: int) -> tuple[tuple[Point, ...], tuple[int, ...]]:
    """Points of k*Q in lexicographic order, and per point the bit set of the
    facets it lies on (bit i for facet i). Walked once per polytope and k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k not in Q._census:
        Q._census[k] = _column_walk(Q, k)
    return Q._census[k]


def lattice_points_scaled(Q: Polytope, k: int) -> list[Point]:
    """All integer points of k*Q in lexicographic ascending order."""
    return list(point_census(Q, k)[0])


def facet_bits(Q: Polytope, ids) -> int:
    """Bit set of the given facet ids, bit i for facet i, in the census's
    encoding. This is the one check of facet ids: an id that is not an int
    (a bool or a float is not) or names no facet of Q is a ValueError."""
    bits, bad = 0, set()
    for i in ids:
        if type(i) is not int:
            raise ValueError(f"facet id {i!r} is not an integer")
        if 0 <= i < Q.num_facets:
            bits |= 1 << i
        else:
            bad.add(i)
    if bad:
        raise ValueError(f"facet ids out of range 0..{Q.num_facets - 1}: {sorted(bad)}")
    return bits


def points_off_facets(Q: Polytope, k: int, selection) -> list[Point]:
    """Integer points of k*Q lying on none of the selected facets."""
    mask = facet_bits(Q, selection)
    points, bits = point_census(Q, k)
    return [m for m, b in zip(points, bits) if not b & mask]


def interior_points(Q: Polytope, k: int) -> list[Point]:
    """Integer points strictly inside k*Q."""
    points, bits = point_census(Q, k)
    return [m for m, b in zip(points, bits) if not b]


def _column_walk(Q: Polytope, k: int) -> tuple[tuple[Point, ...], tuple[int, ...]]:
    # Over each prefix of the other coordinates, facet i reads a*t >= r in the
    # last one: a lower (a > 0) or upper (a < 0) bound on t, tight only at r/a;
    # for a = 0 it keeps the whole column (tight on it if r = 0) or none of it.
    box = [range(k * min(c), k * max(c) + 1) for c in zip(*Q.vertices)]
    cuts = [(f.normal[:-1], f.normal[-1], -k * f.offset, 1 << i) for i, f in enumerate(Q.facets)]
    points, bits = [], []
    for prefix in itertools.product(*box[:-1]):
        lo, hi, whole, tight = box[-1][0], box[-1][-1], 0, {}
        for head, a, bound, bit in cuts:
            r = bound - _dot(prefix, head)
            if a == 0:
                if r > 0:
                    break
                whole |= bit if r == 0 else 0
                continue
            q, rem = divmod(r, a)
            if rem == 0:
                tight[q] = tight.get(q, 0) | bit
            if a > 0:
                lo = max(lo, q + (rem != 0))
            else:
                hi = min(hi, q)
        else:
            for t in range(lo, hi + 1):
                points.append(prefix + (t,))
                bits.append(whole | tight.get(t, 0))
    return tuple(points), tuple(bits)


def interior_rational_point(Q: Polytope) -> tuple:
    """Canonical strictly interior point: the vertex centroid."""
    n = len(Q.vertices)
    return tuple(QQ(sum(v[j] for v in Q.vertices), n) for j in range(Q.dim))


def polar_dual_vertices(Q: Polytope) -> list[tuple]:
    """Vertices of the polar dual, one per facet, after centering Q.

    Q is translated by its vertex centroid so the origin is interior; the
    vertex dual to facet i is normal_i / (offset_i + <centroid, normal_i>).
    """
    t = interior_rational_point(Q)
    out = []
    for f in Q.facets:
        shifted = QQ(f.offset) + sum(QQ(tc) * nc for tc, nc in zip(t, f.normal))
        if shifted <= 0:
            raise NoInteriorPoint("centroid is not strictly interior")
        out.append(tuple(QQ(c) / shifted for c in f.normal))
    return out


def translate(Q: Polytope, v) -> Polytope:
    """Hull of the translated point set."""
    return convex_hull_with_facets([_add(p, tuple(v)) for p in Q.points])


def parse_support(text: str) -> list[Point]:
    """Parse a support file: one point per line, '#' comments, blanks skipped."""
    points: list[Point] = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            pt = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(f"line {lineno}: expected whitespace-separated integers")
        if dim is None:
            dim = len(pt)
        elif len(pt) != dim:
            raise ParseError(f"line {lineno}: point has {len(pt)} coordinates, expected {dim}")
        points.append(pt)
    if not points:
        raise EmptyInput("support file contains no points")
    return points

