"""Exact lattice polytope geometry: hulls, facets, faces, point enumeration.

All arithmetic is in integers; nothing here touches floats or Fractions.
Points are plain integer tuples, ordered lexicographically ascending wherever
an order matters (this fixes every index used downstream). Facet normals are
integer cofactors, and incidences are bit sets. The points of kQ, each with
the bit set of its facets, are walked once per polytope and k into a census
that every point query filters. The walk visits only the columns over kQ's
shadow, cut out by the vertical facets and, in dimension 3, by the edges
between a lower and an upper facet, and takes one interval per column.
column_runs cuts the columns of a cube into runs that violate the same
half-spaces; it serves verify.divisor_cohomology only.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import NamedTuple

from .errors import DegenerateSpan, EmptyInput, ParseError
from .linalg import Echelon
from .record import Frozen

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


class Facet(NamedTuple):
    """One facet inequality <m, normal> >= -offset plus its vertex set."""

    normal: Point
    offset: int
    vertex_ids: tuple[int, ...]


class Edge(NamedTuple):
    vertex_ids: tuple[int, int]
    facet_ids: tuple[int, int]


class Polytope(Frozen):
    """Full-dimensional lattice polytope with its facet and face data.

    Facets are sorted by (normal, offset); vertices lexicographically. In
    dimension 3 the edge list is populated, each edge with its two facets.
    _census, _faces and _masks are per-polytope memos, filled on demand and
    left out of equality and hashing.
    """

    __slots__ = ("dim", "points", "vertices", "facets", "edges", "_census", "_faces", "_masks")
    _fields = ("dim", "points", "vertices", "facets", "edges")

    def __init__(self, dim: int, points: tuple[Point, ...], vertices: tuple[Point, ...],
                 facets: tuple[Facet, ...], edges: tuple[Edge, ...] = ()):
        for name, value in zip(self.__slots__, (dim, points, vertices, facets, edges, {}, {}, {})):
            object.__setattr__(self, name, value)

    @property
    def num_facets(self) -> int:
        return len(self.facets)


def convex_hull_with_facets(points) -> Polytope:
    """Exact convex hull of integer points, with facet inequalities and faces.

    Every n-subset of the points spans a hyperplane, or none; its normal is
    the vector of signed maximal minors of the differences (integer
    cofactors, the cross product in dimension 3) divided by their gcd. The
    supporting ones are the facets. A point's facets form a bit set, and a
    point is a vertex iff no other point's set contains its own: a point
    inside a face G has exactly G's facets, which every vertex of G lies on,
    while the facets through a vertex meet in that vertex alone. A
    coordinate that is not an int (a bool, a float or a string is not) is
    a ParseError.
    """
    pts = [tuple(p) for p in points]
    bad = next((p for p in pts if any(type(c) is not int for c in p)), None)
    if bad is not None:
        raise ParseError(f"point {bad} has a coordinate that is not an integer")
    pts = sorted(set(pts))
    if not pts:
        raise EmptyInput("no points given")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise ParseError(f"mixed point dimensions {sorted(dims)}")
    n = dims.pop()
    if affine_rank(pts) < n:
        raise DegenerateSpan(f"points span a flat of dimension {affine_rank(pts)} < {n}")

    columns, planes, found = list(zip(*pts)), set(), {}
    for subset in itertools.combinations(pts, n):
        normal = _cofactors([_sub(p, subset[0]) for p in subset[1:]])
        g = math.gcd(*normal) * (1 if normal > (0,) * n else -1)  # first entry > 0
        plane = g and (tuple(c // g for c in normal), _dot(subset[0], normal) // g)
        if not plane or plane in planes:
            continue
        planes.add(plane)
        normal, level = plane
        values = [0] * len(pts)
        for c, xs in zip(normal, columns):
            values = [v + c * x for v, x in zip(values, xs)]
        # supporting iff every point lies on one side; the inner normal faces them
        sign = 1 if min(values) == level else -1 if max(values) == level else 0
        if sign:
            found[tuple(sign * c for c in normal), -sign * level] = sum(
                1 << i for i, v in enumerate(values) if v == level)
    facet_keys = sorted(found)
    on = [sum(1 << f for f, key in enumerate(facet_keys) if found[key] >> i & 1)
          for i in range(len(pts))]
    vertex_ids = [i for i, b in enumerate(on)
                  if not any(c & b == b for j, c in enumerate(on) if j != i)]
    vertices = tuple(pts[i] for i in vertex_ids)
    facets = tuple(
        Facet(normal, offset, tuple(v for v, i in enumerate(vertex_ids) if on[i] >> fi & 1))
        for fi, (normal, offset) in enumerate(facet_keys)
    )
    # two facets of a 3-polytope meet in an edge, a vertex or nothing
    masks = [sum(1 << v for v in f.vertex_ids) for f in facets]
    edges = sorted(
        (tuple(v for v in range(len(vertices)) if (a & b) >> v & 1), (i, j))
        for (i, a), (j, b) in itertools.combinations(enumerate(masks), 2)
        if (a & b).bit_count() == 2
    ) if n == 3 else ()
    return Polytope(n, tuple(pts), vertices, facets, tuple(Edge(*e) for e in edges))


def _cofactors(rows: list[Point], memo: dict | None = None) -> Point:
    """Signed maximal minors of n - 1 vectors in Z^n: orthogonal to them, 0 iff dependent.

    Each minor is its first row against the other rows' cofactors (Laplace),
    down to the cross product in Z^3, or the empty row set's (1,) in Z^1.
    The minors of one call share their lower sub-matrices, so a call of 4 or
    more rows keeps a memo by rows and expands each sub-matrix of 3 or more
    rows once: C(n, m + 1) of m rows, where Laplace alone expands n!/(m + 1)!.
    """
    if len(rows) == 2:
        (a, b, c), (d, e, f) = rows
        return (b * f - c * e, c * d - a * f, a * e - b * d)
    if not rows:
        return (1,)
    if memo is None:  # the top call; with 3 rows its minors are cross products
        sub = {} if len(rows) > 3 else None
    elif (key := tuple(rows)) in memo:
        return memo[key]
    else:
        sub = memo
    minors = ([r[:j] + r[j + 1:] for r in rows] for j in range(len(rows) + 1))
    normal = tuple((-1) ** j * sum(map(mul, m[0], _cofactors(m[1:], sub)))
                   for j, m in enumerate(minors))
    if memo is not None:
        memo[key] = normal
    return normal


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


def facet_ids(bits: int) -> tuple[int, ...]:
    """The ids in a bit set of facets, ascending: the inverse of facet_bits."""
    return tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


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
    # Once the coordinates before it are fixed, coordinate i is bounded by
    # the half-spaces whose last nonzero coefficient is the i-th: the facets
    # and, in dimension 3, the combinations cancelling z over each edge
    # between a lower and an upper facet. a*x >= r holds from ceil(r/a) on
    # for a > 0, up to floor(r/a) for a < 0, and is tight only where r/a is
    # exact: within the range, at an end.
    halfspaces = [(f.normal, -k * f.offset) for f in Q.facets]
    for e in Q.edges:
        (u, r), (v, s) = (halfspaces[i] for i in e.facet_ids)
        if u[-1] * v[-1] < 0:
            cu, cv = abs(v[-1]), abs(u[-1])
            halfspaces.append((tuple(cu * x + cv * y for x, y in zip(u, v)), cu * r + cv * s))
    n, F = Q.dim, Q.num_facets
    levels = [([], []) for _ in range(n)]
    for j, (normal, _) in enumerate(halfspaces):
        i = max(i for i, c in enumerate(normal) if c)
        levels[i][normal[i] < 0].append((normal[i], normal[i - 1], 1 << j if j < F else 0, j))
    box = [(k * min(c), k * max(c)) for c in zip(*Q.vertices)]
    # a row: a prefix, the residuals before its last coordinate y (0 for the
    # empty prefix), y, and the facets tight on all of the row
    rows = [((), [bound for _, bound in halfspaces], 0, 0)]
    for i, (lower, upper) in enumerate(levels):
        grown = []
        for prefix, rest, y, on in rows:
            lo, hi = box[i]
            low = high = 0
            for a, b, bit, j in lower:
                r = rest[j] - b * y
                q = -(-r // a)
                if q >= lo:
                    if q > lo:
                        lo, low = q, 0
                    if q * a == r:
                        low |= bit
            for a, b, bit, j in upper:
                r = rest[j] - b * y
                q = r // a
                if q <= hi:
                    if q < hi:
                        hi, high = q, 0
                    if q * a == r:
                        high |= bit
            if lo > hi:
                continue
            if i < n - 1:
                rest = [r - normal[i - 1] * y for (normal, _), r in zip(halfspaces, rest)]
            grown += [(prefix + (x,), rest, x, on | (x == lo and low) | (x == hi and high))
                      for x in range(lo, hi + 1)]
        rows = grown
    return tuple(row[0] for row in rows), tuple(row[3] for row in rows)


def column_runs(R: int, halfspaces):
    """Cut every column of the cube [-R, R]^3 into runs by half-spaces
    <m, normal> >= bound.

    A column fixes the first two coordinates. Yields (prefix, runs) per
    column in lexicographic order: the runs (start, stop, violated) cover
    -R..R in order, violated being the bit set (bit i for half-space i)
    with <m, normal> < bound on the run.
    """
    columns = [((), [bound for _, bound in halfspaces])]
    for i in range(2):
        columns = [(prefix + (x,), [r - normal[i] * x for r, (normal, _) in zip(rest, halfspaces)])
                   for prefix, rest in columns for x in range(-R, R + 1)]
    cuts = [(normal[-1], 1 << i) for i, (normal, _) in enumerate(halfspaces)]
    rising = sum(bit for a, bit in cuts if a > 0)
    for prefix, rest in columns:
        # half-space i reads a*t >= r along the column: for a > 0 it holds
        # from ceil(r/a) on, for a < 0 up to floor(r/a)
        violated, flips = rising, []
        for (a, bit), r in zip(cuts, rest):
            if a:
                q, rem = divmod(r, a)
                flips.append((q + 1 if a < 0 or rem else q, bit))
            elif r > 0:
                violated |= bit
        runs, start = [], -R
        for t, bit in sorted(flips):
            if t > R:
                break
            if t > start:
                runs.append((start, t - 1, violated))
                start = t
            violated ^= bit
        runs.append((start, R, violated))
        yield prefix, runs


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

