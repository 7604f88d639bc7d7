"""Independent oracles: reduced cohomology of facet unions from their cells,
divisor cohomology by graded decomposition, common-root coefficient systems,
and feasibility tests in dimension four and higher.

Everything here is deliberately separate from the resolution machinery so the
two sides can check each other.
"""

from __future__ import annotations

import itertools
import random
from math import prod
from operator import mul
from typing import NamedTuple

from .bracket import CoefficientSystem
from .errors import NoDiskSelection, NotStabilized, SearchTooLarge, UnsupportedDimension
from .lattice import Polytope, column_runs, facet_bits, facet_ids, point_census
from .linalg import QQ, Echelon, qq
from .shelling import as_selection


def _signed_faces(Q: Polytope) -> dict:
    """{face's vertex ids: (dim, {facet of the face: sign})} for every face of
    Q, the empty one included, built once per polytope. A face's facets are
    its largest proper intersections with Q's facets; a codimension-two face
    lies on exactly two of them, so one sign fixes the rest and d∘d = 0."""
    if not Q._faces:
        faces: dict[frozenset, tuple[int, dict]] = {}
        walls = [frozenset(f.vertex_ids) for f in Q.facets]
        inc: dict[frozenset, dict] = {}
        todo = list(walls)
        while todo:
            x = todo.pop()
            if x not in inc:
                meets = {x & w for w in walls} - {x}
                inc[x] = {y: 0 for y in meets if not any(y < z for z in meets)}
                todo += inc[x]
        for x in sorted(inc, key=len):  # a face's facets come first
            sides, dim = inc[x], -1
            if sides:
                first = next(iter(sides))
                sides[first], queue, dim = 1, [first], faces[first][0] + 1
                for y in queue:
                    for z, s in inc[y].items():
                        other = next(w for w in sides if w != y and z in inc[w])
                        if not sides[other]:
                            sides[other] = -sides[y] * s * inc[other][z]
                            queue.append(other)
            faces[x] = (dim, sides)
        Q._faces.update(faces)
    return Q._faces


def reduced_cohomology(Q: Polytope, selection) -> tuple[int, ...]:
    """Rational reduced Betti numbers of a facet union, 0..dim-1, from its
    cellular chain complex: the faces of Q inside a selected facet, and the
    empty face in dimension -1. Its cost grows with the number of faces."""
    sel = as_selection(Q, selection)
    if not sel:
        raise ValueError("empty facet selection")
    faces = _signed_faces(Q)
    cells, todo = set(), [frozenset(Q.facets[j].vertex_ids) for j in sel]
    while todo:
        x = todo.pop()
        if x not in cells:
            cells.add(x)
            todo += faces[x][1]
    levels: list[list[frozenset]] = [[] for _ in range(Q.dim + 1)]
    for x in cells:
        levels[faces[x][0] + 1].append(x)
    pos = {x: p for level in levels for p, x in enumerate(level)}
    # ranks[i]: rank of the boundary out of levels[i], the cells of dim i - 1
    ranks = [Echelon({pos[y]: s for y, s in faces[x][1].items()} for x in level).rank
             for level in levels] + [0]
    return tuple(len(levels[d + 1]) - ranks[d + 1] - ranks[d + 2] for d in range(Q.dim))


class CohomologyEntry(NamedTuple):
    """Sheaf cohomology dimensions of one divisor twist, all degrees 0..dim."""

    k: int
    dims: tuple[int, ...]
    box_radius: int
    stabilized: bool


def divisor_cohomology(Q: Polytope, selection, k: int,
                       box_radius: int | None = None,
                       _memo: dict | None = None) -> CohomologyEntry:
    """Graded decomposition: each character u contributes the reduced
    cohomology of the facet union where its divisor coefficients go negative.

    That set changes only across facet hyperplanes, so lattice.column_runs
    cuts each column of the character box into at most F + 1 runs with one
    negative set, and a run adds its Betti numbers times its length.
    Raises NotStabilized at the first character, in lexicographic order,
    where a nonzero contribution touches the box boundary; call again with
    a larger box_radius. A selected id that names no facet is a ValueError.
    """
    if Q.dim != 3:
        raise UnsupportedDimension(
            f"divisor cohomology enumeration needs a 3-polytope, not dimension {Q.dim}")
    chosen = facet_bits(Q, as_selection(Q, selection))
    if box_radius is None:
        scale = max([abs(f.offset) for f in Q.facets] + [abs(c) for v in Q.vertices for c in v])
        box_radius = abs(k) * scale + 2
    if box_radius < 1:
        raise ValueError("box radius must be at least 1")

    memo, dims, R = {} if _memo is None else _memo, [0] * (Q.dim + 1), box_radius
    # u is negative on facet j where <u, normal_j> < (chosen_j) - k * offset_j
    halfspaces = [(f.normal, (chosen >> j & 1) - k * f.offset) for j, f in enumerate(Q.facets)]
    for prefix, runs in column_runs([range(-R, R + 1)] * 3, halfspaces):
        rim = max(map(abs, prefix)) == R
        for start, stop, neg in runs:
            if neg not in memo:  # no negative facet: a character of H^0
                memo[neg] = (0,) + reduced_cohomology(Q, facet_ids(neg)) if neg else (1, 0, 0, 0)
            betti = memo[neg]
            if any(betti):
                if rim or start == -R or stop == R:
                    u = prefix + (start if rim or start == -R else R,)
                    raise NotStabilized(f"twist {k}: contribution at {u} on the box "
                                        f"boundary (radius {R})")
                dims = [d + b * (stop + 1 - start) for d, b in zip(dims, betti)]
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


def common_root_system(support, x0, seed: int = 0) -> CoefficientSystem:
    """Four random rows, each adjusted in its last entry to vanish at x0.

    Built in integers. With x0_t = n_t/d_t and lo_t, hi_t the least and
    greatest exponent of coordinate t over the support, each monomial value
    times the common factor prod n_t^(-lo_t) d_t^(hi_t) is the integer
    M_p = prod n_t^(p_t - lo_t) d_t^(hi_t - p_t). A row's head entries are
    its drawn ints h_i, and its last entry its one Fraction
    -sum(h_i M_i) / M_last, in which the factor cancels. A root with a zero,
    float or bool coordinate, or whose length is not the points' dimension,
    is a ValueError.
    """
    x0 = tuple(qq(c) for c in x0)
    if any(c == 0 for c in x0):
        raise ValueError("the common root must have nonzero coordinates")
    if len(support) < 2:
        raise ValueError("need at least two support points")
    bad = next((p for p in support if len(p) != len(x0)), None)
    if bad is not None:
        raise ValueError(f"point {tuple(bad)} has {len(bad)} coordinates, the root {len(x0)}")
    lo, hi = map(min, zip(*support)), map(max, zip(*support))
    scales = [(c.numerator, c.denominator, l, h) for c, l, h in zip(x0, lo, hi)]
    monos = [prod(n ** (e - l) * d ** (h - e) for (n, d, l, h), e in zip(scales, p))
             for p in support]
    rng = random.Random(seed)
    rows = []
    for _ in range(4):
        head = [rng.randint(-9, 9) for _ in range(len(support) - 1)]
        rows.append((*head, QQ(-sum(map(mul, head, monos)), monos[-1])))
    return CoefficientSystem(tuple(rows))


def _census_feasible(Q: Polytope, chosen: int) -> bool:
    """The construction's point condition in dimension n >= 4, from census
    bits: no point of k1*Q is off the chosen facets (a bit set) and none of
    k2*Q is off the others, k1 = (n+1)//2 - 2, k2 = (n+2)//2 - 2 (if >= 1)."""
    k1, k2 = (Q.dim + 1) // 2 - 2, (Q.dim + 2) // 2 - 2
    return ((k1 < 1 or all(t & chosen for t in point_census(Q, k1)[1]))
            and (k2 < 1 or all(t & ~chosen for t in point_census(Q, k2)[1])))


def feasibility_dim4(Q: Polytope) -> tuple[bool, int | None]:
    """A 4-polytope admits the construction iff some facet sees no points of
    the interior-plus-own-relative-interior set: the census condition for
    that one facet, as in dimension 4 the scales are 0 and 1."""
    if Q.dim != 4:
        raise ValueError("expected a 4-polytope")
    return next(((True, i) for i in range(Q.num_facets) if _census_feasible(Q, 1 << i)),
                (False, None))


def feasibility_high_dim(Q: Polytope, selection) -> bool:
    """Dimension >= 5 test: the census condition on the selected facets. A
    selection that is empty, of every facet, or whose union carries reduced
    rational homology (checked through its cells) is NoDiskSelection; being
    a manifold is the caller's lookout."""
    if Q.dim < 5:
        raise ValueError("expected dimension at least 5")
    sel = as_selection(Q, selection)
    if not sel or len(sel) >= Q.num_facets:
        raise NoDiskSelection("selection must be a nonempty proper facet subset")
    if any(reduced_cohomology(Q, sel)):
        raise NoDiskSelection("facet union carries reduced homology")
    return _census_feasible(Q, facet_bits(Q, sel))


def high_dim_feasible_selection(Q: Polytope):
    """First proper facet subset passing the census condition and the homology
    test, or None; the census condition is bit algebra, so it goes first.
    Above 16 facets it refuses the search with SearchTooLarge."""
    if Q.dim < 5:
        raise ValueError("expected dimension at least 5")
    if Q.num_facets > 16:
        raise SearchTooLarge("facet count too large for exhaustive search")
    for size in range(1, Q.num_facets):
        for sel in itertools.combinations(range(Q.num_facets), size):
            if _census_feasible(Q, facet_bits(Q, sel)) and not any(reduced_cohomology(Q, sel)):
                return sel
    return None
