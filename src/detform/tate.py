"""Resolution window whose last map is the determinantal matrix, pre-bracket.

The rightmost map is written down directly from lattice points; two minimal
free covers walk it leftward, and exactness reduces the left map by the same
block routine. Corollary-level lattice counts predict every generator
multiplicity, and any disagreement aborts the construction: the audit
doubles as a runtime check of the vanishing theorem behind the method.

Generators store only degree and torus weight; this module alone maps them
to lattice points (point_of). Dual terms carry negated torus characters, so
in the dual degrees -3 and -4 the point is the negated weight.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionMismatch, InvariantViolation, UnsupportedDimension
from .exterior import (
    ExteriorAlgebra,
    FreeModuleMap,
    GradedFreeModule,
    Generator,
    minimal_free_cover,
)
from .lattice import Point, Polytope, _add, lattice_points_scaled, points_off_facets
from .shelling import as_selection, is_disk

DUAL_DEGREES = (-3, -4)


def point_of(g: Generator) -> Point:
    """Lattice point of a window generator: its weight, negated in dual degrees."""
    return tuple(-c for c in g.weight) if g.degree in DUAL_DEGREES else g.weight


def support_of(algebra: ExteriorAlgebra) -> tuple[Point, ...]:
    """Support points in exterior variable order: the variables' weights negated."""
    return tuple(tuple(-c for c in w) for w in algebra.var_weights)


class TateWindow(NamedTuple):
    """The window's three maps; its four terms and its support are read off them.

    maps[k] goes terms[k-1] -> terms[k]. maps[0] carries the final matrix:
    its entries are quartic (degree -4) between the principal blocks, linear
    (degree -1) in the two mixed blocks, and structurally zero in the corner.
    piece_dims[k][d] = (columns, nullity) of the degree-d piece of maps[k]
    for k = 2, 1, recorded by the cover of ker maps[k] from its top degree down.
    """

    selection: tuple[int, ...]
    maps: dict[int, FreeModuleMap]
    piece_dims: dict[int, dict[int, tuple[int, int]]]

    @property
    def terms(self) -> dict[int, GradedFreeModule]:
        """The four terms, whose generators Cor-level counting predicts."""
        return {-1: self.maps[0].source, 0: self.maps[1].source,
                1: self.maps[2].source, 2: self.maps[2].target}

    @property
    def support(self) -> tuple[Point, ...]:
        return support_of(self.maps[2].source.algebra)

    def generator_counts(self) -> dict[int, dict[int, int]]:
        return {k: m.counts_by_degree() for k, m in self.terms.items()}


def build_phi2(Q: Polytope, sel) -> FreeModuleMap:
    """Rightmost window map, written directly from lattice point translation.

    Source generators sit in degree 1, one per point of 3Q off the selected
    facets; targets in degree 2, one per point of 4Q off them. The image of
    a source point m is the sum over support points a of (m + a) tensored
    with the exterior generator of a.
    """
    if Q.dim != 3:
        raise UnsupportedDimension(f"the window needs a 3-polytope, not dimension {Q.dim}")
    selection = as_selection(Q, sel)
    if not is_disk(Q, selection):
        raise ValueError("facet selection must be a disk")
    support = tuple(lattice_points_scaled(Q, 1))
    algebra = ExteriorAlgebra(len(support), tuple(tuple(-c for c in a) for a in support))

    src_pts = points_off_facets(Q, 3, selection)
    tgt_pts = points_off_facets(Q, 4, selection)
    tgt_at = {m: i for i, m in enumerate(tgt_pts)}
    source = GradedFreeModule(algebra, tuple(Generator(1, m) for m in src_pts))
    target = GradedFreeModule(algebra, tuple(Generator(2, m) for m in tgt_pts))

    columns = []
    for m in src_pts:
        column = {}
        for i_var, a in enumerate(support):
            row = tgt_at.get(_add(m, a))
            if row is None:
                raise InvariantViolation(f"{m} + {a} escaped the dilated point set")
            column[(row, (i_var,))] = 1
        columns.append(column)
    return FreeModuleMap(source, target, columns)


def _audit(module: GradedFreeModule, predicted: dict[int, list[Point]], where: str) -> None:
    """Every degree must hold one generator per predicted point, at that point."""
    found: dict[int, list[Point]] = {}
    for g in module.generators:
        found.setdefault(g.degree, []).append(point_of(g))

    expected = {d: len(pts) for d, pts in predicted.items() if pts}
    got = {d: len(pts) for d, pts in found.items()}
    if expected != got:
        raise DimensionMismatch(f"{where}: generator counts {got}, predicted {expected}")
    for d, pts in predicted.items():
        if set(found.get(d, ())) != set(pts):
            raise DimensionMismatch(f"{where}: degree {d} weights do not match the predicted points")


def step_left(Q: Polytope, sel, rightmost: FreeModuleMap) -> TateWindow:
    """Two minimal free covers, with every generator count and point audited.

    Each cover lands in its map's kernel by construction, so no composition
    is formed: kernel_vectors checks every kept vector over Z against its
    block's exact columns, which hold every target coordinate of the
    block's degree and weight, or takes it from a full exact reduction.
    DimensionMismatch here is a hard failure: the predicted counts encode
    the vanishing theorem, so a mismatch means a bug, not an unlucky input.
    """
    selection = as_selection(Q, sel)
    complement = tuple(i for i in range(Q.num_facets) if i not in selection)

    middle_map, phi2_dims = minimal_free_cover(rightmost, degree_floor=-3)
    _audit(middle_map.source, {0: points_off_facets(Q, 2, selection),
                               -3: points_off_facets(Q, 1, complement)}, "middle term")

    left_map, middle_dims = minimal_free_cover(middle_map, degree_floor=-4)
    _audit(left_map.source, {-1: points_off_facets(Q, 1, selection),
                             -4: points_off_facets(Q, 2, complement)}, "left term")

    maps = {0: left_map, 1: middle_map, 2: rightmost}
    return TateWindow(selection, maps, {2: phi2_dims, 1: middle_dims})


def build_window(Q: Polytope, sel) -> TateWindow:
    return step_left(Q, sel, build_phi2(Q, sel))


def check_exactness(window: TateWindow) -> None:
    """Degreewise, the kernel of each window map must equal the image of the
    map before it (term 1 at degrees 0..-3, term 0 at degrees -1..-4).

    At term k and degree d the kernel is the nullity of maps[k+1]'s degree-d
    piece and the image is the columns minus the nullity of maps[k]'s. All
    come from the covers' one certified block reduction: piece_dims records
    maps[2] and maps[1] as step_left built them, and maps[0] is covered here,
    so a replaced left map is reduced again. A degree a cover did not scan
    lies above its map's top generator: its piece is empty, read as (0, 0).
    Equal dimensions make the window exact because im ⊆ ker, which the
    covers proved as they were built: kernel_vectors checks each kept vector
    over Z against its block's columns, or takes it from a full reduction.
    A map replaced after the build is not checked for it here.
    """
    _, left = minimal_free_cover(window.maps[0], degree_floor=-4)
    dims = {**window.piece_dims, 0: left}
    for k, top in ((1, 0), (0, -1)):
        for d in range(top, top - 4, -1):
            columns, nullity = dims[k].get(d, (0, 0))
            kernel, image = dims[k + 1].get(d, (0, 0))[1], columns - nullity
            if kernel != image:
                raise DimensionMismatch(f"window not exact at term {k}, degree {d}: "
                                        f"kernel {kernel}, image {image}")


def window_dump(window: TateWindow) -> dict:
    """JSON-ready description: generators with points (labelled {"dual": point}
    in dual degrees), entries with degrees."""

    def enc_label(g: Generator):
        point = list(point_of(g))
        return {"dual": point} if g.degree in DUAL_DEGREES else point

    terms = {}
    for k, module in sorted(window.terms.items()):
        terms[str(k)] = [
            {"degree": g.degree, "label": enc_label(g)}
            for g in module.generators
        ]
    maps = {}
    for k, phi in sorted(window.maps.items()):
        cells = []
        for (i, j), entry in sorted(phi.cells().items()):
            subsets = sorted(entry)
            cells.append({
                "row": i,
                "col": j,
                "degree": -len(subsets[0]),
                "terms": [[list(S), str(entry[S])] for S in subsets],
            })
        maps[str(k)] = cells
    return {
        "support": [list(p) for p in window.support],
        "selection": list(window.selection),
        "terms": terms,
        "maps": maps,
    }
