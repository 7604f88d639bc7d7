"""Resolution window whose last map is the determinantal matrix, pre-bracket.

The rightmost map is written down directly from lattice points; two minimal
free covers walk it leftward. Corollary-level lattice counts predict every
generator multiplicity, and any disagreement aborts the construction: the
audit doubles as a runtime check of the vanishing theorem behind the method.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, InvariantViolation
from .exterior import (
    ExteriorAlgebra,
    FreeModuleMap,
    GradedFreeModule,
    Generator,
    graded_piece,
    minimal_free_cover,
)
from .lattice import Point, Polytope, _add, lattice_points_scaled, points_off_facets
from .shelling import as_selection, is_disk


@dataclass(frozen=True)
class TateWindow:
    """Four consecutive terms and the three maps between them.

    terms[k] holds the term whose generators Cor-level counting predicts;
    maps[k] goes terms[k-1] -> terms[k]. maps[0] carries the final matrix:
    its entries are quartic (degree -4) between the principal blocks, linear
    (degree -1) in the two mixed blocks, and structurally zero in the corner.
    piece_dims[k][d] = (columns, nullity) of the degree-d piece of maps[k]
    for k = 2, 1, as the cover of ker maps[k] found them while building.
    """

    support: tuple[Point, ...]
    selection: tuple[int, ...]
    terms: dict[int, GradedFreeModule]
    maps: dict[int, FreeModuleMap]
    piece_dims: dict[int, dict[int, tuple[int, int]]]

    def generator_counts(self) -> dict[int, dict[int, int]]:
        return {k: m.counts_by_degree() for k, m in self.terms.items()}


def build_phi2(Q: Polytope, sel) -> FreeModuleMap:
    """Rightmost window map, written directly from lattice point translation.

    Source generators sit in degree 1, one per point of 3Q off the selected
    facets; targets in degree 2, one per point of 4Q off them. The image of
    a source point m is the sum over support points a of (m + a) tensored
    with the exterior generator of a.
    """
    selection = as_selection(sel)
    if not is_disk(Q, selection):
        raise ValueError("facet selection must be a disk")
    support = tuple(lattice_points_scaled(Q, 1))
    algebra = ExteriorAlgebra(len(support), tuple(tuple(-c for c in a) for a in support))

    src_pts = points_off_facets(Q, 3, selection)
    tgt_pts = points_off_facets(Q, 4, selection)
    tgt_at = {m: i for i, m in enumerate(tgt_pts)}
    source = GradedFreeModule(algebra, tuple(Generator(1, m, m) for m in src_pts))
    target = GradedFreeModule(algebra, tuple(Generator(2, m, m) for m in tgt_pts))

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


def _relabel(module: GradedFreeModule, cover_map: FreeModuleMap,
             primal: dict[int, list[Point]], dual: dict[int, list[Point]],
             where: str) -> FreeModuleMap:
    """Replace cover labels with lattice points, auditing counts and weights.

    Generators at a primal degree must carry exactly the predicted points as
    weights; generators at a dual degree carry the negated points, since dual
    spaces carry negated torus characters. The points become the labels,
    tagged as dual in dual degrees.
    """
    by_degree: dict[int, list[int]] = {}
    for idx, g in enumerate(module.generators):
        by_degree.setdefault(g.degree, []).append(idx)

    expected = {d: len(pts) for d, pts in {**primal, **dual}.items() if pts}
    got = {d: len(ids) for d, ids in by_degree.items()}
    if expected != got:
        raise DimensionMismatch(f"{where}: generator counts {got}, predicted {expected}")

    labels: dict[int, object] = {}
    for d, pts in {**primal, **dual}.items():
        sign = -1 if d in dual else 1
        found = {i: tuple(sign * c for c in module.generators[i].weight)
                 for i in by_degree.get(d, [])}
        if set(found.values()) != set(pts):
            raise DimensionMismatch(f"{where}: degree {d} weights do not match the predicted points")
        for i, point in found.items():
            labels[i] = ("dual", point) if d in dual else point

    relabeled = GradedFreeModule(
        module.algebra,
        tuple(Generator(g.degree, labels[i], g.weight) for i, g in enumerate(module.generators)),
    )
    return FreeModuleMap(relabeled, cover_map.target, cover_map.columns)


def step_left(Q: Polytope, sel, rightmost: FreeModuleMap) -> TateWindow:
    """Two minimal free covers, with every generator count audited.

    DimensionMismatch here is a hard failure: the predicted counts encode
    the vanishing theorem, so a mismatch means a bug, not an unlucky input.
    """
    selection = as_selection(sel)
    complement = tuple(i for i in range(Q.num_facets) if i not in selection)
    support = tuple(lattice_points_scaled(Q, 1))

    mid_primal = {0: points_off_facets(Q, 2, selection)}
    mid_dual = {-3: points_off_facets(Q, 1, complement)}
    left_primal = {-1: points_off_facets(Q, 1, selection)}
    left_dual = {-4: points_off_facets(Q, 2, complement)}

    cover_mid, onto_mid, phi2_dims = minimal_free_cover(rightmost, degree_floor=-3)
    middle_map = _relabel(cover_mid, onto_mid, mid_primal, mid_dual, "middle term")
    if not rightmost.compose(middle_map).is_zero():
        raise DimensionMismatch("middle cover does not land in the kernel")

    cover_left, onto_left, middle_dims = minimal_free_cover(middle_map, degree_floor=-4)
    left_map = _relabel(cover_left, onto_left, left_primal, left_dual, "left term")
    if not middle_map.compose(left_map).is_zero():
        raise DimensionMismatch("left cover does not land in the kernel")

    left_map.validate_degrees()

    terms = {
        -1: left_map.source,
        0: middle_map.source,
        1: rightmost.source,
        2: rightmost.target,
    }
    maps = {0: left_map, 1: middle_map, 2: rightmost}
    return TateWindow(support, selection, terms, maps, {2: phi2_dims, 1: middle_dims})


def build_window(Q: Polytope, sel) -> TateWindow:
    return step_left(Q, sel, build_phi2(Q, sel))


def check_exactness(window: TateWindow) -> None:
    """Degreewise, the kernel of each window map must equal the image of the
    map before it (term 1 at degrees 0..-3, term 0 at degrees -1..-4).

    Term 1 compares the nullity of maps[2] against the rank (columns minus
    nullity) of maps[1]; both come from window.piece_dims, recorded by the
    middle and the left cover, two reductions of two different matrices.
    Term 0 compares the nullity of maps[1], again from piece_dims, against
    the rank of maps[0]'s graded piece, reduced here because no cover
    reduces it. piece_dims describes maps[2] and maps[1] as step_left built
    them, so on such a window every number equals what reducing the piece
    again would give.
    """
    phi2, middle = window.piece_dims[2], window.piece_dims[1]
    for d in range(0, -4, -1):
        columns, nullity = middle[d]
        _require_exact(1, d, phi2[d][1], columns - nullity)
    for d in range(-1, -5, -1):
        _require_exact(0, d, middle[d][1], graded_piece(window.maps[0], d).rank())


def _require_exact(term: int, d: int, kernel_dim: int, image_dim: int) -> None:
    if kernel_dim != image_dim:
        raise DimensionMismatch(
            f"window not exact at term {term}, degree {d}: "
            f"kernel {kernel_dim}, image {image_dim}")


def window_dump(window: TateWindow) -> dict:
    """JSON-ready description: generators with labels, entries with degrees."""

    def enc_label(label):
        if isinstance(label, tuple) and len(label) == 2 and label[0] == "dual":
            return {"dual": list(label[1])}
        return list(label)

    terms = {}
    for k, module in sorted(window.terms.items()):
        terms[str(k)] = [
            {"degree": g.degree, "label": enc_label(g.label)}
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
