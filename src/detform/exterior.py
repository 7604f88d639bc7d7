"""Exterior algebra over the integers and graded free modules over it.

The algebra has N generators e_0, ..., e_{N-1}, one per support point, and
every generator carries an integer torus weight. A map of graded free right
modules is stored as the images of its source generators: column j is a
sparse vector {(target generator i, subset S): c} standing for the sum of
c * t_i ∧ e_S, and the map sends g_j ∧ w to column j ∧ w. The same format
holds kernel vectors, so a cover map's columns are its kernel vectors.

Everything downstream reduces to exact linear algebra on graded pieces of
such maps. Pieces split into independent blocks along the torus weights;
blockwise results are assembled back in the canonical coordinate order, so
the splitting is invisible except in running time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvariantViolation
from .linalg import Echelon, echelon_from_rows, primitive_integer_vector

Subset = tuple[int, ...]
Vector = dict[tuple[int, Subset], int]


def wedge_subsets(T: Subset, S: Subset) -> tuple[int, Subset] | None:
    """Sign and index set of e_T ∧ e_S, or None when they overlap."""
    if not T:
        return 1, S
    if not S:
        return 1, T
    inversions = 0
    for t in T:
        for s in S:
            if t == s:
                return None
            if t > s:
                inversions += 1
    merged = tuple(sorted(T + S))
    return (-1 if inversions % 2 else 1), merged


def times(vec: Vector, S: Subset) -> Vector:
    """vec ∧ e_S. Distinct terms of vec stay distinct, so nothing cancels."""
    out = {}
    for (i, T), c in vec.items():
        hit = wedge_subsets(T, S)
        if hit is not None:
            out[(i, hit[1])] = hit[0] * c
    return out


@dataclass(frozen=True)
class ExteriorAlgebra:
    """Ambient algebra data: generator count and one torus weight per generator."""

    nvars: int
    var_weights: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Generator:
    degree: int
    weight: tuple[int, ...]


@dataclass(frozen=True)
class GradedFreeModule:
    algebra: ExteriorAlgebra
    generators: tuple[Generator, ...]

    @property
    def rank(self) -> int:
        return len(self.generators)

    def degrees(self) -> list[int]:
        return [g.degree for g in self.generators]

    def counts_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for g in self.generators:
            out[g.degree] = out.get(g.degree, 0) + 1
        return dict(sorted(out.items(), reverse=True))

    def coords_in_degree(self, d: int) -> list[tuple[int, Subset]]:
        """Basis of the degree-d piece: (generator, monomial) pairs, canonical order."""
        N = self.algebra.nvars
        out = []
        for j, g in enumerate(self.generators):
            k = g.degree - d
            if 0 <= k <= N:
                out.extend((j, S) for S in itertools.combinations(range(N), k))
        return out

    def coord_weight(self, coord: tuple[int, Subset]) -> tuple[int, ...]:
        j, S = coord
        vw = self.algebra.var_weights
        acc = list(self.generators[j].weight)
        for i in S:
            for axis, c in enumerate(vw[i]):
                acc[axis] += c
        return tuple(acc)


@dataclass
class FreeModuleMap:
    """Map of graded free right modules, given by the images of the source
    generators: columns[j] is the image of source generator j, a vector with
    nonzero integer coefficients."""

    source: GradedFreeModule
    target: GradedFreeModule
    columns: list[Vector]

    def __post_init__(self):
        if self.source.algebra != self.target.algebra:
            raise ValueError("source and target live over different algebras")
        if len(self.columns) != self.source.rank:
            raise ValueError(f"{len(self.columns)} columns for {self.source.rank} generators")

    def cells(self) -> dict[tuple[int, int], dict[Subset, int]]:
        """Matrix entries: (target, source) -> {subset: coefficient}, nonzero only."""
        out: dict[tuple[int, int], dict[Subset, int]] = {}
        for j, col in enumerate(self.columns):
            for (i, S), c in col.items():
                out.setdefault((i, j), {})[S] = c
        return out

    def validate_degrees(self):
        """Every entry must be homogeneous of the degree the generators force."""
        for (i, j), terms in self.cells().items():
            want = self.source.generators[j].degree - self.target.generators[i].degree
            got = sorted({-len(S) for S in terms})
            if got != [want]:
                raise ValueError(f"entry ({i}, {j}) has degrees {got}, expected {want}")

    def compose(self, inner: FreeModuleMap) -> FreeModuleMap:
        """self ∘ inner: column j is the sum of c * (self column i ∧ e_S) over
        the terms (i, S), c of inner's column j."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("composition mismatch")
        columns = []
        for col in inner.columns:
            out: Vector = {}
            for (i, S), c in col.items():
                for key, v in times(self.columns[i], S).items():
                    out[key] = out.get(key, 0) + c * v
            columns.append({key: v for key, v in out.items() if v})
        return FreeModuleMap(inner.source, self.target, columns)

    def is_zero(self) -> bool:
        return not any(self.columns)


@dataclass
class GradedPiece:
    """Degree-d component of a map, stored blockwise by torus weight."""

    degree: int
    source_coords: list[tuple[int, Subset]]
    target_coords: list[tuple[int, Subset]]
    blocks: list[tuple[list[int], list[int], list[dict[int, int]]]]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.target_coords), len(self.source_coords)

    def matrix_rows(self) -> list[dict[int, int]]:
        """Global sparse rows (target-indexed), merging all blocks."""
        rows: list[dict[int, int]] = [dict() for _ in self.target_coords]
        for src_ids, tgt_ids, local_rows in self.blocks:
            for r, row in zip(tgt_ids, local_rows):
                for c, v in row.items():
                    rows[r][src_ids[c]] = v
        return rows

    def rank(self) -> int:
        return sum(echelon_from_rows(rows).rank for _, _, rows in self.blocks)

    def kernel_vectors(self) -> list[dict[int, int]]:
        """Canonical nullspace basis, globally ordered by free coordinate."""
        found: list[tuple[int, dict[int, int]]] = []
        for src_ids, _, local_rows in self.blocks:
            ech = echelon_from_rows(local_rows)
            for free in ech.free_columns(len(src_ids)):
                local = ech.kernel_vector(free)
                found.append((src_ids[free], {src_ids[c]: v for c, v in local.items()}))
        found.sort(key=lambda t: t[0])
        return [vec for _, vec in found]


def graded_piece(phi: FreeModuleMap, d: int) -> GradedPiece:
    """Materialize the degree-d component of phi as exact sparse blocks."""
    source_coords = phi.source.coords_in_degree(d)
    target_coords = phi.target.coords_in_degree(d)
    tgt_index = {coord: r for r, coord in enumerate(target_coords)}

    by_weight: dict[object, list[int]] = {}
    for c, coord in enumerate(source_coords):
        by_weight.setdefault(phi.source.coord_weight(coord), []).append(c)

    blocks = []
    for _, src_ids in sorted(by_weight.items(), key=lambda kv: kv[1][0]):
        tgt_ids: list[int] = []
        tgt_local: dict[int, int] = {}
        local_rows: list[dict[int, int]] = []
        for local_c, c in enumerate(src_ids):
            j, S = source_coords[c]
            # column j ∧ e_S, written out rather than through times() so the
            # innermost loop allocates no dict per source coordinate
            for (i, T), cf in phi.columns[j].items():
                hit = wedge_subsets(T, S)
                if hit is None:
                    continue
                sign, U = hit
                r = tgt_index[(i, U)]
                lr = tgt_local.get(r)
                if lr is None:
                    lr = tgt_local[r] = len(tgt_ids)
                    tgt_ids.append(r)
                    local_rows.append({})
                local_rows[lr][local_c] = sign * cf
        blocks.append((src_ids, tgt_ids, local_rows))
    return GradedPiece(d, source_coords, target_coords, blocks)


def minimal_free_cover(
    phi: FreeModuleMap,
    degree_floor: int,
) -> tuple[FreeModuleMap, dict[int, tuple[int, int]]]:
    """Minimal graded free cover of ker(phi), scanned from the top degree down.

    In each degree the new generators are canonical kernel vectors that are
    independent of everything the previously chosen generators already span
    after multiplication by the algebra. The returned map sends the cover
    onto the kernel through degree_floor; callers know the floor from theory
    and audit the generator counts instead of probing below it.

    Returns (onto, dims): the cover is onto.source, whose generators carry
    their degree and torus weight and nothing else; dims[d] = (columns,
    nullity) of phi's degree-d piece for every degree scanned, so that
    callers can compare kernel and image dimensions without reducing the
    piece again.
    """
    F = phi.source
    algebra = F.algebra
    if F.rank == 0:
        return FreeModuleMap(GradedFreeModule(algebra, ()), F, []), {}
    top = max(F.degrees())

    gens: list[Generator] = []
    vectors: list[Vector] = []
    dims: dict[int, tuple[int, int]] = {}

    def new_generators(d: int) -> list[Vector]:
        piece = graded_piece(phi, d)
        coord_at = {coord: c for c, coord in enumerate(piece.source_coords)}
        echelons: dict[object, Echelon] = {}

        def block_of(vec: dict[int, int]):
            w = F.coord_weight(piece.source_coords[min(vec)])
            return echelons.setdefault(w, Echelon())

        for g, gvec in zip(gens, vectors):
            k = g.degree - d
            if not 0 <= k <= algebra.nvars:
                continue
            for S in itertools.combinations(range(algebra.nvars), k):
                shifted = {coord_at[key]: v for key, v in times(gvec, S).items()}
                if shifted:
                    block_of(shifted).insert(shifted)
        kernel = piece.kernel_vectors()
        dims[d] = (len(piece.source_coords), len(kernel))
        fresh = [vec for vec in kernel if block_of(vec).insert(vec)]
        # an integer kernel vector is positive at its free column, not at its
        # leading one; the cover's signs follow the leading entry
        return [
            {piece.source_coords[c]: v for c, v in primitive_integer_vector(vec).items()}
            for vec in fresh
        ]

    for d in range(top, degree_floor - 1, -1):
        for vec in new_generators(d):
            weights = {F.coord_weight(coord) for coord in vec}
            if len(weights) != 1:
                raise InvariantViolation("cover generator is not weight-homogeneous")
            gens.append(Generator(d, weights.pop()))
            vectors.append(vec)

    return FreeModuleMap(GradedFreeModule(algebra, tuple(gens)), F, vectors), dims
