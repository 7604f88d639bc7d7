"""Exterior algebra over the integers and graded free modules over it.

The algebra has N generators e_0, ..., e_{N-1}, one per support point, and
every generator carries an integer torus weight. A map of graded free right
modules is stored as the images of its source generators: column j is a
sparse vector {(target generator i, subset S): c} standing for the sum of
c * t_i ∧ e_S, and the map sends g_j ∧ w to column j ∧ w. The same format
holds kernel vectors, so a cover map's columns are its kernel vectors.

Everything downstream reduces to exact linear algebra on graded pieces of
such maps. A map of weighted modules preserves the torus weight, so each
piece is block-diagonal by weight and is built as its blocks directly. A
block holds its source columns (ids into the piece's canonical coordinate
list), its weight, and the columns themselves, each a sparse dict over the
block's rows, numbered in the order their (target generator, subset) keys
first appear. The target module's coordinates are never enumerated: a row
exists only where a column lands. The product e_T ∧ e_S of a term's subset
T and a coordinate's subset S does not depend on the generator, so each
piece wedges each (term subset, coordinate subset) pair once and every
column is read off that table.

The cover keeps one echelon of the earlier generators' products per degree:
a product lies in one block and its reduction never leaves that block. The
products lie in the kernel and span a block's kernel exactly when the
block's columns off their pivots are independent: a kernel vector reduced by
the products vanishes on the pivots, and a nonzero vector in their span
leads at one. So a block is certified by testing only those columns for
independence mod 2, on the bitsets of their odd entries: independent mod 2
means an odd, hence nonzero, maximal minor, so a certificate is a proof over
Q. The test is one-sided, and its only fallback is exact: a block it cannot
certify is transposed to rows, reduced last row first, for a kernel basis,
and the products echelon discards the kernel vectors it already spans. So
the cover is the one the exact test gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add

from .errors import InvariantViolation
from .linalg import Echelon, independent_mod2, primitive_integer_vector

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
            raise InvariantViolation("source and target live over different algebras")
        if len(self.columns) != self.source.rank:
            raise InvariantViolation(
                f"{len(self.columns)} columns for {self.source.rank} generators")

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
                raise InvariantViolation(f"entry ({i}, {j}) has degrees {got}, expected {want}")

    def compose(self, inner: FreeModuleMap) -> FreeModuleMap:
        """self ∘ inner: column j is the sum of c * (self column i ∧ e_S) over
        the terms (i, S), c of inner's column j."""
        if inner.target is not self.source and inner.target != self.source:
            raise InvariantViolation("composition mismatch")
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
    """Degree-d component of a map, built as its torus-weight blocks.

    source_coords lists the (source generator, subset) coordinates in
    canonical order. Each block is (column ids into source_coords, weight,
    columns); column c is a sparse dict over the block's row numbers and is
    the image of coordinate source_coords[ids[c]].
    """

    source_coords: list[tuple[int, Subset]]
    blocks: list[tuple[list[int], tuple[int, ...], list[dict[int, int]]]]

    def rank(self) -> int:
        return sum(Echelon(columns).rank for _, _, columns in self.blocks)

    def kernel_vectors(self) -> list[dict[int, int]]:
        """Canonical nullspace basis, globally ordered by free coordinate."""
        found = [pair for src_ids, _, columns in self.blocks
                 for pair in block_kernel(src_ids, columns)]
        return [vec for _, vec in sorted(found)]  # free columns are distinct


def block_kernel(src_ids: list[int],
                 columns: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """(free coordinate, kernel vector) pairs of one block, in source ids.

    The block is transposed to its rows and reduced by the canonical row
    echelon, last row first: on tall blocks that fills in far less than
    number order. Pivot columns and kernel depend only on the row space, so
    each free column gives one vector, the same up to a positive scale.
    """
    rows: dict[int, dict[int, int]] = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    ech = Echelon(reversed(rows.values()))
    return [(src_ids[free], {src_ids[c]: v for c, v in ech.kernel_vector(free).items()})
            for free in ech.free_columns(len(src_ids))]


def graded_piece(phi: FreeModuleMap, d: int) -> GradedPiece:
    """Materialize the degree-d component of phi as exact sparse blocks.

    The coordinate (j, S) has weight g_j.weight plus the weights of the
    variables in S; each subset's part is summed once per size k = deg g_j - d.
    The product e_T ∧ e_S depends only on a term's subset T and the
    coordinate's subset S, so each (T, S) pair is wedged once per piece: one
    table row per (T, k) lists the products over the size-k subsets, and a
    coordinate's column reads its terms' rows at its subset's position.
    Blocks come in the order of their first coordinate.
    """
    algebra = phi.source.algebra
    N = algebra.nvars
    subset_weights: dict[int, list[tuple[Subset, tuple[int, ...]]]] = {}
    wedges: dict[tuple[Subset, int], list[tuple[int, Subset] | None]] = {}
    source_coords: list[tuple[int, Subset]] = []
    # per generator: its first coordinate, after which its coordinates follow
    # in subset order, and its column as (target, coefficient, table row)
    first: dict[int, int] = {}
    terms: dict[int, list[tuple[int, int, list]]] = {}
    by_weight: dict[tuple[int, ...], list[int]] = {}
    for j, g in enumerate(phi.source.generators):
        k = g.degree - d
        if not 0 <= k <= N:
            continue
        if k not in subset_weights:
            zero = (0,) * len(g.weight)
            subset_weights[k] = [
                (S, tuple(map(sum, zip(zero, *(algebra.var_weights[i] for i in S)))))
                for S in itertools.combinations(range(N), k)]
        first[j], terms[j] = len(source_coords), []
        for (i, T), cf in phi.columns[j].items():
            if (T, k) not in wedges:
                wedges[T, k] = [wedge_subsets(T, S) for S, _ in subset_weights[k]]
            terms[j].append((i, cf, wedges[T, k]))
        for S, w in subset_weights[k]:
            by_weight.setdefault(tuple(map(add, g.weight, w)), []).append(len(source_coords))
            source_coords.append((j, S))

    blocks = []
    for weight, src_ids in by_weight.items():
        row_at: dict[tuple[int, Subset], int] = {}
        columns = []
        for c in src_ids:
            j = source_coords[c][0]
            s = c - first[j]
            col = {}
            for i, cf, row in terms[j]:
                hit = row[s]
                if hit is not None:
                    sign, U = hit
                    col[row_at.setdefault((i, U), len(row_at))] = sign * cf
            columns.append(col)
        blocks.append((src_ids, weight, columns))
    return GradedPiece(source_coords, blocks)


def minimal_free_cover(
    phi: FreeModuleMap,
    degree_floor: int,
) -> tuple[FreeModuleMap, dict[int, tuple[int, int]]]:
    """Minimal graded free cover of ker(phi), scanned from the top degree down.

    In each degree the new generators are canonical kernel vectors that are
    independent of everything the previously chosen generators already span
    after multiplication by the algebra. A weight block whose columns off
    the products' pivots are independent has its kernel spanned by them and
    yields no kernel vectors. Independence is certified mod 2, a proof over
    Q; a block the test cannot certify goes to block_kernel, whose exact
    kernel basis gives its nullity, and the vectors the products already
    span are discarded. The returned map sends the cover onto the kernel
    through degree_floor; callers know the floor from theory and audit the
    generator counts instead of probing below it.

    Returns (onto, dims): the cover is onto.source, each generator carrying
    its degree and its block's torus weight; dims[d] = (columns, nullity) of
    phi's degree-d piece for every degree scanned, so that callers need not
    reduce the piece again.
    """
    F = phi.source
    algebra = F.algebra
    top = max(F.degrees(), default=degree_floor - 1)

    gens: list[Generator] = []
    vectors: list[Vector] = []
    dims: dict[int, tuple[int, int]] = {}

    def add_generators(d: int) -> None:
        piece = graded_piece(phi, d)
        coord_at = {coord: c for c, coord in enumerate(piece.source_coords)}
        # one echelon for every block: reduction never leaves a block
        spanned = Echelon()
        for g, gvec in zip(gens, vectors):
            for S in itertools.combinations(range(algebra.nvars), g.degree - d):
                shifted = {coord_at[key]: v for key, v in times(gvec, S).items()}
                if shifted:
                    spanned.insert(shifted)

        nullity = 0
        kernel: list[tuple[int, tuple[int, ...], dict[int, int]]] = []
        for src_ids, weight, columns in piece.blocks:
            # the products span the block's kernel iff its columns off their
            # pivots are independent; mod 2 can only prove it, so a block it
            # does not certify gets an exact kernel basis
            rest = [col for c, col in zip(src_ids, columns) if c not in spanned.rows]
            if independent_mod2(reversed(rest)):
                nullity += len(columns) - len(rest)
            else:
                found = block_kernel(src_ids, columns)
                nullity += len(found)
                kernel += [(free, weight, vec) for free, vec in found]
        dims[d] = (len(piece.source_coords), nullity)
        for _, weight, vec in sorted(kernel):  # free columns are distinct
            if spanned.insert(vec):
                gens.append(Generator(d, weight))
                # an integer kernel vector is positive at its free column, not
                # at its leading one; the cover's signs follow the leading entry
                vectors.append({piece.source_coords[c]: v
                                for c, v in primitive_integer_vector(vec).items()})

    for d in range(top, degree_floor - 1, -1):
        add_generators(d)

    return FreeModuleMap(GradedFreeModule(algebra, tuple(gens)), F, vectors), dims
