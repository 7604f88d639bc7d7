"""Exterior algebra over the integers and graded free modules over it.

The algebra has N generators e_0, ..., e_{N-1}, one per support point, and
every generator carries an integer torus weight. A map of graded free right
modules is stored as the images of its source generators: column j is a
sparse vector {(target generator i, subset S): c} standing for the sum of
c * t_i ∧ e_S, and the map sends g_j ∧ w to column j ∧ w. The same format
holds kernel vectors, so a cover map's columns are its kernel vectors.

Everything downstream reduces to exact linear algebra on graded pieces of
such maps. A map of weighted modules preserves the torus weight, so each
piece is block-diagonal by weight and is laid out as its blocks directly. A
block holds its source columns (ids into the piece's canonical coordinate
list) and its weight; block_columns builds its exact columns on demand,
each a sparse dict over the block's rows, numbered in the order their
(target generator, subset) keys first appear. The target module's
coordinates are never enumerated: a row exists only where a column lands.
The product e_T ∧ e_S of a term's subset T and a coordinate's subset S does
not depend on the generator, so each piece wedges each (term subset,
coordinate subset) pair once and every column is read off that table.

Every window piece is reduced by one routine, the cover's, which certifies
each (degree, weight) block on its own, mod 2. The earlier generators'
products are the columns of the piece of the map they define, so each
lands in its block by weight; XOR-reducing the bitsets of their odd entries
gives pivots P2 and rank2(products), and the block's columns off P2 are
built straight as such bitsets. If those are independent mod 2,
rank2(products) + rank2(columns) = columns; the products lie in the kernel,
so rank_Q(products) + rank_Q(columns) <= columns, and rank2 <= rank_Q: the
products span the kernel over Q, of dimension rank2(products). Only a block
the test cannot certify is reduced exactly: block_kernel gives its kernel
basis, and the block's own products echelon keeps the vectors it does not
span; reduction never leaves a block, so the cover is the exact one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import add

from .errors import InvariantViolation
from .linalg import Echelon, independent_mod2, insert_mod2, primitive_integer_vector

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
    """Ambient algebra data: generator count and one torus weight per generator.
    _subsets caches per size k the subsets, their masks and weight groups."""

    nvars: int
    var_weights: tuple[tuple[int, ...], ...]
    _subsets: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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
    """Degree-d component of a map, laid out as its torus-weight blocks.

    source_coords lists the (source generator, subset) coordinates in
    canonical order; keys[c] is coordinate c's generator shifted above its
    subset's bit mask. Each block is (ascending column ids into
    source_coords, weight, None). block_columns builds a block's exact
    columns on demand: column c is a sparse dict over the block's row
    numbers, the image of coordinate source_coords[ids[c]].
    """

    source_coords: list[tuple[int, Subset]]
    keys: list[int]
    blocks: list[tuple[list[int], tuple[int, ...], None]]
    first: dict[int, int]  # generator -> its first coordinate
    terms: dict[int, list[tuple]]  # generator -> (target bits, coefficient, wedges, keys)
    odd: dict[int, list[tuple]]  # generator -> (target bits, keys) of its odd terms

    def rank(self) -> int:
        return sum(Echelon(self.block_columns(ids, {})).rank for ids, _, _ in self.blocks)

    def kernel_vectors(self) -> list[dict[int, int]]:
        """Canonical nullspace basis, globally ordered by free coordinate."""
        found = [pair for ids, _, _ in self.blocks
                 for pair in block_kernel(ids, self.block_columns(ids, {}))]
        return [vec for _, vec in sorted(found)]  # free columns are distinct

    def block_columns(self, ids, row_at: dict[int, int]) -> list[dict[int, int]]:
        """Exact columns at the ids of one block; a row is numbered by
        row_at of its key, handed out as the columns first reach it."""
        columns = []
        for c in ids:
            j = self.source_coords[c][0]
            s = c - self.first[j]
            col = {}
            for base, cf, hits, keys in self.terms[j]:
                if keys[s] is not None:
                    col[row_at.setdefault(base | keys[s], len(row_at))] = hits[s][0] * cf
            columns.append(col)
        return columns

    def odd_columns(self, ids, row_at: dict[int, int]):
        """The bitsets of those columns' odd entries, exact ones never built."""
        first, odd, coords = self.first, self.odd, self.source_coords
        for c in ids:
            j = coords[c][0]
            s = c - first[j]
            bits = 0
            for base, keys in odd[j]:
                u = keys[s]
                if u is not None:
                    bits |= 1 << row_at.setdefault(base | u, len(row_at))
            yield bits


def block_kernel(src_ids, columns: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
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


def lay_out(phi: FreeModuleMap, d: int) -> GradedPiece:
    """The degree-d piece of phi, laid out as its blocks without columns.

    The coordinate (j, S) has weight g_j.weight plus the weights of S, so a
    generator's coordinates join blocks a group of equal subset weights at
    a time; blocks come in the order of their first coordinate. e_T ∧ e_S
    depends only on a term's subset T and the coordinate's subset S, so
    each (T, S) pair is wedged once per piece: one table row per (T, k)
    lists the products, and their keys, over the size-k subsets.
    """
    algebra = phi.source.algebra
    N = algebra.nvars
    subsets, wedges, by_weight = algebra._subsets, {}, {}
    piece = GradedPiece([], [], [], {}, {}, {})
    for j, g in enumerate(phi.source.generators):
        k = g.degree - d
        if not 0 <= k <= N:
            continue
        if k not in subsets:
            subs = list(itertools.combinations(range(N), k))
            groups: dict[tuple[int, ...], list[int]] = {}
            for s, S in enumerate(subs):
                w = map(sum, zip((0,) * len(g.weight), *(algebra.var_weights[i] for i in S)))
                groups.setdefault(tuple(w), []).append(s)
            masks = map(sum, itertools.combinations([1 << v for v in range(N)], k))
            subsets[k] = subs, list(masks), groups
        subs, masks, groups = subsets[k]
        f = piece.first[j] = len(piece.source_coords)
        terms = piece.terms[j] = []
        for (i, T), cf in phi.columns[j].items():
            if (T, k) not in wedges:
                hits, t = [wedge_subsets(T, S) for S in subs], sum(1 << v for v in T)
                wedges[T, k] = hits, [hit and t | m for hit, m in zip(hits, masks)]
            terms.append((i << N, cf, *wedges[T, k]))
        piece.odd[j] = [(base, keys) for base, cf, _, keys in terms if cf & 1]
        for w, positions in groups.items():
            by_weight.setdefault(tuple(map(add, g.weight, w)), []).extend(map(f.__add__, positions))
        piece.source_coords += [(j, S) for S in subs]
        piece.keys += [j << N | m for m in masks]
    piece.blocks = [(ids, weight, None) for weight, ids in by_weight.items()]
    return piece


def graded_piece(phi: FreeModuleMap, d: int) -> GradedPiece:
    """The degree-d component of phi, laid out as its blocks (see lay_out);
    block_columns builds a block's exact columns on demand."""
    return lay_out(phi, d)


def minimal_free_cover(
    phi: FreeModuleMap,
    degree_floor: int,
) -> tuple[FreeModuleMap, dict[int, tuple[int, int]]]:
    """Minimal graded free cover of ker(phi), scanned from the top degree down.

    In each degree the new generators are canonical kernel vectors that are
    independent of everything the previously chosen generators already span
    after multiplication by the algebra. A block whose columns off the
    pivots P2 of its products mod 2 are independent mod 2 is certified to
    gain none, with rank2(products) + rank2(columns) = columns; any other
    block goes to block_kernel, and its own exact products echelon discards
    the kernel vectors it already spans. The returned map sends the cover
    onto the kernel through degree_floor; callers know the floor from theory
    and audit the generator counts instead of probing below it.

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
        shifted = lay_out(FreeModuleMap(GradedFreeModule(algebra, tuple(gens)), F, vectors), d)
        products = {weight: ids for ids, weight, _ in shifted.blocks}
        nullity, kernel = 0, []
        for ids, weight, _ in piece.blocks:
            # the block's products, over its columns in coordinate order
            prods = products.get(weight, [])
            at = {piece.keys[c]: n for n, c in enumerate(ids)} if prods else {}
            basis: dict[int, int] = {}
            for bits in shifted.odd_columns(prods, at):
                insert_mod2(basis, bits)
            rest = [c for top, c in enumerate(ids, 1) if top not in basis]
            if independent_mod2(piece.odd_columns(rest, {})):
                nullity += len(basis)
                continue
            spanned = Echelon(shifted.block_columns(prods, at))
            found = block_kernel(range(len(ids)), piece.block_columns(ids, {}))
            nullity += len(found)
            kernel += [(ids[free], weight, {ids[n]: v for n, v in vec.items()})
                       for free, vec in found if spanned.insert(vec)]
        dims[d] = (len(piece.source_coords), nullity)
        for _, weight, vec in sorted(kernel):  # free columns are distinct
            gens.append(Generator(d, weight))
            # an integer kernel vector is positive at its free column, not
            # at its leading one; the cover's signs follow the leading entry
            vectors.append({piece.source_coords[c]: v
                            for c, v in primitive_integer_vector(vec).items()})

    for d in range(top, degree_floor - 1, -1):
        add_generators(d)

    return FreeModuleMap(GradedFreeModule(algebra, tuple(gens)), F, vectors), dims
