"""Exterior algebra over the integers and graded free modules over it.

The algebra has N generators e_0, ..., e_{N-1}, one per support point, and
every generator carries an integer torus weight. A map of graded free right
modules is stored as the images of its source generators: column j is a
sparse vector {(target generator i, subset S): c} standing for the sum of
c * t_i ∧ e_S, and the map sends g_j ∧ w to column j ∧ w. The same format
holds kernel vectors, so a cover map's columns are its kernel vectors.

Everything downstream reduces to exact linear algebra on graded pieces of
such maps. In degree d a module's coordinate (i, U) has one number, its key
i * height + position; its position, offset(|U|) + the index of U among its
size (positions), is the same in every weight block. A weight-preserving
map's piece is block-diagonal by weight and is laid out as its blocks: the
ascending keys of its source coordinates, and a weight. Exact columns are
sparse over target keys, and (i, U) is read back from a key only where a
new generator's column leaves the piece. The process wedges each term
subset T with the k-subsets once per generator count N, into an (N, T, k)
table of signs and indices that every algebra on N generators shares and
block_columns reads on demand; a generator's exact terms are built only
when a block that falls back to block_kernel first asks for them. Blocks
are found by an integer, the weight packed linearly (pack), so a
coordinate's is its generator's plus its subset's.

The cover certifies each (degree, weight) block of a piece mod 2, on
bitsets that XOR the positions of a column's odd entries: rows of targets
of one degree and weight add up, a linear image, so rank mod 2 only drops.
The earlier generators' products are the columns of the piece of the map
they define, so each lands in its block by weight; XOR-reducing their
bitsets gives pivots P2, and rank2(products) >= |P2|. If the columns off P2,
rest, are independent mod 2 and |rest| + |P2| = columns, the kernel has
dimension at most |P2|, and the products span it over Q; the count fails
only where sources of one degree and weight share a pivot's position. A
block no product reaches has no P2, so its columns are tested as they are.
Any other block takes block_kernel with its products' exact columns, if
any, and gains the kernel vectors they do not span. block_kernel numbers
the block's rows and builds the columns' mod-2 bitsets over them in one
pass over the entries, then transposes and reduces exactly only the pivot
rows of their mod-2 echelon, independent mod 2, hence over Q, and builds
only the vectors it keeps; each is checked over Z against the block's
columns, and a count proves that they and the products span the block's
kernel. A block whose rank drops mod 2 fails a check and reduces all its
rows. A coordinate's bitset depends only on its subset and on its
generator's pattern: the size k and the subsets of the odd terms
(odd_terms), not their targets. So lay_out builds one table per pattern,
indexed by position, and the generators of a pattern share it; the
rightmost map's columns, one term per support point each, all share one.

A caller may give the cover generators it knows (the window's Koszul
columns, see tate.step_left). Each joins its degree's products, so its
bitset takes a pivot in its block, which must then pass the certificate;
the column itself is checked over Z against the block's exact columns,
as block_kernel checks each vector it keeps.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from operator import add

from .errors import InvariantViolation
from .linalg import Echelon, echelon_mod2, independent_mod2, primitive_integer_vector
from .record import Frozen, Record

Subset = tuple[int, ...]
Vector = dict[tuple[int, Subset], int]


def wedge_subsets(T: Subset, S: Subset) -> tuple[int, Subset] | None:
    """Sign and index set of e_T ∧ e_S, or None when they overlap."""
    inversions = 0
    for t in T:
        for s in S:
            if t == s:
                return None
            if t > s:
                inversions += 1
    return (-1 if inversions % 2 else 1), tuple(sorted(T + S))


def times(vec: Vector, S: Subset) -> Vector:
    """vec ∧ e_S. Distinct terms of vec stay distinct, so nothing cancels."""
    out = {}
    for (i, T), c in vec.items():
        hit = wedge_subsets(T, S)
        if hit is not None:
            out[(i, hit[1])] = hit[0] * c
    return out


RADIX = 1 << 64


def pack(weight) -> int:
    """A weight as one integer, sum of w_t * RADIX**t. It is linear, so the
    key of g + w(S) is key(g) + key(w(S)), and GradedFreeModule bounds the
    weights so that coordinates of distinct weight get distinct keys."""
    key = 0
    for w in reversed(weight):
        key = key * RADIX + w
    return key


class ExteriorAlgebra(Frozen):
    """Ambient algebra data: generator count and one torus weight per generator.
    _subsets caches the weight groups of the subsets, built once a size;
    reach bounds |w(S)| entrywise. Neither takes part in equality."""

    __slots__ = ("nvars", "var_weights", "_subsets", "reach")
    _fields = ("nvars", "var_weights")

    def __init__(self, nvars: int, var_weights: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "var_weights", var_weights)
        object.__setattr__(self, "_subsets", {})
        object.__setattr__(self, "reach", sum(max(map(abs, w), default=0) for w in var_weights))


# tables that depend only on the generator count, shared by every algebra:
# (nvars, k) -> the k-subsets and their index, (nvars, T, k) -> wedge_table;
# each is a pure function of its key, never changed once stored
_TABLES: dict = {}


def _combinations(nvars: int, k: int):
    """The k-subsets of range(nvars) in combinations order, and their index."""
    if (nvars, k) not in _TABLES:
        subs = list(itertools.combinations(range(nvars), k))
        _TABLES[nvars, k] = subs, dict(zip(subs, range(len(subs))))
    return _TABLES[nvars, k]


def subsets(algebra: ExteriorAlgebra, k: int):
    """The k-subsets in combinations order, and their weight groups as
    (packed weight, weight, subset numbers)."""
    if k not in algebra._subsets:
        subs, groups = _combinations(algebra.nvars, k)[0], {}
        for s, S in enumerate(subs):
            w = map(sum, zip(*(algebra.var_weights[i] for i in S)))
            groups.setdefault(tuple(w), []).append(s)
        algebra._subsets[k] = (subs, [(pack(w), w, ids) for w, ids in groups.items()])
    return algebra._subsets[k]


def wedge_table(algebra: ExteriorAlgebra, T: Subset, k: int):
    """(signs, idx): e_T ∧ e_S = signs[s] * e_U for the s-th k-subset S and
    U the idx[s]-th subset of its size; both are None where T meets S. Built
    once per (nvars, T, k) in the process."""
    key = algebra.nvars, T, k
    if key not in _TABLES:
        index = _combinations(algebra.nvars, len(T) + k)[1]
        hits = [wedge_subsets(T, S) for S in _combinations(algebra.nvars, k)[0]]
        _TABLES[key] = ([hit and hit[0] for hit in hits], [hit and index[hit[1]] for hit in hits])
    return _TABLES[key]


class Generator(Frozen):
    """A generator's degree and torus weight; key = pack(weight), computed
    once, is left out of equality."""

    __slots__ = ("degree", "weight", "key")
    _fields = ("degree", "weight")

    def __init__(self, degree: int, weight: tuple[int, ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "key", pack(weight))


class GradedFreeModule(Frozen):
    __slots__ = _fields = ("algebra", "generators")

    def __init__(self, algebra: ExteriorAlgebra, generators: tuple[Generator, ...]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "generators", generators)
        weights = [g.weight for g in self.generators]
        lengths = {len(w) for w in self.algebra.var_weights}
        lengths.update(map(len, weights))
        if len(lengths) > 1:
            raise InvariantViolation(f"torus weights of lengths {sorted(lengths)} in one module")
        # a coordinate weighs g + w(S), at most reach in size in every entry;
        # two such weights then differ by less than RADIX and pack apart
        reach = self.algebra.reach + max(map(abs, itertools.chain(*weights)), default=0)
        if 2 * reach >= RADIX:
            raise InvariantViolation(f"torus weights reach {reach}, too far to pack")

    @property
    def rank(self) -> int:
        return len(self.generators)

    def degrees(self) -> list[int]:
        return [g.degree for g in self.generators]

    def counts_by_degree(self) -> dict[int, int]:
        return dict(sorted(Counter(self.degrees()).items(), reverse=True))


class FreeModuleMap(Record):
    """Map of graded free right modules, given by the images of the source
    generators: columns[j] is the image of source generator j, a vector with
    nonzero integer coefficients."""

    __slots__ = _fields = ("source", "target", "columns")

    def __init__(self, source: GradedFreeModule, target: GradedFreeModule, columns: list[Vector]):
        self.source, self.target, self.columns = source, target, columns
        if self.source.algebra != self.target.algebra:
            raise InvariantViolation("source and target live over different algebras")
        if len(self.columns) != self.source.rank:
            raise InvariantViolation(f"{len(self.columns)} columns for {self.source.rank} generators")

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
        the terms (i, S), c of inner's column j. The build never forms it
        (the cover checks each column over Z as a kernel vector); tests
        compose windows with it as their reference."""
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


def positions(module: GradedFreeModule, d: int) -> tuple[dict[int, int], int]:
    """Offsets by size of the module's degree-d subsets, and their height."""
    offset, height = {}, 0
    for k in sorted({g.degree - d for g in module.generators}):
        if 0 <= k <= module.algebra.nvars:
            offset[k], height = height, height + math.comb(module.algebra.nvars, k)
    return offset, height


def odd_terms(col: Vector) -> frozenset:
    """The subsets T of col's odd terms, less those that cancel mod 2: terms
    of one subset sit at the same position whatever their target."""
    odd = [key[1] for key, c in col.items() if c & 1]
    once = frozenset(odd)
    if len(once) < len(odd):
        once = frozenset(T for T, n in Counter(odd).items() if n & 1)
    return once


class GradedPiece(Record):
    """Degree-d component of phi, laid out as its torus-weight blocks
    (ascending source keys, weight, packed weight). rows is
    positions(phi.target, d); height counts the source positions, and a
    coordinate's key is j * height + position; odd maps a generator to its
    pattern: first position, and the odd-entry bitset of each position.
    Equality reads phi and d, which the rest derive from, so no cache
    enters it."""

    __slots__ = ("phi", "d", "rows", "blocks", "height", "odd", "terms")
    _fields = ("phi", "d")

    def __init__(self, phi: FreeModuleMap, d: int, rows: tuple[dict[int, int], int],
                 blocks: list[tuple[list[int], tuple[int, ...], int]], height: int,
                 odd: dict[int, tuple]):
        self.phi, self.d, self.rows, self.blocks = phi, d, rows, blocks
        self.height, self.odd, self.terms = height, odd, {}

    @property
    def source_coords(self) -> list[tuple[int, Subset]]:
        """Every source coordinate (j, S) in key order, built on demand."""
        gens, algebra = self.phi.source.generators, self.phi.source.algebra
        return [(j, S) for j in self.odd for S in subsets(algebra, gens[j].degree - self.d)[0]]

    def coord(self, key: int) -> tuple[int, Subset]:
        """The source coordinate (j, S) at a key, S of j's size k = deg g_j - d."""
        j, position = divmod(key, self.height)
        k = self.phi.source.generators[j].degree - self.d
        return j, subsets(self.phi.source.algebra, k)[0][position - self.odd[j][0]]

    def rank(self) -> int:
        return sum(Echelon(self.block_columns(ids)).rank for ids, _, _ in self.blocks)

    def kernel_vectors(self, ids, products=()) -> tuple[int, list[tuple[int, dict[int, int]]]]:
        """The nullity and kept kernel vectors of the block at these keys,
        given its products over the same keys (see block_kernel)."""
        return block_kernel(ids, self.block_columns(ids), products)

    def exact_terms(self, j: int) -> list[tuple]:
        """j's terms as (row key at idx 0, coefficient, signs, idx), built
        the first time an exact column of j is asked for."""
        if j not in self.terms:
            algebra, k = self.phi.source.algebra, self.phi.source.generators[j].degree - self.d
            row_offset, row_height = self.rows
            self.terms[j] = [(i * row_height + row_offset[len(T) + k], cf,
                              *wedge_table(algebra, T, k))
                             for (i, T), cf in self.phi.columns[j].items()
                             if len(T) + k <= algebra.nvars]  # else e_T ∧ e_S = 0 for every S
        return self.terms[j]

    def block_columns(self, ids) -> list[dict[int, int]]:
        """Exact columns at the keys of one block, over target keys."""
        columns = []
        for c in ids:
            j, position = divmod(c, self.height)
            s = position - self.odd[j][0]
            columns.append({base + idx[s]: signs[s] * cf for base, cf, signs, idx
                            in self.exact_terms(j) if idx[s] is not None})
        return columns

    def odd_columns(self, ids, pivots=None) -> list[int]:
        """Those columns' odd entries as bitsets over positions, one read of
        their pattern's table each. With pivots, an echelon_mod2 basis keyed
        by bit_length, a column at position p is left out if p + 1 is a key."""
        odd, height = self.odd, self.height
        if pivots:
            return [odd[c // height][1][c % height] for c in ids if c % height + 1 not in pivots]
        return [odd[c // height][1][c % height] for c in ids]


def block_kernel(src_ids, columns: list[dict[int, int]],
                 products=()) -> tuple[int, list[tuple[int, dict[int, int]]]]:
    """(nullity, kept) of one block: the (free coordinate, kernel vector)
    pairs, in src_ids, that a greedy echelon of the products, exact columns
    over the block's keys in its kernel, would keep. The block's rows are
    reduced last row first, which fills in far less on tall blocks; pivots
    and kernel depend only on the row space.

    One pass over the entries numbers the rows at first appearance and
    builds each column's bitset of odd entries over those numbers. Only the
    pivot rows of their mod-2 echelon, each column's top bit its pivot, are
    transposed and reduced: they are independent mod 2, hence over Q, so
    their kernel K, with free columns F, holds the block's, and restriction
    to F is injective on K. Reducing the products' restrictions with the
    largest column as pivot leaves the kept f, the free columns that are no
    pivot. Only their vectors are built, each checked over Z against the
    columns; if all pass, they and the products span |F| = dim K dimensions
    of the block's kernel, so K is it. Otherwise, when rank mod 2 falls
    short of the rank, every row is transposed and reduced."""
    n, at, odd = len(columns), {}, []
    for col in columns:
        bits = 0
        for r, v in col.items():
            i = at.setdefault(r, len(at))
            if v & 1:
                bits ^= 1 << i
        odd.append(bits)
    index = dict(zip(src_ids, range(n)))
    try:
        # column n-1-c of a restriction is c, so Echelon's pivot is the largest
        products = [{n - 1 - index[key]: v for key, v in col.items()} for col in products]
    except KeyError as err:
        raise InvariantViolation(f"a product reaches key {err}, outside its block") from None
    keys = list(at)
    sieved = [keys[top - 1] for top in sorted(echelon_mod2(odd), reverse=True)]  # last row first
    for full in (False, True):
        # the rows to reduce in that order, each filled in column order
        rows = {r: {} for r in (reversed(keys) if full else sieved)}
        for c, col in enumerate(columns):
            for r in col.keys() & rows.keys():
                rows[r][c] = col[r]
        ech = Echelon(rows.values())
        free = ech.free_columns(n)
        spanned = Echelon({c: v for c, v in col.items() if n - 1 - c not in ech.rows}
                          for col in products)
        found = [(f, ech.kernel_vector(f)) for f in free if n - 1 - f not in spanned.rows]
        if full or all(annihilates(columns, vec) for _, vec in found):
            break
    return len(free), [(src_ids[f], {src_ids[c]: v for c, v in vec.items()}) for f, vec in found]


def annihilates(columns: list[dict[int, int]], vec: dict[int, int]) -> bool:
    """True if the columns weighted by vec add up to zero over Z."""
    total: dict[int, int] = {}
    for c, x in vec.items():
        for r, v in columns[c].items():
            total[r] = total.get(r, 0) + x * v
    return not any(total.values())


def odd_table(algebra: ExteriorAlgebra, k: int, first: int, row_offset: dict[int, int],
              Ts: frozenset) -> list[int]:
    """A pattern's bitsets of odd entries, indexed by position, from first
    on: at the s-th k-subset S, the bit row_offset[|U|] + idx of each
    e_T ∧ e_S = ±e_U, U the idx-th subset of its size, over T in Ts."""
    hits = [(row_offset[len(T) + k], wedge_table(algebra, T, k)[1])
            for T in Ts if len(T) + k <= algebra.nvars]  # else e_T ∧ e_S = 0 for every S
    table = [0] * first
    for s in range(math.comb(algebra.nvars, k)):
        bits = 0
        for at, idx in hits:
            if (u := idx[s]) is not None:
                bits ^= 1 << at + u
        table.append(bits)
    return table


def lay_out(phi: FreeModuleMap, d: int, terms=None) -> GradedPiece:
    """The degree-d piece of phi, laid out as its blocks without columns.
    The coordinate (j, S) weighs g_j.weight plus the weights of S, so j's
    keys, from j * height + offset(k) on, join blocks a subset weight group
    at a time: one block lookup per (generator, group), and a group of one
    subset appends its one key. Blocks come in the order of their first
    coordinate, their keys ascending. Generators of one size k and one
    odd-term set (odd_terms of their columns, or terms[j] where a cover
    has computed them once for all its degrees) share a pattern and its
    odd_table."""
    algebra = phi.source.algebra
    offset, height = positions(phi.source, d)
    row_offset, row_height = positions(phi.target, d)
    by_key: dict[int, tuple[list[int], tuple[int, ...], int]] = {}
    patterns: dict[tuple[int, frozenset], tuple] = {}
    piece = GradedPiece(phi, d, (row_offset, row_height), [], height, {})
    for j, g in enumerate(phi.source.generators):
        k = g.degree - d
        if k not in offset:
            continue
        start = j * height + offset[k]
        Ts = terms[j] if terms else odd_terms(phi.columns[j])
        if (k, Ts) not in patterns:
            patterns[k, Ts] = offset[k], odd_table(algebra, k, offset[k], row_offset, Ts)
        piece.odd[j] = patterns[k, Ts]
        for w_key, w, ids in subsets(algebra, k)[1]:
            b = g.key + w_key
            block = by_key.get(b)
            if block is None:
                block = by_key[b] = ([], tuple(map(add, g.weight, w)) if k else g.weight, b)
            if len(ids) == 1:
                block[0].append(start + ids[0])
            else:
                block[0].extend(map(start.__add__, ids))
    piece.blocks = list(by_key.values())
    return piece


def graded_piece(phi: FreeModuleMap, d: int, terms=None) -> GradedPiece:
    """The degree-d component of phi, laid out as its blocks (see lay_out)."""
    return lay_out(phi, d, terms)


def given_columns(piece: GradedPiece, shifted: GradedPiece, ids, weight, keys) -> list:
    """(largest key, weight, column) of each given column, the product of a
    given generator at one of these keys of shifted, in a block of piece
    certified mod 2. Each must lie in the block and be checked over Z
    against its exact columns, as block_kernel checks the vectors it keeps."""
    found = []
    for vec in shifted.block_columns(keys):
        if not vec or not vec.keys() <= set(ids) or not annihilates(
                piece.block_columns(list(vec)), dict(enumerate(vec.values()))):
            raise InvariantViolation(f"a given column of degree {piece.d} and weight {weight}"
                                     " is zero or no kernel vector")
        found.append((max(vec), weight, vec))
    return found


def minimal_free_cover(
    phi: FreeModuleMap,
    degree_floor: int,
    given: FreeModuleMap | None = None,
) -> tuple[FreeModuleMap, dict[int, tuple[int, int]]]:
    """Minimal graded free cover of ker(phi), scanned from the top degree down.

    In each degree the new generators are canonical kernel vectors that are
    independent of everything the previously chosen generators already span
    after multiplication by the algebra; a block certified mod 2 gains none
    (see the module notes). A block that no product reaches has no pivots
    to take off: its columns' independence mod 2 certifies it, and failing
    that block_kernel runs on it without products. The returned map sends
    the cover onto the kernel through degree_floor; callers know the floor
    from theory and audit the generator counts instead of probing below
    it.

    given, a map into phi.source, holds generators the caller knows: each
    column joins its degree's products and becomes a generator of the
    cover, keyed at its largest key among that degree's kernel vectors. Its
    block must pass the mod-2 certificate, and the column is checked over Z
    against the block's exact columns; either failure, or a column of the
    wrong degree or weight, is an InvariantViolation. That no given column
    is redundant is the caller's to audit, by counting generators.

    Returns (onto, dims): the cover onto.source, each generator carrying its
    degree and block weight, and dims[d] = (columns, nullity) of phi's
    degree-d piece for every degree scanned.
    """
    F = phi.source
    algebra = F.algebra
    gens: list[Generator] = []
    vectors: list[Vector] = []
    dims: dict[int, tuple[int, int]] = {}
    phi_terms, vector_terms = list(map(odd_terms, phi.columns)), []
    if given is not None:
        given.validate_degrees()

    def add_generators(d: int) -> int:
        piece = graded_piece(phi, d, phi_terms)
        known = [j for j, g in enumerate(given.source.generators) if g.degree == d] if given else []
        shifted = lay_out(FreeModuleMap(
            GradedFreeModule(algebra, (*gens, *(given.source.generators[j] for j in known))),
            F, vectors + [given.columns[j] for j in known]), d,
            vector_terms + [odd_terms(given.columns[j]) for j in known])
        products = {key: ids for ids, _, key in shifted.blocks}
        first_known = len(gens) * shifted.height  # the given columns' products from here
        columns, nullity, kernel, proved = 0, 0, [], 0
        for ids, weight, key in piece.blocks:
            columns += len(ids)
            # the block's products, as bitsets over the same positions; their
            # exact columns are over the same keys
            prods = products.get(key, ())
            if not prods:  # no pivots to take off
                if independent_mod2(piece.odd_columns(ids)):
                    continue
            else:
                basis = echelon_mod2(shifted.odd_columns(prods))
                # a pivot at a position two columns share fails the count
                rest = piece.odd_columns(ids, basis)
                given_here = prods[-1] >= first_known  # given columns' products come last
                if len(rest) + len(basis) == len(ids) and independent_mod2(rest):
                    nullity += len(basis)
                    if given_here:
                        found = given_columns(piece, shifted, ids, weight,
                                              prods[bisect_left(prods, first_known):])
                        kernel += found
                        proved += len(found)
                    continue
                if given_here:
                    raise InvariantViolation(f"the block of a given column of degree {d} and"
                                             f" weight {weight} fails the mod-2 certificate")
            block_nullity, kept = piece.kernel_vectors(ids, shifted.block_columns(prods))
            nullity += block_nullity
            kernel += [(free, weight, vec) for free, vec in kept]
        dims[d] = (columns, nullity)
        for _, weight, vec in sorted(kernel):  # free columns are distinct
            gens.append(Generator(d, weight))
            # an integer kernel vector is positive at its free column, not
            # at its leading one; the cover's signs follow the leading entry
            vectors.append({piece.coord(c): v for c, v in primitive_integer_vector(vec).items()})
            vector_terms.append(odd_terms(vectors[-1]))
        return proved

    proved = 0
    for d in range(max(F.degrees(), default=degree_floor - 1), degree_floor - 1, -1):
        proved += add_generators(d)  # its layouts are freed before the next degree's are built
    if given is not None and proved != given.source.rank:
        raise InvariantViolation(f"{given.source.rank - proved} given columns"
                                 " lie in no block of the degrees scanned")
    return FreeModuleMap(GradedFreeModule(algebra, tuple(gens)), F, vectors), dims
