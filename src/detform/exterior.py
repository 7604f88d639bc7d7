"""Exterior algebra over the integers and graded free modules over it.

Everything downstream reduces to exact linear algebra on graded pieces of
maps between free modules. Pieces split into independent blocks along an
optional fine grading by integer vectors (one weight per algebra generator);
blockwise results are assembled back in the canonical coordinate order, so
the splitting is invisible except in running time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .linalg import Echelon, primitive_integer_vector

Subset = tuple[int, ...]


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


class ExteriorElement:
    """Sparse integer combination of basis monomials e_S, S ascending."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[Subset, int] = {}
        if terms:
            for S, c in terms.items():
                if c:
                    self.terms[tuple(S)] = c

    @classmethod
    def generator(cls, i: int) -> ExteriorElement:
        return cls({(i,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Degree of a homogeneous element (None for zero)."""
        sizes = {len(S) for S in self.terms}
        if not sizes:
            return None
        if len(sizes) > 1:
            raise ValueError("element is not homogeneous")
        return -sizes.pop()

    def wedge(self, other: ExteriorElement) -> ExteriorElement:
        out: dict[Subset, int] = {}
        for T, a in self.terms.items():
            for S, b in other.terms.items():
                hit = wedge_subsets(T, S)
                if hit is None:
                    continue
                sign, U = hit
                c = out.get(U, 0) + sign * a * b
                if c:
                    out[U] = c
                elif U in out:
                    del out[U]
        result = ExteriorElement()
        result.terms = out
        return result

    def __add__(self, other: ExteriorElement) -> ExteriorElement:
        out = dict(self.terms)
        for S, c in other.terms.items():
            v = out.get(S, 0) + c
            if v:
                out[S] = v
            elif S in out:
                del out[S]
        result = ExteriorElement()
        result.terms = out
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, ExteriorElement) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for S in sorted(self.terms):
            mono = "1" if not S else "e" + "".join(f"[{i}]" for i in S)
            bits.append(f"{self.terms[S]}*{mono}")
        return " + ".join(bits)


@dataclass(frozen=True)
class ExteriorAlgebra:
    """Ambient algebra data: generator count and optional fine grading."""

    nvars: int
    var_weights: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class Generator:
    degree: int
    label: object = None
    weight: tuple[int, ...] | None = None


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

    def coord_weight(self, coord: tuple[int, Subset]) -> tuple[int, ...] | None:
        j, S = coord
        gw = self.generators[j].weight
        vw = self.algebra.var_weights
        if gw is None or vw is None:
            return None
        acc = list(gw)
        for i in S:
            for axis, c in enumerate(vw[i]):
                acc[axis] += c
        return tuple(acc)


@dataclass
class FreeModuleMap:
    """Map of graded free right modules, given by a sparse entry matrix.

    Entry (i, j) is the coefficient of target generator i in the image of
    source generator j; the map acts by phi(g_j * w) = sum_i t_i * (entry_ij ∧ w).
    """

    source: GradedFreeModule
    target: GradedFreeModule
    entries: dict[tuple[int, int], ExteriorElement] = field(default_factory=dict)

    def __post_init__(self):
        if self.source.algebra != self.target.algebra:
            raise ValueError("source and target live over different algebras")
        self.entries = {k: v for k, v in self.entries.items() if not v.is_zero()}

    def validate_degrees(self):
        """Every entry must be homogeneous of the degree the generators force."""
        for (i, j), v in self.entries.items():
            want = self.source.generators[j].degree - self.target.generators[i].degree
            if v.degree() != want:
                raise ValueError(f"entry ({i}, {j}) has degree {v.degree()}, expected {want}")

    def compose(self, inner: FreeModuleMap) -> FreeModuleMap:
        """self ∘ inner; entries are wedge-products summed over the middle index."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("composition mismatch")
        by_col: dict[int, list[tuple[int, ExteriorElement]]] = {}
        for (i, j), v in inner.entries.items():
            by_col.setdefault(j, []).append((i, v))
        out: dict[tuple[int, int], ExteriorElement] = {}
        by_mid: dict[int, list[tuple[int, ExteriorElement]]] = {}
        for (k, i), w in self.entries.items():
            by_mid.setdefault(i, []).append((k, w))
        for j, col in by_col.items():
            for i, v in col:
                for k, w in by_mid.get(i, ()):
                    term = w.wedge(v)
                    if term.is_zero():
                        continue
                    cur = out.get((k, j))
                    out[(k, j)] = term if cur is None else cur + term
        return FreeModuleMap(inner.source, self.target, out)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.entries.values())


@dataclass
class GradedPiece:
    """Degree-d component of a map, stored blockwise along the fine grading."""

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
        total = 0
        for src_ids, _, local_rows in self.blocks:
            ech = Echelon()
            for row in local_rows:
                if row:
                    ech.insert(row)
            total += ech.rank
        return total

    def kernel_vectors(self) -> list[dict[int, int]]:
        """Canonical nullspace basis, globally ordered by free coordinate."""
        found: list[tuple[int, dict[int, int]]] = []
        for src_ids, _, local_rows in self.blocks:
            ech = Echelon()
            for row in local_rows:
                if row:
                    ech.insert(row)
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

    by_col: dict[int, list[tuple[int, Subset, int]]] = {}
    for (i, j), v in phi.entries.items():
        by_col.setdefault(j, []).extend((i, T, cf) for T, cf in v.terms.items())

    blocks = []
    for _, src_ids in sorted(by_weight.items(), key=lambda kv: kv[1][0]):
        tgt_ids: list[int] = []
        tgt_local: dict[int, int] = {}
        local_rows: list[dict[int, int]] = []
        for local_c, c in enumerate(src_ids):
            j, S = source_coords[c]
            for i, T, cf in by_col.get(j, ()):
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
                val = local_rows[lr].get(local_c, 0) + sign * cf
                if val:
                    local_rows[lr][local_c] = val
                elif local_c in local_rows[lr]:
                    del local_rows[lr][local_c]
        blocks.append((src_ids, tgt_ids, local_rows))
    return GradedPiece(d, source_coords, target_coords, blocks)


def minimal_free_cover(
    phi: FreeModuleMap,
    degree_floor: int,
) -> tuple[GradedFreeModule, FreeModuleMap]:
    """Minimal graded free cover of ker(phi), scanned from the top degree down.

    In each degree the new generators are canonical kernel vectors that are
    independent of everything the previously chosen generators already span
    after multiplication by the algebra. The returned map sends the cover
    onto the kernel through degree_floor; callers know the floor from theory
    and audit the generator counts instead of probing below it.
    """
    F = phi.source
    algebra = F.algebra
    if F.rank == 0:
        cover = GradedFreeModule(algebra, ())
        return cover, FreeModuleMap(cover, F, {})
    top = max(F.degrees())

    gens: list[Generator] = []
    vectors: list[dict[tuple[int, Subset], int]] = []

    def new_generators(d: int) -> list[dict[tuple[int, Subset], int]]:
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
                shifted: dict[int, int] = {}
                for (j, T), cf in gvec.items():
                    hit = wedge_subsets(T, S)
                    if hit is None:
                        continue
                    sign, U = hit
                    shifted[coord_at[(j, U)]] = shifted.get(coord_at[(j, U)], 0) + sign * cf
                shifted = {c: v for c, v in shifted.items() if v}
                if shifted:
                    block_of(shifted).insert(shifted)
        fresh = [vec for vec in piece.kernel_vectors() if block_of(vec).insert(vec)]
        # an integer kernel vector is positive at its free column, not at its
        # leading one; the cover's signs follow the leading entry
        return [
            {piece.source_coords[c]: v for c, v in primitive_integer_vector(vec).items()}
            for vec in fresh
        ]

    for d in range(top, degree_floor - 1, -1):
        for keyed in new_generators(d):
            weights = {F.coord_weight(coord) for coord in keyed}
            if len(weights) != 1:
                raise AssertionError("cover generator is not weight-homogeneous")
            gens.append(Generator(d, ("ker", d, len(gens)), weights.pop()))
            vectors.append(keyed)

    cover = GradedFreeModule(algebra, tuple(gens))
    entries: dict[tuple[int, int], ExteriorElement] = {}
    for col, vec in enumerate(vectors):
        by_target: dict[int, dict[Subset, int]] = {}
        for (j, S), cf in vec.items():
            by_target.setdefault(j, {})[S] = cf
        for j, terms in by_target.items():
            entries[(j, col)] = ExteriorElement(terms)
    return cover, FreeModuleMap(cover, F, entries)
