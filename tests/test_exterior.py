"""Wedge products, image columns, graded pieces, kernels, minimal covers.

Graded pieces are checked against a reference built here from `times`
alone: each block id must be its coordinate's key, computed here from the
definition, and the piece's rows, read off its columns over target keys,
must be the reference's nonzero rows. Covers are checked against a
reference cover built here from the reference pieces: a full kernel basis
in every degree, every vector inserted against the shifted products.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import pytest

from detform import exterior
from detform.bracket import apply_U4, export_matrix
from detform.errors import InvariantViolation
from detform.exterior import (
    ExteriorAlgebra,
    FreeModuleMap,
    GradedFreeModule,
    Generator,
    graded_piece,
    minimal_free_cover,
    times,
    wedge_subsets,
)
from detform.lattice import convex_hull_with_facets
from detform.linalg import Echelon, echelon_mod2, independent_mod2, primitive_integer_vector
from detform.shelling import best_selection
from detform.tate import build_phi2, build_window, check_exactness, window_dump

from conftest import acceptance_corpus
from rungs import RUNGS, digest


def algebra(nvars: int) -> ExteriorAlgebra:
    """Algebra whose torus weights are all zero: every piece is one block."""
    return ExteriorAlgebra(nvars, ((0,),) * nvars)


def module(alg: ExteriorAlgebra, *degrees: int) -> GradedFreeModule:
    return GradedFreeModule(alg, tuple(Generator(d, (0,)) for d in degrees))


ONE = module(algebra(5), 0)


def wedge(a: dict, b: dict) -> dict:
    """a ∧ b for elements {S: c}, as the composition of two 1 x 1 maps."""
    outer = FreeModuleMap(ONE, ONE, [{(0, S): c for S, c in a.items()}])
    inner = FreeModuleMap(ONE, ONE, [{(0, S): c for S, c in b.items()}])
    return {S: c for (_, S), c in outer.compose(inner).columns[0].items()}


def rand_element(rng: random.Random, nvars: int, size: int) -> dict:
    """Random homogeneous element {S: c} with monomials of the given subset size."""
    subs = list(itertools.combinations(range(nvars), size))
    picked = {S: rng.randint(-3, 3) for S in rng.sample(subs, min(3, len(subs)))}
    return {S: c for S, c in picked.items() if c}


def rand_column(rng: random.Random, target: GradedFreeModule, degree: int) -> dict:
    """Random homogeneous image of a degree-`degree` generator."""
    col = {}
    for i, g in enumerate(target.generators):
        if g.degree >= degree:
            col.update({(i, S): c for S, c in
                        rand_element(rng, target.algebra.nvars, g.degree - degree).items()})
    return col


def reference_piece(phi: FreeModuleMap, d: int) -> tuple[list, dict]:
    """Degree-d piece of phi from `times`: the source coordinates in
    canonical order and the rows {target (i, U): {source (j, S): c}}."""
    N = phi.source.algebra.nvars
    coords, rows = [], {}
    for j, g in enumerate(phi.source.generators):
        if g.degree - d < 0:
            continue
        for S in itertools.combinations(range(N), g.degree - d):
            coords.append((j, S))
            for key, c in times(phi.columns[j], S).items():
                rows.setdefault(key, {})[(j, S)] = c
    return coords, rows


def reference_key(module: GradedFreeModule, d: int, coord) -> int:
    """A degree-d coordinate (i, U)'s key from its definition: i times the
    count of subsets of every size in use, plus the count of those smaller
    than |U|, plus the index of U among its size."""
    N = module.algebra.nvars
    sizes = {g.degree - d for g in module.generators if 0 <= g.degree - d <= N}
    i, U = coord
    below = sum(math.comb(N, k) for k in sizes if k < len(U))
    return i * sum(math.comb(N, k) for k in sizes) + below + subset_index(N, len(U))[U]


@functools.cache
def subset_index(N: int, k: int) -> dict:
    return {U: n for n, U in enumerate(itertools.combinations(range(N), k))}


def piece_rows(piece) -> list[dict]:
    """Every row of every block, keyed by source coordinate, read off the
    block's columns in the order the columns first reach them."""
    rows: dict = {}
    for src_ids, _, _ in piece.blocks:
        for c, col in zip(src_ids, piece.block_columns(src_ids)):
            for r, v in col.items():
                rows.setdefault(r, {})[piece.coord(c)] = v
    return list(rows.values())


def checked_piece(phi: FreeModuleMap, d: int):
    """graded_piece(phi, d), after checking it against the reference."""
    piece = graded_piece(phi, d)
    coords, rows = reference_piece(phi, d)
    assert piece.source_coords == coords
    # the block ids are the coordinates' keys, each once, ascending in a block
    ids = sorted(c for src_ids, _, _ in piece.blocks for c in src_ids)
    assert ids == [reference_key(phi.source, d, coord) for coord in coords]
    assert [piece.coord(c) for c in ids] == coords
    # blocks come in the order of their first keys
    firsts = [src_ids[0] for src_ids, _, _ in piece.blocks]
    assert firsts == sorted(firsts)
    keyed: dict = {}
    for src_ids, _, _ in piece.blocks:
        assert src_ids == sorted(src_ids)
        columns = piece.block_columns(src_ids)
        assert len(columns) == len(src_ids)
        for c, col in zip(src_ids, columns):
            for r, v in col.items():
                keyed.setdefault(r, {})[c] = v
    # the exact columns are sparse over the target coordinates' keys
    assert keyed == {reference_key(phi.target, d, key): {
        reference_key(phi.source, d, coord): v for coord, v in row.items()}
        for key, row in rows.items()}
    return piece


def kernel_basis(piece) -> list[dict]:
    """The piece's canonical kernel basis, block by block, ordered by free
    key and keyed by source coordinate."""
    found = [pair for ids, _, _ in piece.blocks for pair in piece.kernel_vectors(ids)[1]]
    return [{piece.coord(c): v for c, v in vec.items()} for _, vec in sorted(found)]


def coord_weight(module: GradedFreeModule, coord) -> tuple[int, ...]:
    j, S = coord
    weights = [module.generators[j].weight] + [module.algebra.var_weights[i] for i in S]
    return tuple(map(sum, zip(*weights)))


def test_wedge_basics():
    e1, e2 = {(1,): 1}, {(2,): 1}
    assert wedge(e1, e1) == {}
    assert wedge(e2, e1) == {(1, 2): -1}
    assert wedge({(1,): 1, (2,): 1}, {(1,): 1, (2,): -1}) == {(1, 2): -2}
    assert wedge_subsets((0, 2), (1,)) == (-1, (0, 1, 2))
    assert wedge_subsets((0, 1), (1, 2)) is None
    vec = {(0, (2,)): 3, (1, (0, 3)): -1, (1, (1,)): 5}
    assert times(vec, (1,)) == {(0, (1, 2)): -3, (1, (0, 1, 3)): 1}
    assert times(vec, ()) == vec


def test_wedge_graded_commutative():
    rng = random.Random(42)
    for _ in range(20):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        a, b = rand_element(rng, 5, p), rand_element(rng, 5, q)
        sign = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == {S: sign * c for S, c in wedge(b, a).items()}
        c = rand_element(rng, 5, rng.randint(0, 2))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        for S in c:
            assert times({(0, T): v for T, v in a.items()}, S) == \
                {(0, U): v for U, v in wedge(a, {S: 1}).items()}


def test_degree_and_homogeneity():
    alg = algebra(3)
    M, T = module(alg, 0, 0), module(alg, 1, 2)
    phi = FreeModuleMap(M, T, [{(0, (2,)): 1, (1, (0, 1)): -2}, {(1, (1, 2)): 4}])
    assert phi.cells() == {(0, 0): {(2,): 1}, (1, 0): {(0, 1): -2}, (1, 1): {(1, 2): 4}}
    phi.validate_degrees()
    inhomogeneous = FreeModuleMap(M, T, [{(0, (0,)): 1, (0, ()): 1}, {}])
    with pytest.raises(InvariantViolation, match="has degrees"):
        inhomogeneous.validate_degrees()
    with pytest.raises(InvariantViolation, match="1 columns for 2 generators"):
        FreeModuleMap(M, T, [{}])
    with pytest.raises(InvariantViolation, match="composition mismatch"):
        phi.compose(phi)


def test_entry_degrees_validated():
    alg = algebra(3)
    M, T = module(alg, 0), module(alg, 1)
    bad = FreeModuleMap(M, T, [{(0, (0, 1)): 1}])
    with pytest.raises(InvariantViolation):
        bad.validate_degrees()
    FreeModuleMap(M, T, [{(0, (2,)): 1}]).validate_degrees()


def test_graded_piece_identity():
    M = module(algebra(4), 0)
    piece = checked_piece(FreeModuleMap(M, M, [{(0, ()): 1}]), -1)
    assert piece_rows(piece) == [{(0, (i,)): 1} for i in range(4)]
    assert piece.rank() == 4
    assert kernel_basis(piece) == []


def test_graded_piece_zero_map():
    alg = algebra(3)
    M = module(alg, 0, 0)
    piece = checked_piece(FreeModuleMap(M, module(alg), [{}, {}]), -1)
    assert len(piece.source_coords) == 6
    assert piece_rows(piece) == []
    kers = kernel_basis(piece)
    assert len(kers) == 6
    assert kers[0] == {(0, (0,)): 1}


def test_composition_commutes_with_pieces():
    rng = random.Random(7)
    alg = algebra(4)
    A, B, C = module(alg, 2, 1), module(alg, 1, 0), module(alg, 0)
    for _ in range(5):
        f = FreeModuleMap(C, B, [rand_column(rng, B, 0)])
        g = FreeModuleMap(B, A, [rand_column(rng, A, d) for d in B.degrees()])
        gf = g.compose(f)
        gf.validate_degrees()
        for d in (0, -1, -2):
            for phi in (f, g, gf):
                checked_piece(phi, d)
            # the piece of g∘f is the product of the pieces of g and f
            rows_f = reference_piece(f, d)[1]
            prod: dict = {}
            for key, grow in reference_piece(g, d)[1].items():
                row = prod.setdefault(key, {})
                for mid, gval in grow.items():
                    for c, fval in rows_f.get(mid, {}).items():
                        row[c] = row.get(c, 0) + gval * fval
            nonzero = {key: {c: v for c, v in row.items() if v} for key, row in prod.items()}
            assert reference_piece(gf, d)[1] == {key: row for key, row in nonzero.items() if row}


def test_minimal_cover_of_whole_module():
    alg = algebra(3)
    M = module(alg, 0, -1)
    into, _ = minimal_free_cover(FreeModuleMap(M, module(alg), [{}, {}]), degree_floor=-4)
    assert into.source.degrees() == [0, -1]
    assert piece_rows(checked_piece(into, 0)) == [{(0, ()): 1}]


def test_minimal_cover_finds_deep_generator():
    # phi sends the generator to e0, so the kernel is the ideal (e0):
    # one cover generator in degree -1 and nothing deeper.
    alg = algebra(2)
    F, G = module(alg, 0), module(alg, 1)
    phi = FreeModuleMap(F, G, [{(0, (0,)): 1}])
    into, _ = minimal_free_cover(phi, degree_floor=-2)
    assert into.source.degrees() == [-1]
    assert into.columns == [{(0, (0,)): 1}]
    assert not any(phi.compose(into).columns)


def test_a_given_generator_is_the_one_reduction_finds():
    # given the generator it would find, the cover returns it unchanged,
    # proved by its block's certificate and a check over Z
    alg = algebra(2)
    phi = FreeModuleMap(module(alg, 0), module(alg, 1), [{(0, (0,)): 1}])
    found = minimal_free_cover(phi, degree_floor=-2)
    given = FreeModuleMap(found[0].source, phi.source, found[0].columns)
    assert minimal_free_cover(phi, -2, given) == found


# phi sends a weight-0 generator to t0 ∧ e0 + 2 t1 ∧ e1, over variables of
# weights 1 and 2: in degree -1, (g, {0}) weighs 1 and maps to an even
# nonzero vector, (g, {1}) weighs 2 and maps to t0 ∧ e01
WEIGHTED = ExteriorAlgebra(2, ((1,), (2,)))
EVEN = FreeModuleMap(GradedFreeModule(WEIGHTED, (Generator(0, (0,)),)),
                     GradedFreeModule(WEIGHTED, (Generator(1, (-1,)), Generator(1, (-2,)))),
                     [{(0, (0,)): 1, (1, (1,)): 2}])


@pytest.mark.parametrize("degree, weight, column, message", [
    (-1, 1, {(0, (0,)): 1}, "is zero or no kernel vector"),  # passes mod 2 only
    (-1, 2, {}, "is zero or no kernel vector"),
    (-1, 1, {(0, (1,)): 1}, "fails the mod-2 certificate"),  # a column of weight 2
    (-1, 5, {(0, (0,)): 1}, "lie in no block"),
    (-3, 1, {}, "lie in no block"),  # below the floor
    (-1, 1, {(0, (0, 1)): 1}, "has degrees"),
], ids=["even-image", "zero", "other-weight", "no-block", "unscanned", "wrong-degree"])
def test_a_given_column_that_is_no_generator_is_an_invariant_violation(degree, weight,
                                                                       column, message):
    given = FreeModuleMap(GradedFreeModule(WEIGHTED, (Generator(degree, (weight,)),)),
                          EVEN.source, [column])
    with pytest.raises(InvariantViolation, match=message):
        minimal_free_cover(EVEN, -2, given)


def test_cover_image_matches_kernel_dimensions():
    rng = random.Random(3)
    alg = algebra(3)
    F, G = module(alg, 0, 0, -1), module(alg, 1, 0)
    phi = FreeModuleMap(F, G, [rand_column(rng, G, d) for d in F.degrees()])
    phi.validate_degrees()
    into, dims = minimal_free_cover(phi, degree_floor=-3)
    cover = into.source
    assert not any(phi.compose(into).columns)
    # the scan starts at phi's top source degree and stops at the floor
    assert sorted(dims, reverse=True) == [0, -1, -2, -3]
    for d in range(0, -4, -1):
        piece = graded_piece(phi, d)
        nullity = len(kernel_basis(piece))
        assert dims[d] == (len(piece.source_coords), nullity)
        assert nullity == len(piece.source_coords) - piece.rank()
        assert graded_piece(into, d).rank() == nullity
        # minimal: no generator of degree d lies in what the higher ones span
        higher = [j for j, g in enumerate(cover.generators) if g.degree > d]
        products = FreeModuleMap(
            GradedFreeModule(alg, tuple(cover.generators[j] for j in higher)),
            F, [into.columns[j] for j in higher])
        new = sum(1 for g in cover.generators if g.degree == d)
        assert graded_piece(into, d).rank() - graded_piece(products, d).rank() == new


def weighted_map(rng: random.Random, target: GradedFreeModule, degrees) -> FreeModuleMap:
    """Random weight-preserving map into target from generators of the given
    degrees: each source weight is that of some target coordinate, and the
    column mixes target coordinates of exactly that weight."""
    alg = target.algebra
    gens, columns = [], []
    for dj in degrees:
        i = rng.randrange(target.rank)
        S = tuple(sorted(rng.sample(range(alg.nvars), target.generators[i].degree - dj)))
        w = coord_weight(target, (i, S))
        col = {}
        for i2, t in enumerate(target.generators):
            if t.degree < dj:
                continue
            for S2 in itertools.combinations(range(alg.nvars), t.degree - dj):
                if coord_weight(target, (i2, S2)) == w and rng.random() < 0.7:
                    col[(i2, S2)] = rng.choice((-2, -1, 1, 2))
        gens.append(Generator(dj, w))
        columns.append(col)
    return FreeModuleMap(GradedFreeModule(alg, tuple(gens)), target, columns)


def reference_cover(phi: FreeModuleMap, degree_floor: int):
    """The cover by the rule before rank certification, on whole reference
    pieces: every canonical kernel vector of every scanned piece is inserted
    against the shifted products of the earlier generators. Returns the
    generators, columns and dims that minimal_free_cover reports."""
    alg = phi.source.algebra
    gens, columns, dims = [], [], {}
    for d in range(max(phi.source.degrees()), degree_floor - 1, -1):
        coords, rows = reference_piece(phi, d)
        coord_at = {coord: c for c, coord in enumerate(coords)}
        products = Echelon()
        for g, col in zip(gens, columns):
            for S in itertools.combinations(range(alg.nvars), g.degree - d):
                products.insert({coord_at[key]: v for key, v in times(col, S).items()})
        ech = Echelon({coord_at[key]: v for key, v in row.items()} for row in rows.values())
        kernel = [ech.kernel_vector(f) for f in ech.free_columns(len(coords))]
        dims[d] = (len(coords), len(kernel))
        for vec in kernel:
            if products.insert(vec):
                col = {coords[c]: v for c, v in primitive_integer_vector(vec).items()}
                gens.append(Generator(d, coord_weight(phi.source, next(iter(col)))))
                columns.append(col)
    return gens, columns, dims


def cover_like_reference(phi: FreeModuleMap, degree_floor: int) -> FreeModuleMap:
    into, dims = minimal_free_cover(phi, degree_floor)
    gens, columns, ref_dims = reference_cover(phi, degree_floor)
    assert list(into.source.generators) == gens
    assert into.columns == columns
    assert dims == ref_dims
    return into


def test_blocks_split_pieces_by_weight():
    # repeated subset weights ({0, 1} and {2}, {2, 3} and {0, 1}) make
    # blocks of several columns next to blocks of one
    check_blocks_split_by_weight(1, 1)


def test_blocks_of_large_weights_of_both_signs_stay_apart():
    # block keys pack the weight linearly, so weights of large magnitude and
    # both signs must still make one block per weight
    check_blocks_split_by_weight(10 ** 9, -10 ** 9 + 1)


def check_blocks_split_by_weight(a: int, b: int) -> None:
    alg = ExteriorAlgebra(4, ((a, 0), (0, b), (a, b), (0, 0)))
    G = GradedFreeModule(alg, (Generator(1, (0, 0)), Generator(1, (a, 0)), Generator(0, (0, 0))))
    rng = random.Random(5)
    for _ in range(4):
        phi = weighted_map(rng, G, (0, 0, 0, -1, -1))
        phi.validate_degrees()
        F = phi.source
        for d in range(0, -5, -1):
            piece = checked_piece(phi, d)
            weights = [w for _, w, _ in piece.blocks]
            assert len(set(weights)) == len(weights)
            assert [key for _, _, key in piece.blocks] == list(map(exterior.pack, weights))
            for src_ids, w, _ in piece.blocks:
                assert {coord_weight(F, piece.coord(c)) for c in src_ids} == {w}
        into = cover_like_reference(phi, degree_floor=-4)
        cover_like_reference(into, degree_floor=-5)
        assert not any(phi.compose(into).columns)
        for g, vec in zip(into.source.generators, into.columns):
            assert {coord_weight(F, coord) for coord in vec} == {g.weight}
            piece = graded_piece(phi, g.degree)
            blocks = {w for src_ids, w, _ in piece.blocks
                      if any(piece.coord(c) in vec for c in src_ids)}
            assert blocks == {g.weight}


def test_cover_matches_reference_on_cube_phi2(cube):
    middle = cover_like_reference(build_phi2(cube, (0, 1, 4)), degree_floor=-3)
    cover_like_reference(middle, degree_floor=-4)


@pytest.mark.parametrize("index", [2, 9, 12])
def test_cover_matches_reference_on_corpus_windows(index):
    # small N and many small blocks: the pieces both covers scan hold
    # hundreds of one-column blocks, which lay_out fills a key at a time,
    # and of blocks no earlier generator's product reaches, which the cover
    # certifies or reduces without products; both covers must equal the
    # reference's
    _, Q, selection = acceptance_corpus()[index]
    phi, one, unreached = build_phi2(Q, selection), 0, 0
    for floor in (-3, -4):
        into = cover_like_reference(phi, floor)
        gens = into.source.generators
        for d in range(max(phi.source.degrees()), floor - 1, -1):
            higher = [j for j, g in enumerate(gens) if g.degree > d]
            products = FreeModuleMap(GradedFreeModule(into.source.algebra,
                                                      tuple(gens[j] for j in higher)),
                                     phi.source, [into.columns[j] for j in higher])
            reached = {key for _, _, key in graded_piece(products, d).blocks}
            for src_ids, _, key in graded_piece(phi, d).blocks:
                one += len(src_ids) == 1
                unreached += key not in reached
        phi = into
    assert one > 200 and unreached > 500


def test_kernel_vectors_only_where_the_cover_gains(cube, monkeypatch):
    # every other block is certified without a kernel basis, and a block that
    # gains a generator builds only the vectors it keeps, so back-substitution
    # runs once per generator, at most once per free column of such a block
    calls = []
    kernel_vector = Echelon.kernel_vector

    def counted(self, free_col):
        calls.append(free_col)
        return kernel_vector(self, free_col)

    monkeypatch.setattr(Echelon, "kernel_vector", counted)
    phi2 = build_phi2(cube, (0, 1, 4))
    middle, phi2_dims = minimal_free_cover(phi2, degree_floor=-3)
    left, middle_dims = minimal_free_cover(middle, degree_floor=-4)
    monkeypatch.undo()

    gaining = 0
    for phi, into in ((phi2, middle), (middle, left)):
        for d, w in {(g.degree, g.weight) for g in into.source.generators}:
            piece = graded_piece(phi, d)
            [columns] = [piece.block_columns(ids) for ids, weight, _ in piece.blocks
                         if weight == w]
            gaining += len(columns) - Echelon(columns).rank
    scanned = sum(nullity for dims in (phi2_dims, middle_dims) for _, nullity in dims.values())
    assert 0 < len(calls) == middle.source.rank + left.source.rank <= gaining < scanned


@pytest.fixture
def wedges(monkeypatch):
    """From an empty table cache, the (T, k) of every wedge_table call and
    the (T, S) pairs wedged while building tables (not by compose or times)."""
    asked, wedged, building = [], [], []
    wedge_table, wedge_subsets = exterior.wedge_table, exterior.wedge_subsets

    def table(algebra, T, k):
        asked.append((T, k))
        building.append(True)
        try:
            return wedge_table(algebra, T, k)
        finally:
            building.pop()

    def counted(T, S):
        if building:
            wedged.append((T, S))
        return wedge_subsets(T, S)

    monkeypatch.setattr(exterior, "_TABLES", {})
    monkeypatch.setattr(exterior, "wedge_table", table)
    monkeypatch.setattr(exterior, "wedge_subsets", counted)
    return asked, wedged


def test_the_algebra_wedges_each_pair_once(cube, wedges):
    # e_T ∧ e_S depends only on N, a term's subset T and a coordinate's
    # subset S, so the process keeps one table per (N, T, k): from an empty
    # cache, over a whole window build and its exactness check, every (T, S)
    # pair is wedged once, though the covers, their products and the check
    # read each table in many pieces
    asked, wedged = wedges
    window = build_window(cube, (0, 1, 4))
    check_exactness(window)

    N = window.maps[2].source.algebra.nvars
    tables = set(asked)
    assert sorted(wedged) == sorted((T, S) for T, k in tables
                                    for S in itertools.combinations(range(N), k))
    assert {len(T) for T, _ in tables} == {1, 4}
    assert len(asked) > 2 * len(tables)


def test_windows_of_one_size_share_the_tables(cube, octahedron, wedges):
    # the tables depend only on N: a second cube window (N=8), built after
    # an octahedron one (N=7), reads the first one's tables and wedges no
    # pair, and all three windows keep their golden digests
    wedged = wedges[1]
    counts = []
    for name, Q in [("cube", cube), ("octahedron", octahedron), ("cube", cube)]:
        before = len(wedged)
        window = build_window(Q, RUNGS[name].selection)
        assert [digest(window_dump(window)), digest(export_matrix(apply_U4(window.maps[0])))] \
            == [RUNGS[name].window, RUNGS[name].matrix]
        counts.append(len(wedged) - before)
    assert counts[0] > 0 and counts[1] > 0 and counts[2] == 0


def test_cached_tables_match_the_wedge():
    # tables of every N <= 6, T and k, built largest N first: a table of one
    # N served to another has the wrong length or indices. Every cached
    # entry of those sizes is checked, those earlier tests built too
    for n in range(6, 0, -1):
        alg = algebra(n)
        for t in range(n + 1):
            for T in itertools.combinations(range(n), t):
                for k in range(n - t + 1):
                    exterior.wedge_table(alg, T, k)
    checked = set()
    for key, table in list(exterior._TABLES.items()):
        if key[0] > 6:
            continue
        if len(key) == 2:
            n, k = key
            subs = list(itertools.combinations(range(n), k))
            assert table == (subs, {S: s for s, S in enumerate(subs)})
            continue
        n, T, k = key
        signs, idx = table
        index = {U: u for u, U in enumerate(itertools.combinations(range(n), len(T) + k))}
        assert len(signs) == len(idx) == math.comb(n, k)
        for S, sign, u in zip(itertools.combinations(range(n), k), signs, idx):
            hit = wedge_subsets(T, S)
            assert (sign, u) == ((None, None) if hit is None else (hit[0], index[hit[1]]))
        checked.add(key)
    assert len(checked) == sum(math.comb(n, t) * (n - t + 1)
                               for n in range(1, 7) for t in range(n + 1))


@pytest.mark.parametrize("name, selection, sizes", [("cube", (0, 1, 4), {4}),
                                                    ("octahedron", (0, 1, 2, 4), {1, 4})])
def test_left_map_pieces_match_reference(name, selection, sizes, request):
    # the pieces check_exactness reduces; on the octahedron a degree -4
    # generator's column carries quartic and linear terms, so one column
    # reads table rows of two term subset sizes
    left = build_window(request.getfixturevalue(name), selection).maps[0]
    assert sizes == {len(T) for j, g in enumerate(left.source.generators)
                     if g.degree == -4 for _, T in left.columns[j]}
    for d in range(-1, -5, -1):
        checked_piece(left, d)


def test_kernel_vector_rejects_a_pivot_column():
    ech = Echelon()
    ech.insert({0: 1, 1: 2})
    assert ech.kernel_vector(1) == {1: 1, 0: -2}
    with pytest.raises(InvariantViolation, match="pivot column"):
        ech.kernel_vector(0)


def rand_rows(rng: random.Random, nrows: int, ncols: int) -> list[dict]:
    """Random sparse integer rows over ncols columns, explicit zeros included,
    some rows repeated up to a multiple so that the rank falls short."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            rows.append({c: rng.choice((-2, 3)) * v for c, v in rng.choice(rows).items()})
        else:
            rows.append({c: rng.randint(-3, 3) for c in rng.sample(range(ncols), 3)})
    return rows


def test_echelon_from_rows_equals_inserting_them_in_order():
    rng = random.Random(11)
    for _ in range(30):
        rows = rand_rows(rng, rng.randint(0, 8), 6)
        one_by_one = Echelon()
        for row in rows:
            one_by_one.insert(row)
        built = Echelon(rows)
        assert built.rows == one_by_one.rows
        assert built.rank == one_by_one.rank


def test_echelon_rows_hold_no_zero_entries():
    # dense rows go in as dict(enumerate(row)), zeros and all
    ech = Echelon(dict(enumerate(row)) for row in ([0, 2, 0, 4], [0, 0, 0, 0], [1, 0, 0, 0]))
    assert ech.rows == {0: {0: 1}, 1: {1: 1, 3: 2}}
    assert not Echelon([{0: 0, 5: 0}]).rows
    rng = random.Random(12)
    for _ in range(30):
        ech = Echelon(rand_rows(rng, 6, 5))
        assert all(v for row in ech.rows.values() for v in row.values())


def test_kernel_vectors_over_free_columns_span_the_kernel():
    rng = random.Random(13)
    for _ in range(30):
        ncols = rng.randint(3, 7)
        rows = rand_rows(rng, rng.randint(0, 6), ncols)
        ech = Echelon(rows)
        free = ech.free_columns(ncols)
        kernel = [ech.kernel_vector(f) for f in free]
        for row in rows:
            for vec in kernel:
                assert sum(v * vec.get(c, 0) for c, v in row.items()) == 0
        # positive at its own free column and zero at the others, so the
        # vectors are independent, and they number ncols - rank
        for f, vec in zip(free, kernel):
            assert vec[f] > 0
            assert all(vec.get(g, 0) == 0 for g in free if g != f)
        assert len(kernel) + ech.rank == ncols


def products_pivots(phi: FreeModuleMap, into: FreeModuleMap, d: int):
    """phi's degree-d piece and the pivots, as its coordinate keys, of the
    products of into's generators above degree d: P over Q, and P2 of their
    odd entries mod 2, the pivots a cover block reduces its products to.
    Both depend only on the span, not the order."""
    piece = graded_piece(phi, d)
    coord_at = {piece.coord(c): c for ids, _, _ in piece.blocks for c in ids}
    products, odd = Echelon(), []
    N = phi.source.algebra.nvars
    for g, col in zip(into.source.generators, into.columns):
        if g.degree > d:
            for S in itertools.combinations(range(N), g.degree - d):
                product = {coord_at[key]: v for key, v in times(col, S).items()}
                products.insert(product)
                odd.append(sum(1 << c for c, v in product.items() if v & 1))
    return piece, set(products.rows), {top - 1 for top in echelon_mod2(odd)}


def test_blocks_are_certified_by_the_columns_off_the_products_pivots():
    # the columns off P are independent exactly when rank + |P| = columns,
    # the products then span the block's kernel, and the block gains no
    # generator; both outcomes occur, with and without products in the block.
    # The cover tests the columns off the mod-2 pivots P2, as bitsets of
    # their odd entries over positions, where the rows of target generators
    # of one degree and weight add up; when they are independent mod 2, rank2
    # of the products plus rank2 of the columns is the column count
    alg = ExteriorAlgebra(4, ((1, 0), (0, 1), (1, 1), (0, 0)))
    G = GradedFreeModule(alg, (Generator(1, (0, 0)), Generator(1, (1, 0)), Generator(0, (0, 0))))
    rng = random.Random(7)
    outcomes = set()
    for _ in range(4):
        phi = weighted_map(rng, G, (0, 0, 0, -1, -1))
        into, _ = minimal_free_cover(phi, degree_floor=-4)
        gained = {(g.degree, g.weight) for g in into.source.generators}
        for d in range(0, -5, -1):
            piece, P, P2 = products_pivots(phi, into, d)
            for src_ids, w, _ in piece.blocks:
                columns = piece.block_columns(src_ids)
                rest = [col for c, col in zip(src_ids, columns) if c not in P]
                independent = Echelon(rest).rank == len(rest)
                # the mod-2 certificate is one-sided: it never certifies a
                # block the exact test does not
                certified = independent_mod2(piece.odd_columns(
                    [c for c in src_ids if c not in P2]))
                assert not certified or independent
                rank2 = len(echelon_mod2(piece.odd_columns(src_ids)))
                assert certified == (sum(c in P2 for c in src_ids) + rank2 == len(columns))
                products = sum(c in P for c in src_ids)
                assert independent == (Echelon(columns).rank + products == len(columns))
                assert independent == ((d, w) not in gained)
                outcomes.add((independent, products > 0))
    assert outcomes == {(True, False), (True, True), (False, False), (False, True)}


def test_a_dependent_column_off_the_pivots_gains_a_generator():
    # g0 -> e0 and g1 -> 0 with g1 in degree -2: there the products of the
    # generator g0 ∧ e0 pivot on (0, {0, 1}) and (0, {0, 2}), and g1's zero
    # column off them makes the block gain g1 itself
    alg = algebra(3)
    phi = FreeModuleMap(module(alg, 0, -2), module(alg, 1), [{(0, (0,)): 1}, {}])
    into, dims = minimal_free_cover(phi, degree_floor=-2)
    assert into.source.degrees() == [-1, -2]
    assert into.columns == [{(0, (0,)): 1}, {(1, ()): 1}]
    piece, P, P2 = products_pivots(phi, into, -2)
    assert [piece.coord(c) for c in sorted(P)] == [(0, (0, 1)), (0, (0, 2))]
    assert P2 == P
    assert dims[-2] == (4, 3)


def test_dependent_columns_on_the_pivots_alone_certify_the_block():
    # g -> e0: in degree -2 the pivots (0, {0, 1}) and (0, {0, 2}) hold the
    # block's zero columns, the one column off them is e_012, and the
    # products span the kernel
    alg = algebra(3)
    phi = FreeModuleMap(module(alg, 0), module(alg, 1), [{(0, (0,)): 1}])
    into, dims = minimal_free_cover(phi, degree_floor=-2)
    assert into.source.degrees() == [-1]
    piece, P, P2 = products_pivots(phi, into, -2)
    [(src_ids, _, _)] = piece.blocks
    columns = piece.block_columns(src_ids)
    assert [piece.coord(c) for c in sorted(P)] == [(0, (0, 1)), (0, (0, 2))]
    assert P2 == P
    assert [col for c, col in zip(src_ids, columns) if c not in P] == [{0: 1}]
    assert Echelon(columns).rank == 1
    assert dims[-2] == (3, 2)


def doubled(phi: FreeModuleMap) -> FreeModuleMap:
    return FreeModuleMap(phi.source, phi.target,
                         [{key: 2 * c for key, c in col.items()} for col in phi.columns])


def test_doubling_a_map_changes_no_cover(cube, monkeypatch):
    # 2·phi has phi's kernel and only even entries, so every column's odd
    # bitset is empty and the mod-2 test certifies no block with a column off
    # the products' pivots: every such block takes the exact block_kernel
    # path, and the cover and dims stay the same
    certified = []
    mod2 = exterior.independent_mod2
    doubling = False

    def recorded(bitsets):
        bitsets = list(bitsets)
        assert not (doubling and any(bitsets))
        certified.append((bool(bitsets), mod2(bitsets)))
        return certified[-1][1]

    monkeypatch.setattr(exterior, "independent_mod2", recorded)
    phi2 = build_phi2(cube, (0, 1, 4))
    middle, _ = minimal_free_cover(phi2, degree_floor=-3)
    alg = ExteriorAlgebra(4, ((1, 0), (0, 1), (1, 1), (0, 0)))
    G = GradedFreeModule(alg, (Generator(1, (0, 0)), Generator(1, (1, 0)), Generator(0, (0, 0))))
    rng = random.Random(9)
    maps = [(phi2, -3), (middle, -4)]
    maps += [(weighted_map(rng, G, (0, 0, 0, -1, -1)), -4) for _ in range(3)]
    for phi, floor in maps:
        into, dims = minimal_free_cover(phi, floor)
        del certified[:]
        doubling = True
        into2, dims2 = minimal_free_cover(doubled(phi), floor)
        doubling = False
        assert into2.source.generators == into.source.generators
        assert into2.columns == into.columns
        assert dims2 == dims
        assert (True, True) not in certified and (True, False) in certified


def test_a_block_dependent_only_mod_2_takes_the_exact_kernel(monkeypatch):
    # g0 -> t0 + t1 and g1 -> t0 - t1: in every degree the one block has the
    # columns {0: 1, 1: 1} and {0: 1, 1: -1}, independent over Q and equal
    # mod 2, so the block falls back to block_kernel, which finds no kernel
    kernels = []
    block_kernel = exterior.block_kernel

    def counted(src_ids, columns, products):
        kernels.append(columns)
        return block_kernel(src_ids, columns, products)

    monkeypatch.setattr(exterior, "block_kernel", counted)
    alg = algebra(2)
    phi = FreeModuleMap(module(alg, 0, 0), module(alg, 0, 0),
                        [{(0, ()): 1, (1, ()): 1}, {(0, ()): 1, (1, ()): -1}])
    into, dims = minimal_free_cover(phi, degree_floor=-2)
    assert into.source.rank == 0
    assert dims == {0: (2, 0), -1: (4, 0), -2: (2, 0)}
    assert kernels[0] == [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert len(kernels) == 3


def test_products_dependent_only_mod_2_send_their_block_to_the_exact_path(monkeypatch):
    # phi(f0) = t∧e0 + u∧e1 and phi(f1) = t∧e0 - u∧e1 over two variables:
    # degree -1 gains g = f0∧e0 + f1∧e0 and h = f0∧e1 - f1∧e1, and in degree
    # -2 their products g∧e1 = f0∧e01 + f1∧e01 and h∧e0 = -f0∧e01 + f1∧e01
    # span the whole block over Q but agree mod 2. Only the exact path
    # shows that the block gains nothing.
    kernels = []
    block_kernel = exterior.block_kernel

    def counted(src_ids, columns, products):
        kernels.append(columns)
        return block_kernel(src_ids, columns, products)

    monkeypatch.setattr(exterior, "block_kernel", counted)
    alg = algebra(2)
    phi = FreeModuleMap(module(alg, 0, 0), module(alg, 1, 1),
                        [{(0, (0,)): 1, (1, (1,)): 1}, {(0, (0,)): 1, (1, (1,)): -1}])
    into, dims = minimal_free_cover(phi, degree_floor=-2)
    # degree -2's block, whose two columns are zero, is the last one reduced
    assert kernels[-1] == [{}, {}]
    assert dims[-2] == (2, 2)
    assert into.columns == [{(0, (0,)): 1, (1, (0,)): 1}, {(0, (1,)): 1, (1, (1,)): -1}]
    assert (list(into.source.generators), into.columns, dims) == reference_cover(phi, -2)
    piece, P, P2 = products_pivots(phi, into, -2)
    assert len(P) == len(piece.source_coords) == 2 and len(P2) == 1


@pytest.mark.parametrize("name, selection, gained", [("cube", (0, 1, 4), 12),
                                                     ("octahedron", (0, 1, 2, 4), 22)])
def test_exact_kernels_run_once_per_gained_generator(name, selection, gained, request,
                                                     monkeypatch):
    # every block that gains no generator is certified mod 2, and every block
    # that gains one gains exactly one, so block_kernel runs once per
    # generator the two covers gain
    calls = []
    block_kernel = exterior.block_kernel

    def counted(src_ids, columns, products):
        calls.append(len(src_ids))
        return block_kernel(src_ids, columns, products)

    monkeypatch.setattr(exterior, "block_kernel", counted)
    phi2 = build_phi2(request.getfixturevalue(name), selection)
    middle, _ = minimal_free_cover(phi2, degree_floor=-3)
    left, _ = minimal_free_cover(middle, degree_floor=-4)
    assert len(calls) == middle.source.rank + left.source.rank == gained


def exact_per_block_cover(phi: FreeModuleMap, degree_floor: int, monkeypatch):
    """The cover with the mod-2 certificate refused, so that every block
    takes block_kernel and its own exact products echelon."""
    with monkeypatch.context() as m:
        m.setattr(exterior, "independent_mod2", lambda bitsets: False)
        return minimal_free_cover(phi, degree_floor)


def test_targets_sharing_positions_add_their_rows_mod_2(monkeypatch):
    # t0 and t1 have one degree and weight, so (t0, U) and (t1, U) sit at one
    # position and a column's odd entries there cancel in its bitset: the
    # bitsets are the odd columns with those rows added, a linear image, and
    # a block they certify is certified exactly
    alg = ExteriorAlgebra(4, ((1, 0), (0, 1), (1, 1), (0, 0)))
    G = GradedFreeModule(alg, (Generator(1, (0, 0)), Generator(1, (0, 0)), Generator(0, (1, 0))))
    certified, shared = [], []
    mod2 = exterior.independent_mod2

    def recorded(bitsets):
        certified.append(mod2(bitsets))
        return certified[-1]

    rng = random.Random(21)
    for _ in range(6):
        phi = weighted_map(rng, G, (0, 0, 0, -1, -1))
        shared += [S for col in phi.columns for (i, S), c in col.items()
                   if i == 0 and c & 1 and col.get((1, S), 0) & 1]
        exact = exact_per_block_cover(phi, -4, monkeypatch)
        monkeypatch.setattr(exterior, "independent_mod2", recorded)
        into, dims = minimal_free_cover(phi, degree_floor=-4)
        monkeypatch.undo()
        assert (into.source.generators, into.columns, dims) == (
            exact[0].source.generators, exact[0].columns, exact[1])
        assert (list(into.source.generators), into.columns, dims) == reference_cover(phi, -4)
    assert shared and True in certified and False in certified

    # a = t0 + t1 + u∧e0, b = t0 + v∧e1 and c = t1 - v∧e1 + u∧e0, so a = b + c;
    # only a reaches both t0 and t1, whose entries must cancel in its bitset,
    # or the three bitsets would be independent and certify a dependent block
    alg = algebra(2)
    phi = FreeModuleMap(module(alg, 0, 0, 0), module(alg, 0, 0, 1, 1), [
        {(0, ()): 1, (1, ()): 1, (2, (0,)): 1},
        {(0, ()): 1, (3, (1,)): 1},
        {(1, ()): 1, (3, (1,)): -1, (2, (0,)): 1}])
    into, dims = minimal_free_cover(phi, degree_floor=-2)
    assert dims[0] == (3, 1)
    assert into.columns[0] == {(0, ()): 1, (1, ()): -1, (2, ()): -1}
    exact = exact_per_block_cover(phi, -2, monkeypatch)
    assert (into.source.generators, into.columns, dims) == (
        exact[0].source.generators, exact[0].columns, exact[1])
    assert (list(into.source.generators), into.columns, dims) == reference_cover(phi, -2)


def test_sources_sharing_a_pivot_position_fail_the_count(monkeypatch):
    # twin source generators, of one degree and weight, share column
    # positions; random maps from twins match the exact covers, certified or
    # not block by block
    alg = ExteriorAlgebra(4, ((1, 0), (0, 1), (1, 1), (0, 0)))
    G = GradedFreeModule(alg, (Generator(1, (0, 0)), Generator(1, (1, 0)), Generator(0, (0, 0))))
    rng = random.Random(23)
    for _ in range(4):
        phi = weighted_map(rng, G, (0, 0, 0, -1, -1))
        phi = FreeModuleMap(GradedFreeModule(alg, phi.source.generators * 2), G, phi.columns * 2)
        exact = exact_per_block_cover(phi, -4, monkeypatch)
        into, dims = minimal_free_cover(phi, degree_floor=-4)
        assert (into.source.generators, into.columns, dims) == (
            exact[0].source.generators, exact[0].columns, exact[1])
        assert (list(into.source.generators), into.columns, dims) == reference_cover(phi, -4)

    # phi = 0 on twins f0 and f1: the cover gains both in degree 0, and below
    # it their products f0∧e_S and f1∧e_S cancel in every bitset, so the
    # pivots P2 number half the columns and take all of them off. The empty
    # rest is independent, but |rest| + |P2| = columns fails, so every block
    # of degree -1 and -2 goes to block_kernel, which finds the products span
    # the whole piece
    kernels = []
    block_kernel = exterior.block_kernel

    def counted(src_ids, columns, products):
        kernels.append(len(columns))
        return block_kernel(src_ids, columns, products)

    alg = algebra(2)
    phi = FreeModuleMap(module(alg, 0, 0), module(alg, 1), [{}, {}])
    exact = exact_per_block_cover(phi, -2, monkeypatch)
    monkeypatch.setattr(exterior, "block_kernel", counted)
    into, dims = minimal_free_cover(phi, degree_floor=-2)
    assert kernels == [2, 4, 2]
    assert dims == {0: (2, 2), -1: (4, 4), -2: (2, 2)}
    assert into.columns == [{(0, ()): 1}, {(1, ()): 1}]
    assert (into.source.generators, into.columns, dims) == (
        exact[0].source.generators, exact[0].columns, exact[1])


def test_modules_refuse_torus_weights_too_far_to_pack():
    # a coordinate weighs its generator's weight plus at most every
    # variable's; past RADIX / 2 two coordinate weights could pack alike
    alg = ExteriorAlgebra(2, ((-3, 1), (2, -1)))
    limit = exterior.RADIX // 2 - 5  # the variables add up to 3 + 2 = 5 more
    GradedFreeModule(alg, (Generator(0, (limit - 1, 0)), Generator(0, (0, 1 - limit))))
    with pytest.raises(InvariantViolation, match="too far to pack"):
        GradedFreeModule(alg, (Generator(0, (0, -limit)),))


def test_modules_refuse_torus_weights_of_another_length():
    # a 2-dimensional generator weight over 3-dimensional variable weights
    # would make 2-dimensional block weights, and a cover of the wrong map
    alg = ExteriorAlgebra(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    GradedFreeModule(alg, (Generator(0, (0, 0, 0)),))
    with pytest.raises(InvariantViolation, match=r"lengths \[2, 3\]"):
        GradedFreeModule(alg, (Generator(0, (0, 0)),))
    with pytest.raises(InvariantViolation, match=r"lengths \[2, 3\]"):
        GradedFreeModule(ExteriorAlgebra(2, ((1, 0), (0, 1, 0))), ())


def laid_out_pieces(build, monkeypatch) -> list:
    """Every piece lay_out makes while build() runs: cover pieces and their
    products alike, kept alive with their tables."""
    pieces = []
    lay_out = exterior.lay_out

    def kept(*args):
        pieces.append(lay_out(*args))
        return pieces[-1]

    with monkeypatch.context() as m:
        m.setattr(exterior, "lay_out", kept)
        build()
    return pieces


def odd_bits_of(piece, c: int) -> int:
    """The odd entries of the coordinate at key c, read off its exact
    column, as a bitset over target positions."""
    [col] = piece.block_columns([c])
    _, row_height = piece.rows
    bits = 0
    for r, v in col.items():
        if v & 1:
            bits ^= 1 << r % row_height
    return bits


SIMPLEX2 = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]


@pytest.mark.parametrize("name", ["cube", "octahedron", "simplex2"])
def test_pattern_tables_hold_every_sharing_generators_odd_entries(name, request,
                                                                  monkeypatch):
    # a pattern's table is built once a piece and read for every generator
    # of its pattern: at each of the generator's positions it must hold that
    # coordinate's odd entries, read off its exact column
    Q = (convex_hull_with_facets(SIMPLEX2) if name == "simplex2"
         else request.getfixturevalue(name))
    sel = best_selection(Q).selection
    pieces = laid_out_pieces(lambda: build_window(Q, sel), monkeypatch)
    checked, shared = 0, 0
    for piece in pieces:
        N = piece.phi.source.algebra.nvars
        for j, (first, table) in piece.odd.items():
            k = piece.phi.source.generators[j].degree - piece.d
            assert len(table) == first + math.comb(N, k)
            for position in range(first, len(table)):
                assert table[position] == odd_bits_of(piece, j * piece.height + position)
            checked += len(table) - first
        shared += len(piece.odd) - len({id(pattern) for pattern in piece.odd.values()})
    assert checked > 0 and shared > 0


@pytest.mark.parametrize("name", ["cube", "octahedron", "simplex2", "box12"])
def test_block_ids_of_the_ladders_pieces_are_coordinate_keys(name, request, monkeypatch):
    # in every piece the covers and the exactness check lay out, products'
    # included, a block id is the key of its coordinate (j, S), computed
    # here from the definition, and the piece reads (j, S) back from it: S
    # of j's size deg g_j - d, and g_j's weight plus S's the block's. The
    # build never composes its maps, so this is where a slip in coord, which
    # writes every cover column, shows apart from the digests
    points = {"simplex2": SIMPLEX2, "box12": RUNGS["box12"].points}.get(name)
    Q = convex_hull_with_facets(points) if points else request.getfixturevalue(name)
    sel = best_selection(Q, seed=0).selection
    pieces = laid_out_pieces(lambda: check_exactness(build_window(Q, sel)), monkeypatch)
    laid = 0
    for piece in pieces:
        source, d = piece.phi.source, piece.d
        N = source.algebra.nvars
        coords = [(j, S) for j, g in enumerate(source.generators) if 0 <= g.degree - d <= N
                  for S in itertools.combinations(range(N), g.degree - d)]
        ids = sorted(c for src_ids, _, _ in piece.blocks for c in src_ids)
        assert ids == [reference_key(source, d, coord) for coord in coords]
        assert [piece.coord(c) for c in ids] == coords
        for src_ids, weight, _ in piece.blocks:
            for c in src_ids:
                j, S = piece.coord(c)
                assert len(S) == source.generators[j].degree - d
                assert coord_weight(source, (j, S)) == weight
        laid += len(ids)
    assert laid > 0


def test_generators_of_two_sizes_keep_their_own_bitset_tables():
    # targets of degrees 2 and 1 let a degree-1 and a degree-0 generator
    # carry the same odd-term subset {0}; in degree -1 they wedge it with
    # 2- and 1-subsets into rows of two sizes, so they share no table. The
    # empty pattern, of a column whose two odd terms at one subset cancel and
    # of an all-even column, is again kept once per size, all zero
    alg = algebra(4)
    phi = FreeModuleMap(module(alg, 1, 0, 1, 1, 0, 1), module(alg, 2, 1, 2), [
        {(0, (0,)): 1},
        {(1, (0,)): 3},
        {(0, (0,)): -1, (0, (1,)): 2},
        {(0, (1,)): 1, (2, (1,)): 3},
        {(1, (2,)): -2},
        {(0, (3,)): 1, (1, ()): 1}])
    phi.validate_degrees()
    piece = checked_piece(phi, -1)
    odd = piece.odd
    assert odd[0] is odd[2] and odd[1] is not odd[0]
    assert odd[3] is not odd[4] and set(odd[3][1]) == set(odd[4][1]) == {0}
    assert len({id(pattern) for pattern in odd.values()}) == 5
    ids = [c for src_ids, _, _ in piece.blocks for c in src_ids]
    assert len(ids) == len(piece.source_coords)
    assert piece.odd_columns(ids) == [odd_bits_of(piece, c) for c in ids]
    assert {j: len(table) - first for j, (first, table) in odd.items()} == {
        0: 6, 1: 4, 2: 6, 3: 6, 4: 4, 5: 6}
    cover_like_reference(phi, degree_floor=-4)


def test_exact_terms_are_built_only_for_the_blocks_asked_for(cube, monkeypatch):
    # a piece builds a generator's exact terms only when a fallback block
    # asks for one of its columns, so a piece whose blocks all certify mod 2
    # builds none
    asked: dict = {}
    block_columns = exterior.GradedPiece.block_columns

    def recorded(self, ids):
        asked.setdefault(id(self), set()).update(self.coord(c)[0] for c in ids)
        return block_columns(self, ids)

    monkeypatch.setattr(exterior.GradedPiece, "block_columns", recorded)
    pieces = laid_out_pieces(lambda: build_window(cube, (0, 1, 4)), monkeypatch)
    for piece in pieces:
        assert set(piece.terms) == asked.get(id(piece), set())
    assert any(piece.blocks and not piece.terms for piece in pieces)
    assert any(piece.terms for piece in pieces)
