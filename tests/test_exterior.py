"""Wedge products, image columns, graded pieces, kernels, minimal covers."""

from __future__ import annotations

import itertools
import random

import pytest

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
    with pytest.raises(ValueError):
        inhomogeneous.validate_degrees()
    with pytest.raises(ValueError):
        FreeModuleMap(M, T, [{}])


def test_entry_degrees_validated():
    alg = algebra(3)
    M, T = module(alg, 0), module(alg, 1)
    bad = FreeModuleMap(M, T, [{(0, (0, 1)): 1}])
    with pytest.raises(ValueError):
        bad.validate_degrees()
    FreeModuleMap(M, T, [{(0, (2,)): 1}]).validate_degrees()


def test_graded_piece_identity():
    M = module(algebra(4), 0)
    piece = graded_piece(FreeModuleMap(M, M, [{(0, ()): 1}]), -1)
    assert piece.shape == (4, 4)
    rows = piece.matrix_rows()
    assert all(rows[i] == {i: 1} for i in range(4))
    assert piece.rank() == 4
    assert piece.kernel_vectors() == []


def test_graded_piece_zero_map():
    alg = algebra(3)
    M = module(alg, 0, 0)
    piece = graded_piece(FreeModuleMap(M, module(alg), [{}, {}]), -1)
    assert piece.shape == (0, 6)
    kers = [{piece.source_coords[c]: v for c, v in vec.items()}
            for vec in piece.kernel_vectors()]
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
            lhs = graded_piece(gf, d).matrix_rows()
            rows_f = graded_piece(f, d).matrix_rows()
            rows_g = graded_piece(g, d).matrix_rows()
            prod = [dict() for _ in range(len(rows_g))]
            for r, grow in enumerate(rows_g):
                for mid, gval in grow.items():
                    for c, fval in rows_f[mid].items():
                        prod[r][c] = prod[r].get(c, 0) + gval * fval
            prod = [{c: v for c, v in row.items() if v} for row in prod]
            assert lhs == prod


def test_minimal_cover_of_whole_module():
    alg = algebra(3)
    M = module(alg, 0, -1)
    into, _ = minimal_free_cover(FreeModuleMap(M, module(alg), [{}, {}]), degree_floor=-4)
    assert into.source.degrees() == [0, -1]
    assert graded_piece(into, 0).matrix_rows() == [{0: 1}]


def test_minimal_cover_finds_deep_generator():
    # phi sends the generator to e0, so the kernel is the ideal (e0):
    # one cover generator in degree -1 and nothing deeper.
    alg = algebra(2)
    F, G = module(alg, 0), module(alg, 1)
    phi = FreeModuleMap(F, G, [{(0, (0,)): 1}])
    into, _ = minimal_free_cover(phi, degree_floor=-2)
    assert into.source.degrees() == [-1]
    assert into.columns == [{(0, (0,)): 1}]
    assert phi.compose(into).is_zero()


def test_cover_image_matches_kernel_dimensions():
    rng = random.Random(3)
    alg = algebra(3)
    F, G = module(alg, 0, 0, -1), module(alg, 1, 0)
    phi = FreeModuleMap(F, G, [rand_column(rng, G, d) for d in F.degrees()])
    phi.validate_degrees()
    into, dims = minimal_free_cover(phi, degree_floor=-3)
    cover = into.source
    assert phi.compose(into).is_zero()
    # the scan starts at phi's top source degree and stops at the floor
    assert sorted(dims, reverse=True) == [0, -1, -2, -3]
    for d in range(0, -4, -1):
        piece = graded_piece(phi, d)
        nullity = len(piece.kernel_vectors())
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
