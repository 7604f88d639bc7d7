"""Wedge algebra, graded pieces, kernels, minimal covers."""

from __future__ import annotations

import random

import pytest

from detform.exterior import (
    ExteriorAlgebra,
    ExteriorElement,
    FreeModuleMap,
    GradedFreeModule,
    Generator,
    graded_piece,
    minimal_free_cover,
    wedge_subsets,
)

E = ExteriorElement


def rand_element(rng: random.Random, nvars: int, size: int) -> ExteriorElement:
    """Random homogeneous element with monomials of the given subset size."""
    import itertools
    subs = list(itertools.combinations(range(nvars), size))
    return E({S: rng.randint(-3, 3) for S in rng.sample(subs, min(3, len(subs)))})


def test_wedge_basics():
    e1, e2 = E.generator(1), E.generator(2)
    assert e1.wedge(e1).is_zero()
    assert e2.wedge(e1) == E({(1, 2): -1})
    assert (e1 + e2).wedge(E({(1,): 1, (2,): -1})) == E({(1, 2): -2})
    assert wedge_subsets((0, 2), (1,)) == (-1, (0, 1, 2))
    assert wedge_subsets((0, 1), (1, 2)) is None


def test_wedge_graded_commutative():
    rng = random.Random(42)
    for _ in range(20):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        a, b = rand_element(rng, 5, p), rand_element(rng, 5, q)
        sign = -1 if (p * q) % 2 else 1
        assert a.wedge(b).terms == {S: sign * c for S, c in b.wedge(a).terms.items()}
        c = rand_element(rng, 5, rng.randint(0, 2))
        assert a.wedge(b).wedge(c).terms == a.wedge(b.wedge(c)).terms


def test_degree_and_homogeneity():
    assert E.generator(0).degree() == -1
    assert E({(0, 1): 2}).degree() == -2
    assert E().degree() is None
    with pytest.raises(ValueError):
        (E({(): 1}) + E.generator(0)).degree()


def _identity_map(module: GradedFreeModule) -> FreeModuleMap:
    return FreeModuleMap(module, module,
                         {(j, j): E({(): 1}) for j in range(module.rank)})


def test_graded_piece_identity():
    alg = ExteriorAlgebra(4)
    M = GradedFreeModule(alg, (Generator(0),))
    piece = graded_piece(_identity_map(M), -1)
    assert piece.shape == (4, 4)
    rows = piece.matrix_rows()
    assert all(rows[i] == {i: 1} for i in range(4))
    assert piece.rank() == 4
    assert piece.kernel_vectors() == []


def test_graded_piece_zero_map():
    alg = ExteriorAlgebra(3)
    M = GradedFreeModule(alg, (Generator(0), Generator(0)))
    Z = GradedFreeModule(alg, ())
    zero = FreeModuleMap(M, Z, {})
    piece = graded_piece(zero, -1)
    assert piece.shape == (0, 6)
    kers = [{piece.source_coords[c]: v for c, v in vec.items()}
            for vec in piece.kernel_vectors()]
    assert len(kers) == 6
    assert kers[0] == {(0, (0,)): 1}


def test_composition_commutes_with_pieces():
    rng = random.Random(7)
    alg = ExteriorAlgebra(4)
    A = GradedFreeModule(alg, (Generator(2), Generator(1)))
    B = GradedFreeModule(alg, (Generator(1), Generator(0)))
    C = GradedFreeModule(alg, (Generator(0),))
    for _ in range(5):
        f = FreeModuleMap(C, B, {
            (i, 0): rand_element(rng, 4, B.generators[i].degree - 0)
            for i in range(2)
        })
        g = FreeModuleMap(B, A, {
            (i, j): rand_element(rng, 4, A.generators[i].degree - B.generators[j].degree)
            for i in range(2) for j in range(2)
            if A.generators[i].degree - B.generators[j].degree >= 0
        })
        gf = g.compose(f)
        for d in (0, -1, -2):
            lhs = graded_piece(gf, d).matrix_rows()
            pf = graded_piece(f, d)
            pg = graded_piece(g, d)
            rows_f, rows_g = pf.matrix_rows(), pg.matrix_rows()
            prod = [dict() for _ in range(len(rows_g))]
            for r, grow in enumerate(rows_g):
                for mid, gval in grow.items():
                    for c, fval in rows_f[mid].items():
                        prod[r][c] = prod[r].get(c, 0) + gval * fval
            prod = [{c: v for c, v in row.items() if v} for row in prod]
            assert lhs == prod


def test_entry_degrees_validated():
    alg = ExteriorAlgebra(3)
    M = GradedFreeModule(alg, (Generator(0),))
    T = GradedFreeModule(alg, (Generator(1),))
    bad = FreeModuleMap(M, T, {(0, 0): E({(0, 1): 1})})
    with pytest.raises(ValueError):
        bad.validate_degrees()
    good = FreeModuleMap(M, T, {(0, 0): E.generator(2)})
    good.validate_degrees()


def test_minimal_cover_of_whole_module():
    alg = ExteriorAlgebra(3)
    M = GradedFreeModule(alg, (Generator(0), Generator(-1)))
    Z = GradedFreeModule(alg, ())
    cover, into = minimal_free_cover(FreeModuleMap(M, Z, {}), degree_floor=-4)
    assert cover.degrees() == [0, -1]
    piece = graded_piece(into, 0).matrix_rows()
    assert piece == [{0: 1}]


def test_minimal_cover_finds_deep_generator():
    # phi sends the generator to e0, so the kernel is the ideal (e0):
    # one cover generator in degree -1 and nothing deeper.
    alg = ExteriorAlgebra(2)
    F = GradedFreeModule(alg, (Generator(0),))
    G = GradedFreeModule(alg, (Generator(1),))
    phi = FreeModuleMap(F, G, {(0, 0): E.generator(0)})
    cover, into = minimal_free_cover(phi, degree_floor=-2)
    assert cover.degrees() == [-1]
    assert into.entries[(0, 0)] == E.generator(0)
    assert phi.compose(into).is_zero()


def test_cover_image_matches_kernel_dimensions():
    rng = random.Random(3)
    alg = ExteriorAlgebra(3)
    F = GradedFreeModule(alg, (Generator(0), Generator(0), Generator(-1)))
    G = GradedFreeModule(alg, (Generator(1), Generator(0)))
    phi = FreeModuleMap(F, G, {
        (0, 0): rand_element(rng, 3, 1), (0, 1): rand_element(rng, 3, 1),
        (0, 2): rand_element(rng, 3, 2), (1, 2): rand_element(rng, 3, 1),
        (1, 0): E(), (1, 1): rand_element(rng, 3, 0),
    })
    phi.validate_degrees()
    cover, into = minimal_free_cover(phi, degree_floor=-3)
    assert phi.compose(into).is_zero()
    for d in range(0, -4, -1):
        want = len(graded_piece(phi, d).kernel_vectors())
        got = graded_piece(into, d).rank()
        assert got == want
