"""block_kernel's kept-only vectors against the two reductions they replace.

block_kernel reduces the rows its mod-2 column sieve keeps, and builds a
kernel vector only for each free column the block's products do not span.
Two references check it:

- reference_block_kernel reduces every transposed row of the block, over Q
  to its reduced row echelon form, and takes every kernel vector from it;
- reference_kept builds all of those vectors and keeps, greedily, those a
  products echelon over the block's keys does not yet span, as the cover
  once did.

The kept-only output must agree with both on every block a cover cannot
certify mod 2, after primitive_integer_vector removes the positive scale
that depends on the echelon's rows.
"""

from __future__ import annotations

from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detform import exterior
from detform.errors import InvariantViolation
from detform.exterior import (
    ExteriorAlgebra,
    FreeModuleMap,
    Generator,
    GradedFreeModule,
    block_kernel,
    minimal_free_cover,
)
from detform.lattice import convex_hull_with_facets
from detform.linalg import Echelon, primitive_integer_vector
from detform.shelling import best_selection
from detform.tate import build_phi2, build_window, check_exactness

from conftest import CUBE_POINTS, OCTA_POINTS, SIMPLEX2_POINTS, acceptance_corpus
from rungs import RUNGS
from test_linalg import rref, rref_kernel_vector


def reference_block_kernel(src_ids, columns):
    """Every transposed row reduced over Q; each free column's kernel vector
    from the reduced row echelon form, its denominators cleared."""
    rows: dict[int, dict[int, int]] = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    basis, found = rref(rows.values()), []
    for free in range(len(src_ids)):
        if free not in basis:
            vec = rref_kernel_vector(basis, free)
            d = lcm(*(v.denominator for v in vec.values()))
            found.append((src_ids[free], {src_ids[c]: int(v * d) for c, v in vec.items()}))
    return found


def reference_kept(src_ids, columns, products):
    """(nullity, kept): every kernel vector, inserted in turn into an echelon
    of the products, and kept where it is not yet spanned."""
    found = reference_block_kernel(src_ids, columns)
    spanned = Echelon(products)
    return len(found), [(free, vec) for free, vec in found if spanned.insert(vec)]


def normalised(pairs):
    return [(free, primitive_integer_vector(vec)) for free, vec in pairs]


def normalised_kept(result):
    nullity, pairs = result
    return nullity, normalised(pairs)


def agrees_with_both_references(src_ids, columns, products):
    """The kept-only output equals the greedy reference, and each kept vector
    is the full reduction's vector at its free column."""
    nullity, kept = block_kernel(src_ids, columns, products)
    assert normalised_kept((nullity, kept)) == \
        normalised_kept(reference_kept(src_ids, columns, products))
    every = dict(normalised(reference_block_kernel(src_ids, columns)))
    assert nullity == len(every)
    assert all(every[free] == vec for free, vec in normalised(kept))
    return nullity, kept


def fallback_blocks(windows, monkeypatch):
    """Every block the covers of these (polytope, selection) windows and
    their exactness checks hand to kernel_vectors: its keys, exact columns
    and products, what kernel_vectors returned, and signed_kernel's answer
    alone."""
    blocks = []
    kernel_vectors = exterior.GradedPiece.kernel_vectors

    def recorded(piece, ids, products=()):
        found = kernel_vectors(piece, ids, products)
        blocks.append((list(ids), piece.block_columns(ids), products, found,
                       piece.signed_kernel(ids, products)))
        return found

    with monkeypatch.context() as m:
        m.setattr(exterior.GradedPiece, "kernel_vectors", recorded)
        for Q, selection in windows:
            check_exactness(build_window(Q, selection))
    return blocks


def checked_block_kernel(monkeypatch, src_ids, columns, products):
    """block_kernel's output, and the outcome of each exact check it makes
    of a kept vector."""
    checks = []
    annihilates = exterior.annihilates

    def recorded(cols, vec):
        checks.append(annihilates(cols, vec))
        return checks[-1]

    with monkeypatch.context() as m:
        m.setattr(exterior, "annihilates", recorded)
        return block_kernel(src_ids, columns, products), checks


def ladder_windows():
    """The cube, the octahedron and the 2-simplex as the benchmark's ladder
    builds them."""
    ladder = [convex_hull_with_facets(points)
              for points in (CUBE_POINTS, OCTA_POINTS, SIMPLEX2_POINTS)]
    return [(Q, best_selection(Q, seed=0).selection) for Q in ladder]


def sieved_inserts(monkeypatch, src_ids, columns, products):
    """block_kernel's output, and for each echelon it builds, the rows it
    receives and how many of them it keeps; the first is the sieved one."""
    echelons = []

    class Recorded(Echelon):
        def __init__(self, rows=()):
            rows = list(rows)
            super().__init__(rows)
            echelons.append((len(rows), self.rank))

    with monkeypatch.context() as m:
        m.setattr(exterior, "Echelon", Recorded)
        found = block_kernel(src_ids, columns, products)
    return found, echelons


def test_the_sieve_agrees_with_the_full_reduction_on_the_ladder(monkeypatch):
    # every block the ladder hands to kernel_vectors, reduced by block_kernel:
    # no block needs the full reduction, so each block builds one sieved
    # echelon and one of its products; the column sieve passes on exactly
    # as many rows as the blocks' ranks, far fewer than they have, and keeps
    # each, and every vector built is checked and kept, fewer than their
    # nullities
    blocks = fallback_blocks(ladder_windows(), monkeypatch)
    assert blocks
    kept = nullity = rows = ranks = inserted = checked = 0
    for src_ids, columns, products, _, _ in blocks:
        (n, found), checks = checked_block_kernel(monkeypatch, src_ids, columns, products)
        assert checks and all(checks)
        checked += len(checks)
        assert agrees_with_both_references(src_ids, columns, products) == (n, found)
        kept, nullity = kept + len(found), nullity + n
        rows += len({r for col in columns for r in col})
        ranks += Echelon(columns).rank
        again, echelons = sieved_inserts(monkeypatch, src_ids, columns, products)
        assert again == (n, found) and len(echelons) == 2
        received, sieved_rank = echelons[0]
        assert sieved_rank == received  # every row the sieve passes on is kept
        inserted += received
    assert checked == kept < nullity
    assert any(products for _, _, products, _, _ in blocks)
    assert inserted == ranks < rows


def test_the_sieve_agrees_with_the_full_reduction_on_the_corpus(monkeypatch):
    blocks = fallback_blocks([(Q, sel) for _, Q, sel in acceptance_corpus()[:4]], monkeypatch)
    assert blocks
    for src_ids, columns, products, _, _ in blocks:
        agrees_with_both_references(src_ids, columns, products)


def test_the_signed_kernel_equals_block_kernel_on_every_block(monkeypatch):
    # the ladder, the acceptance corpus and the tier-1 rungs: every block
    # handed to kernel_vectors gains one generator, a vector of signs, and
    # signed_kernel proves it without block_kernel; its nullity, kept free
    # key and primitive vector are block_kernel's
    box12 = convex_hull_with_facets(RUNGS["box12"].points)
    windows = ladder_windows() + [(Q, sel) for _, Q, sel in acceptance_corpus()]
    windows.append((box12, RUNGS["box12"].selection))
    blocks = fallback_blocks(windows, monkeypatch)
    assert len(blocks) > 300
    for src_ids, columns, products, found, signed in blocks:
        assert signed is not None and found == signed
        nullity, [(free, vec)] = signed
        assert vec[free] == 1 and set(map(abs, vec.values())) == {1}
        assert normalised_kept(signed) == normalised_kept(block_kernel(src_ids, columns,
                                                                       products))
    assert any(products for _, _, products, _, _ in blocks)


def one_block(columns, products=()):
    """A map whose degree-0 piece is one block with these integer columns,
    {(target, variable): c} meaning c * t ∧ e_variable, laid out; its keys
    are the column numbers. Targets of one degree share the position of a
    variable, so their odd entries there add up mod 2."""
    N = 1 + max((a for col in columns for _, a in col), default=0)
    targets = 1 + max((t for col in columns for t, _ in col), default=0)
    alg = ExteriorAlgebra(N, ((0,),) * N)
    phi = FreeModuleMap(GradedFreeModule(alg, (Generator(0, (0,)),) * len(columns)),
                        GradedFreeModule(alg, (Generator(1, (0,)),) * targets),
                        [{(t, (a,)): c for (t, a), c in col.items()} for col in columns])
    piece = exterior.lay_out(phi, 0)
    [(ids, _, _)] = piece.blocks
    assert ids == list(range(len(columns)))
    return piece, ids


@pytest.mark.parametrize("columns, products, nullity", [
    # the mod-2 kernel vector (1, 1, 1) meets the row of e0 three times, once
    # in an even entry
    ([{(0, 0): 1}, {(0, 0): 1, (0, 1): 1}, {(0, 0): 2, (0, 1): 1}], [], 1),
    # (1, 1) lifts to no vector of signs: its entries 1 and 3 differ in size
    ([{(0, 0): 1}, {(0, 0): 3}], [], 1),
    # two new generators: three equal columns leave a mod-2 kernel of 2
    ([{(0, 0): 1}, {(0, 0): 1}, {(0, 0): 1}], [], 2),
    # an even entry: the mod-2 kernel (1) is wider than the kernel over Q
    ([{(0, 0): 2}], [], 0),
    # rank drops mod 2: (1, 1) needs opposite signs on e0 and equal ones on e1
    ([{(0, 0): 1, (0, 1): 1}, {(0, 0): 1, (0, 1): -1}], [], 0),
    # the products agree mod 2 but span the whole kernel over Q: the signed
    # vector e0 sits at a pivot of their exact echelon
    ([{}, {}], [{0: 1, 1: 1}, {0: -1, 1: 1}], 2),
    # the targets t0 and t1 share e0's position, where the column's odd
    # entries cancel: the mod-2 kernel vector e0 meets two rows once each
    ([{(0, 0): 1, (1, 0): 1}], [], 0),
], ids=["three-entries", "unequal-sizes", "two-generators", "even-entry", "signs-disagree",
        "spanned-by-products", "shared-position"])
def test_a_block_the_signs_cannot_prove_takes_block_kernel(columns, products, nullity):
    piece, ids = one_block(columns)
    assert piece.signed_kernel(ids, products) is None
    exact = piece.block_columns(ids)
    assert piece.kernel_vectors(ids, products) == block_kernel(ids, exact, products)
    assert piece.kernel_vectors(ids, products)[0] == nullity == \
        len(reference_block_kernel(ids, exact))
    assert normalised_kept(piece.kernel_vectors(ids, products)) == \
        normalised_kept(reference_kept(ids, exact, products))


def test_a_block_the_signs_prove_keeps_block_kernels_vector():
    # the cycle c0 - c1 - c2 = 0 over the rows of e0, e1 and e2, and the twin
    # columns c3 = c4 = e3, whose difference is the one product: the mod-2
    # kernel is one wider than the products', and its vector off their
    # pivot, the cycle, walks to signs; without the product it is two wider
    columns = [{(0, 0): 1, (0, 1): 1}, {(0, 1): 1, (0, 2): -1}, {(0, 0): 1, (0, 2): 1},
               {(0, 3): 1}, {(0, 3): 1}]
    products = [{3: 1, 4: -1}]
    piece, ids = one_block(columns)
    found = piece.signed_kernel(ids, products)
    assert found == piece.kernel_vectors(ids, products) == (2, [(2, {0: -1, 1: 1, 2: 1})])
    exact = block_kernel(ids, piece.block_columns(ids), products)
    assert exact[0] == 2 and [free for free, _ in exact[1]] == [2]
    assert normalised_kept(found) == normalised_kept(exact)
    assert piece.signed_kernel(ids) is None


def test_the_sign_walk_reaches_every_column_or_fails():
    # two cycles that share no row: each is a kernel vector, and the walk
    # from the last column never reaches the first
    assert exterior.sign_walk([{0: 1}, {0: 1}, {1: 1}, {1: -1}]) is None
    assert exterior.sign_walk([{0: 1}, {0: 1}]) == [-1, 1]
    assert exterior.sign_walk([{0: 2, 1: -1}, {0: -2, 1: 1}]) == [1, 1]
    assert exterior.sign_walk([{}]) == [1]


@st.composite
def integer_blocks(draw):
    """Columns of a random block with entries in -2..2, some of its rows and
    columns doubled so that they are all even."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    entries = draw(st.lists(st.lists(st.integers(-2, 2), min_size=nrows, max_size=nrows),
                            min_size=ncols, max_size=ncols))
    even_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    even_cols = draw(st.sets(st.integers(0, ncols - 1)))
    rows = draw(st.permutations(range(nrows)))  # rows reach the block in any order
    return [{rows[r]: v * (2 if r in even_rows or c in even_cols else 1)
             for r, v in enumerate(col) if v}
            for c, col in enumerate(entries)]


@st.composite
def blocks_with_products(draw):
    """A random block at keys src_ids and products in its kernel: integer
    combinations of some of the full reduction's kernel vectors, so that
    they span none, some or all of the kernel."""
    columns = draw(integer_blocks())
    src_ids = [10 + 3 * c for c in range(len(columns))]
    kernel = [vec for _, vec in reference_block_kernel(src_ids, columns)]
    used = draw(st.sets(st.integers(0, max(len(kernel) - 1, 0)))) if kernel else set()
    products = []
    for _ in range(draw(st.integers(0, len(used) + 1))):
        coefficients = [draw(st.integers(-2, 2)) for _ in used]
        product: dict[int, int] = {}
        for i, x in zip(sorted(used), coefficients):
            for key, v in kernel[i].items():
                product[key] = product.get(key, 0) + x * v
        products.append({key: v for key, v in product.items() if v})
    return src_ids, columns, products


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(blocks_with_products())
def test_the_sieve_agrees_with_the_full_reduction_on_random_blocks(block):
    src_ids, columns, products = block
    nullity, kept = agrees_with_both_references(src_ids, columns, products)
    # the products and the kept vectors together span the whole kernel
    assert len(kept) + Echelon(products).rank == nullity


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(blocks_with_products())
def test_the_signed_kernel_agrees_with_block_kernel_on_random_blocks(block):
    # row r of the random block is (target r % 2, variable r // 2): the two
    # targets share each variable's position, where their odd entries add
    # up mod 2; kernel_vectors must equal block_kernel whichever path it takes
    src_ids, columns, products = block
    piece, ids = one_block([{(r % 2, r // 2): v for r, v in col.items()} for col in columns])
    at = dict(zip(src_ids, ids))
    products = [{at[key]: v for key, v in col.items()} for col in products]
    found, signed = piece.kernel_vectors(ids, products), piece.signed_kernel(ids, products)
    exact = block_kernel(ids, piece.block_columns(ids), products)
    assert normalised_kept(found) == normalised_kept(exact)
    assert signed is None or found == signed


def test_without_products_every_kernel_vector_is_kept():
    columns = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}, {}]
    nullity, kept = block_kernel([5, 6, 7, 8], columns)
    assert nullity == 2
    assert normalised(kept) == normalised(reference_block_kernel([5, 6, 7, 8], columns))


def test_a_block_whose_rank_drops_mod_2_takes_the_full_reduction(monkeypatch):
    # rows (1, 1) and (1, -1) are equal mod 2, so the sieve keeps one, and
    # its kernel vector leaves 2 in the other row; a lone entry 2 is no row
    # mod 2 at all; in the 3-column block kept column 1 fails the check, and
    # column 2, zero, keeps its vector e_2 in the full reduction unless a
    # product spans it
    for columns, products, kernel in (([{0: 1, 1: 1}, {0: 1, 1: -1}], [], []),
                                      ([{0: 2}], [], []),
                                      ([{0: 1, 1: 1}, {0: 1, 1: -1}, {}], [], [(2, {2: 1})]),
                                      ([{0: 1, 1: 1}, {0: 1, 1: -1}, {}], [{2: -3}], [])):
        checks = []
        annihilates = exterior.annihilates

        def recorded(cols, vec):
            checks.append(annihilates(cols, vec))
            return checks[-1]

        with monkeypatch.context() as m:
            m.setattr(exterior, "annihilates", recorded)
            nullity, found = block_kernel(range(len(columns)), columns, products)
        assert False in checks
        assert found == kernel
        assert nullity == len(reference_block_kernel(range(len(columns)), columns))
        assert normalised_kept((nullity, found)) == \
            normalised_kept(reference_kept(range(len(columns)), columns, products))


def test_a_product_outside_its_block_is_refused(octahedron, monkeypatch):
    # the cover hands each fallback block its products' exact columns over
    # the block's keys; a product reaching a key outside the block would
    # silently change which free columns are kept, so the cover refuses it
    phi2 = build_phi2(octahedron, (0, 1, 2, 4))
    block_columns = exterior.GradedPiece.block_columns
    moved = []

    def stray(self, ids):
        columns = block_columns(self, ids)
        if self.phi.target is phi2.source and any(columns):  # products only
            col = next(col for col in columns if col)
            key = min(col)
            col[-1 - key] = col.pop(key)  # keys are never negative
            moved.append(key)
        return columns

    monkeypatch.setattr(exterior.GradedPiece, "block_columns", stray)
    with pytest.raises(InvariantViolation, match="outside its block"):
        minimal_free_cover(phi2, degree_floor=-3)
    assert moved
