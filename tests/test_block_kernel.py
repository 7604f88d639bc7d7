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
from detform.exterior import block_kernel, minimal_free_cover
from detform.lattice import convex_hull_with_facets
from detform.linalg import Echelon, primitive_integer_vector
from detform.shelling import best_selection
from detform.tate import build_phi2, build_window, check_exactness

from conftest import CUBE_POINTS, OCTA_POINTS, SIMPLEX2_POINTS, acceptance_corpus
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
    their exactness checks hand to block_kernel, with its products, and the
    outcome of every exact check of a kept vector."""
    blocks, checks = [], []
    kernel, annihilates = exterior.block_kernel, exterior.annihilates

    def recorded_kernel(src_ids, columns, products):
        blocks.append((list(src_ids), columns, products))
        with monkeypatch.context() as m:  # the cover's checks of given columns are not these
            m.setattr(exterior, "annihilates", recorded_check)
            return kernel(src_ids, columns, products)

    def recorded_check(columns, vec):
        checks.append(annihilates(columns, vec))
        return checks[-1]

    with monkeypatch.context() as m:
        m.setattr(exterior, "block_kernel", recorded_kernel)
        for Q, selection in windows:
            check_exactness(build_window(Q, selection))
    return blocks, checks


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
    # the cube, the octahedron and the 2-simplex as the benchmark's ladder
    # builds them; no block needs the full reduction, so each block builds
    # one sieved echelon and one of its products; the column sieve passes on
    # exactly as many rows as the blocks' ranks, far fewer than they have,
    # and keeps each, and every vector built is checked and kept, fewer
    # than their nullities
    ladder = [convex_hull_with_facets(points)
              for points in (CUBE_POINTS, OCTA_POINTS, SIMPLEX2_POINTS)]
    blocks, checks = fallback_blocks(
        [(Q, best_selection(Q, seed=0).selection) for Q in ladder], monkeypatch)
    assert blocks and checks and all(checks)
    kept = nullity = rows = ranks = inserted = 0
    for src_ids, columns, products in blocks:
        n, found = agrees_with_both_references(src_ids, columns, products)
        kept, nullity = kept + len(found), nullity + n
        rows += len({r for col in columns for r in col})
        ranks += Echelon(columns).rank
        again, echelons = sieved_inserts(monkeypatch, src_ids, columns, products)
        assert again == (n, found) and len(echelons) == 2
        received, sieved_rank = echelons[0]
        assert sieved_rank == received  # every row the sieve passes on is kept
        inserted += received
    assert len(checks) == kept < nullity
    assert any(products for _, _, products in blocks)
    assert inserted == ranks < rows


def test_the_sieve_agrees_with_the_full_reduction_on_the_corpus(monkeypatch):
    blocks, checks = fallback_blocks([(Q, sel) for _, Q, sel in acceptance_corpus()[:4]],
                                     monkeypatch)
    assert blocks and all(checks)
    for src_ids, columns, products in blocks:
        agrees_with_both_references(src_ids, columns, products)


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
