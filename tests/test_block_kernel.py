"""block_kernel's mod-2 row sieve against the full-row reduction it replaced.

The reference here is block_kernel as it was before the sieve: every
transposed row of the block reduced, last row first, and back-substituted
over every pivot. The sieved kernel must agree with it on every block a
cover cannot certify mod 2, after primitive_integer_vector removes the
positive scale that depends on the echelon's rows.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from detform import exterior
from detform.exterior import block_kernel
from detform.lattice import convex_hull_with_facets
from detform.linalg import Echelon, primitive_integer_vector
from detform.shelling import best_selection
from detform.tate import build_window, check_exactness

from conftest import CUBE_POINTS, OCTA_POINTS, acceptance_corpus
from test_linalg import plain_kernel_vector

SIMPLEX2_POINTS = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]


def reference_block_kernel(src_ids, columns):
    """Every transposed row reduced last row first; kernel vectors by a walk
    over every pivot."""
    rows: dict[int, dict[int, int]] = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    ech = Echelon(reversed(rows.values()))
    return [(src_ids[free], {src_ids[c]: v for c, v in plain_kernel_vector(ech, free).items()})
            for free in ech.free_columns(len(src_ids))]


def normalised(pairs):
    return [(free, primitive_integer_vector(vec)) for free, vec in pairs]


def fallback_blocks(windows, monkeypatch):
    """Every block the covers of these (polytope, selection) windows and
    their exactness checks hand to block_kernel, and the outcome of every
    exact check of a sieved kernel vector."""
    blocks, checks = [], []
    kernel, annihilates = exterior.block_kernel, exterior.annihilates

    def recorded_kernel(src_ids, columns):
        blocks.append((list(src_ids), columns))
        return kernel(src_ids, columns)

    def recorded_check(columns, vec):
        checks.append(annihilates(columns, vec))
        return checks[-1]

    with monkeypatch.context() as m:
        m.setattr(exterior, "block_kernel", recorded_kernel)
        m.setattr(exterior, "annihilates", recorded_check)
        for Q, selection in windows:
            check_exactness(build_window(Q, selection))
    return blocks, checks


def counted_inserts(monkeypatch, src_ids, columns):
    """block_kernel's output and the outcomes of its echelon inserts."""
    kept = []
    insert = Echelon.insert

    def counted(self, vec):
        kept.append(insert(self, vec))
        return kept[-1]

    with monkeypatch.context() as m:
        m.setattr(Echelon, "insert", counted)
        found = block_kernel(src_ids, columns)
    return found, kept


def test_the_sieve_agrees_with_the_full_reduction_on_the_ladder(monkeypatch):
    # the cube, the octahedron and the 2-simplex as the benchmark's ladder
    # builds them; no block needs the fallback, and every row the sieve
    # passes on is kept, so the echelon reduces far fewer rows than the
    # block has
    ladder = [convex_hull_with_facets(points)
              for points in (CUBE_POINTS, OCTA_POINTS, SIMPLEX2_POINTS)]
    blocks, checks = fallback_blocks([(Q, best_selection(Q, seed=0).selection) for Q in ladder],
                                     monkeypatch)
    assert blocks and checks and all(checks)
    inserted = rows = 0
    for src_ids, columns in blocks:
        found, kept = counted_inserts(monkeypatch, src_ids, columns)
        assert normalised(found) == normalised(reference_block_kernel(src_ids, columns))
        assert all(kept)
        inserted += len(kept)
        rows += len({r for col in columns for r in col})
    assert inserted < rows


def test_the_sieve_agrees_with_the_full_reduction_on_the_corpus(monkeypatch):
    blocks, checks = fallback_blocks([(Q, sel) for _, Q, sel in acceptance_corpus()[:4]],
                                     monkeypatch)
    assert blocks and all(checks)
    for src_ids, columns in blocks:
        assert normalised(block_kernel(src_ids, columns)) == \
            normalised(reference_block_kernel(src_ids, columns))


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


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(integer_blocks())
def test_the_sieve_agrees_with_the_full_reduction_on_random_blocks(columns):
    src_ids = [10 + 3 * c for c in range(len(columns))]
    assert normalised(block_kernel(src_ids, columns)) == \
        normalised(reference_block_kernel(src_ids, columns))


def test_a_block_whose_rank_drops_mod_2_takes_the_full_reduction(monkeypatch):
    # rows (1, 1) and (1, -1) are equal mod 2, so the sieve keeps the last,
    # and its kernel vector (1, 1) leaves 2 in the first row; a lone entry 2
    # is no row mod 2 at all; in the 3-column block free column 1 fails the
    # check, and column 2, zero, keeps its vector e_2 in the full reduction
    for columns, kernel in (([{0: 1, 1: 1}, {0: 1, 1: -1}], []),
                            ([{0: 2}], []),
                            ([{0: 1, 1: 1}, {0: 1, 1: -1}, {}], [(2, {2: 1})])):
        checks = []
        annihilates = exterior.annihilates

        def recorded(cols, vec):
            checks.append(annihilates(cols, vec))
            return checks[-1]

        with monkeypatch.context() as m:
            m.setattr(exterior, "annihilates", recorded)
            found = block_kernel(range(len(columns)), columns)
        assert False in checks
        assert found == kernel
        assert normalised(found) == normalised(reference_block_kernel(range(len(columns)), columns))
