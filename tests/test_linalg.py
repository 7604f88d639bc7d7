"""The one-sided mod-2 independence certificate and column sieve against exact
elimination, back-substitution against the reduced row echelon form over
Q, and the determinant's shape check."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detform.errors import InvariantViolation
from detform.linalg import Echelon, det_bareiss, echelon_mod2, rat_str

from conftest import time_limit


def odd_bits(vec: dict) -> int:
    """The bitset of a sparse integer vector's odd entries."""
    return sum(1 << c for c, v in vec.items() if v & 1)


def dependent_mod2(vectors: list[dict]) -> bool:
    """Brute force: some nonempty subset sums to zero mod 2."""
    return any(
        all(sum(vectors[i].get(c, 0) for i in subset) % 2 == 0
            for c in set().union(*(vectors[i] for i in subset)))
        for k in range(1, len(vectors) + 1)
        for subset in itertools.combinations(range(len(vectors)), k))


def independent_mod2(vectors: list[dict]) -> bool:
    """The cover's certificate: the odd-entry bitsets' mod-2 echelon keeps
    a row for each vector."""
    return len(echelon_mod2(map(odd_bits, vectors))) == len(vectors)


def test_insert_scales_the_row_before_it_subtracts_the_pivot_row():
    # 3 is no multiple of the pivot 2: unscaled, the leading entry would
    # never cancel and the reduction would not end
    with time_limit(5):
        ech = Echelon([{0: 2, 1: 1}, {0: 3}])
    assert ech.rows == {0: {0: 2, 1: 1}, 1: {1: 1}}


def test_full_rank_mod_2_proves_independence_over_q():
    # independent over Q, equal mod 2
    pair = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert Echelon(pair).rank == 2 and not independent_mod2(pair)
    rng = random.Random(21)
    outcomes = set()
    for _ in range(300):
        ncols = rng.randint(1, 5)
        vectors = [{c: rng.randint(-3, 3) for c in rng.sample(range(ncols), rng.randint(0, ncols))}
                   for _ in range(rng.randint(0, 4))]
        mod2 = independent_mod2(vectors)
        exact = Echelon(vectors).rank == len(vectors)
        assert mod2 == (not dependent_mod2(vectors))
        assert independent_mod2(vectors[::-1]) == mod2
        assert not mod2 or exact
        outcomes.add((mod2, exact))
    # False proves nothing: some draws are dependent mod 2 only
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_a_non_square_determinant_is_an_invariant_violation():
    # every caller builds its matrix square, so another shape is a bug
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    with pytest.raises(InvariantViolation, match="not square"):
        det_bareiss([[1, 2], [3, 4], [5, 6]])


def rref(rows) -> dict[int, dict[int, Fraction]]:
    """Gauss-Jordan over Q: pivot column -> its row of the reduced row
    echelon form, 1 at the pivot and 0 at every other pivot column."""
    basis: dict[int, dict[int, Fraction]] = {}

    def subtract(row, factor, other):
        for c, v in other.items():
            acc = row.get(c, 0) - factor * v
            if acc:
                row[c] = acc
            else:
                row.pop(c, None)

    for vec in rows:
        row = {c: Fraction(v) for c, v in vec.items() if v}
        for p, other in basis.items():
            if p in row:
                subtract(row, row[p], other)
        if row:
            p = min(row)
            row = {c: v / row[p] for c, v in row.items()}
            for other in basis.values():
                if p in other:
                    subtract(other, other[p], row)
            basis[p] = row
    return basis


def rref_kernel_vector(basis: dict[int, dict[int, Fraction]], free_col: int) -> dict:
    """The kernel vector the reduced row echelon form assigns to free_col:
    1 there, 0 at the other free columns, -R[p][free_col] at each pivot p."""
    x = {free_col: Fraction(1)}
    for p, row in basis.items():
        if free_col in row:
            x[p] = -row[free_col]
    return x


sparse_rows = st.lists(st.dictionaries(st.integers(0, 9), st.integers(-3, 3), max_size=5),
                       max_size=8)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(sparse_rows, sparse_rows)
def test_kernel_vector_is_a_positive_multiple_of_the_rref_vector(first, later):
    # checked again after later inserts, which add pivots under the vectors
    ech, inserted = Echelon(first), list(first)
    for rows in ((), later):
        for row in rows:
            ech.insert(row)
        inserted += rows
        basis = rref(ech.rows.values())
        assert basis.keys() == ech.rows.keys()
        free = [c for c in range(10) if c not in ech.rows]
        for f in free:
            vec, ref = ech.kernel_vector(f), rref_kernel_vector(basis, f)
            assert vec[f] > 0
            assert all(vec.get(c, 0) == vec[f] * ref.get(c, 0) for c in vec.keys() | ref.keys())
            assert not any(vec.get(g, 0) for g in free if g != f)
            assert all(type(v) is int for v in vec.values())
            for row in itertools.chain(ech.rows.values(), inserted):
                assert sum(v * vec.get(c, 0) for c, v in row.items()) == 0
        for pivot in ech.rows:
            with pytest.raises(InvariantViolation, match="pivot column"):
                ech.kernel_vector(pivot)


def test_the_mod_2_sieve_keeps_a_basis_of_the_rows_mod_2():
    # each column as a bitset over the rows, echelon-ed mod 2 with its top
    # bit as pivot: the pivot rows are independent mod 2, so over Q too, and
    # they number the rank mod 2, the size of a greedy basis of the rows
    rng = random.Random(24)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        rows = [{c: rng.randint(-3, 3) for c in rng.sample(range(ncols), rng.randint(0, ncols))}
                for _ in range(nrows)]
        columns = [sum(1 << r for r, row in enumerate(rows) if row.get(c, 0) & 1)
                   for c in range(ncols)]
        kept = [rows[top - 1] for top in echelon_mod2(columns)]
        greedy = []
        for row in rows:
            if not dependent_mod2(greedy + [row]):
                greedy.append(row)
        assert not dependent_mod2(kept)
        assert len(kept) == len(greedy)
        assert Echelon(kept).rank == len(kept)


def test_echelon_mod2_drops_dependent_bitsets():
    # 0b101 = 0b110 ^ 0b011 leaves no residue, so the echelon drops it and
    # keeps fewer rows than bitsets; a zero bitset is dropped at once
    assert echelon_mod2([0b110, 0b011, 0b101, 0b001]) == {3: 0b110, 2: 0b011, 1: 0b001}
    assert echelon_mod2([0b110, 0b011, 0b001]) == {3: 0b110, 2: 0b011, 1: 0b001}
    assert echelon_mod2([0, 0b1]) == {1: 1}
    assert echelon_mod2(iter([0b1, 0b1])) == {1: 1}


def test_rat_str_prints_ints_itself_and_the_rest_through_a_fraction():
    cases = [(0, "0"), (-1, "-1"), (-42, "-42"), (10 ** 30, "1" + "0" * 30),
             (-(10 ** 30), "-1" + "0" * 30), (True, "1"), (False, "0"),
             (Fraction(-5, 7), "-5/7"), (Fraction(6, 3), "2"), ("3/4", "3/4"),
             ("-6/8", "-3/4")]
    for value, text in cases:
        assert rat_str(value) == text == str(Fraction(value))
