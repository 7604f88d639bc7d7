"""The one-sided mod-2 independence test against exact elimination, and
the determinant's shape check."""

from __future__ import annotations

import itertools
import random

import pytest

from detform.errors import InvariantViolation
from detform.linalg import Echelon, det_bareiss, independent_mod2


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


def test_independent_mod2_proves_independence_over_q():
    # independent over Q, equal mod 2
    pair = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert Echelon(pair).rank == 2 and not independent_mod2(map(odd_bits, pair))
    rng = random.Random(21)
    outcomes = set()
    for _ in range(300):
        ncols = rng.randint(1, 5)
        vectors = [{c: rng.randint(-3, 3) for c in rng.sample(range(ncols), rng.randint(0, ncols))}
                   for _ in range(rng.randint(0, 4))]
        mod2 = independent_mod2(map(odd_bits, vectors))
        exact = Echelon(vectors).rank == len(vectors)
        assert mod2 == (not dependent_mod2(vectors))
        assert independent_mod2(map(odd_bits, reversed(vectors))) == mod2
        assert not mod2 or exact
        outcomes.add((mod2, exact))
    # False proves nothing: some draws are dependent mod 2 only
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_a_non_square_determinant_is_an_invariant_violation():
    # every caller builds its matrix square, so another shape is a bug
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    with pytest.raises(InvariantViolation, match="not square"):
        det_bareiss([[1, 2], [3, 4], [5, 6]])
