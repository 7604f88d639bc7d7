"""Exact sparse linear algebra over the integers, plus rational determinants.

Everything here works with arbitrary-precision integers and exact rationals;
no floating point. Sparse vectors are dicts mapping column index to a nonzero
value. Echelon forms hold integer rows, eliminate fraction-free and use the
canonical pivot rule (first nonzero column) so results are reproducible bit
for bit. The modular routine works on the bitsets of odd entries: vectors
independent mod 2 are independent over Q, and echelon_mod2 builds a mod-2
echelon in one XOR loop, with one row per bitset exactly when the bitsets
are independent mod 2, the one certificate of independence. Given a
block's columns as bitsets over its rows, its pivots pick rows independent
mod 2 that an echelon can reduce alone; that they span the row space is
for the caller to prove over Z (exterior.block_kernel does), and to reduce
every row when the proof fails.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from math import gcd, lcm

from .errors import InvariantViolation


def qq(value) -> QQ:
    """Coerce ints, strings like '3/4', and rationals to the working type. A
    float is inexact and a bool is not a number, so either is a ValueError."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"{value!r} is not an exact rational")
    return QQ(value)


def rat_str(value) -> str:
    """Canonical string form of an exact rational ('3/4', '-2', '0'): an int
    (not a bool) prints itself, and any other value goes through a Fraction."""
    return str(value) if type(value) is int else str(QQ(value))


def primitive_integer_vector(vec: dict) -> dict:
    """Divide an integer sparse vector by its content, leading entry > 0.

    Leading means the smallest column index present; vec is nonzero.
    Returns a new dict.
    """
    g = 0
    for v in vec.values():
        g = gcd(g, v)
    if vec[min(vec)] < 0:
        g = -g
    return {c: v // g for c, v in vec.items()}


def echelon_mod2(bitsets) -> dict[int, int]:
    """XOR-reduce each bitset against the rows so far, keyed by bit_length,
    and keep every nonzero residue: a mod-2 echelon whose pivots are the
    rows' top bits, and whose size is the rank mod 2."""
    basis: dict[int, int] = {}
    for bits in bitsets:
        while (top := bits.bit_length()) in basis:  # 0 is no key: a zero residue stops
            bits ^= basis[top]
        if bits:
            basis[top] = bits
    return basis


class Echelon:
    """Incremental row echelon form with primitive integer rows.

    Rows are inserted one at a time, starting with the given rows in order,
    and reduced against the current pivots without fractions. Pivot of a
    row = its smallest column index; every stored row is primitive with a
    positive pivot entry. Insertion order plus this pivot rule makes the
    echelon deterministic.
    """

    def __init__(self, rows=()) -> None:
        self.rows: dict[int, dict] = {}
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec: dict) -> bool:
        """Reduce vec against the pivot rows and keep a nonzero residue,
        made primitive, as a new pivot row. True if kept."""
        row = {c: v for c, v in vec.items() if v}
        while row:
            c = min(row)
            piv = self.rows.get(c)
            if piv is None:
                self.rows[c] = primitive_integer_vector(row)
                return True
            g = gcd(piv[c], row[c])
            scale, factor = piv[c] // g, row[c] // g
            if scale != 1:
                row = {col: scale * val for col, val in row.items()}
            for col, val in piv.items():
                acc = row.get(col, 0) - factor * val
                if acc:
                    row[col] = acc
                else:
                    row.pop(col, None)
        return False

    def kernel_vector(self, free_col: int) -> dict:
        """Integer kernel vector, positive at free_col and 0 at other free columns.

        A positive multiple of the vector the reduced echelon form assigns
        to free_col, back-substituted through the pivot rows, largest pivot
        first.
        """
        if free_col in self.rows:
            raise InvariantViolation("free_col is a pivot column")
        x = {free_col: 1}
        for c in sorted(self.rows, reverse=True):
            row = self.rows[c]
            s = 0
            for col in row.keys() & x.keys():
                s += row[col] * x[col]
            if s:
                g = gcd(s, row[c])
                scale = row[c] // g
                if scale != 1:
                    x = {col: scale * v for col, v in x.items()}
                x[c] = -s // g
        return x


def clear_denominators(row) -> tuple[int, list[int]]:
    """(d, d * row) for a row of ints and Fractions, d the lcm of the
    entries' denominators, read from `.numerator` and `.denominator` (an int
    is its own numerator over 1)."""
    d = lcm(*(v.denominator for v in row))
    return d, [v.numerator * (d // v.denominator) for v in row]


def det_bareiss(matrix: list[list]) -> QQ:
    """Exact determinant of a square matrix of ints and Fractions (Bareiss
    elimination).

    Each row is cleared once by clear_denominators; the core recurrence is
    fraction-free integer arithmetic with exact divisions, and the one
    Fraction made is the integer determinant over the product of the row
    multipliers d.
    """
    n = len(matrix)
    if n == 0:
        return QQ(1)
    scale = 1
    m = []
    for row in matrix:
        if len(row) != n:
            raise InvariantViolation("matrix is not square")
        denom, ints = clear_denominators(row)
        scale *= denom
        m.append(ints)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return QQ(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi, mk = m[i], m[k]
            lead = mi[k]
            if lead:
                for j in range(k + 1, n):
                    mi[j] = (mi[j] * pivot - lead * mk[j]) // prev
            elif pivot != prev:
                for j in range(k + 1, n):
                    mi[j] = mi[j] * pivot // prev
        prev = pivot
    return QQ(sign * m[n - 1][n - 1], scale)

