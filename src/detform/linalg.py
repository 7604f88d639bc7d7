"""Exact sparse linear algebra over the integers, plus rational determinants.

Everything here works with arbitrary-precision integers and exact rationals;
no floating point. Sparse vectors are dicts mapping column index to a nonzero
value. Echelon forms hold integer rows, eliminate fraction-free and use the
canonical pivot rule (first nonzero column) so results are reproducible bit
for bit.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from math import gcd


def qq(value) -> QQ:
    """Coerce ints, strings like '3/4', and rationals to the working type."""
    return QQ(value)


def rat_str(value) -> str:
    """Canonical string form of an exact rational ('3/4', '-2', '0')."""
    return str(QQ(value))


def primitive_integer_vector(vec: dict) -> dict:
    """Divide an integer sparse vector by its content, leading entry > 0.

    Leading means the smallest column index present. Returns a new dict.
    """
    if not vec:
        return {}
    g = 0
    for v in vec.values():
        g = gcd(g, v)
    if vec[min(vec)] < 0:
        g = -g
    return {c: v // g for c, v in vec.items()}


class Echelon:
    """Incremental row echelon form with primitive integer rows.

    Rows are inserted one at a time and reduced against the current pivots
    without fractions. Pivot of a row = its smallest column index; every
    stored row is primitive with a positive pivot entry. Insertion order plus
    this pivot rule makes the echelon deterministic.
    """

    def __init__(self) -> None:
        self.rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Return a positive multiple of vec's residue; does not insert."""
        row = {c: v for c, v in vec.items() if v}
        while row:
            c = min(row)
            piv = self.rows.get(c)
            if piv is None:
                return row
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
        return row

    def insert(self, vec: dict) -> bool:
        """Reduce vec and keep the residue as a new pivot row. True if kept."""
        row = self.reduce(vec)
        if not row:
            return False
        row = primitive_integer_vector(row)
        self.rows[min(row)] = row
        return True

    def kernel_vector(self, free_col: int) -> dict:
        """Integer kernel vector, positive at free_col and 0 at other free columns.

        A positive multiple of the vector the reduced echelon form assigns
        to free_col.
        """
        x = {free_col: 1}
        for c in sorted(self.rows, reverse=True):
            if c == free_col:
                raise ValueError("free_col is a pivot column")
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

    def free_columns(self, ncols: int) -> list[int]:
        return [c for c in range(ncols) if c not in self.rows]


def echelon_from_rows(rows) -> Echelon:
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    return ech


def sparse_rank(rows) -> int:
    return echelon_from_rows(rows).rank


def kernel_basis(rows, ncols: int) -> list[dict]:
    """Canonical nullspace basis of a matrix given by sparse rows."""
    ech = echelon_from_rows(rows)
    return [ech.kernel_vector(f) for f in ech.free_columns(ncols)]


def det_bareiss(matrix: list[list]) -> QQ:
    """Exact determinant of a square matrix of rationals (Bareiss elimination).

    Denominators are cleared row by row; the core recurrence is fraction-free
    integer arithmetic with exact divisions.
    """
    n = len(matrix)
    if n == 0:
        return QQ(1)
    scale = QQ(1)
    m = []
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        denom = 1
        vals = [QQ(v) for v in row]
        for v in vals:
            denom = denom * v.denominator // gcd(denom, int(v.denominator))
        scale *= denom
        m.append([int(v * denom) for v in vals])
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
                mi[k] = 0
            elif pivot != prev:
                for j in range(k + 1, n):
                    mi[j] = mi[j] * pivot // prev
        prev = pivot
    return QQ(sign * m[n - 1][n - 1]) / scale


def integer_row_rank(rows: list[list[int]]) -> int:
    """Rank of a small dense integer matrix."""
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return sparse_rank(sparse)


def nullspace_dense(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Canonical integer nullspace basis of a small dense integer matrix."""
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    basis = kernel_basis(sparse, ncols)
    return [[vec.get(j, 0) for j in range(ncols)] for vec in basis]
