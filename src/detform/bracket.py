"""Bracket substitution: quartic wedge entries become 4x4 coefficient minors.

The map out of the leftmost window term has entries of exterior degree -4 or
-1 only.  Degree -4 monomials turn into bracket variables (maximal minors of
the 4 x N coefficient matrix); degree -1 rows and columns are replicated four
times, one copy per polynomial.  Everything stays exact.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import NamedTuple

from .errors import DegreePatternViolation, DimensionMismatch, ParseError
from .exterior import FreeModuleMap
from .linalg import QQ, clear_denominators, det_bareiss, qq, rat_str
from .record import Frozen
from .tate import point_of, support_of

Point = tuple[int, ...]
Quad = tuple[int, int, int, int]

NUM_POLYS = 4
_COEFFICIENT_BOUND = 99


class CoefficientSystem(Frozen):
    """Exact rational coefficients: four rows, one column per support point.

    Row k holds the coefficients of the k-th polynomial in the canonical
    (lexicographic) order of the support.  Every entry is an int or a
    Fraction; a bool, a float, a string or another inexact or unparsed
    value is a ValueError.  Indices are 1-based in the accessors, matching
    the bracket notation, and an index outside the system is a ValueError.
    """

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[QQ, ...], ...]):
        object.__setattr__(self, "rows", rows)
        if len(self.rows) != NUM_POLYS:
            raise ValueError("a coefficient system has exactly four rows")
        if len({len(r) for r in self.rows}) != 1:
            raise ValueError("coefficient rows have unequal lengths")
        for row in self.rows:
            for c in row:
                if isinstance(c, bool) or not isinstance(c, (int, QQ)):
                    raise ValueError(
                        f"coefficient {c!r} is not an int or a Fraction")

    @property
    def npoints(self) -> int:
        return len(self.rows[0])

    def _poly(self, poly: int) -> int:
        if not 1 <= poly <= NUM_POLYS:
            raise ValueError(f"poly {poly} outside 1..{NUM_POLYS}")
        return poly - 1

    def entry(self, poly: int, point: int) -> QQ:
        row = self.rows[self._poly(poly)]
        if not 1 <= point <= self.npoints:
            raise ValueError(f"point {point} outside 1..{self.npoints}")
        return row[point - 1]

    def scale_row(self, poly: int, factor) -> CoefficientSystem:
        f = qq(factor)
        k = self._poly(poly)
        rows = list(self.rows)
        rows[k] = tuple(f * c for c in rows[k])
        return CoefficientSystem(tuple(rows))

    def permute_rows(self, order: tuple[int, int, int, int]) -> CoefficientSystem:
        if sorted(order) != [1, 2, 3, 4]:
            raise ValueError("row order must be a permutation of 1..4")
        return CoefficientSystem(tuple(self.rows[k - 1] for k in order))


def parse_coefficients(text: str, expected_points: int | None = None) -> CoefficientSystem:
    """Read four whitespace-separated rational rows; '#' starts a comment."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        entries = []
        for token in line.split():
            try:
                entries.append(qq(token))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {lineno}: bad rational {token!r}") from None
        rows.append((lineno, tuple(entries)))
    if len(rows) != NUM_POLYS:
        raise ParseError(f"expected 4 coefficient rows, found {len(rows)}")
    widths = {len(r) for _, r in rows}
    if len(widths) != 1:
        raise ParseError("coefficient rows have unequal lengths")
    if expected_points is not None and widths.pop() != expected_points:
        raise ParseError(
            f"line {rows[0][0]}: expected {expected_points} coefficients per row")
    return CoefficientSystem(tuple(r for _, r in rows))


def format_coefficients(system: CoefficientSystem) -> str:
    return "\n".join(" ".join(rat_str(c) for c in row) for row in system.rows) + "\n"


def random_coefficients(npoints: int, rng) -> CoefficientSystem:
    """Four rows of ints drawn uniformly from -99..99, row by row."""
    rows = tuple(
        tuple(rng.randint(-_COEFFICIENT_BOUND, _COEFFICIENT_BOUND) for _ in range(npoints))
        for _ in range(NUM_POLYS))
    return CoefficientSystem(rows)


def bracket_value(quad: Quad, system: CoefficientSystem) -> QQ:
    """Determinant of the 4x4 minor on the given strictly increasing columns."""
    if list(quad) != sorted(set(quad)) or len(quad) != NUM_POLYS:
        raise ValueError(f"bracket index {quad} is not strictly increasing")
    if quad[0] < 1 or quad[-1] > system.npoints:
        raise ValueError(f"bracket index {quad} out of range")
    minor = [[system.rows[k][i - 1] for i in quad] for k in range(NUM_POLYS)]
    return det_bareiss(minor)


class BracketCell(NamedTuple):
    """Sum of bracket variables: ((quad, coefficient), ...), quads 1-based."""

    terms: tuple[tuple[Quad, QQ], ...]


class LinearCell(NamedTuple):
    """Sum of single coefficients of one polynomial: ((point index, weight), ...)."""

    poly: int
    terms: tuple[tuple[int, QQ], ...]


class BracketMatrix(NamedTuple):
    """Square matrix in bracket and coefficient variables, Theorem-style blocks.

    Labels are ("point", m) for bracket rows and columns, ("copy", k, m) for
    the four copies of an expanded linear row or column.  Cells absent from
    the dict are zero.
    """

    support: tuple[Point, ...]
    row_labels: tuple[tuple, ...]
    col_labels: tuple[tuple, ...]
    cells: dict

    @property
    def size(self) -> int:
        return len(self.row_labels)

    def block_shapes(self) -> dict[str, tuple[int, int]]:
        rp = sum(1 for lab in self.row_labels if lab[0] == "point")
        cp = sum(1 for lab in self.col_labels if lab[0] == "point")
        rc = len(self.row_labels) - rp
        cc = len(self.col_labels) - cp
        return {
            "B": (rp, cp),
            "L": (rp, cc),
            "Ltilde": (rc, cp),
            "zero": (rc, cc),
        }

    def block_of(self, row: int, col: int) -> str:
        r = self.row_labels[row][0] == "point"
        c = self.col_labels[col][0] == "point"
        if r:
            return "B" if c else "L"
        return "Ltilde" if c else "zero"


def apply_U4(phi0: FreeModuleMap) -> BracketMatrix:
    """Expand the window's leftmost map into brackets and coefficient entries.

    Source generators sit in degrees -4 and -1, target generators in 0 and
    -3.  A degree -4 source or degree 0 target generator takes one line, a
    ("point", m) label; the others take NUM_POLYS lines, ("copy", k, m) for
    k = 1..4; within each group generators go in point order.  A generator
    in another degree is a DegreePatternViolation; an entry of the wrong
    degree is a bug upstream, an InvariantViolation of validate_degrees.
    That the map lands in the middle map's kernel, the cover proved for each
    column as it was built: a given Koszul column by its check over Z, any
    other by block_kernel, over Z or by a full reduction.
    """
    support = support_of(phi0.source.algebra)

    def layout(module, single_degree, copied_degree, where):
        gens = module.generators
        for g in gens:
            if g.degree not in (single_degree, copied_degree):
                raise DegreePatternViolation(f"{where} generator in degree {g.degree}")
        labels, lines = [], {}
        for degree in (single_degree, copied_degree):
            for j in sorted((j for j, g in enumerate(gens) if g.degree == degree),
                            key=lambda j: point_of(gens[j])):
                m = point_of(gens[j])
                new = ([("point", m)] if degree == single_degree
                       else [("copy", k, m) for k in range(1, NUM_POLYS + 1)])
                lines[j] = range(len(labels), len(labels) + len(new))
                labels += new
        return labels, lines

    col_labels, cols = layout(phi0.source, -4, -1, "source")
    row_labels, rows = layout(phi0.target, 0, -3, "target")
    if len(row_labels) != len(col_labels):
        raise DimensionMismatch(
            f"bracket matrix is {len(row_labels)} x {len(col_labels)}")

    # no entry has degree +2, so this also keeps the corner -1 -> -3 empty
    phi0.validate_degrees()
    cells = {}
    for (i, j), terms in phi0.cells().items():
        if phi0.source.generators[j].degree - phi0.target.generators[i].degree == -4:
            quads = tuple(sorted((tuple(x + 1 for x in S), c) for S, c in terms.items()))
            cells[(rows[i][0], cols[j][0])] = BracketCell(quads)
        else:
            # one line on one side, NUM_POLYS on the other: copy k is polynomial k
            refs = tuple(sorted((S[0] + 1, c) for S, c in terms.items()))
            for k, rc in enumerate(itertools.product(rows[i], cols[j]), start=1):
                cells[rc] = LinearCell(k, refs)
    return BracketMatrix(support, tuple(row_labels), tuple(col_labels), cells)


def evaluate(matrix: BracketMatrix, system: CoefficientSystem) -> QQ:
    """Exact determinant after substituting the coefficient system.

    Works in integers.  Row k of the system is cleared once: d_k is the lcm
    of its denominators and a_k = d_k * row k an integer row.  The 2x2
    minors p(a, b) of a_1, a_2 and q(a, b) of a_3, a_4 are taken once per
    column pair, and each bracket, times D = d_1 d_2 d_3 d_4, is their
    Laplace expansion along the first two rows

        [abcd] = p(a,b) q(c,d) - p(a,c) q(b,d) + p(a,d) q(b,c)
               + p(b,c) q(a,d) - p(b,d) q(a,c) + p(c,d) q(a,b).

    A bracket cell is then (sum of coeff * [abcd]) / D and a linear cell of
    polynomial k is (sum of coeff * a_k[i]) / d_k: one division per cell,
    before det_bareiss.  bracket_value is the independent 4x4 reference the
    tests compare brackets against.  Pure function of its arguments;
    independent evaluations share nothing.
    """
    if system.npoints != len(matrix.support):
        raise ValueError(
            f"coefficient system has {system.npoints} columns, "
            f"support has {len(matrix.support)} points")
    denoms, ints = [], []
    for row in system.rows:
        d, a = clear_denominators(row)
        denoms.append(d)
        ints.append([0] + a)  # 1-based: point i sits at index i
    a1, a2, a3, a4 = ints
    p, q = {}, {}
    for a, b in itertools.combinations(range(1, system.npoints + 1), 2):
        p[a, b] = a1[a] * a2[b] - a1[b] * a2[a]
        q[a, b] = a3[a] * a4[b] - a3[b] * a4[a]
    D = prod(denoms)
    brackets: dict[Quad, int] = {}

    def bracket(quad: Quad) -> int:
        value = brackets.get(quad)
        if value is None:
            a, b, c, d = quad
            value = brackets[quad] = (
                p[a, b] * q[c, d] - p[a, c] * q[b, d] + p[a, d] * q[b, c]
                + p[b, c] * q[a, d] - p[b, d] * q[a, c] + p[c, d] * q[a, b])
        return value

    n = matrix.size
    dense = [[0] * n for _ in range(n)]
    for (r, c), cell in matrix.cells.items():
        if isinstance(cell, BracketCell):
            total = sum(coeff * bracket(quad) for quad, coeff in cell.terms)
            dense[r][c] = QQ(total, D)
        else:
            row = ints[cell.poly - 1]
            total = sum(coeff * row[i] for i, coeff in cell.terms)
            dense[r][c] = QQ(total, denoms[cell.poly - 1])
    return det_bareiss(dense)


def _encode_label(label) -> dict:
    if label[0] == "point":
        return {"point": list(label[1])}
    return {"copy": label[1], "point": list(label[2])}


def export_matrix(matrix: BracketMatrix) -> dict:
    """JSON-ready canonical form; cells in row-major order."""
    cells = []
    for (r, c) in sorted(matrix.cells):
        cell = matrix.cells[(r, c)]
        out = {"row": r, "col": c, "block": matrix.block_of(r, c)}
        if isinstance(cell, BracketCell):
            out["terms"] = [
                {"coeff": rat_str(coeff), "quad": list(quad)}
                for quad, coeff in cell.terms]
        else:
            out["poly"] = cell.poly
            out["terms"] = [
                {"coeff": rat_str(coeff), "point": i} for i, coeff in cell.terms]
        cells.append(out)
    return {
        "size": matrix.size,
        "support": [list(p) for p in matrix.support],
        "row_labels": [_encode_label(lab) for lab in matrix.row_labels],
        "col_labels": [_encode_label(lab) for lab in matrix.col_labels],
        "blocks": {name: list(shape) for name, shape in matrix.block_shapes().items()},
        "cells": cells,
    }


def import_matrix(data: dict) -> BracketMatrix:
    """Inverse of export_matrix; a support point that is not ints of one
    dimension (a bool or a float is not an int), a support that is not
    strictly ascending (the order export_matrix writes, so a repeated point
    is refused), a row, col, poly, point, bracket or copy index that is not
    an int, a cell outside the square, a poly or copy outside 1..4, a point
    or bracket index outside the support, a bracket that is not 4 increasing
    indices, a coefficient that is not a string or an int, or a label point
    that is not integers of the support's dimension is a ParseError."""
    try:
        support = tuple(tuple(p) for p in data["support"])
        dim = len(support[0]) if support else 0
        for p in support:
            if len(p) != dim or any(type(c) is not int for c in p):
                raise ValueError(f"support point {list(p)!r} is not {dim} integers")
        for p, q in zip(support, support[1:]):
            if p >= q:
                raise ValueError(f"support points {list(p)!r}, {list(q)!r} are not ascending")

        def integer(value) -> int:
            if type(value) is not int:
                raise ValueError(f"index {value!r} is not an integer")
            return value

        def index(i) -> int:
            if not 1 <= integer(i) <= len(support):
                raise ValueError(f"point index {i} outside 1..{len(support)}")
            return i

        def coefficient(value) -> QQ:
            if type(value) is not int and not isinstance(value, str):
                raise ValueError(f"coefficient {value!r} is not a string or an integer")
            return qq(value)

        def label(lab: dict) -> tuple:
            point = tuple(lab["point"])
            if len(point) != dim or any(type(c) is not int for c in point):
                raise ValueError(f"label point {lab['point']!r} is not {dim} integers")
            if "copy" not in lab:
                return ("point", point)
            if not 1 <= integer(lab["copy"]) <= NUM_POLYS:
                raise ValueError(f"copy {lab['copy']} outside 1..{NUM_POLYS}")
            return ("copy", lab["copy"], point)

        row_labels = tuple(map(label, data["row_labels"]))
        col_labels = tuple(map(label, data["col_labels"]))
        n = len(row_labels)
        if len(col_labels) != n:
            raise ValueError(f"{n} row labels but {len(col_labels)} column labels")

        cells = {}
        for cell in data["cells"]:
            key = (integer(cell["row"]), integer(cell["col"]))
            if not (0 <= key[0] < n and 0 <= key[1] < n):
                raise ValueError(f"cell {key} outside the {n} x {n} matrix")
            if "poly" in cell:
                if not 1 <= integer(cell["poly"]) <= NUM_POLYS:
                    raise ValueError(f"poly {cell['poly']} outside 1..{NUM_POLYS}")
                terms = tuple(
                    (index(t["point"]), coefficient(t["coeff"])) for t in cell["terms"])
                cells[key] = LinearCell(cell["poly"], terms)
            else:
                terms = tuple(
                    (tuple(map(index, t["quad"])), coefficient(t["coeff"])) for t in cell["terms"])
                if any(len(q) != NUM_POLYS or list(q) != sorted(set(q)) for q, _ in terms):
                    raise ValueError(f"a bracket of cell {key} is not 4 increasing indices")
                cells[key] = BracketCell(terms)
    except (LookupError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix description: {exc}") from None
    matrix = BracketMatrix(support, row_labels, col_labels, cells)
    declared = data.get("blocks")
    if declared is not None:
        actual = {name: list(shape) for name, shape in matrix.block_shapes().items()}
        if declared != actual:
            raise ParseError("declared block shapes do not match the labels")
    return matrix
