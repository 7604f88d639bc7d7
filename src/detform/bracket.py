"""Bracket substitution: quartic wedge entries become 4x4 coefficient minors.

The map out of the leftmost window term has entries of exterior degree -4 or
-1 only.  Degree -4 monomials turn into bracket variables (maximal minors of
the 4 x N coefficient matrix); degree -1 rows and columns are replicated four
times, one copy per polynomial.  Everything stays exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DegreePatternViolation, DimensionMismatch, ParseError
from .exterior import FreeModuleMap
from .linalg import QQ, det_bareiss, qq, rat_str
from .tate import point_of, support_of

Point = tuple[int, ...]
Quad = tuple[int, int, int, int]

NUM_POLYS = 4
_COEFFICIENT_BOUND = 99


@dataclass(frozen=True)
class CoefficientSystem:
    """Exact rational coefficients: four rows, one column per support point.

    Row k holds the coefficients of the k-th polynomial in the canonical
    (lexicographic) order of the support.  Indices are 1-based in the
    accessors, matching the bracket notation.
    """

    rows: tuple[tuple[QQ, ...], ...]

    def __post_init__(self):
        if len(self.rows) != NUM_POLYS:
            raise ValueError("a coefficient system has exactly four rows")
        if len({len(r) for r in self.rows}) != 1:
            raise ValueError("coefficient rows have unequal lengths")

    @property
    def npoints(self) -> int:
        return len(self.rows[0])

    def entry(self, poly: int, point: int) -> QQ:
        return self.rows[poly - 1][point - 1]

    def scale_row(self, poly: int, factor) -> CoefficientSystem:
        f = qq(factor)
        rows = tuple(
            tuple(f * c for c in row) if k == poly - 1 else row
            for k, row in enumerate(self.rows))
        return CoefficientSystem(rows)

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
    rows = tuple(
        tuple(qq(rng.randint(-_COEFFICIENT_BOUND, _COEFFICIENT_BOUND))
              for _ in range(npoints))
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


@dataclass(frozen=True)
class BracketCell:
    """Sum of bracket variables: ((quad, coefficient), ...), quads 1-based."""

    terms: tuple[tuple[Quad, QQ], ...]


@dataclass(frozen=True)
class LinearCell:
    """Sum of single coefficients of one polynomial: ((point index, weight), ...)."""

    poly: int
    terms: tuple[tuple[int, QQ], ...]


@dataclass(frozen=True, eq=True)
class BracketMatrix:
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
    k = 1..4; within each group generators go in point order.
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

    cells = {}
    for (i, j), terms in phi0.cells().items():
        sizes = {len(S) for S in terms}
        if len(sizes) != 1:
            raise DegreePatternViolation(f"entry ({i}, {j}) is inhomogeneous")
        d = -sizes.pop()
        sd = phi0.source.generators[j].degree
        td = phi0.target.generators[i].degree
        if (sd, td) == (-1, -3):
            raise DegreePatternViolation(
                f"entry ({i}, {j}) connects degrees {sd} -> {td}")
        if d != sd - td:
            raise DegreePatternViolation(f"entry ({i}, {j}) has degree {d}")
        if d == -4:
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

    Pure function of its arguments; independent evaluations share nothing.
    """
    if system.npoints != len(matrix.support):
        raise ValueError(
            f"coefficient system has {system.npoints} columns, "
            f"support has {len(matrix.support)} points")
    cache: dict[Quad, QQ] = {}

    def bval(quad: Quad) -> QQ:
        if quad not in cache:
            cache[quad] = bracket_value(quad, system)
        return cache[quad]

    n = matrix.size
    dense = [[qq(0)] * n for _ in range(n)]
    for (r, c), cell in matrix.cells.items():
        if isinstance(cell, BracketCell):
            value = sum((coeff * bval(quad) for quad, coeff in cell.terms), qq(0))
        else:
            value = sum(
                (coeff * system.entry(cell.poly, i) for i, coeff in cell.terms),
                qq(0))
        dense[r][c] = value
    return det_bareiss(dense)


def _encode_label(label) -> dict:
    if label[0] == "point":
        return {"point": list(label[1])}
    return {"copy": label[1], "point": list(label[2])}


def _decode_label(data: dict) -> tuple:
    point = tuple(data["point"])
    if "copy" in data:
        return ("copy", data["copy"], point)
    return ("point", point)


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
    """Inverse of export_matrix; a cell outside the square, a poly outside
    1..4, a point or bracket index outside the support or a bracket that is
    not 4 increasing indices is a ParseError."""
    try:
        support = tuple(tuple(p) for p in data["support"])
        row_labels = tuple(_decode_label(lab) for lab in data["row_labels"])
        col_labels = tuple(_decode_label(lab) for lab in data["col_labels"])
        n = len(row_labels)
        if len(col_labels) != n:
            raise ValueError(f"{n} row labels but {len(col_labels)} column labels")

        def index(i: int) -> int:
            if not 1 <= i <= len(support):
                raise ValueError(f"point index {i} outside 1..{len(support)}")
            return i

        cells = {}
        for cell in data["cells"]:
            key = (cell["row"], cell["col"])
            if not (0 <= key[0] < n and 0 <= key[1] < n):
                raise ValueError(f"cell {key} outside the {n} x {n} matrix")
            if "poly" in cell:
                if not 1 <= cell["poly"] <= NUM_POLYS:
                    raise ValueError(f"poly {cell['poly']} outside 1..{NUM_POLYS}")
                terms = tuple(
                    (index(t["point"]), qq(t["coeff"])) for t in cell["terms"])
                cells[key] = LinearCell(cell["poly"], terms)
            else:
                terms = tuple(
                    (tuple(map(index, t["quad"])), qq(t["coeff"])) for t in cell["terms"])
                if any(len(q) != NUM_POLYS or list(q) != sorted(set(q)) for q, _ in terms):
                    raise ValueError(f"a bracket of cell {key} is not 4 increasing indices")
                cells[key] = BracketCell(terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix description: {exc}") from None
    matrix = BracketMatrix(support, row_labels, col_labels, cells)
    declared = data.get("blocks")
    if declared is not None:
        actual = {name: list(shape) for name, shape in matrix.block_shapes().items()}
        if declared != actual:
            raise ParseError("declared block shapes do not match the labels")
    return matrix
