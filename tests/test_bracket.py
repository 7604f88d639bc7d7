"""Bracket matrices: minors, expansion, evaluation, serialization."""

from __future__ import annotations

import json
import random

import pytest

from detform.bracket import (
    BracketCell,
    CoefficientSystem,
    LinearCell,
    apply_U4,
    bracket_value,
    evaluate,
    export_matrix,
    format_coefficients,
    import_matrix,
    parse_coefficients,
    random_coefficients,
)
from detform.errors import DegreePatternViolation, DimensionMismatch, ParseError
from detform.exterior import (
    ExteriorAlgebra,
    FreeModuleMap,
    GradedFreeModule,
    Generator,
)
from detform.linalg import qq
from detform.shelling import best_selection
from detform.tate import build_window


def _det_cofactor(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = qq(0)
    for c in range(len(rows)):
        minor = [r[:c] + r[c + 1:] for r in rows[1:]]
        total += (-1) ** c * rows[0][c] * _det_cofactor(minor)
    return total


def test_bracket_unit_columns():
    rows = [[qq(0)] * 6 for _ in range(4)]
    for k in range(4):
        rows[k][k] = qq(1)
    C = CoefficientSystem(tuple(tuple(r) for r in rows))
    assert bracket_value((1, 2, 3, 4), C) == 1
    assert bracket_value((1, 2, 3, 5), C) == 0


def test_bracket_repeated_column_vanishes():
    rng = random.Random(0)
    C = random_coefficients(5, rng)
    doubled = CoefficientSystem(tuple(row + (row[2],) for row in C.rows))
    assert bracket_value((1, 3, 4, 6), doubled) == 0


def test_bracket_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(20):
        C = CoefficientSystem(tuple(
            tuple(qq(rng.randint(-30, 30)) / rng.randint(1, 9) for _ in range(7))
            for _ in range(4)))
        quad = tuple(sorted(rng.sample(range(1, 8), 4)))
        expected = _det_cofactor([[C.entry(k, i) for i in quad] for k in (1, 2, 3, 4)])
        assert bracket_value(quad, C) == expected


def test_bracket_rejects_bad_quads():
    C = random_coefficients(6, random.Random(1))
    for quad in ((2, 1, 3, 4), (1, 1, 2, 3), (0, 1, 2, 3), (3, 4, 5, 7)):
        with pytest.raises(ValueError):
            bracket_value(quad, C)


def test_coefficient_parsing_round_trip():
    text = "# four polynomials\n1 2 -3/4 0\n5/6 1 1 1\n\n0 0 2 7\n-1 -2 -3 -4\n"
    C = parse_coefficients(text, expected_points=4)
    assert C.entry(1, 3) == qq("-3/4")
    assert parse_coefficients(format_coefficients(C)) == C


def test_coefficient_parse_errors():
    with pytest.raises(ParseError):
        parse_coefficients("1 2\n3 4\n5 6\n")
    with pytest.raises(ParseError):
        parse_coefficients("1 2\n3 4\n5 6\n7 8 9\n")
    with pytest.raises(ParseError):
        parse_coefficients("1 x\n1 1\n1 1\n1 1\n")
    with pytest.raises(ParseError):
        parse_coefficients("1 1/0\n1 1\n1 1\n1 1\n")
    with pytest.raises(ParseError):
        parse_coefficients("1 2\n3 4\n5 6\n7 8\n", expected_points=3)


def test_coefficient_shape_guard():
    with pytest.raises(ValueError):
        CoefficientSystem(((qq(1),), (qq(1),), (qq(1),)))
    with pytest.raises(ValueError):
        CoefficientSystem(((qq(1),), (qq(1),), (qq(1),), (qq(1), qq(2))))


def test_strip_matrix_is_all_brackets(cube):
    w = build_window(cube, (0, 1, 4))
    M = apply_U4(w.maps[0])
    assert M.size == 6
    assert M.block_shapes() == {
        "B": (6, 6), "L": (6, 0), "Ltilde": (0, 6), "zero": (0, 0)}
    assert len(M.cells) == 36
    for cell in M.cells.values():
        assert isinstance(cell, BracketCell)
        for quad, coeff in cell.terms:
            assert list(quad) == sorted(set(quad))
            assert 1 <= quad[0] and quad[-1] <= 8


def test_corner_matrix_blocks(cube):
    w = build_window(cube, (2, 4, 5))
    M = apply_U4(w.maps[0])
    assert M.size == 12
    assert M.block_shapes() == {
        "B": (8, 8), "L": (8, 4), "Ltilde": (4, 8), "zero": (4, 4)}
    for (r, c), cell in M.cells.items():
        block = M.block_of(r, c)
        assert block != "zero"
        if block == "B":
            assert isinstance(cell, BracketCell)
        else:
            assert isinstance(cell, LinearCell)
            # the k-th copy only references the k-th polynomial
            lab = M.col_labels[c] if block == "L" else M.row_labels[r]
            assert cell.poly == lab[1]


def test_octahedron_matrix_blocks(octahedron):
    sel = best_selection(octahedron).selection
    M = apply_U4(build_window(octahedron, sel).maps[0])
    assert M.size == 14
    assert M.block_shapes() == {
        "B": (10, 10), "L": (10, 4), "Ltilde": (4, 10), "zero": (4, 4)}


def test_evaluate_homogeneity_and_sign(cube):
    M = apply_U4(build_window(cube, (2, 4, 5)).maps[0])
    rng = random.Random(23)
    C = random_coefficients(8, rng)
    d = evaluate(M, C)
    assert d != 0
    assert evaluate(M, C.scale_row(2, qq("5/3"))) == d * qq("5/3") ** 6
    for order in ((2, 1, 3, 4), (4, 3, 2, 1), (2, 3, 4, 1)):
        assert abs(evaluate(M, C.permute_rows(order))) == abs(d)


def test_evaluate_vanishes_on_common_root(octahedron):
    sel = best_selection(octahedron).selection
    M = apply_U4(build_window(octahedron, sel).maps[0])
    rng = random.Random(31)
    # force a common root at (1, 1, 1) by zero row sums
    rows = []
    for _ in range(4):
        vals = [qq(rng.randint(-9, 9)) for _ in range(6)]
        rows.append(tuple(vals) + (-sum(vals, qq(0)),))
    assert evaluate(M, CoefficientSystem(tuple(rows))) == 0


def test_evaluate_shape_mismatch(cube):
    M = apply_U4(build_window(cube, (0, 1, 4)).maps[0])
    with pytest.raises(ValueError):
        evaluate(M, random_coefficients(5, random.Random(0)))


def test_export_round_trip(cube):
    for sel in ((0, 1, 4), (2, 4, 5)):
        M = apply_U4(build_window(cube, sel).maps[0])
        blob = json.dumps(export_matrix(M), sort_keys=True)
        assert import_matrix(json.loads(blob)) == M


def test_import_rejects_bad_blocks(cube):
    M = apply_U4(build_window(cube, (2, 4, 5)).maps[0])
    data = export_matrix(M)
    data["blocks"]["B"] = [7, 8]
    with pytest.raises(ParseError):
        import_matrix(data)
    with pytest.raises(ParseError):
        import_matrix({"support": [[0, 0, 0]]})


@pytest.fixture(scope="module")
def octahedron_matrix(octahedron):
    return apply_U4(build_window(octahedron, (0, 1, 2, 4)).maps[0])


def _set(kind, field, value):
    """Set `field` of the first linear ("poly") or bracket ("quad") cell,
    or of that cell's first term."""
    def mutate(data):
        cell = next(c for c in data["cells"] if ("poly" in c) == (kind == "poly"))
        (cell if field in ("row", "col", "poly") else cell["terms"][0])[field] = value
    return mutate


def _drop_col_label(data):
    data["col_labels"].pop()
    del data["blocks"]


def _quad(q):
    return _set("quad", "quad", q)


@pytest.mark.parametrize("mutate, message", [
    (_set("poly", "poly", 0), "poly 0 outside 1..4"),
    (_set("poly", "poly", 5), "poly 5 outside 1..4"),
    (_set("poly", "point", 0), "point index 0 outside 1..7"),
    (_set("poly", "point", 8), "point index 8 outside 1..7"),
    (_quad([0, 1, 2, 3]), "point index 0 outside 1..7"),
    (_quad([1, 2, 3, 8]), "point index 8 outside 1..7"),
    (_quad([2, 1, 3, 4]), "not 4 increasing indices"),
    (_quad([1, 2, 3]), "not 4 increasing indices"),
    (_set("poly", "row", 99), r"cell \(99, \d+\) outside the 14 x 14 matrix"),
    (_set("quad", "col", -1), r"cell \(\d+, -1\) outside the 14 x 14 matrix"),
    (_drop_col_label, "14 row labels but 13 column labels"),
], ids=["poly-0", "poly-5", "point-0", "point-8", "quad-0", "quad-8",
        "quad-order", "quad-short", "row-99", "col-neg", "labels"])
def test_import_rejects_malformed_cells(octahedron_matrix, mutate, message):
    # a poly-0 cell used to evaluate silently with the last coefficient row
    M = octahedron_matrix
    assert M.size == 14 and len(M.support) == 7
    assert import_matrix(export_matrix(M)) == M
    data = export_matrix(M)
    mutate(data)
    with pytest.raises(ParseError, match=message):
        import_matrix(data)


def test_apply_rejects_degree_pattern_violations():
    algebra = ExteriorAlgebra(4, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    src = GradedFreeModule(algebra, (Generator(-2, (0, 0, 0)),))
    tgt = GradedFreeModule(algebra, (Generator(0, (1, 1, 1)),))
    bad_gen = FreeModuleMap(src, tgt, [{(0, (0, 1)): 1}])
    with pytest.raises(DegreePatternViolation, match="source generator in degree -2"):
        apply_U4(bad_gen)

    src2 = GradedFreeModule(algebra, (Generator(-1, (0, 0, 0)),))
    tgt4 = GradedFreeModule(algebra, tuple(
        Generator(0, (i, 0, 0)) for i in range(4)))
    bad_entry = FreeModuleMap(src2, tgt4, [{(0, (2, 3)): 1}])
    with pytest.raises(DegreePatternViolation, match="degree -2"):
        apply_U4(bad_entry)

    inhomogeneous = FreeModuleMap(src2, tgt4, [{(0, (2,)): 1, (0, (2, 3)): 1}])
    with pytest.raises(DegreePatternViolation, match="inhomogeneous"):
        apply_U4(inhomogeneous)

    # a linear source (4 columns) into a copied target (4 rows): the zero corner
    tgt3 = GradedFreeModule(algebra, (Generator(-3, (1, 1, 1)),))
    corner = FreeModuleMap(src2, tgt3, [{(0, (2,)): 1}])
    with pytest.raises(DegreePatternViolation, match=r"connects degrees -1 -> -3"):
        apply_U4(corner)

    src4 = GradedFreeModule(algebra, (Generator(-4, (0, 0, 0)),))
    not_square = FreeModuleMap(src4, tgt3, [{(0, (2,)): 1}])
    with pytest.raises(DimensionMismatch, match="bracket matrix is 4 x 1"):
        apply_U4(not_square)
