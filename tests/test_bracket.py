"""Bracket matrices: minors, expansion, evaluation, serialization."""

from __future__ import annotations

import json
import random
import re
from decimal import Decimal

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
from detform.errors import (
    DegreePatternViolation,
    DimensionMismatch,
    InvariantViolation,
    ParseError,
)
from detform.exterior import (
    ExteriorAlgebra,
    FreeModuleMap,
    GradedFreeModule,
    Generator,
)
from detform.lattice import convex_hull_with_facets
from detform.linalg import det_bareiss, qq
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
    assert CoefficientSystem(((1, qq(2)),) * 4).entry(4, 2) == 2
    # a float used to be evaluated at its binary value, a string kept as
    # text, and a bool taken as 0 or 1
    for bad in (0.1, "1/2", Decimal("0.1"), True, False):
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not an int or a Fraction")):
            CoefficientSystem(((qq(1), bad),) + ((qq(1), qq(2)),) * 3)
    with pytest.raises(ValueError, match="True is not an int or a Fraction"):
        CoefficientSystem(((True, 2), (1, 2), (1, 2), (1, False)))


def test_random_coefficients_are_the_drawn_ints():
    for npoints, seed in ((5, 0), (8, 3), (12, 11)):
        C = random_coefficients(npoints, random.Random(seed))
        rng = random.Random(seed)
        assert C.rows == tuple(tuple(qq(rng.randint(-99, 99)) for _ in range(npoints))
                               for _ in range(4))
        assert all(type(c) is int for row in C.rows for c in row)
        assert parse_coefficients(format_coefficients(C)) == C


def test_coefficient_indices_are_checked():
    C = random_coefficients(5, random.Random(3))
    assert C.entry(4, 5) == C.rows[3][4]
    assert C.scale_row(4, 2).rows[3] == tuple(2 * c for c in C.rows[3])
    # poly 0 used to read row 4 and point 0 the last point; scale_row(5, ...)
    # and scale_row(0, ...) returned the system unchanged
    for poly, point in ((0, 1), (5, 1), (1, 0), (1, 6)):
        with pytest.raises(ValueError, match="outside"):
            C.entry(poly, point)
    for poly in (0, 5):
        with pytest.raises(ValueError, match=f"poly {poly} outside 1..4"):
            C.scale_row(poly, 2)


def test_scale_row_refuses_a_float_or_a_bool_factor():
    # 0.1 used to scale by its binary value, and True by 1
    C = random_coefficients(5, random.Random(3))
    for factor in (0.1, True):
        with pytest.raises(ValueError, match="not an exact rational"):
            C.scale_row(1, factor)
    for factor in (3, "5/3", qq("-2/7")):
        assert C.scale_row(1, factor).rows[0] == tuple(qq(factor) * c for c in C.rows[0])


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


def _label(field, value, copy):
    """Set `field` of the first row label with (copy) or without a copy."""
    def mutate(data):
        next(lab for lab in data["row_labels"] if ("copy" in lab) == copy)[field] = value
    return mutate


def _support(i, value):
    """Set support point i; None repeats the point before it."""
    def mutate(data):
        data["support"][i] = list(data["support"][i - 1]) if value is None else value
    return mutate


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
    (_set("poly", "row", 0.0), "index 0.0 is not an integer"),
    (_set("quad", "col", True), "index True is not an integer"),
    (_set("poly", "poly", 1.0), "index 1.0 is not an integer"),
    (_set("poly", "poly", True), "index True is not an integer"),
    (_set("poly", "point", 2.0), "index 2.0 is not an integer"),
    (_quad([1, 2, 3, 4.5]), "index 4.5 is not an integer"),
    (_set("poly", "coeff", 0.1), "coefficient 0.1 is not a string or an integer"),
    (_set("quad", "coeff", 0.5), "coefficient 0.5 is not a string or an integer"),
    (_set("poly", "coeff", True), "coefficient True is not a string or an integer"),
    (_set("quad", "coeff", None), "coefficient None is not a string or an integer"),
    (_label("copy", 9, True), "copy 9 outside 1..4"),
    (_label("copy", 0, True), "copy 0 outside 1..4"),
    (_label("copy", 1.0, True), "index 1.0 is not an integer"),
    (_label("copy", "1", True), "index '1' is not an integer"),
    (_label("point", [0.5, 0, "x"], False), re.escape("label point [0.5, 0, 'x'] is not 3 integers")),
    (_label("point", [0, 0], True), re.escape("label point [0, 0] is not 3 integers")),
    (_label("point", [0, 0, 0, 0], False), re.escape("label point [0, 0, 0, 0] is not 3 integers")),
    (_label("point", [True, 0, 0], True), re.escape("label point [True, 0, 0] is not 3 integers")),
    (_support(1, [0.5, 0, 0]), re.escape("support point [0.5, 0, 0] is not 3 integers")),
    (_support(1, [0, True, 0]), re.escape("support point [0, True, 0] is not 3 integers")),
    (_support(1, "abc"), re.escape("support point ['a', 'b', 'c'] is not 3 integers")),
    (_support(1, [0, 0]), re.escape("support point [0, 0] is not 3 integers")),
    (_support(1, None), r"support points \[-1, 0, 0\], \[-1, 0, 0\] are not ascending"),
], ids=["poly-0", "poly-5", "point-0", "point-8", "quad-0", "quad-8",
        "quad-order", "quad-short", "row-99", "col-neg", "labels",
        "row-float", "col-bool", "poly-float", "poly-bool", "point-float", "quad-float",
        "coeff-float", "quad-coeff-float", "coeff-bool", "quad-coeff-none",
        "copy-9", "copy-0", "copy-float", "copy-str",
        "label-float", "label-short", "label-long", "label-bool",
        "support-float", "support-bool", "support-str", "support-short", "support-repeat"])
def test_import_rejects_malformed_cells(octahedron_matrix, mutate, message):
    # a poly-0 cell used to evaluate silently with the last coefficient row,
    # and a float index imported and then failed as a list index in evaluate
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
    # entries are checked by validate_degrees alone: a wrong degree is a bug
    # upstream, not a pattern of the generators
    bad_entry = FreeModuleMap(src2, tgt4, [{(0, (2, 3)): 1}])
    with pytest.raises(InvariantViolation, match=r"has degrees \[-2\], expected -1"):
        apply_U4(bad_entry)

    inhomogeneous = FreeModuleMap(src2, tgt4, [{(0, (2,)): 1, (0, (2, 3)): 1}])
    with pytest.raises(InvariantViolation, match=r"has degrees \[-2, -1\], expected -1"):
        apply_U4(inhomogeneous)

    # a linear source (4 columns) into a copied target (4 rows): the zero
    # corner, whose entries would need degree +2
    tgt3 = GradedFreeModule(algebra, (Generator(-3, (1, 1, 1)),))
    corner = FreeModuleMap(src2, tgt3, [{(0, (2,)): 1}])
    with pytest.raises(InvariantViolation, match=r"has degrees \[-1\], expected 2"):
        apply_U4(corner)

    src4 = GradedFreeModule(algebra, (Generator(-4, (0, 0, 0)),))
    not_square = FreeModuleMap(src4, tgt3, [{(0, (2,)): 1}])
    with pytest.raises(DimensionMismatch, match="bracket matrix is 4 x 1"):
        apply_U4(not_square)


@pytest.fixture(scope="module")
def ladder_matrices(cube, octahedron):
    """The benchmark's ladder, cube, octahedron and twice the standard
    simplex: name -> (matrix of best_selection(seed=0), matrix of (0,))."""
    simplex2 = convex_hull_with_facets([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    out = {}
    for name, Q in (("cube", cube), ("octahedron", octahedron), ("simplex2", simplex2)):
        best = best_selection(Q, seed=0).selection
        out[name] = tuple(apply_U4(build_window(Q, sel).maps[0]) for sel in (best, (0,)))
    return out


def _reference_det(M, C):
    """The determinant with every bracket a 4x4 Bareiss minor and every cell
    a sum of Fractions."""
    dense = [[qq(0)] * M.size for _ in range(M.size)]
    for (r, c), cell in M.cells.items():
        if isinstance(cell, BracketCell):
            terms = (coeff * bracket_value(quad, C) for quad, coeff in cell.terms)
        else:
            terms = (coeff * C.entry(cell.poly, i) for i, coeff in cell.terms)
        dense[r][c] = sum(terms, qq(0))
    return det_bareiss(dense)


def _mixed_systems(npoints, rng):
    """Rows over denominators 1, 2^j, 3^j and 7^j, negative entries included,
    then the same with each row in turn all zero."""
    def row(base):
        return tuple(qq(rng.randint(-40, 40)) / base ** rng.randint(0, 2)
                     for _ in range(npoints))
    systems = [CoefficientSystem(tuple(row(b) for b in (1, 2, 3, 7))) for _ in range(2)]
    for k in range(4):
        rows = list(systems[0].rows)
        rows[k] = (qq(0),) * npoints
        systems.append(CoefficientSystem(tuple(rows)))
    return systems


def test_evaluate_matches_fraction_reference(ladder_matrices):
    rng = random.Random(59)
    octahedron = ladder_matrices["octahedron"][0]
    data = export_matrix(octahedron)
    fractions = ("3/2", "-5/7", "1/3", "-4")
    for t, cell in enumerate(data["cells"]):
        cell["terms"][0]["coeff"] = fractions[t % len(fractions)]
    rational = import_matrix(data)
    assert {c for cell in rational.cells.values() for _, c in cell.terms} >= {
        qq("3/2"), qq("-5/7"), qq("1/3")}
    matrices = [pair[0] for pair in ladder_matrices.values()] + [rational]
    for M in matrices:
        systems = _mixed_systems(len(M.support), rng)
        systems.append(random_coefficients(len(M.support), rng))
        values = [evaluate(M, C) for C in systems]
        assert values == [_reference_det(M, C) for C in systems]
        assert values[0] != 0 and values[-1] != 0


def test_two_selections_differ_by_a_constant(ladder_matrices):
    # det M = c * Res_A for every selection, so the ratio of two selections'
    # determinants cannot depend on the coefficients
    rng = random.Random(61)
    sizes = {name: (M1.size, M2.size) for name, (M1, M2) in ladder_matrices.items()}
    assert sizes == {"cube": (6, 18), "octahedron": (14, 23), "simplex2": (14, 20)}
    for M1, M2 in ladder_matrices.values():
        n = len(M1.support)
        systems = [random_coefficients(n, rng) for _ in range(2)]
        systems += _mixed_systems(n, rng)[:2]
        ratios = set()
        for C in systems:
            denominator = evaluate(M2, C)
            assert denominator != 0
            ratios.add(evaluate(M1, C) / denominator)
        assert len(ratios) == 1 and ratios != {0}
