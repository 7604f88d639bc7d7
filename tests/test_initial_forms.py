"""det M = ±Res_A, pinned through initial forms.

Kapranov-Sturmfels-Zelevinsky (Duke Math. J. 1992) and Sturmfels (On the
Newton polytope of the resultant, J. Algebraic Combin. 1994): let A affinely
generate Z^3, and let an integer lifting ω of A be generic, so that the lower
hull of the lifted points {(a, ω(a))} is a regular triangulation of A. Then
the ω-initial form of Res_A is ±∏ [σ]^Vol(σ) over its simplices σ, where
[σ] is the 4x4 minor of the coefficients on σ and Vol(σ) its normalized
volume. Substituting c_{i,a} -> c_{i,a} t^ω(a) therefore turns det M into a
polynomial in t that vanishes below t^e, e = Σ Vol(σ) ω(σ), and whose t^e
coefficient is ±∏ det(C_σ)^Vol(σ) at the drawn coefficients C. Where the
upper hull is a triangulation, the same holds for the highest term, with -ω.
A determinant off by a constant or by an extraneous factor fails.

det M(t) is interpolated exactly from bracket.evaluate at t = 1, 2, ...,
in a degree range read off M's cells, and checked at one more point.
"""

from __future__ import annotations

import itertools
import random
from math import factorial, gcd

import pytest

from detform.bracket import BracketCell, CoefficientSystem, apply_U4, evaluate
from detform.lattice import convex_hull_with_facets, lattice_points_scaled
from detform.shelling import best_selection
from detform.tate import build_window

from conftest import CUBE_POINTS, OCTA_POINTS, SIMPLEX2_POINTS


def det3(u, v, w) -> int:
    return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def det4(m) -> int:
    """Laplace expansion along the first row."""
    return sum((-1) ** j * m[0][j] * det3(*([row[k] for k in range(4) if k != j] for row in m[1:]))
               for j in range(4))


def volume(simplex) -> int:
    """Normalized volume of a lattice tetrahedron: |det| of its edge vectors."""
    a, *rest = simplex
    return abs(det3(*(tuple(x - y for x, y in zip(p, a)) for p in rest)))


def affine_index(points) -> int:
    """The index of the lattice A - a spans in Z^3: 1 iff A affinely generates Z^3."""
    a, *rest = points
    diffs = [tuple(x - y for x, y in zip(p, a)) for p in rest]
    return gcd(*(det3(*triple) for triple in itertools.combinations(diffs, 3)))


def triangulation(points, omega, side: int):
    """The simplices of the lower (side 1) or upper (side -1) hull of the
    lifted points, each as its 4 points, or None when a facet on that side
    holds more than 4 lifted points: then the hull is no triangulation."""
    lifted = [(*p, omega[p]) for p in points]
    simplices = []
    for f in convex_hull_with_facets(lifted).facets:
        if f.normal[3] * side > 0:  # the inner normal points up on a lower facet
            on = [p for p, q in zip(points, lifted)
                  if sum(x * n for x, n in zip(q, f.normal)) == -f.offset]
            if len(on) > 4:
                return None
            simplices.append(on)
    return simplices


def degree_range(matrix, omega) -> tuple[int, int]:
    """(lo, hi): det M(t) has no term below t^lo or above t^hi. A bracket
    [abcd] has degree ω(a)+ω(b)+ω(c)+ω(d) and c_{k,a} degree ω(a), and each
    term of det M takes one cell from every row and from every column."""
    w = [omega[p] for p in matrix.support]
    lows, highs = ({}, {}), ({}, {})  # by row, by column
    for rc, cell in matrix.cells.items():
        if isinstance(cell, BracketCell):
            degrees = [sum(w[i - 1] for i in quad) for quad, _ in cell.terms]
        else:
            degrees = [w[i - 1] for i, _ in cell.terms]
        for side in (0, 1):
            lows[side][rc[side]] = min(lows[side].get(rc[side], min(degrees)), min(degrees))
            highs[side][rc[side]] = max(highs[side].get(rc[side], 0), max(degrees))
    return max(sum(d.values()) for d in lows), min(sum(d.values()) for d in highs)


def interpolate(values, start: int) -> list[int]:
    """The integer coefficients, lowest first, of the polynomial of degree
    < len(values) that takes values[x] at t = start + x: Newton's forward
    differences, P(t) = Σ Δ^k P(start) (t-start)(t-start-1)...(t-start-k+1) / k!."""
    n = len(values)
    scale, total, falling, row = factorial(n - 1), [0] * n, [1], list(values)
    for k in range(n):
        weight = row[0] * (scale // factorial(k))
        for i, c in enumerate(falling):
            total[i] += weight * c
        falling = [a - (start + k) * b for a, b in zip([0] + falling, falling + [0])]
        row = [b - a for a, b in zip(row, row[1:])]
    assert all(c % scale == 0 for c in total)
    return [c // scale for c in total]


def lifted_determinant(matrix, system: CoefficientSystem, omega) -> list[int]:
    """Coefficients of det M(t), lowest first, under c_{i,a} -> c_{i,a} t^ω(a):
    det M(t) / t^lo is interpolated at t = 1, 2, ..., hi - lo + 1."""
    w = [omega[p] for p in matrix.support]
    lo, hi = degree_range(matrix, omega)

    def at(t):
        rows = tuple(tuple(c * t ** e for c, e in zip(row, w)) for row in system.rows)
        value = evaluate(matrix, CoefficientSystem(rows))
        assert value.denominator == 1 and value.numerator % t ** lo == 0
        return value.numerator // t ** lo

    coeffs = interpolate([at(t) for t in range(1, hi - lo + 2)], start=1)
    t = hi - lo + 2  # one more point pins the range
    assert sum(c * t ** k for k, c in enumerate(coeffs)) == at(t)
    return [0] * lo + coeffs


def expected_term(simplices, system: CoefficientSystem, support, omega):
    """(e, ∏ det(C_σ)^Vol(σ)) over the simplices."""
    index = {p: i for i, p in enumerate(support)}
    e, value = 0, 1
    for simplex in simplices:
        vol = volume(simplex)
        minor = [[row[index[p]] for p in simplex] for row in system.rows]
        e += vol * sum(omega[p] for p in simplex)
        value *= det4(minor) ** vol
    return e, value


def check_initial_forms(matrix, seed: int) -> bool:
    """Draw a generic lifting ω of A into 0..4 and coefficients in -9..9
    from the seed, and check det M(t)'s lowest term, and its highest where
    the upper hull is a triangulation. True if the highest was checked.
    Liftings are redrawn until the lower hull is a triangulation: the
    theorem needs a generic ω, and a redraw does not look at det M."""
    support = list(matrix.support)
    assert affine_index(support) == 1  # the theorem's hypothesis
    rng = random.Random(seed)
    for _ in range(100):
        omega = {p: rng.randrange(5) for p in support}
        lower = triangulation(support, omega, 1)
        if lower is not None:
            break
    else:
        raise AssertionError("no generic lifting in 100 draws")
    system = CoefficientSystem(tuple(tuple(rng.randint(-9, 9) for _ in support)
                                     for _ in range(4)))
    coeffs = lifted_determinant(matrix, system, omega)
    nonzero = [k for k, c in enumerate(coeffs) if c]
    e, value = expected_term(lower, system, support, omega)
    assert value != 0, "a minor on the triangulation vanishes at the drawn coefficients"
    assert (nonzero[0], abs(coeffs[nonzero[0]])) == (e, abs(value))
    upper = triangulation(support, omega, -1)
    if upper is None:
        return False
    assert sum(map(volume, upper)) == sum(map(volume, lower))
    e, value = expected_term(upper, system, support, omega)
    assert value != 0
    assert (nonzero[-1], abs(coeffs[nonzero[-1]])) == (e, abs(value))
    return True


def test_interpolation_recovers_a_polynomial():
    coeffs = [0, 0, 3, -7, 0, 12]
    for start in (0, 1, 5):
        values = [sum(c * t ** k for k, c in enumerate(coeffs)) for t in range(start, start + 8)]
        assert interpolate(values, start) == coeffs + [0, 0]


def test_the_triangulations_of_lifted_points():
    # the octahedron's centre lifted above its flat vertices leaves one lower
    # facet of 6 points, no triangulation; a square pyramid with one base
    # corner raised splits along the other diagonal below and along this
    # one above
    assert triangulation(OCTA_POINTS, {p: int(p == (0, 0, 0)) for p in OCTA_POINTS}, 1) is None
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    tilted = dict(zip(pts, (0, 0, 0, 1, 0)))
    assert sorted(map(sorted, triangulation(pts, tilted, 1))) == [
        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)], [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)]]
    assert sorted(map(sorted, triangulation(pts, tilted, -1))) == [
        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0)], [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0)]]
    assert affine_index(pts) == 1
    assert affine_index([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]) == 2


@pytest.mark.parametrize("points", [CUBE_POINTS, OCTA_POINTS, SIMPLEX2_POINTS],
                         ids=["cube", "octahedron", "2-simplex"])
def test_det_m_has_the_initial_forms_of_the_resultant(points):
    Q = convex_hull_with_facets(points)
    matrix = apply_U4(build_window(Q, best_selection(Q, seed=0).selection).maps[0])
    assert sorted(matrix.support) == sorted(lattice_points_scaled(Q, 1))  # A = Q ∩ Z^3
    tops = [check_initial_forms(matrix, seed) for seed in range(3)]
    assert any(tops)  # some lifting checks the highest term too
