"""Lattice point counting polynomials and the matrix size they predict.

Both counting polynomials are cubic, so four exact values pin them down:
their forward differences at x = 0, which is how each is kept. A cubic at
any integer x is then an integer, d0 + d1 x + d2 C(x, 2) + d3 C(x, 3).
Every further identity the theory supplies is checked against direct
enumeration, making this module an oracle for the rest of the package.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InterpolationMismatch, InvariantViolation, UnsupportedDimension
from .lattice import Polytope, facet_bits, point_census
from .shelling import as_selection, euler_characteristic


def _differences(values) -> tuple[int, int, int, int]:
    """Forward differences d0..d3 of integer values at x = 0, 1, 2, 3."""
    if len(values) != 4:
        raise InvariantViolation("need values at exactly x = 0, 1, 2, 3")
    v0, v1, v2, v3 = values
    return v0, v1 - v0, v2 - 2 * v1 + v0, v3 - 3 * v2 + 3 * v1 - v0


def _binomial_eval(d, x: int) -> int:
    """d0 + d1 x + d2 C(x, 2) + d3 C(x, 3), an integer at every integer x."""
    c2 = x * (x - 1) // 2
    return d[0] + d[1] * x + d[2] * c2 + d[3] * (c2 * (x - 2) // 3)


class EhrhartPair(NamedTuple):
    """Counting polynomial of Q and its facet-removed companion.

    p counts lattice points of the k-fold dilation; p_off counts those
    avoiding the selected facets. Each is kept as its forward differences
    d0..d3 at x = 0. Scalars: normalized volume V, interior count i_Q, boundary
    counts B_Q for the whole polytope and B_I for the selected disk.
    """

    p_differences: tuple[int, int, int, int]
    p_off_differences: tuple[int, int, int, int]
    selection: tuple[int, ...]
    chi: int
    volume: int
    interior: int
    boundary: int
    boundary_selected: int

    def p_off_at(self, x: int) -> int:
        return _binomial_eval(self.p_off_differences, x)


def ehrhart_pair(Q: Polytope, sel) -> EhrhartPair:
    """Interpolate both polynomials and verify every identity they must satisfy.

    Verification failures raise InterpolationMismatch: they mean a counting
    or hull bug upstream, never bad luck.
    """
    if Q.dim != 3:
        raise UnsupportedDimension(
            f"counting polynomials need a 3-polytope, not dimension {Q.dim}")
    selection = as_selection(Q, sel)
    chosen = facet_bits(Q, selection)
    others = ((1 << Q.num_facets) - 1) & ~chosen
    census = [point_census(Q, k)[1] for k in range(1, 5)]

    counts = [1] + [len(bits) for bits in census[:3]]
    d = _differences(counts)
    if _binomial_eval(d, 4) != len(census[3]):
        raise InterpolationMismatch("full count at k = 4 disagrees with the cubic")
    for k in range(1, 4):
        if -_binomial_eval(d, -k) != census[k - 1].count(0):
            raise InterpolationMismatch(f"interior reciprocity fails at k = {k}")

    chi = euler_characteristic(Q, selection)
    off_counts = [1 - chi] + [sum(not b & chosen for b in bits) for bits in census[:3]]
    d_off = _differences(off_counts)
    for k in range(1, 4):
        if -_binomial_eval(d_off, -k) != sum(not b & others for b in census[k - 1]):
            raise InterpolationMismatch(f"facet-removed reciprocity fails at k = {k}")

    # d3, six times the leading coefficient, is the normalized volume
    if d[3] <= 0:
        raise InterpolationMismatch("normalized volume is not positive")
    p1, pm1 = _binomial_eval(d, 1), _binomial_eval(d, -1)
    q1 = p1 - _binomial_eval(d_off, 1)
    qm1 = pm1 - _binomial_eval(d_off, -1)
    return EhrhartPair(d, d_off, selection, chi, d[3], -pm1, p1 + pm1, q1 - qm1)


def predicted_size(pair: EhrhartPair) -> int:
    """Matrix size from volume, boundary difference, and interior count (disk only)."""
    if pair.chi != 1:
        raise ValueError("size prediction requires a disk selection")
    size = (pair.volume + 3 * (pair.boundary - pair.boundary_selected)
            + 6 * pair.interior)
    alt = pair.p_off_at(2) - 4 * pair.p_off_at(-1)
    if size != alt:
        raise InterpolationMismatch(f"size formula disagrees: {size} vs {alt}")
    return size


def squareness_check(pair: EhrhartPair) -> bool:
    """Whether the window's rows, p_off(2) - 4 p_off(-1) by the facet-removed
    reciprocity ehrhart_pair checks, match its columns, 4 p_off(1) - p_off(-2).
    Rows less columns is p_off's fourth difference at -2, 0 for a cubic, less
    6 p_off(0) = 6 (1 - chi): square exactly when chi = 1, as on a disk."""
    rows = pair.p_off_at(2) - 4 * pair.p_off_at(-1)
    return rows == 4 * pair.p_off_at(1) - pair.p_off_at(-2)


def resultant_degree(pair: EhrhartPair) -> tuple[int, int]:
    """Degree of the resultant in each polynomial's coefficients, and in all four."""
    return pair.volume, 4 * pair.volume


def size_bounds_report(pair: EhrhartPair) -> tuple[int, int | None]:
    """Lower bound (the volume), plus the triple-volume ceiling seen with interior points."""
    return pair.volume, 3 * pair.volume if pair.interior >= 1 else None
