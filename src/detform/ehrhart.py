"""Lattice point counting polynomials and the matrix size they predict.

Both counting polynomials are cubic, so four exact values pin them down;
every further identity the theory supplies is then checked against direct
enumeration, making this module an oracle for the rest of the package. The
checks run in integers, on the forward differences of the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InterpolationMismatch, InvariantViolation, UnsupportedDimension
from .lattice import Polytope, facet_bits, point_census
from .linalg import QQ
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


def interpolate_cubic(values) -> tuple:
    """Cubic with the given integer values at x = 0, 1, 2, 3 (coefficients ascending)."""
    d0, d1, d2, d3 = _differences(values)
    return tuple(QQ(c, 6) for c in (6 * d0, 6 * d1 - 3 * d2 + 2 * d3, 3 * d2 - 3 * d3, d3))


def poly_eval(coeffs, x):
    acc = QQ(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class EhrhartPair:
    """Counting polynomial of Q and its facet-removed companion.

    p counts lattice points of the k-fold dilation; p_off counts those
    avoiding the selected facets. Scalars: normalized volume V, interior count i_Q, boundary
    counts B_Q for the whole polytope and B_I for the selected disk.
    """

    p: tuple
    p_off: tuple
    selection: tuple[int, ...]
    chi: int
    volume: int
    interior: int
    boundary: int
    boundary_selected: int

    def p_off_at(self, x):
        return poly_eval(self.p_off, QQ(x))


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
    p, d = interpolate_cubic(counts), _differences(counts)
    if _binomial_eval(d, 4) != len(census[3]):
        raise InterpolationMismatch("full count at k = 4 disagrees with the cubic")
    for k in range(1, 4):
        if -_binomial_eval(d, -k) != census[k - 1].count(0):
            raise InterpolationMismatch(f"interior reciprocity fails at k = {k}")

    chi = euler_characteristic(Q, selection)
    off_counts = [1 - chi] + [sum(not b & chosen for b in bits) for bits in census[:3]]
    p_off, d_off = interpolate_cubic(off_counts), _differences(off_counts)
    for k in range(1, 4):
        if -_binomial_eval(d_off, -k) != sum(not b & others for b in census[k - 1]):
            raise InterpolationMismatch(f"facet-removed reciprocity fails at k = {k}")

    # d3 = 6 * p[3] is the normalized volume
    if d[3] <= 0:
        raise InterpolationMismatch("normalized volume is not positive")
    p1, pm1 = _binomial_eval(d, 1), _binomial_eval(d, -1)
    q1 = p1 - _binomial_eval(d_off, 1)
    qm1 = pm1 - _binomial_eval(d_off, -1)
    return EhrhartPair(p, p_off, selection, chi, d[3], -pm1, p1 + pm1, q1 - qm1)


def predicted_size(pair: EhrhartPair) -> int:
    """Matrix size from volume, boundary difference, and interior count (disk only)."""
    if pair.chi != 1:
        raise ValueError("size prediction requires a disk selection")
    size = (pair.volume + 3 * (pair.boundary - pair.boundary_selected)
            + 6 * pair.interior)
    alt = pair.p_off_at(2) - 4 * pair.p_off_at(-1)
    if QQ(size) != alt:
        raise InterpolationMismatch(f"size formula disagrees: {size} vs {alt}")
    return size


def squareness_check(pair: EhrhartPair) -> bool:
    """Fourth difference of p_off at the window ends; zero means a square matrix."""
    total = (pair.p_off_at(2) - 4 * pair.p_off_at(1) + 6 * pair.p_off_at(0)
             - 4 * pair.p_off_at(-1) + pair.p_off_at(-2))
    return total == 0


def resultant_degree(pair: EhrhartPair) -> tuple[int, int]:
    """Degree of the resultant in each polynomial's coefficients, and in all four."""
    return pair.volume, 4 * pair.volume


def size_bounds_report(pair: EhrhartPair) -> tuple[int, int | None]:
    """Lower bound (the volume), plus the triple-volume ceiling seen with interior points."""
    return pair.volume, 3 * pair.volume if pair.interior >= 1 else None
