"""Lattice point counting polynomials and the matrix size they predict.

Both counting polynomials are cubic, so four exact values pin them down;
every further identity the theory supplies is then checked against direct
enumeration, making this module an oracle for the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InterpolationMismatch
from .lattice import Polytope, interior_points, lattice_points_scaled, points_off_facets
from .linalg import QQ
from .shelling import as_selection, euler_characteristic

# monomial coefficients of the binomial basis 1, x, C(x,2), C(x,3)
_BINOM = (
    (QQ(1), QQ(0), QQ(0), QQ(0)),
    (QQ(0), QQ(1), QQ(0), QQ(0)),
    (QQ(0), QQ(-1, 2), QQ(1, 2), QQ(0)),
    (QQ(0), QQ(1, 3), QQ(-1, 2), QQ(1, 6)),
)


def interpolate_cubic(values) -> tuple:
    """Cubic with the given exact values at x = 0, 1, 2, 3 (coefficients ascending)."""
    v = [QQ(x) for x in values]
    if len(v) != 4:
        raise ValueError("need values at exactly x = 0, 1, 2, 3")
    diffs = [v[0],
             v[1] - v[0],
             v[2] - 2 * v[1] + v[0],
             v[3] - 3 * v[2] + 3 * v[1] - v[0]]
    return tuple(sum(d * row[j] for d, row in zip(diffs, _BINOM)) for j in range(4))


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

    def p_at(self, x):
        return poly_eval(self.p, QQ(x))

    def p_off_at(self, x):
        return poly_eval(self.p_off, QQ(x))

    def union_count_at(self, x):
        """Value of q = p - p_off, the points on the selected facet union."""
        return self.p_at(x) - self.p_off_at(x)


def ehrhart_pair(Q: Polytope, sel) -> EhrhartPair:
    """Interpolate both polynomials and verify every identity they must satisfy.

    Verification failures raise InterpolationMismatch: they mean a counting
    or hull bug upstream, never bad luck.
    """
    if Q.dim != 3:
        raise ValueError("counting polynomials are implemented for dimension 3 only")
    selection = as_selection(Q, sel)
    complement = tuple(i for i in range(Q.num_facets) if i not in selection)

    counts = [1] + [len(lattice_points_scaled(Q, k)) for k in range(1, 4)]
    p = interpolate_cubic(counts)
    if poly_eval(p, 4) != len(lattice_points_scaled(Q, 4)):
        raise InterpolationMismatch("full count at k = 4 disagrees with the cubic")
    for k in range(1, 4):
        if -poly_eval(p, -k) != len(interior_points(Q, k)):
            raise InterpolationMismatch(f"interior reciprocity fails at k = {k}")

    chi = euler_characteristic(Q, selection)
    off_counts = [1 - chi] + [len(points_off_facets(Q, k, selection)) for k in range(1, 4)]
    p_off = interpolate_cubic(off_counts)
    for k in range(1, 4):
        if -poly_eval(p_off, -k) != len(points_off_facets(Q, k, complement)):
            raise InterpolationMismatch(f"facet-removed reciprocity fails at k = {k}")

    vol = p[3] * 6
    if vol.denominator != 1 or vol <= 0:
        raise InterpolationMismatch("normalized volume is not a positive integer")
    inside = -poly_eval(p, -1)
    bdry = poly_eval(p, 1) + poly_eval(p, -1)
    q1 = poly_eval(p, 1) - poly_eval(p_off, 1)
    qm1 = poly_eval(p, -1) - poly_eval(p_off, -1)
    return EhrhartPair(p, p_off, selection, chi, int(vol), int(inside), int(bdry), int(q1 - qm1))


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
