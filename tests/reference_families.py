"""Closed-form counting series, multipliers, vertex totals and Phi.

The package computes the counting and multiplier coefficients from
integer P-recurrences.  These functions derive the same series from the
algebraic closed forms with ``PowerSeries`` sqrt and div, as the
tests' reference.  Each radicand's square root is taken once per order
and shared by the counting series and the multiplier.  ``ref_phi``
writes out each family's functional equation in ``PowerSeries``
arithmetic, as the reference for the package's psi-driven ``_phi``.
``ref_census_coefficient`` and ``ref_total_vertices`` are one O(n)
integer convolution each, against the multiplier: the root GF's
expansion (m running sums of its numerator), and the counting series.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from treecensus import FamilyId, PowerSeries, counting_series, multiplier_gf, root_stat_gf

# The highest order the convolution references reach.
REF_ORDER = 1280

RADICANDS = {
    FamilyId.MOTZKIN: (1, -2, -3),
    FamilyId.ORDERED: (1, -4),
    FamilyId.FULL_BINARY: (1, -4),
    FamilyId.SCHROEDER: (1, -6, 1),
}


@lru_cache(maxsize=None)
def _root(radicand: "tuple[int, ...]", order: int) -> PowerSeries:
    return PowerSeries.from_polynomial(radicand, order).sqrt()


def ref_counting(family: FamilyId, order: int) -> PowerSeries:
    root = _root(RADICANDS[family], order + 1)
    if family is FamilyId.MOTZKIN:
        # (1 - x - sqrt(1-2x-3x^2)) / (2x)
        numerator = PowerSeries.one(order + 1) - PowerSeries.monomial(1, 1, order + 1) - root
        return numerator.div(PowerSeries.monomial(2, 1, order + 1))
    root = root.truncate(order)
    if family in (FamilyId.ORDERED, FamilyId.FULL_BINARY):
        # (1 - sqrt(1-4x)) / 2
        return (PowerSeries.one(order) - root).scale(Fraction(1, 2))
    # 2x / (1 + x + sqrt(1-6x+x^2))
    denominator = PowerSeries.from_polynomial([1, 1], order) + root
    return PowerSeries.monomial(2, 1, order).div(denominator)


def ref_multiplier(family: FamilyId, order: int) -> PowerSeries:
    root = _root(RADICANDS[family], order + 1).truncate(order)
    one = PowerSeries.one(order)
    if family is FamilyId.SCHROEDER:
        # (3 - x + sqrt(1-6x+x^2)) / (4 sqrt(1-6x+x^2))
        numerator = PowerSeries.from_polynomial([3, -1], order) + root
        return numerator.div(root.scale(4))
    inv_root = one.div(root)
    if family is FamilyId.ORDERED:
        return (one + inv_root).scale(Fraction(1, 2))
    return inv_root


def ref_vertex_totals(family: FamilyId, order: int) -> PowerSeries:
    """Counting series times multiplier: [x^n] is the vertex total at size n."""
    return ref_counting(family, order).mul(ref_multiplier(family, order), order)


def ref_phi(family: FamilyId, s: PowerSeries, order: int) -> PowerSeries:
    """The right-hand side Phi(s) of the family's functional equation s = Phi(s)."""
    x = PowerSeries.monomial(1, 1, order)
    if family is FamilyId.MOTZKIN:  # x*(1 + s + s^2)
        body = PowerSeries.one(order) + s + s.mul(s, order)
        return body.shift(1).truncate(order)
    if family is FamilyId.ORDERED:  # x/(1 - s)
        return x.div(PowerSeries.one(order) - s, order)
    if family is FamilyId.FULL_BINARY:  # x + s^2
        return x + s.mul(s, order)
    square = s.mul(s, order)  # Schroeder: x + s^2/(1 - s)
    return x + square.div(PowerSeries.one(order) - s, order)


@lru_cache(maxsize=None)
def _integers(series, family: FamilyId) -> "tuple[int, ...]":
    return tuple(int(c) for c in series(family, REF_ORDER).coefficients)


def ref_root_expansion(family: FamilyId, stat, k: int, order: int) -> "list[int]":
    """Coefficients 0..order of the root GF P/(1-x)**m: m running sums of P."""
    root = root_stat_gf(family, stat, k)
    values = [int(c) for c in root.numerator[: order + 1]]
    values += [0] * (order + 1 - len(values))
    for _ in range(root.one_minus_x_exponent()):
        values = list(accumulate(values))
    return values


def ref_census_coefficient(family: FamilyId, stat, k: int, n: int) -> int:
    """[x^n] of the root GF's expansion times the multiplier."""
    assert n <= REF_ORDER
    mult = _integers(multiplier_gf, FamilyId(family))
    return sum(map(mul, ref_root_expansion(family, stat, k, n), mult[n::-1]))


def ref_total_vertices(family: FamilyId, n: int) -> int:
    """[x^n] of the counting series times the multiplier."""
    assert n <= REF_ORDER
    counts = _integers(counting_series, FamilyId(family))
    mult = _integers(multiplier_gf, FamilyId(family))
    return sum(map(mul, counts[: n + 1], mult[n::-1]))
