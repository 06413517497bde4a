"""Per-family closed forms and solvers, the references for the package.

The package derives the counting and multiplier coefficients from psi
alone: the functional equation's quadratic, one integer recurrence for
1/sqrt(Delta) and an exact division.  These functions take the same
series from the hand-written algebraic closed forms with the tests'
``Series`` sqrt and div, as the reference.  Each radicand's
square root is taken once per order and shared by the counting series
and the multiplier.  ``ref_phi``
writes out each family's functional equation in ``Series``
arithmetic, as the reference for the package's psi-driven ``_phi``.
``ref_census_coefficient`` and ``ref_total_vertices`` are one O(n)
integer convolution each, against the multiplier: the root GF's
expansion (m running sums of its numerator), and the counting series.
``census_table_from_series`` tabulates the package's census series.

The tests' bivariate series (``reference_bivariate``) and the package's
root-statistic GFs come from the size unit and psi alone: one x-adic
solver and one Lagrange formula.  ``ref_bivariate`` keeps the four
hand-written solvers, one equation per family, and ``ref_root_stat_gf``
the classical closed forms per pair: Catalan (Motzkin leaves), Narayana
(ordered leaves), Kirkman-Cayley (Schroeder vertices) and the parity of
full binary trees' vertex counts.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add, mul

from reference_bivariate import ReferenceBivariate
from reference_ratfunc import rational_zero
from reference_series import Series

from treecensus import (
    FamilyId,
    PowerSeries,
    RationalFunction,
    StatKind,
    census_series,
    counting_coefficient,
    counting_series,
    descriptor,
    max_stat_value,
    multiplier_gf,
    root_stat_gf,
)

# The highest order the convolution references reach.
REF_ORDER = 1280

RADICANDS = {
    FamilyId.MOTZKIN: (1, -2, -3),
    FamilyId.ORDERED: (1, -4),
    FamilyId.FULL_BINARY: (1, -4),
    FamilyId.SCHROEDER: (1, -6, 1),
}


@lru_cache(maxsize=None)
def _root(radicand: "tuple[int, ...]", order: int) -> Series:
    return Series.from_polynomial(radicand, order).sqrt()


def ref_counting(family: FamilyId, order: int) -> Series:
    root = _root(RADICANDS[family], order + 1)
    if family is FamilyId.MOTZKIN:
        # (1 - x - sqrt(1-2x-3x^2)) / (2x)
        numerator = Series.one(order + 1) - Series.monomial(1, 1, order + 1) - root
        return numerator.div(Series.monomial(2, 1, order + 1))
    root = root.truncate(order)
    if family in (FamilyId.ORDERED, FamilyId.FULL_BINARY):
        # (1 - sqrt(1-4x)) / 2
        return (Series.one(order) - root).scale(Fraction(1, 2))
    # 2x / (1 + x + sqrt(1-6x+x^2))
    denominator = Series.from_polynomial([1, 1], order) + root
    return Series.monomial(2, 1, order).div(denominator)


def ref_multiplier(family: FamilyId, order: int) -> Series:
    root = _root(RADICANDS[family], order + 1).truncate(order)
    one = Series.one(order)
    if family is FamilyId.SCHROEDER:
        # (3 - x + sqrt(1-6x+x^2)) / (4 sqrt(1-6x+x^2))
        numerator = Series.from_polynomial([3, -1], order) + root
        return numerator.div(root.scale(4))
    inv_root = one.div(root)
    if family is FamilyId.ORDERED:
        return (one + inv_root).scale(Fraction(1, 2))
    return inv_root


def ref_vertex_totals(family: FamilyId, order: int) -> Series:
    """Counting series times multiplier: [x^n] is the vertex total at size n."""
    return ref_counting(family, order).mul(ref_multiplier(family, order), order)


def ref_phi(family: FamilyId, s: PowerSeries, order: int) -> Series:
    """The right-hand side Phi(s) of the family's functional equation s = Phi(s)."""
    s = Series.of(s)
    x = Series.monomial(1, 1, order)
    if family is FamilyId.MOTZKIN:  # x*(1 + s + s^2)
        body = Series.one(order) + s + s.mul(s, order)
        return body.shift(1).truncate(order)
    if family is FamilyId.ORDERED:  # x/(1 - s)
        return x.div(Series.one(order) - s, order)
    if family is FamilyId.FULL_BINARY:  # x + s^2
        return x + s.mul(s, order)
    square = s.mul(s, order)  # Schroeder: x + s^2/(1 - s)
    return x + square.div(Series.one(order) - s, order)


@lru_cache(maxsize=None)
def _integers(series, family: FamilyId) -> "tuple[int, ...]":
    return tuple(int(c) for c in series(family, REF_ORDER).coefficients)


def ref_root_expansion(family: FamilyId, stat, k: int, order: int) -> "list[int]":
    """Coefficients 0..order of the root GF P/(1-x)**m: m running sums of P."""
    root = root_stat_gf(family, stat, k)
    values = [int(c) for c in root.numerator[: order + 1]]
    values += [0] * (order + 1 - len(values))
    for _ in range(root.exponent):
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


# -- the per-family bivariate solvers and root GFs ---------------------------------


def _product(a, b, size):
    """The first ``size`` coefficients of the product of two integer polynomials."""
    out = [0] * size
    for j, c in enumerate(a[:size]):
        if c:
            tail = b[: size - j]
            out[j : j + len(tail)] = map(add, out[j : j + len(tail)], [c * d for d in tail])
    return out


def ref_bivariate(family: FamilyId, order_x: int, order_y: int) -> ReferenceBivariate:
    """The bivariate series from one hand-written equation per family."""
    family = FamilyId(family)
    ny = order_y
    y = [0, 1][: ny + 1]

    def prod(a, b):
        return _product(a, b, min(len(a) + len(b) - 1, ny + 1))

    def padd(a, b):
        if len(a) < len(b):
            a, b = b, a
        return list(map(add, a, b)) + a[len(b) :]

    if family is FamilyId.MOTZKIN:
        # M = x*y + x*M + x*M^2
        m = [[]]
        for n in range(1, order_x + 1):
            acc = list(y) if n == 1 else []
            acc = padd(acc, m[n - 1])
            for a in range(1, n - 1):
                acc = padd(acc, prod(m[a], m[n - 1 - a]))
            m.append(acc)
        return ReferenceBivariate(m, order_x, order_y)

    if family is FamilyId.ORDERED:
        # T = x*y + x*W with W = T/(1-T) = T + T*W
        t = [[]]
        w = [[]]
        for n in range(1, order_x + 1):
            tn = padd(list(y) if n == 1 else [], w[n - 1])
            t.append(tn)
            wn = list(tn)
            for a in range(1, n):
                wn = padd(wn, prod(t[a], w[n - a]))
            w.append(wn)
        return ReferenceBivariate(t, order_x, order_y)

    if family is FamilyId.FULL_BINARY:
        # B = x*y + y*B^2  (x counts leaves, y counts vertices)
        b = [[]]
        for n in range(1, order_x + 1):
            acc = []
            for a in range(1, n):
                acc = padd(acc, prod(b[a], b[n - a]))
            acc = ([0] + acc)[: ny + 1]  # times y
            if n == 1:
                acc = padd(acc, y)
            b.append(acc)
        return ReferenceBivariate(b, order_x, order_y)

    # Schroeder: R = x*y + y*W with W = R^2 + R*W (x leaves, y vertices)
    r = [[]]
    w = [[]]
    for n in range(1, order_x + 1):
        wn = []
        for a in range(1, n):
            wn = padd(wn, prod(r[a], r[n - a]))
        for a in range(1, n - 1):
            wn = padd(wn, prod(r[a], w[n - a]))
        w.append(wn)
        rn = ([0] + wn)[: ny + 1]  # times y
        if n == 1:
            rn = padd(rn, y)
        r.append(rn)
    return ReferenceBivariate(r, order_x, order_y)


def ref_root_stat_gf(family: FamilyId, stat: StatKind, k: int) -> RationalFunction:
    """The root-statistic GF from the classical closed form of each pair.

    - the size unit: the monomial count(k) * x**k;
    - full binary trees with k vertices: k = 2j-1 odd, j leaves;
    - Motzkin trees with k leaves: Cat(k-1) * x**(2k-1) / (1-x)**(2k-1)
      (a full binary skeleton with 2k-1 vertices, unary chains above
      each vertex);
    - ordered trees with k leaves: sum_n N(n-1, k) * x**n with the
      Narayana numbers N(m, k) = C(m, k) * C(m, k-1) / m and
      N(0, 1) = 1, equal to
      x**(k+1) * sum_j N(k-1, j) * x**(j-1) / (1-x)**(2k-1);
    - Schroeder trees with k vertices: the Kirkman-Cayley numbers
      C(j-2, i-1) * C(j+i-1, i-1) / i over j leaves and i = k-j
      internal vertices.
    """
    family, stat = FamilyId(family), StatKind(stat)
    if stat is descriptor(family).size_unit:
        return RationalFunction.monomial(counting_coefficient(family, k), k)
    if family is FamilyId.FULL_BINARY:
        if k % 2 == 0:
            return rational_zero()
        j = (k + 1) // 2
        return RationalFunction.monomial(counting_coefficient(family, j), j)
    if family is FamilyId.SCHROEDER:
        return RationalFunction(_kirkman_cayley(k))
    m = 2 * k - 1
    if family is FamilyId.MOTZKIN:
        numerator = [0] * m + [comb(2 * k - 2, k - 1) // k]
    elif k == 1:
        numerator = [0, 1]
    else:
        numerator = [0] * (k + 1) + [_narayana(k - 1, j) for j in range(1, k)]
    return RationalFunction(numerator, m)


def _narayana(m: int, k: int) -> int:
    """N(m, k): ordered trees with m edges and k leaves."""
    return comb(m, k) * comb(m, k - 1) // m


def _kirkman_cayley(k: int) -> "list[int]":
    """Schroeder trees with k vertices, by their number j of leaves."""
    if k == 1:
        return [0, 1]
    out = [0] * k
    for j in range((k + 2) // 2, k):
        i = k - j
        out[j] = comb(j - 2, i - 1) * comb(j + i - 1, i - 1) // i
    return out


def census_table_from_series(family: FamilyId, stat: StatKind, n_max: int) -> "dict[tuple[int, int], int]":
    """The package's nonzero census series coefficients for all n <= n_max,
    as ``{(n, k): count}``."""
    family, stat = FamilyId(family), StatKind(stat)
    entries: "dict[tuple[int, int], int]" = {}
    top = max(max_stat_value(family, stat, n_max), 1)
    for k in range(1, top + 1):
        series = census_series(family, stat, k, n_max)
        for n in range(1, n_max + 1):
            value = series.coefficient(n)
            if value:
                entries[(n, k)] = value
    return entries
