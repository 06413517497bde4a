"""Limit probabilities and convergence diagnostics.

The transfer step is Bender's coefficient-asymptotics lemma for a
product A(x)B(x): when B's coefficient ratios b_{n-1}/b_n tend to a
limit b inside A's radius, the product's coefficients satisfy
c_n ~ A(b) b_n.  Applied with A the root-statistic GF and B the family
multiplier, whose ratio limit is the singularity rho, the limiting
probability that a vertex's subtree statistic equals k is A(rho) * K,
with K the family's normalization constant (the exact limit of
multiplier coefficients over vertex totals).  ``_exact_limit`` computes
exactly that: K is positive, rho < 1 lies inside the radius of every
A = P/(1-x)**m, and an empty A evaluates to 0.  Everything except the
convergence records is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .families import (
    FamilyId,
    StatKind,
    descriptor,
    finite_probability,
    root_stat_gf,
)
from .quadratic import QuadraticNumber

DEFAULT_SIZES = (150, 300, 600)


class ConvergenceRecord(NamedTuple):
    """Finite-size probabilities and their Richardson extrapolation."""

    sizes: "tuple[int, ...]"
    probabilities: "tuple[Fraction, ...]"
    extrapolate: Fraction
    exact: QuadraticNumber
    gap: QuadraticNumber  # |extrapolate - exact|, exact in the field


class AsymptoticProbability(NamedTuple):
    family: FamilyId
    stat: StatKind
    k: int
    exact_value: QuadraticNumber
    method: str  # always "closed-form": the exact value is A(rho) * K
    diagnostics: "ConvergenceRecord | None" = None


def _exact_limit(family: FamilyId, stat: StatKind, k: int) -> QuadraticNumber:
    """A(rho) * K: the root-statistic GF at the family's singularity, times K."""
    desc = descriptor(family)
    return root_stat_gf(family, stat, k).eval(desc.singularity) * desc.normalization


def limit_probability(
    family: FamilyId,
    stat: StatKind,
    k: int,
    check: bool = False,
    sizes: "tuple[int, ...]" = DEFAULT_SIZES,
) -> AsymptoticProbability:
    """Limiting probability that a vertex's subtree statistic equals k.

    With ``check`` set, a convergence record comparing the exact value
    against Richardson-extrapolated finite-size probabilities is
    attached.
    """
    diagnostics = richardson_check(family, stat, k, sizes) if check else None
    exact = diagnostics.exact if check else _exact_limit(family, stat, k)
    if not (0 <= exact <= 1):
        raise ValueError(f"probability {exact} outside [0, 1]")
    return AsymptoticProbability(
        family=FamilyId(family),
        stat=StatKind(stat),
        k=k,
        exact_value=exact,
        method="closed-form",
        diagnostics=diagnostics,
    )


def richardson_check(
    family: FamilyId,
    stat: StatKind,
    k: int,
    sizes: "tuple[int, ...]" = DEFAULT_SIZES,
) -> ConvergenceRecord:
    """One-step Richardson extrapolation of finite-size probabilities.

    The finite probabilities approach the limit with an O(1/n) error
    (square-root singularity), so one elimination step over the two
    largest sizes is used:  p* = (n2 p2 - n1 p1) / (n2 - n1).  The
    record carries the exact limit and its gap to p*.
    """
    if len(sizes) < 2:
        raise ValueError("need at least two sizes to extrapolate")
    if list(sizes) != sorted(set(sizes)):
        raise ValueError("sizes must be strictly increasing")
    probs = tuple(finite_probability(family, stat, k, n) for n in sizes)
    n1, n2 = sizes[-2], sizes[-1]
    p1, p2 = probs[-2], probs[-1]
    extrapolate = Fraction(n2 * p2 - n1 * p1, n2 - n1)
    exact = _exact_limit(family, stat, k)
    gap = abs(QuadraticNumber(extrapolate, 0, exact.radicand) - exact)
    return ConvergenceRecord(tuple(sizes), probs, extrapolate, exact, gap)


# -- tightness ----------------------------------------------------------------------


class TightnessReport(NamedTuple):
    """Partial sum over k of the limit probabilities, and its gap to 1.

    A statistic is called tight when the full sum equals 1; the report
    only exhibits exact partial sums, it does not decide tightness.
    """

    family: FamilyId
    stat: StatKind
    k_max: int
    terms: "tuple[QuadraticNumber, ...]"
    partial_sum: QuadraticNumber
    deficiency: QuadraticNumber


def tightness_report(family: FamilyId, stat: StatKind, k_max: int) -> TightnessReport:
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    terms = tuple(_exact_limit(family, stat, k) for k in range(1, k_max + 1))
    partial = sum(terms, QuadraticNumber(0))
    return TightnessReport(
        family=FamilyId(family),
        stat=StatKind(stat),
        k_max=k_max,
        terms=terms,
        partial_sum=partial,
        deficiency=1 - partial,
    )
