"""Test-side asymptotic references: the Schroeder formulas, K from censuses, decimals.

``schroeder_closed_forms`` evaluates the paper's displayed asymptotic
formulas for Schroeder trees in floating point, and
``normalization_from_censuses`` re-derives a family's normalization
constant K from finite-size probabilities alone.  The tests hold both
against the package's exact values; no command computes either.
``reference_decimal`` is the decimal image of a field element, taken as
p + q*sqrt(d) directly at a precision that grows with the parts' digits.
"""

import math
from decimal import Decimal, localcontext
from typing import NamedTuple

from treecensus.asymptotics import DEFAULT_SIZES
from treecensus.families import FamilyId, descriptor, finite_probability, root_stat_gf
from treecensus.quadratic import QuadraticNumber


# -- Schroeder closed-form asymptotics ---------------------------------------------


class SchroederAsymptotics(NamedTuple):
    """Floating evaluations of the displayed Schroeder asymptotic formulas.

    ``leaf_probability`` reproduces the printed closed-form constant
    (1+sqrt(2)) / (sqrt(2) (3+sqrt(8))) = 1 - sqrt(2)/2 exactly; see the
    errata ledger for how it relates to the computed leaf-fraction
    limit 2 - sqrt(2).
    """

    n: int
    count_approx: float  # number of trees with n leaves
    leaf_total_approx: float
    vertex_total_approx: float
    leaf_probability: QuadraticNumber


def schroeder_closed_forms(n: int) -> SchroederAsymptotics:
    if n < 2:
        raise ValueError("asymptotic formulas need n >= 2")
    growth = 3 + math.sqrt(8)
    front = (1 + math.sqrt(2)) / (2 ** 1.75 * math.sqrt(math.pi))
    count = front * (n - 1) ** -1.5 * growth ** (n - 1)
    leaves = front * (n - 1) ** -0.5 * growth ** (n - 1)
    vertices = growth ** n / (2 ** 2.25 * math.sqrt(math.pi * n))
    printed_constant = (1 + QuadraticNumber(0, 1, 2)) / (
        QuadraticNumber(0, 1, 2) * (3 + QuadraticNumber(0, 1, 8))
    )
    return SchroederAsymptotics(n, count, leaves, vertices, printed_constant)


# -- normalization oracle -------------------------------------------------------------


def normalization_from_censuses(
    family: FamilyId, sizes: "tuple[int, ...]" = DEFAULT_SIZES
) -> QuadraticNumber:
    """Re-derive K(family) from finite-size data only.

    K = lim p(n) / R_1(b) for the k = 1 statistic (both statistics
    agree there: the qualifying vertices are exactly the leaves).  The
    three finite ratios are extrapolated with two Richardson steps,
    which removes the 1/n and 1/n^2 error terms.
    """
    if len(sizes) != 3:
        raise ValueError("the oracle uses exactly three sizes")
    n1, n2, n3 = sizes
    if not (n2 == 2 * n1 and n3 == 2 * n2):
        raise ValueError("sizes must double")
    desc = descriptor(family)
    r1 = root_stat_gf(family, desc.size_unit, 1).eval(desc.singularity)
    ratios = [
        QuadraticNumber(finite_probability(family, desc.size_unit, 1, n)) / r1
        for n in sizes
    ]
    first = ratios[1] * 2 - ratios[0]
    second = ratios[2] * 2 - ratios[1]
    return (second * 4 - first) / 3


# -- decimal images -------------------------------------------------------------------


def reference_decimal(value: QuadraticNumber, digits: int = 60) -> Decimal:
    """p + q*sqrt(d) with at least ``digits`` correct significant digits.

    When p and q have opposite signs the sum cancels about as many leading
    digits as the larger part has, so the working precision adds twice the
    digit count of every numerator and denominator.
    """
    p, q = value.rational_part, value.radical_part
    parts = (p.numerator, p.denominator, q.numerator, q.denominator)
    with localcontext() as ctx:
        ctx.prec = digits + 2 * sum(len(str(abs(c))) for c in parts)
        exact = Decimal(p.numerator) / p.denominator + Decimal(q.numerator) / q.denominator * Decimal(value.radicand).sqrt()
    with localcontext() as ctx:
        ctx.prec = digits
        return +exact
