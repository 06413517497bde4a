"""Schoolbook ``Fraction`` kernels for ``PowerSeries`` mul, div and sqrt.

These run each recurrence directly on ``Fraction`` coefficients.  The
package computes the same recurrences on integer numerators; the tests
compare the two on random rational series.
"""

from fractions import Fraction

from treecensus import ConstantTermError, PowerSeries, TruncationError, ValuationError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def ref_mul(a: PowerSeries, b: PowerSeries, order=None) -> PowerSeries:
    n = a._common_order(b, order)
    x, y = a.coefficients, b.coefficients
    out = [_ZERO] * (n + 1)
    for i in range(min(len(x) - 1, n) + 1):
        xi = x[i]
        if not xi:
            continue
        for j in range(min(len(y) - 1, n - i) + 1):
            yj = y[j]
            if yj:
                out[i + j] += xi * yj
    return PowerSeries(out)


def ref_div(a: PowerSeries, b: PowerSeries, order=None) -> PowerSeries:
    v = b.valuation()
    if v is None:
        raise ConstantTermError("division by the zero series")
    if a.is_zero():
        n = max(0, a._common_order(b, order) - v) if order is None else order
        return PowerSeries.zero(n)
    if v > 0:
        va = a.valuation()
        if va is None or va < v:
            raise ValuationError(f"numerator valuation {va} below divisor valuation {v}")
        return ref_div(PowerSeries(a.coefficients[v:]), PowerSeries(b.coefficients[v:]), order)
    n = a._common_order(b, order)
    x, y = a.coefficients, b.coefficients
    y0 = y[0]
    out = [_ZERO] * (n + 1)
    for k in range(n + 1):
        acc = x[k] if k < len(x) else _ZERO
        for i in range(1, min(k, len(y) - 1) + 1):
            yi = y[i]
            if yi:
                acc -= yi * out[k - i]
        out[k] = acc / y0
    return PowerSeries(out)


def ref_sqrt(a: PowerSeries, order=None) -> PowerSeries:
    n = a.truncation_order if order is None else order
    if order is not None and order > a.truncation_order:
        raise TruncationError(f"order {order} exceeds truncation {a.truncation_order}")
    x = a.coefficients
    if x[0] != 1:
        raise ConstantTermError(f"sqrt needs constant term 1, got {x[0]}")
    out = [_ZERO] * (n + 1)
    out[0] = _ONE
    for k in range(1, n + 1):
        acc = x[k]
        for i in range(1, k):
            si = out[i]
            if si:
                acc -= si * out[k - i]
        out[k] = acc / 2
    return PowerSeries(out)
