"""The four planar tree families and their generating functions.

All four families are simply generated, so two descriptor fields, the
size unit and psi, which counts the vertices with two or more children,
give the functional equation: T = x*(1 + T + psi(T)) when vertices are
counted, T = x + psi(T) when leaves are, with psi(t) = t**2 (Motzkin,
full binary) or t**2/(1-t) (ordered, Schroeder).  Everything else
follows from it.  It is quadratic in T, so the counting series and the
"multiplier" transfer series are both affine in one radical
S = 1/sqrt(Delta), whose smallest positive root gives rho and K
(``_spec``).  ``fixed_point_solve`` derives the counting series a
second way, online in integers, checking each new coefficient.

The census series for a subtree statistic factors as

    census = (root-statistic GF) * multiplier,

where the root-statistic GF counts trees whose root has the given
statistic value and the multiplier accounts for re-attaching the
marked subtree in all possible ways.  The decomposition never inspects
which statistic is being counted, so one multiplier per family serves
both.

Every root-statistic GF is a closed form P(x)/(1-x)**m with integer P:
a monomial when the statistic is the size unit, and otherwise a
Lagrange-inversion count of the trees of psi's branching.  So a census
coefficient is sum_i P_i * [x^(n-i)] multiplier/(1-x)**m: P and m are
read from the cached root GF (``RationalFunction`` holds exactly this
shape, and P holds ``int``s), the second factor is held per (family, m),
and one coefficient reads and multiplies only the deg P + 1 entries of
it that P meets.  A census series is the product of P with that factor,
where a unit P_i (most are) adds a slice unscaled.

All arithmetic is exact.  Every series here has integer coefficients:
it is computed on ``int``s, and the ``PowerSeries`` or root GF
numerator returned holds those ``int``s, so no ``Fraction`` is built
per coefficient (a finite probability is one ``Fraction``).  Each
sequence is held through the highest order asked for and extended in
place, so a request reads a slice or a window of it.  Everything here
is pure; caches and held sequences only memoise deterministic values,
and ``clear_caches`` drops them all.  A family or statistic may be
passed as its enum member or as the member's string; both are ``str``
enums, so a cache or holder keys both alike, and every function that
branches on one converts it to the member first.
"""

from __future__ import annotations

import sys
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add as _plus
from operator import mul as _times
from operator import sub as _minus
from typing import NamedTuple, Sequence

from .quadratic import QuadraticNumber
from .ratfunc import RationalFunction
from .series import PowerSeries


class DomainError(ValueError):
    """Query outside a family's domain (size below minimum, bad statistic)."""


class SolverError(RuntimeError):
    """A functional equation failed to stabilise (mis-encoded equation)."""


class FamilyId(str, Enum):
    MOTZKIN = "motzkin"
    ORDERED = "ordered"
    FULL_BINARY = "fullbinary"
    SCHROEDER = "schroeder"


class StatKind(str, Enum):
    VERTICES = "vertices"
    LEAVES = "leaves"


class FamilyDescriptor(NamedTuple):
    """One tree family; its size unit and psi determine everything else.

    ``size_unit`` is what x enumerates.  psi counts the vertices with
    two or more children: t**2/(1-t) (any number from two on) if
    ``geometric_psi`` is set, else t**2 (exactly two).  The
    derived ``singularity`` rho and ``normalization`` K (limit
    probability = root GF at rho, times K) come from ``_spec``.
    """

    id: FamilyId
    size_unit: StatKind
    geometric_psi: bool

    @property
    def singularity(self) -> QuadraticNumber:
        return _spec(self).singularity

    @property
    def normalization(self) -> QuadraticNumber:
        return _spec(self).normalization


FAMILIES: "dict[FamilyId, FamilyDescriptor]" = {
    FamilyId.MOTZKIN: FamilyDescriptor(FamilyId.MOTZKIN, StatKind.VERTICES, False),
    FamilyId.ORDERED: FamilyDescriptor(FamilyId.ORDERED, StatKind.VERTICES, True),
    FamilyId.FULL_BINARY: FamilyDescriptor(FamilyId.FULL_BINARY, StatKind.LEAVES, False),
    FamilyId.SCHROEDER: FamilyDescriptor(FamilyId.SCHROEDER, StatKind.LEAVES, True),
}


def descriptor(family: FamilyId) -> FamilyDescriptor:
    # a member or its string is a key as it is; FamilyId() refuses an unknown name
    return FAMILIES.get(family) or FAMILIES[FamilyId(family)]


# -- integer polynomials ----------------------------------------------------------


def _product(a: "Sequence[int]", b: "Sequence[int]", size: int) -> "list[int]":
    """The first ``size`` coefficients of the product of two integer polynomials.

    Each nonzero a_j places b's first size - j coefficients from x**j:
    written for the first, added after it, and scaled unless a_j = 1.
    """
    out = [0] * size
    fresh = True  # out is still all zeros
    for j, c in enumerate(a[:size]):
        if c:
            tail = b[: size - j] if c == 1 else [c * d for d in b[: size - j]]
            out[j : j + len(tail)] = tail if fresh else map(_plus, out[j : j + len(tail)], tail)
            fresh = False
    return out


def _padd(a: "list[int]", b: "list[int]") -> "list[int]":
    return [*map(_plus, a, b), *a[len(b) :], *b[len(a) :]]


# -- the family spec: one quadratic, one radical ------------------------------------


def _poly(*terms: tuple) -> "list[int]":
    """The integer polynomial sum of c*f*g*... over the terms (c, f, g, ...)."""
    out: "list[int]" = []
    for c, *factors in terms:
        product = [c]
        for f in factors:
            product = _product(product, f, len(product) + len(f) - 1)
        out = _padd(out, product)
    return out


def _psi(desc: FamilyDescriptor) -> "tuple[tuple[int, ...], tuple[int, ...]]":
    """psi = P/Q as coefficients in t: t**2/(1-t) for geometric psi, else t**2/1."""
    return (0, 0, 1), ((1, -1) if desc.geometric_psi else (1,))


class _Spec(NamedTuple):
    """``counting`` and ``multiplier`` are (p, q, d, e): (p*S + q)/(d*x**e)."""

    delta: "list[int]"
    counting: tuple
    multiplier: tuple
    singularity: QuadraticNumber
    normalization: QuadraticNumber


@lru_cache(maxsize=None)
def _spec(desc: FamilyDescriptor) -> _Spec:
    """The counting series, the multiplier, rho and K of a family, from psi = P/Q.

    Times Q, the functional equation is T*Q(T) = x*(Q + T*Q + P)(T)
    (vertices counted) or T*Q(T) = (x*Q + P)(T) (leaves counted), a
    quadratic A*T**2 + B*T + C = 0 over Z[x].  Another degree in T, A or
    C not a monomial, or Delta = B**2 - 4AC with Delta_0 != 1 raises
    ``SolverError``.  With S = 1/sqrt(Delta), 2AT + B = -Delta*S picks
    T(0) = 0, and differentiating the quadratic, T**2 = -(BT + C)/A and
    Delta*S**2 = 1 give, with u = AB' - A'B and v = AC' - A'C,

        T = (-B - Delta*S)/(2A),   T' = ((2A*v - u*B)*S - u)/(2A**2).

    The multiplier is T' when leaves are counted and x*T'/T when
    vertices are, which 1/T = (-B + Delta*S)/(2C) makes
    x*((2C*u - v*B)*S + v)/(2AC): S (Motzkin, full binary), (1 + S)/2
    (ordered), (1 + (3 - x)*S)/4 (Schroeder).  rho is the smallest
    positive root of Delta, tau = T(rho) = -B(rho)/(2A(rho)) and
    K = 1/tau: rho = 1/3, 1/4, 1/4, 3 - 2*sqrt(2), K = 1, 2, 2, 2 + sqrt(2).
    """
    p, q = _psi(desc)
    size = max(len(p), len(q) + 1)
    p, q, tq = ([*f, *[0] * size][:size] for f in (p, q, (0, *q)))  # tq: T*Q(T)
    vertex_counted = desc.size_unit is StatKind.VERTICES  # rows[k]: [T**k](right - left) in x**0, x**1
    rows = [[-t, q_k + t + p_k] if vertex_counted else [p_k - t, q_k] for p_k, q_k, t in zip(p, q, tq)]
    c, b, a, *higher = rows
    if any(map(any, higher)) or sum(map(bool, a)) != 1 or sum(map(bool, c)) != 1:
        raise SolverError(f"{desc.id.value}: not A*T**2 + B*T + C = 0 with monomials A, C in x: {rows}")
    (i, a0), (j, c0) = ([(k, f_k) for k, f_k in enumerate(f) if f_k][0] for f in (a, c))
    delta = _poly((1, b, b), (-4, a, c))
    if delta[0] != 1:
        raise SolverError(f"Delta = {delta} for {desc.id.value} does not start with 1")
    da, db, dc = ([k * f_k for k, f_k in enumerate(f)][1:] for f in (a, b, c))
    u, v = _poly((1, a, db), (-1, da, b)), _poly((1, a, dc), (-1, da, c))
    if desc.size_unit is StatKind.LEAVES:
        multiplier = (_poly((2, a, v), (-1, u, b)), _poly((-1, u)), 2 * a0 * a0, 2 * i)
    else:
        multiplier = (_poly((2, [0, 1], c, u), (-1, [0, 1], v, b)), [0, *v], 2 * a0 * c0, i + j)
    # with Delta_0 = 1 the roots are 2/(-Delta_1 -+ sqrt(disc)); rho has the larger denominator
    disc = delta[1] ** 2 - 4 * delta[2]
    root = QuadraticNumber(0, 1, disc) if disc > 1 else QuadraticNumber(max(disc, 0))
    if disc < 0 or root <= delta[1]:
        raise SolverError(f"Delta = {delta} for {desc.id.value} has no positive root")
    rho = 2 / (root - delta[1])
    a_rho, b_rho = (f[0] + f[1] * rho for f in (a, b))  # A and B are linear in x
    return _Spec(delta, (_poly((-1, delta)), _poly((-1, b)), 2 * a0, i), multiplier, rho, -2 * a_rho / b_rho)


# Per family, the counting series, the multiplier and S = 1/sqrt(Delta)
# through the highest order asked for; an extension stores a longer triple.
_held_series: "dict[FamilyId, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]" = {}


def _series_integers(family: FamilyId, order: int) -> "tuple[tuple[int, ...], ...]":
    """The counting series and the multiplier through at least x**order, from one S.

    2*Delta*S' = -Delta'*S gives 2n*s_n = -sum_(i>=1) Delta_i*(2n - i)*s_(n-i),
    then each series is (p*S + q)/(d*x**e).  Every division must be
    exact and p*S + q must vanish below x**e, else ``SolverError``.  A
    request past the held order resumes S and computes only new entries.
    """
    held = _held_series.get(family)
    if held is not None and len(held[0]) > order:
        return held
    spec = _spec(descriptor(family))
    s = [*held[2]] if held else [1]
    terms = [(i, c) for i, c in enumerate(spec.delta) if i and c]
    for n in range(len(s), order + max(spec.counting[3], spec.multiplier[3]) + 1):
        acc = 0
        for i, c in terms:
            if i <= n:
                acc -= c * (2 * n - i) * s[n - i]
        value, remainder = divmod(acc, 2 * n)
        if remainder:
            raise SolverError(f"non-integer coefficient of 1/sqrt(Delta) at n = {n}")
        s.append(value)
    series = []
    for what, (p, q, d, e), done in zip(("count", "multiplier"), spec[1:3], held or ((), ())):
        low, top = len(done) + e if done else 0, order + e + 1  # cold: check below x**e too
        start = max(low - len(p) + 1, 0)  # p*S from x**low on reads s from x**(low - deg p) on
        p_s = _product(p, s[start:top], top - start)[low - start :]  # at x**low..x**(top - 1)
        pairs = [divmod(c, d) for c in _padd(p_s, q[low:])[: top - low]]  # p*S + q
        bad = [k - e for k, (value, remainder) in enumerate(pairs, low) if remainder or (value and k < e)]
        if bad:
            raise SolverError(f"non-integer {what} coefficient at n = {bad[0]}")
        series.append((*done, *(value for value, _ in pairs[max(e - low, 0) :])))
    held = _held_series[family] = (*series, tuple(s))
    return held


def counting_series(family: FamilyId, order: int) -> PowerSeries:
    """Truncated counting generating function, from ``_series_integers``."""
    if order < 1:
        raise DomainError("order must be at least 1")
    return PowerSeries(_series_integers(family, order)[0][: order + 1])


def counting_coefficient(family: FamilyId, n: int) -> int:
    if n < 0:
        raise DomainError("n must be nonnegative")
    return _series_integers(family, n)[0][n]


def multiplier_gf(family: FamilyId, order: int) -> PowerSeries:
    """Transfer factor: census GF = root-statistic GF * multiplier.

    For the leaf-counted families the multiplier is the derivative of
    the counting series.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    return PowerSeries(_series_integers(family, order)[1][: order + 1])


# -- functional equations --------------------------------------------------------


def _phi_terms(desc: FamilyDescriptor, a: "Sequence[int]", g: "list[int]", start: int, order: int) -> "list[int]":
    """Coefficients start..order (start >= 1) of Phi(s), s given by integers a_0..a_order.

    psi(s) takes one integer convolution over the final coefficients of
    s: for psi = t**2 the square as a symmetric half-sum, each pair
    i < k-i twice and the middle term once; for psi = t**2/(1-t) the
    inverse g = 1/(1-s) by g_k = sum_(i=1..k) s_i*g_(k-i), exact because
    s_0 = 0, and then psi = g - 1 - s.  ``g`` starts as [1] and is
    extended in place, so a later call can resume at the next
    coefficient; the half-sum needs no array.  Nothing here shares code
    or running arrays with the solver's step rule.
    """
    vertex_counted = desc.size_unit is StatKind.VERTICES
    geometric = desc.geometric_psi
    out = []
    for m in range(start, order + 1):
        k = m - 1 if vertex_counted else m  # Phi_m needs psi_k
        if geometric:
            for j in range(len(g), k + 1):
                g.append(sum(map(_times, a[1 : j + 1], g[j - 1 :: -1])))
            psi = g[k] - a[k] if k else 0  # g_0 - 1 - s_0 = 0
        else:  # the pairs (i, k - i) with i < k - i twice, then the middle term once
            psi = 2 * sum(map(_times, a[: (k + 1) // 2], a[k : k // 2 : -1]))
            if k % 2 == 0:
                psi += a[k // 2] ** 2
        value = a[m - 1] + psi if vertex_counted else psi  # x*(1 + s + psi(s)) or x + psi(s)
        out.append(value + 1 if m == 1 else value)
    return out


def _step(desc: FamilyDescriptor, s: "list[int]", psi: "list[int]", s_plus_psi: "list[int]", order: int) -> None:
    """Extend the solver's running arrays in place until s holds s_0..s_order.

    Coefficient m of Phi(s) depends only on s_1..s_(m-1), so step m pins
    s_m from the lower coefficients, with one running integer array for
    what psi needs: psi(s) = s**2, its symmetric sum taken once, or
    psi(s) = s**2/(1-s) = s*(s + psi(s)), one convolution against the
    running s + psi(s).
    """
    vertex_counted = desc.size_unit is StatKind.VERTICES
    for m in range(len(s), order + 1):
        j = m - 1 if vertex_counted else m  # s_m needs psi_j
        if j == len(psi):
            if desc.geometric_psi:
                s_plus_psi.append(s[j - 1] + psi[j - 1])
                pj = sum(map(_times, s[1:j], s_plus_psi[j - 1 : 0 : -1]))
            else:  # the pairs (i, j - i) with i < j/2 twice, the middle once
                pj = 2 * sum(map(_times, s[1 : (j + 1) // 2], s[j - 1 : j // 2 : -1]))
                if j % 2 == 0:
                    pj += s[j // 2] ** 2
            psi.append(pj)
        sm = psi[j] + (s[m - 1] if vertex_counted else 0)
        s.append(sm + 1 if m == 1 else sm)


class _Solve(NamedTuple):
    """One family's checked fixed point through x**(len(s) - 1).

    ``s``, ``psi`` and ``s_plus_psi`` are the step rule's running
    arrays, ``g`` the check's own (1/(1-s), used only for geometric
    psi), and ``series`` is s as a ``PowerSeries``.
    """

    s: "list[int]"
    psi: "list[int]"
    s_plus_psi: "list[int]"
    g: "list[int]"
    series: PowerSeries


_COLD = _Solve([0], [0], [], [1], PowerSeries([0]))  # never mutated: an extension works on copies

# The longest checked solve of each family; ``clear_caches`` drops them.
# A stored solve is complete and never mutated, so two threads extending
# one family at once can at worst leave the shorter of their two solves.
_held_solves: "dict[FamilyId, _Solve]" = {}


def fixed_point_solve(family: FamilyId, order: int) -> PowerSeries:
    """Solve the family's functional equation s = Phi(s) online.

    Phi(s) is the right side of the functional equation (see the module
    docstring).  ``_step`` pins s_m from s_1..s_(m-1), O(order**2)
    integer work in all.

    Each family holds one solve, its longest checked prefix.  A request
    at or below its order is a slice of it.  A request above it
    continues the step rule from there on copies of the running arrays,
    and ``_phi_terms`` applies Phi once more to the new coefficients
    only, from the final coefficients and independently of the step
    rule; each must be reproduced exactly, otherwise the equation was
    mis-encoded, ``SolverError`` is raised and the held prefix stays as
    it was.  So every coefficient returned has passed the check once.
    Returns the unique solution with zero constant term.
    """
    if order < 1:
        raise DomainError("order must be at least 1")
    desc = descriptor(family)
    held = _held_solves.get(desc.id, _COLD)
    top = len(held.s) - 1
    if order <= top:
        return held.series if order == top else held.series.truncate(order)
    s, psi, s_plus_psi, g = held.s[:], held.psi[:], held.s_plus_psi[:], held.g[:]
    _step(desc, s, psi, s_plus_psi, order)
    if _phi_terms(desc, s, g, top + 1, order) != s[top + 1 :]:
        raise SolverError(f"fixed point for {desc.id.value} did not stabilise at order {order}")
    series = PowerSeries(s)
    _held_solves[desc.id] = _Solve(s, psi, s_plus_psi, g, series)
    return series


# -- root-statistic generating functions ----------------------------------------


@lru_cache(maxsize=None)
def root_stat_gf(family: FamilyId, stat: StatKind, k: int) -> RationalFunction:
    """GF (in the family's size variable) of trees whose root statistic is k.

    The monomial count(k) * x**k when the statistic is the family's size
    unit.  Otherwise, with N(v, j) the psi-trees of ``_psi_trees``:
    sum_j N(k, j) * x**j for k vertices of a leaf-counted family; for k
    leaves of a vertex-counted one, a psi-tree with a unary chain above
    each vertex, sum_v N(v, k) * (x/(1-x))**v, that is
    sum_v N(v, k) * x**v * (1-x)**(2k-1-v) over (1-x)**(2k-1), its
    numerator by Horner in (1-x) from the first nonzero term (for
    psi = t**2 the only one).
    """
    desc, stat = descriptor(family), StatKind(stat)
    if k < 1:
        raise DomainError("statistic value k must be at least 1")
    if stat is desc.size_unit:
        return RationalFunction.monomial(counting_coefficient(desc.id, k), k)
    geometric = desc.geometric_psi
    if desc.size_unit is StatKind.LEAVES:
        return RationalFunction([_psi_trees(geometric, k, j) for j in range(k + 1)])
    m = 2 * k - 1
    terms = [_psi_trees(geometric, v, k) for v in range(k, m + 1)]
    first = next(v for v, term in enumerate(terms, k) if term)
    tail = [terms[first - k]]  # the numerator over x**first
    for v in range(first + 1, m + 1):
        tail = [*map(_minus, tail, [0, *tail]), -tail[-1]]  # times (1-x)
        tail[-1] += terms[v - k]
    return RationalFunction([0] * first + tail, m)


def _psi_trees(geometric: bool, v: int, j: int) -> int:
    """N(v, j): trees of psi's branching with v vertices and j leaves.

    By Lagrange inversion, C(v, j)/v * [t^(v-1)] psi**i with i = v - j
    internal vertices; [t^a] psi**i is C(a-i-1, i-1) for
    psi = t**2/(1-t) and i >= 1, and [a = 2i] otherwise.
    """
    i, a = v - j, v - 1
    if geometric and i:
        power = comb(a - i - 1, i - 1) if a >= 2 * i else 0
    else:
        power = int(a == 2 * i)
    return comb(v, j) * power // v if power else 0


# -- census series ----------------------------------------------------------------


# Level m = multiplier / (1-x)**m and the last entries of levels 1..m, per
# (family, m >= 1), through the highest order asked for, never mutated.
_held_sums: "dict[FamilyId, dict[int, tuple[tuple[int, ...], tuple[int, ...]]]]" = {}


def _multiplier_sums(family: FamilyId, m: int, order: int) -> "tuple[tuple[int, ...], tuple[int, ...]]":
    """multiplier / (1-x)**m through at least x**order (m = 0: the multiplier),
    and the last entries of levels 1..m.

    Level m is the running sums of level m - 1.  A held level is extended
    by m running sums over the multiplier's new entries, each seeded with
    the last held entry of its level; one not held is built from the
    highest held level below m, or from the multiplier.
    """
    if not m:
        return _series_integers(family, order)[1], ()
    levels = _held_sums.setdefault(family, {})
    held = levels.get(m)
    if held is not None and len(held[0]) > order:
        return held
    if held is None:  # m - below sums over the highest held level below m, extended first
        below = max((j for j in levels if j < m), default=0)
        values, lasts = _multiplier_sums(family, below, order)
        head, seeds, lasts = (), [0] * (m - below), [*lasts]
    else:  # m seeded sums over the multiplier's new entries
        (head, seeds), lasts = held, []
        values = _series_integers(family, order)[1][len(head) :]
    for seed in seeds:
        sums = accumulate(values, initial=seed)
        next(sums)  # the seed itself
        values = tuple(sums)
        lasts.append(values[-1])
    held = levels[m] = head + values, tuple(lasts)
    return held


def census_series(family: FamilyId, stat: StatKind, k: int, order: int) -> PowerSeries:
    """Coefficient of x**n counts vertices over all size-n trees whose
    subtree statistic equals k (zero when k exceeds ``max_stat_value``)."""
    if order < 1:
        raise DomainError("order must be at least 1")
    if k > max_stat_value(family, stat, order):
        return PowerSeries.zero(order)
    root = root_stat_gf(family, stat, k)
    summed = _multiplier_sums(family, root.exponent, order)[0]
    return PowerSeries(_product(root.numerator, summed, order + 1))


def census_coefficient(family: FamilyId, stat: StatKind, k: int, n: int) -> int:
    """Single census coefficient: P_0..P_n against the matching window,
    entries n - deg P..n reversed, of the held multiplier / (1-x)**m, no
    O(n) copy; t_k*m_(n-k) for the size unit (P = t_k*x**k, m = 0); 0,
    with no root GF built, when n < 1 or k exceeds ``max_stat_value``."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if k < 1:
        raise DomainError("statistic value k must be at least 1")
    if n < 1 or k > max_stat_value(family, stat, n):
        return 0
    if stat == descriptor(family).size_unit:
        return _series_integers(family, n)[1][n - k] * counting_coefficient(family, k)
    root = root_stat_gf(family, stat, k)
    numerator = root.numerator[: n + 1]
    summed = _multiplier_sums(family, root.exponent, n)[0]
    return sum(map(_times, numerator, reversed(summed[n + 1 - len(numerator) : n + 1])))


# -- totals and probabilities -------------------------------------------------------


def total_vertices(family: FamilyId, n: int) -> int:
    """Total number of vertices over all trees of size n.

    n per tree when vertices are counted.  Otherwise V = T*T' = (T**2)'/2
    with M = T', and T = x + psi(T) gives T**2 = T - x (psi = t**2), so
    V_n = m_n/2, or 2*T**2 = (1+x)*T - x, so V_n = (m_n + (n+1)*t_n)/4.
    """
    if n < 1:
        raise DomainError(f"no {FamilyId(family).value} trees of size {n}")
    desc = descriptor(family)
    counts, mults, _ = _series_integers(family, n)
    if desc.size_unit is StatKind.VERTICES:
        return n * counts[n]
    total, remainder = divmod(mults[n] + (n + 1) * counts[n], 4) if desc.geometric_psi else divmod(mults[n], 2)
    if remainder:
        raise SolverError(f"non-integer vertex total for {desc.id.value} at n = {n}")
    return total


def total_leaves(family: FamilyId, n: int) -> int:
    """Total number of leaves over all trees of size n.

    Leaf-counted families contribute n leaves per tree.  In the
    vertex-counted families a leaf is exactly a vertex whose subtree has
    one vertex, so the total is that census coefficient.
    """
    if n < 1:
        raise DomainError(f"no {FamilyId(family).value} trees of size {n}")
    if descriptor(family).size_unit is StatKind.LEAVES:
        return n * counting_coefficient(family, n)
    return census_coefficient(family, StatKind.VERTICES, 1, n)


def finite_probability(family: FamilyId, stat: StatKind, k: int, n: int) -> Fraction:
    """Exact probability that a uniform vertex of a uniform size-n tree
    has subtree statistic k: census coefficient over the vertex total."""
    if n < 1:
        raise DomainError(f"no {FamilyId(family).value} trees of size {n}")
    return Fraction(census_coefficient(family, stat, k, n), total_vertices(family, n))


def max_stat_value(family: FamilyId, stat: StatKind, n: int) -> int:
    """Largest achievable statistic value on trees of size n.

    A vertex-counted tree with n vertices has at most (n+1)//2 leaves
    when psi = t**2, and n-1 (a root with n-1 leaf children) otherwise.
    """
    desc, stat = descriptor(family), StatKind(stat)
    if n < 1:
        raise DomainError(f"no {desc.id.value} trees of size {n}")
    leaf_counted = desc.size_unit is StatKind.LEAVES
    if stat is StatKind.VERTICES:
        return 2 * n - 1 if leaf_counted else n
    if leaf_counted:
        return n
    return max(1, n - 1) if desc.geometric_psi else (n + 1) // 2


# -- caches ----------------------------------------------------------------------

# Every memo in this module, bound at import so a rebinding of the public
# names (a wrapper, a test double) cannot hide one.
_CACHED = (_spec, root_stat_gf)


def clear_caches() -> None:
    """Drop every cached value, so the next call of each function runs cold.

    Empties this module's caches, its held solves, series and census
    levels and, if ``treecensus.oracle`` is already imported, the
    oracle's census cache and its held enumeration; it never imports the
    oracle.  Values are pure, so clearing changes only the time to the
    next one.
    """
    for cached in _CACHED:
        cached.cache_clear()
    _held_solves.clear()
    _held_series.clear()
    _held_sums.clear()
    oracle = sys.modules.get(f"{__package__}.oracle")
    if oracle is not None:
        oracle._clear_caches()
