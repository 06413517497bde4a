"""Counting series, functional equations, multipliers and censuses."""

import random
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest
from reference_bivariate import _bivariate_bucketed, bivariate_series
from reference_families import (
    census_table_from_series,
    ref_bivariate,
    ref_census_coefficient,
    ref_counting,
    ref_multiplier,
    ref_phi,
    ref_root_expansion,
    ref_root_stat_gf,
    ref_total_vertices,
    ref_vertex_totals,
)
from reference_ratfunc import FIT_MARGIN, fit_rational
from reference_series import Series

from treecensus import (
    FAMILIES,
    DomainError,
    FamilyId,
    PowerSeries,
    QuadraticNumber,
    SolverError,
    StatKind,
    TruncationError,
    aggregate_census,
    census_coefficient,
    census_series,
    clear_caches,
    counting_coefficient,
    counting_series,
    families,
    finite_probability,
    fixed_point_solve,
    max_stat_value,
    multiplier_gf,
    oracle,
    root_stat_gf,
    total_leaves,
    total_vertices,
)
from treecensus.oracle import DEFAULT_BUDGETS

COUNTS = {
    FamilyId.MOTZKIN: [1, 1, 2, 4, 9, 21, 51],
    FamilyId.ORDERED: [1, 1, 2, 5, 14, 42, 132],
    FamilyId.FULL_BINARY: [1, 1, 2, 5, 14, 42, 132],
    FamilyId.SCHROEDER: [1, 1, 3, 11, 45, 197, 903],
}


@pytest.mark.parametrize("family", list(FamilyId))
def test_counting_series_known_values(family):
    series = counting_series(family, 7)
    assert series.coefficient(0) == 0
    assert [series.coefficient(n) for n in range(1, 8)] == COUNTS[family]


def test_counting_satisfies_functional_equation():
    # residual of M = x + xM + xM^2 vanishes, including the x^6 cross term
    m = Series.of(counting_series(FamilyId.MOTZKIN, 12))
    x = Series.monomial(1, 1, 12)
    rhs = x + x.mul(m, 12) + x.mul(m.mul(m, 12), 12)
    assert rhs == m


@pytest.mark.parametrize("family", list(FamilyId))
def test_fixed_point_agrees_with_closed_form(family):
    assert fixed_point_solve(family, 24) == counting_series(family, 24)


def test_fixed_point_examples():
    ordered = fixed_point_solve(FamilyId.ORDERED, 6)
    assert list(ordered.coefficients) == [0, 1, 1, 2, 5, 14, 42]
    motzkin = fixed_point_solve(FamilyId.MOTZKIN, 3)
    assert list(motzkin.coefficients) == [0, 1, 1, 2]
    for family in FamilyId:
        assert fixed_point_solve(family, 5).coefficient(0) == 0


@pytest.mark.parametrize("family", list(FamilyId))
def test_fixed_point_raises_when_phi_disagrees_with_online_rule(family, monkeypatch):
    real_terms = families._phi_terms

    def perturbed(desc, a, g, start, order):
        terms = real_terms(desc, a, g, start, order)
        terms[-1] += 1
        return terms

    clear_caches()
    monkeypatch.setattr(families, "_phi_terms", perturbed)
    with pytest.raises(SolverError, match="did not stabilise"):
        fixed_point_solve(family, 9)  # cold
    monkeypatch.setattr(families, "_phi_terms", real_terms)
    assert fixed_point_solve(family, 9) == counting_series(family, 9)
    monkeypatch.setattr(families, "_phi_terms", perturbed)
    with pytest.raises(SolverError, match="did not stabilise"):
        fixed_point_solve(family, 11)  # an extension of the held prefix


def test_fixed_point_error_names_the_family_by_its_value(monkeypatch):
    real_terms = families._phi_terms

    def perturbed(desc, a, g, start, order):
        terms = real_terms(desc, a, g, start, order)
        terms[-1] += 1
        return terms

    clear_caches()
    monkeypatch.setattr(families, "_phi_terms", perturbed)
    with pytest.raises(SolverError) as raised:
        fixed_point_solve("motzkin", 5)
    assert str(raised.value) == "fixed point for motzkin did not stabilise at order 5"


@pytest.mark.parametrize("family", list(FamilyId))
def test_a_wrong_coefficient_raises_and_keeps_the_checked_prefix(family, monkeypatch):
    real_step = families._step

    def wrong_at_40(desc, s, psi, s_plus_psi, order):
        # s_40 one too large, and the step rule goes on from it, so every
        # later coefficient agrees with it; only the check of s_40 sees it
        if len(s) <= 40 <= order:
            real_step(desc, s, psi, s_plus_psi, 40)
            s[40] += 1
        real_step(desc, s, psi, s_plus_psi, order)

    clear_caches()
    monkeypatch.setattr(families, "_step", wrong_at_40)
    with pytest.raises(SolverError, match="did not stabilise at order 50"):
        fixed_point_solve(family, 50)  # cold
    assert family not in families._held_solves
    assert fixed_point_solve(family, 30) == counting_series(family, 30)
    with pytest.raises(SolverError, match="did not stabilise at order 50"):
        fixed_point_solve(family, 50)  # the extension 30 -> 50
    assert families._held_solves[family].series == counting_series(family, 30)
    assert len(families._held_solves[family].s) == 31
    assert fixed_point_solve(family, 39) == counting_series(family, 39)
    with pytest.raises(SolverError, match="did not stabilise at order 40"):
        fixed_point_solve(family, 40)  # s_40 is the first and only new coefficient
    assert families._held_solves[family].series == counting_series(family, 39)
    monkeypatch.setattr(families, "_step", real_step)
    assert fixed_point_solve(family, 20) == counting_series(family, 20)
    assert fixed_point_solve(family, 50) == counting_series(family, 50)
    assert families._held_solves[family].series == counting_series(family, 50)


@pytest.mark.parametrize("family", list(FamilyId))
def test_fixed_point_matches_counting_series_at_every_order(family):
    # spans the orders the benchmark solves (48-82) and the parity of every
    # middle square term
    clear_caches()
    for order in range(1, 101):
        assert fixed_point_solve(family, order) == counting_series(family, order), order


@pytest.mark.parametrize("family", list(FamilyId))
def test_fixed_point_resumes_over_random_order_sequences(family):
    rng = random.Random(1601)
    counting = counting_series(family, 150)
    up = sorted(rng.sample(range(1, 151), 24))
    sequences = {
        "up": up,
        "down": up[::-1],
        "repeated": [rng.choice(up[:8]) for _ in range(24)],
        "shuffled": rng.sample(range(1, 151), 40),
        "1..150": list(range(1, 151)),
    }
    for name, orders in sequences.items():
        clear_caches()
        for order in orders:
            assert fixed_point_solve(family, order) == counting.truncate(order), (name, order)
        assert families._held_solves[family].series == counting.truncate(max(orders)), name


def test_string_and_member_share_one_held_solve():
    clear_caches()
    solved = fixed_point_solve("motzkin", 30)
    assert list(families._held_solves) == [FamilyId.MOTZKIN]
    assert fixed_point_solve(FamilyId.MOTZKIN, 30) is solved
    longer = fixed_point_solve(FamilyId.MOTZKIN, 40)
    assert fixed_point_solve("motzkin", 40) is longer
    assert list(families._held_solves) == [FamilyId.MOTZKIN]
    assert fixed_point_solve("motzkin", 30) == solved


def _phi(family, s, order):
    """Coefficients 1..order of Phi(s) by the solver's check, from s's integers."""
    return families._phi_terms(FAMILIES[family], [int(c) for c in s.coefficients], [1], 1, order)


def _tail(series):
    """Coefficients 1.. of a series, the part ``_phi_terms`` computes."""
    return list(series.coefficients[1:])


@pytest.mark.parametrize("family", list(FamilyId))
def test_incremental_check_equals_phi(family):
    # the check the solver runs, resumed in random chunks, against one
    # whole-range call, coefficient by coefficient; each chunk sees only
    # the coefficients through its own top order
    rng = random.Random(1602)
    desc = FAMILIES[family]
    order = 100
    counting = counting_series(family, order)
    moved = counting + Series.monomial(1, 37, order) - Series.monomial(2, 62, order)
    for s in (counting, moved):
        a = [int(c) for c in s.coefficients]
        whole = _phi(family, s, order)
        g, terms, done = [1], [], 0
        while done < order:
            top = min(order, done + rng.randint(1, 9))
            terms += families._phi_terms(desc, a[: top + 1], g, done + 1, top)
            done = top
        assert len(terms) == len(whole)
        for m, (resumed, full) in enumerate(zip(terms, whole)):
            assert resumed == full, (m, s is moved)


@pytest.mark.parametrize("family", list(FamilyId))
def test_phi_matches_reference_equation(family):
    order = 40
    counting = counting_series(family, order)
    perturbed = counting + Series.monomial(1, 5, order)
    for s in (counting, perturbed):
        assert _phi(family, s, order) == _tail(ref_phi(family, s, order))
    assert _phi(family, perturbed, order) != _tail(perturbed)


@pytest.mark.parametrize("family", list(FamilyId))
def test_phi_matches_reference_at_every_order(family):
    # orders 1..100 take both parities of every middle square term and the
    # orders the benchmark solves (48-82); besides the counting series, s is
    # moved by +1 at an even index, -3 at an odd one and +2 at the last one
    for order in range(1, 101):
        counting = counting_series(family, order)
        moved = counting - Series.monomial(3, 2 * (order // 4) + 1, order)
        moved += Series.monomial(2, order, order)
        if order >= 2:
            moved += Series.monomial(1, 2 * max(1, order // 4), order)
        for s in (counting, moved):
            assert _phi(family, s, order) == _tail(ref_phi(family, s, order)), (order, s)


@pytest.mark.parametrize("family", list(FamilyId))
def test_phi_needs_an_order_from_one_to_the_truncation(family):
    s = PowerSeries([0, 1])
    with pytest.raises(TruncationError):
        ref_phi(family, s, 5)
    assert _phi(family, s, 1) == _tail(ref_phi(family, s, 1))


def test_clear_caches_empties_every_cache():
    cached = [value for value in vars(families).values() if hasattr(value, "cache_clear")]
    assert len(cached) == 2
    for family in FamilyId:
        fixed_point_solve(family, 10)
        multiplier_gf(family, 10)
        census_coefficient(family, StatKind.LEAVES, 2, 30)
    aggregate_census(FamilyId.MOTZKIN, 5, StatKind.VERTICES)
    assert all(value.cache_info().currsize for value in cached)
    assert len(families._held_solves) == 4
    assert len(families._held_series) == 4
    # only a vertex-counted family's leaf census has a level m >= 1, here m = 3
    assert {f: sorted(levels) for f, levels in families._held_sums.items()} == {"motzkin": [3], "ordered": [3]}
    assert oracle._aggregate.cache_info().currsize and oracle._held is not None
    clear_caches()
    assert [value.cache_info().currsize for value in cached] == [0] * 2
    assert families._held_solves == {} and families._held_series == {} and families._held_sums == {}
    assert oracle._aggregate.cache_info().currsize == 0 and oracle._held is None
    assert fixed_point_solve(FamilyId.SCHROEDER, 10) == counting_series(FamilyId.SCHROEDER, 10)


def _psi(desc, t):
    """psi(t) and psi'(t): t**2 and 2t, or t**2/(1-t) and (2t - t**2)/(1-t)**2."""
    if desc.geometric_psi:
        return t * t / (1 - t), (2 * t - t * t) / ((1 - t) * (1 - t))
    return t * t, 2 * t


@pytest.mark.parametrize("family", list(FamilyId))
def test_psi_gives_singularity_and_normalization(family):
    # tau = T(rho) = 1/K; tau is where the equation's branch point sits
    desc = FAMILIES[family]
    tau = 1 / desc.normalization
    psi, dpsi = _psi(desc, tau)
    if desc.size_unit is StatKind.VERTICES:  # T = x*phi(T), phi = 1 + t + psi
        phi = 1 + tau + psi
        assert tau * (1 + dpsi) == phi
        rho = tau / phi
    else:  # T = x + psi(T)
        assert dpsi == 1
        rho = tau - psi
    assert isinstance(rho, QuadraticNumber)
    assert rho == desc.singularity


def _patched_spec(monkeypatch, change):
    real_spec = families._spec
    monkeypatch.setattr(families, "_spec", lambda desc: change(real_spec(desc)))
    clear_caches()


def test_census_coefficient_rejects_non_integral_multiplier(monkeypatch):
    # the Motzkin multiplier S/2 in place of S leaves a remainder at n = 1
    def halved(spec):
        p, q, d, e = spec.multiplier
        return spec._replace(multiplier=(p, q, 2 * d, e))

    # census_coefficient reads the multiplier through the held sums, so
    # every holder goes, not only the held series
    _patched_spec(monkeypatch, halved)
    try:
        with pytest.raises(SolverError, match="multiplier"):
            census_coefficient(FamilyId.MOTZKIN, StatKind.VERTICES, 1, 3)
    finally:
        clear_caches()


def test_a_pole_in_a_derived_series_raises(monkeypatch):
    # the multiplier over one more power of x: m_0 = 1 would sit at x**-1
    def shifted(spec):
        p, q, d, e = spec.multiplier
        return spec._replace(multiplier=(p, q, d, e + 1))

    _patched_spec(monkeypatch, shifted)
    try:
        with pytest.raises(SolverError, match="multiplier coefficient at n = -1"):
            multiplier_gf(FamilyId.FULL_BINARY, 5)
    finally:
        clear_caches()


def test_a_non_integral_radical_raises(monkeypatch):
    # 1/sqrt(1 - x) has s_1 = 1/2
    _patched_spec(monkeypatch, lambda spec: spec._replace(delta=[1, -1, 0]))
    try:
        with pytest.raises(SolverError, match="1/sqrt"):
            counting_series(FamilyId.ORDERED, 5)
    finally:
        clear_caches()


@pytest.mark.parametrize(
    "family, psi, match",
    [
        # psi = t**2 + t**3 (T = x + T**2 + T**3) is cubic in T
        (FamilyId.FULL_BINARY, ((0, 0, 1, 1), (1,)), "not A"),
        # psi = t**2/(1-2t) gives A = 2 - x
        (FamilyId.ORDERED, ((0, 0, 1), (1, -2)), "not A"),
        # psi = t**2/2 gives 2x - 2T + T**2 = 0, Delta = 4 - 8x
        (FamilyId.FULL_BINARY, ((0, 0, 1), (2,)), "does not start with 1"),
    ],
)
def test_a_psi_outside_the_quadratic_route_raises(family, psi, match, monkeypatch):
    families._spec.cache_clear()  # a failed derivation is not cached
    monkeypatch.setattr(families, "_psi", lambda desc: psi)
    with pytest.raises(SolverError, match=match):
        families._spec(families.descriptor(family))


@pytest.mark.parametrize("family", list(FamilyId))
def test_derived_buckets_are_prefixes_of_each_other(family):
    # each longer request extends the held series; each is a prefix of one
    # derived cold at the top order
    clear_caches()
    longest = families._series_integers(family, 1280)
    clear_caches()
    for order in (1, 2, 3, 64, 640, 1280):
        held = families._series_integers(family, order)
        assert [len(series) for series in held[:2]] == [order + 1] * 2
        assert [series[: len(short)] for series, short in zip(longest, held)] == [*held]
    assert families._series_integers(family, 640) is held  # a request below the held order reads it


def test_counting_coefficient_rejects_negative_n():
    for family in FamilyId:
        for n in (-1, -64, -65):
            with pytest.raises(DomainError, match="nonnegative"):
                counting_coefficient(family, n)
    assert counting_coefficient(FamilyId.MOTZKIN, 0) == 0


def test_a_census_beyond_the_largest_statistic_builds_no_root_gf(monkeypatch):
    def refuse(*args):
        raise AssertionError("a root GF was built")

    clear_caches()
    monkeypatch.setattr(families, "root_stat_gf", refuse)
    for family in FamilyId:
        for stat in StatKind:
            for n in (1, 5, 40):
                for k in (max_stat_value(family, stat, n) + 1, 10**6):
                    assert census_coefficient(family, stat, k, n) == 0
                    assert finite_probability(family, stat, k, n) == 0
                    assert census_series(family, stat, k, n) == PowerSeries.zero(n)
            assert census_coefficient(family, stat, 3, 0) == 0


def test_max_stat_value_is_attained():
    # the bound the zero shortcut relies on is exact: at k = max_stat_value
    # the census is nonzero, one above it is zero (no size-n tree has it)
    for family in FamilyId:
        for stat in StatKind:
            for n in range(1, 61):
                top = max_stat_value(family, stat, n)
                assert census_coefficient(family, stat, top, n) > 0, (family, stat, n)
                assert ref_census_coefficient(family, stat, top + 1, n) == 0, (family, stat, n)


def test_multiplier_values():
    motzkin = multiplier_gf(FamilyId.MOTZKIN, 3)
    assert [int(c) for c in motzkin.coefficients] == [1, 1, 3, 7]
    schroeder = multiplier_gf(FamilyId.SCHROEDER, 4)
    assert [int(c) for c in schroeder.coefficients] == [1, 2, 9, 44, 225]
    binary = multiplier_gf(FamilyId.FULL_BINARY, 3)
    assert [int(c) for c in binary.coefficients] == [1, 2, 6, 20]


def test_multiplier_defining_identities():
    n = 40
    root = Series.from_polynomial([1, -4], n).sqrt()
    assert root.mul(multiplier_gf(FamilyId.FULL_BINARY, n), n) == Series.one(n)
    # x * multiplier is the Schroeder leaf-total series
    lx = Series.monomial(1, 1, n).mul(multiplier_gf(FamilyId.SCHROEDER, n), n)
    assert [int(lx.coefficient(k)) for k in range(1, 6)] == [1, 2, 9, 44, 225]
    # Motzkin multiplier is the inverse square root of 1 - 2x - 3x^2
    square = Series.of(multiplier_gf(FamilyId.MOTZKIN, n)).mul(multiplier_gf(FamilyId.MOTZKIN, n), n)
    assert square.mul(Series.from_polynomial([1, -2, -3], n), n) == Series.one(n)


def test_root_stat_gf_monomials():
    assert str(root_stat_gf(FamilyId.MOTZKIN, StatKind.VERTICES, 5)) == "9*x^5"
    assert str(root_stat_gf(FamilyId.ORDERED, StatKind.VERTICES, 7)) == "132*x^7"
    assert str(root_stat_gf(FamilyId.SCHROEDER, StatKind.LEAVES, 6)) == "197*x^6"
    assert str(root_stat_gf(FamilyId.FULL_BINARY, StatKind.LEAVES, 4)) == "5*x^4"


def test_root_stat_gf_full_binary_vertices():
    assert root_stat_gf(FamilyId.FULL_BINARY, StatKind.VERTICES, 2).is_zero()
    assert root_stat_gf(FamilyId.FULL_BINARY, StatKind.VERTICES, 4).is_zero()
    assert str(root_stat_gf(FamilyId.FULL_BINARY, StatKind.VERTICES, 7)) == "5*x^4"


def test_root_stat_gf_extractions():
    assert str(root_stat_gf(FamilyId.MOTZKIN, StatKind.LEAVES, 6)) == "42*x^11/(1-x)^11"
    assert str(root_stat_gf(FamilyId.SCHROEDER, StatKind.VERTICES, 7)) == "5*x^4 + 9*x^5 + x^6"
    assert root_stat_gf(FamilyId.SCHROEDER, StatKind.VERTICES, 2).is_zero()
    assert str(root_stat_gf(FamilyId.ORDERED, StatKind.LEAVES, 1)) == "x/(1-x)"


def test_root_stat_gf_rejects_bad_k():
    with pytest.raises(DomainError):
        root_stat_gf(FamilyId.MOTZKIN, StatKind.VERTICES, 0)


def test_census_series_examples():
    leaves = census_series(FamilyId.MOTZKIN, StatKind.VERTICES, 1, 4)
    assert [int(leaves.coefficient(n)) for n in range(1, 5)] == [1, 1, 3, 7]
    for n in range(1, 7):
        roots_only = census_series(FamilyId.ORDERED, StatKind.VERTICES, n, n)
        assert roots_only.coefficient(n) == counting_coefficient(FamilyId.ORDERED, n)
    schroeder = census_series(FamilyId.SCHROEDER, StatKind.LEAVES, 1, 3)
    assert schroeder.coefficient(3) == 9


def test_census_coefficient_matches_series():
    for family in FamilyId:
        for stat in StatKind:
            series = census_series(family, stat, 2, 12)
            for n in range(13):
                assert census_coefficient(family, stat, 2, n) == series.coefficient(n)
            # sizes below deg P cut the coefficient's window short; 64/65 and
            # 640/641 are bucket edges, 1300 the highest order a CLI request reaches
            for k in range(1, 9):
                degree = len(root_stat_gf(family, stat, k).numerator) - 1
                for n in sorted(n for n in {1, degree - 1, degree, 64, 65, 640, 641, 1300} if n >= 1):
                    expected = census_series(family, stat, k, n).coefficient(n)
                    assert census_coefficient(family, stat, k, n) == expected, (family, stat, k, n)


def _double_loop_product(a, b, size):
    out = [0] * size
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < size:
                out[i + j] += x * y
    return out


# unit, zero, negative and non-unit coefficients, a unit after a non-unit and
# a non-unit after a unit, and leading zeros (a first slice not at x**0)
_FACTORS = (
    (), (0,), (1,), (-1,), (5,), (0, 1), (1, 1, 0, 1), (0, 0, 3, -1, 1), (-2, 1, 0, 1, 1, -7), (1, 0, 0, 0, 0, 0, 0, 4)
)


@pytest.mark.parametrize("a", _FACTORS)
def test_product_matches_a_double_loop(a):
    for b in _FACTORS:
        for size in range(len(a) + len(b) + 3):  # shorter and longer than either factor
            for left, right in ((a, b), (b, a)):
                expected = _double_loop_product(left, right, size)
                assert families._product(left, right, size) == expected, (left, right, size)


def test_totals():
    assert total_vertices(FamilyId.ORDERED, 3) == 6
    assert total_vertices(FamilyId.FULL_BINARY, 4) == 35
    assert total_vertices(FamilyId.SCHROEDER, 3) == 14
    assert total_vertices(FamilyId.MOTZKIN, 5) == 45
    assert total_leaves(FamilyId.SCHROEDER, 5) == 225
    assert total_leaves(FamilyId.ORDERED, 2) == 1
    assert total_leaves(FamilyId.MOTZKIN, 3) == 3
    assert total_leaves(FamilyId.FULL_BINARY, 4) == 20


def test_vertex_totals_equal_size_weighted_counts():
    for n in range(1, 9):
        assert total_vertices(FamilyId.MOTZKIN, n) == n * counting_coefficient(FamilyId.MOTZKIN, n)
        assert (
            total_vertices(FamilyId.FULL_BINARY, n)
            == (2 * n - 1) * counting_coefficient(FamilyId.FULL_BINARY, n)
        )


def test_total_leaves_agrees_with_leaf_census():
    # vertices with a one-vertex subtree are exactly the leaves
    for family in FamilyId:
        for n in range(1, 8):
            assert total_leaves(family, n) == census_coefficient(
                family, StatKind.VERTICES, 1, n
            )


def test_finite_probability_examples():
    for family in FamilyId:
        assert finite_probability(family, StatKind.VERTICES, 1, 1) == 1
    for n in range(1, 10):
        assert finite_probability(FamilyId.MOTZKIN, StatKind.VERTICES, n, n) == Fraction(1, n)
    # only the root of the single 2-vertex tree qualifies
    assert finite_probability(FamilyId.ORDERED, StatKind.VERTICES, 2, 2) == Fraction(1, 2)


def test_finite_probability_approaches_two_thirds():
    values = [
        finite_probability(FamilyId.ORDERED, StatKind.LEAVES, 1, n) for n in (20, 40, 80)
    ]
    gaps = [abs(v - Fraction(2, 3)) for v in values]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < Fraction(1, 100)


def test_domain_errors():
    with pytest.raises(DomainError):
        finite_probability(FamilyId.MOTZKIN, StatKind.VERTICES, 1, 0)
    with pytest.raises(DomainError):
        total_vertices(FamilyId.SCHROEDER, 0)
    with pytest.raises(DomainError):
        census_series(FamilyId.MOTZKIN, StatKind.LEAVES, 0, 5)


def test_max_stat_value():
    assert max_stat_value(FamilyId.MOTZKIN, StatKind.LEAVES, 14) == 7
    assert max_stat_value(FamilyId.ORDERED, StatKind.LEAVES, 12) == 11
    assert max_stat_value(FamilyId.SCHROEDER, StatKind.VERTICES, 10) == 19
    assert max_stat_value(FamilyId.FULL_BINARY, StatKind.VERTICES, 12) == 23
    assert max_stat_value(FamilyId.ORDERED, StatKind.VERTICES, 12) == 12


@pytest.mark.parametrize("family", list(FamilyId))
def test_max_stat_value_is_the_largest_enumerated_value(family):
    for stat in StatKind:
        for n in range(1, DEFAULT_BUDGETS[family] + 1):
            assert max_stat_value(family, stat, n) == max(aggregate_census(family, n, stat)), (stat, n)


def test_census_table_partition():
    for family in FamilyId:
        for stat in StatKind:
            table = census_table_from_series(family, stat, 7)
            for n in range(1, 8):
                assert sum(count for (m, _), count in table.items() if m == n) == total_vertices(family, n)


def test_census_table_lookup():
    table = census_table_from_series(FamilyId.MOTZKIN, StatKind.VERTICES, 3)
    assert table[3, 1] == 3
    assert table[3, 2] == 1
    assert table[3, 3] == 2
    assert (3, 9) not in table


def test_statistic_equivalence_full_binary():
    for k in range(1, 9):
        assert census_series(FamilyId.FULL_BINARY, StatKind.VERTICES, 2 * k - 1, 30) == (
            census_series(FamilyId.FULL_BINARY, StatKind.LEAVES, k, 30)
        )
        assert not any(census_series(FamilyId.FULL_BINARY, StatKind.VERTICES, 2 * k, 30).coefficients)


# -- closed-form root GFs against the bivariate series and the Pade fit -----------

_CLOSED_FORM_PAIRS = [
    (FamilyId.MOTZKIN, StatKind.LEAVES),
    (FamilyId.ORDERED, StatKind.LEAVES),
    (FamilyId.SCHROEDER, StatKind.VERTICES),
]


def _fitted_root_gf(family, stat, k):
    """[y^k] of the bivariate series, reconstructed by an exact Pade fit."""
    degrees = (k, 0) if family is FamilyId.SCHROEDER else (2 * k - 1, 2 * k - 1)
    column = bivariate_series(family, sum(degrees) + FIT_MARGIN, k).coeff_y(k)
    return fit_rational(column, *degrees)


@pytest.mark.parametrize("family,stat", _CLOSED_FORM_PAIRS)
def test_root_stat_gf_closed_forms_match_fit(family, stat):
    for k in range(1, 13):
        closed = root_stat_gf(family, stat, k)
        fitted = _fitted_root_gf(family, stat, k)
        assert (closed.numerator, closed.exponent) == (fitted.numerator, fitted.one_minus_x_exponent()), (
            family, stat, k,
        )
        assert str(closed) == str(fitted)


@pytest.mark.parametrize("family", [FamilyId.MOTZKIN, FamilyId.ORDERED])
def test_total_leaves_matches_bivariate_derivative(family):
    top = 40
    ny = max_stat_value(family, StatKind.LEAVES, top)
    weighted = bivariate_series(family, top, ny).dy_at_y_one()
    for n in range(1, top + 1):
        assert total_leaves(family, n) == weighted.coefficient(n), n


def test_root_gf_and_leaf_totals_bypass_the_fit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bivariate_series reached from the root-GF path")

    monkeypatch.setattr(families, "bivariate_series", refuse, raising=False)
    assert not hasattr(families, "fit_rational")
    root_stat_gf.cache_clear()
    for family in FamilyId:
        for stat in StatKind:
            for k in range(1, 41):
                root_stat_gf(family, stat, k)
        for n in range(1, 65):
            total_leaves(family, n)


def test_root_stat_gf_matches_the_classical_closed_forms():
    # the Lagrange form in psi against Catalan, Narayana, Kirkman-Cayley
    # and the full binary parity, written out per pair
    for family in FamilyId:
        for stat in StatKind:
            for k in range(1, 61):
                closed = root_stat_gf(family, stat, k)
                expected = ref_root_stat_gf(family, stat, k)
                assert closed == expected, (family, stat, k)
                assert str(closed) == str(expected), (family, stat, k)


@pytest.mark.parametrize("family", list(FamilyId))
def test_bivariate_solver_matches_the_per_family_equations(family):
    # the solver in the size unit and psi against one hand-written
    # equation per family, at the smallest bucket
    assert _bivariate_bucketed(family, 64, 24) == ref_bivariate(family, 64, 24)


def test_ordered_leaf_root_gf_expands_to_narayana_numbers():
    # beyond the fitted range: [x^n] is N(n-1, k), with N(0, 1) = 1
    def narayana(m, k):
        if m == 0:
            return int(k == 1)
        return comb(m, k) * comb(m, k - 1) // m

    for k in range(1, 41):
        series = ref_root_expansion(FamilyId.ORDERED, StatKind.LEAVES, k, 3 * k)
        assert series[1:] == [
            narayana(n - 1, k) for n in range(1, 3 * k + 1)
        ], k


# -- P-recurrences against the sqrt/div closed forms -------------------------------

PIN_ORDER = 640


@pytest.mark.parametrize("family", list(FamilyId))
def test_recurrences_match_closed_forms(family):
    assert counting_series(family, PIN_ORDER) == ref_counting(family, PIN_ORDER)
    assert multiplier_gf(family, PIN_ORDER) == ref_multiplier(family, PIN_ORDER)


def test_schroeder_vertex_totals_match_closed_form():
    reference = ref_vertex_totals(FamilyId.SCHROEDER, PIN_ORDER)
    for n in range(1, PIN_ORDER + 1):
        assert total_vertices(FamilyId.SCHROEDER, n) == reference.coefficient(n), n


@pytest.mark.parametrize("family", [FamilyId.FULL_BINARY, FamilyId.SCHROEDER])
def test_leaf_counted_multiplier_is_counting_derivative(family):
    counts = counting_series(family, PIN_ORDER + 1)
    mult = multiplier_gf(family, PIN_ORDER)
    for n in range(PIN_ORDER + 1):
        assert mult.coefficient(n) == (n + 1) * counts.coefficient(n + 1), n


def test_recurrence_initial_terms_cover_short_orders():
    # the derivation itself at short orders, S shorter than Delta, then extended
    clear_caches()
    assert families._series_integers(FamilyId.SCHROEDER, 1)[0] == (0, 1)
    assert families._series_integers(FamilyId.SCHROEDER, 4)[0] == (0, 1, 1, 3, 11)


@pytest.mark.parametrize("family", list(FamilyId))
@pytest.mark.parametrize("stat", list(StatKind))
def test_census_series_equals_root_expansion_times_multiplier(family, stat):
    order = 300
    mult = multiplier_gf(family, order)
    for k in range(1, 7):
        expected = Series(ref_root_expansion(family, stat, k, order)).mul(mult, order)
        assert census_series(family, stat, k, order) == expected, k


# bucket edges (64, 640) and the first order-1280 bucket
_REFERENCE_SIZES = (0, 1, 2, 63, 64, 65, 300, 639, 640, 641, 700)


@pytest.mark.parametrize("family", list(FamilyId))
@pytest.mark.parametrize("stat", list(StatKind))
def test_census_coefficient_matches_convolution_reference(family, stat):
    for k in range(1, 9):
        for n in _REFERENCE_SIZES:
            expected = ref_census_coefficient(family, stat, k, n)
            assert census_coefficient(family, stat, k, n) == expected, (k, n)


@pytest.mark.parametrize("family", list(FamilyId))
def test_size_unit_census_coefficient_is_one_product(family):
    # P = t_k * x**k: t_k * m_(n-k), against the series' product with P
    stat = FAMILIES[family].size_unit
    for k in (1, 300, 600):
        for n in (k, k + 1, 1300):
            expected = census_series(family, stat, k, n).coefficient(n)
            assert census_coefficient(family, stat, k, n) == expected, (k, n)


def test_census_coefficient_after_a_thousand_running_sums():
    # root GF Cat(519) * x**1039 / (1-x)**1039
    family, stat, k, n = FamilyId.MOTZKIN, StatKind.LEAVES, 520, 1100
    assert root_stat_gf(family, stat, k).exponent == 1039
    expected = ref_census_coefficient(family, stat, k, n)
    assert expected and census_coefficient(family, stat, k, n) == expected


@pytest.mark.parametrize("family", list(FamilyId))
def test_multiplier_sums_build_on_the_nearest_held_level(family):
    # levels asked for out of order, each built from the highest held level
    # below it, against m running sums of the multiplier from scratch
    clear_caches()
    for order in (64, 640):
        levels = [families._series_integers(family, order)[1]]
        for _ in range(199):
            levels.append(tuple(accumulate(levels[-1])))
        families._held_sums.clear()
        for m in (7, 3, 5, 1, 63, 199):
            assert families._multiplier_sums(family, m, order)[0] == levels[m], (order, m)
        assert sorted(families._held_sums[family]) == [1, 3, 5, 7, 63, 199]
        for m in (0, 1, 2, 7, 63):  # each level built from the multiplier alone
            families._held_sums.clear()
            assert families._multiplier_sums(family, m, order)[0] == levels[m], (order, m)
        families._held_sums.clear()
        for m in (0, 1, 2, 7, 63):  # each level built from the one held below it
            assert families._multiplier_sums(family, m, order)[0] == levels[m], (order, m)
        assert sorted(families._held_sums[family]) == [1, 2, 7, 63]  # level 0 is the multiplier
    clear_caches()


@pytest.mark.parametrize("family", list(FamilyId))
def test_held_levels_extend_in_place(family):
    # levels asked for out of order at rising sizes, against m running sums
    # of the multiplier from scratch; every held sequence stays a prefix
    clear_caches()
    levels = [multiplier_gf(family, 1300).coefficients]
    for _ in range(199):
        levels.append(tuple(accumulate(levels[-1])))
    clear_caches()
    before = None
    # at 640, level 63 is built on level 7, which is extended first
    for n, order in ((64, (7, 0, 199, 1)), (65, (1, 199, 0, 7)), (640, (199, 63, 1, 0)), (1300, (0, 63, 7, 1, 199))):
        for m in order:
            assert families._multiplier_sums(family, m, n)[0][: n + 1] == levels[m][: n + 1], (n, m)
        held = families._held_series[family]
        for m, (values, seeds) in families._held_sums[family].items():  # seeds: last entries of levels 1..m
            assert len(values) == n + 1 and seeds == tuple(level[n] for level in levels[1 : m + 1]), (n, m)
        if before is not None:
            assert [series[: len(old)] for series, old in zip(held, before)] == [*before]
        before = held
    assert sorted(families._held_sums[family]) == [1, 7, 63, 199]


@pytest.mark.parametrize("family", list(FamilyId))
def test_one_request_holds_nothing_past_its_order(family):
    spec = families._spec(FAMILIES[family])
    shift = max(spec.counting[3], spec.multiplier[3])
    for n in (3, 65, 700):
        for stat in StatKind:
            for request in (
                lambda: census_coefficient(family, stat, 2, n),
                lambda: census_series(family, stat, 2, n),
                lambda: finite_probability(family, stat, 1, n),
                lambda: total_leaves(family, n),
                lambda: counting_series(family, n),
                lambda: multiplier_gf(family, n),
            ):
                clear_caches()
                request()
                counts, mults, s = families._held_series[family]
                assert (len(counts), len(mults), len(s)) == (n + 1, n + 1, n + 1 + shift)
                assert all(len(values) <= n + 1 for values, _ in families._held_sums.get(family, {}).values())
    clear_caches()


@pytest.mark.parametrize("family", list(FamilyId))
def test_total_vertices_is_counting_times_multiplier(family):
    for n in range(1, 701):
        assert total_vertices(family, n) == ref_total_vertices(family, n), n


@pytest.mark.parametrize("family", [FamilyId.FULL_BINARY, FamilyId.SCHROEDER])
def test_total_vertices_rejects_an_inexact_division(family, monkeypatch):
    # an all-ones multiplier leaves a remainder at n = 1: 1/2 and (1 + 2)/4
    real_series = families._series_integers

    def ones(family, order):
        counts, _, s = real_series(family, order)
        return counts, (1,) * len(counts), s

    monkeypatch.setattr(families, "_series_integers", ones)
    with pytest.raises(SolverError, match="non-integer vertex total"):
        total_vertices(family, 1)


def test_families_never_take_a_square_root(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("PowerSeries.sqrt reached from families")

    monkeypatch.setattr(PowerSeries, "sqrt", refuse, raising=False)
    clear_caches()
    for family in FamilyId:
        counting_series(family, PIN_ORDER)
        multiplier_gf(family, PIN_ORDER)
        total_vertices(family, PIN_ORDER)
        for stat in StatKind:
            census_series(family, stat, 2, 100)
            finite_probability(family, stat, 2, PIN_ORDER)
