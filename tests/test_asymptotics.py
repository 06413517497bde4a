"""Transfer step, normalization constants, convergence and tightness."""

from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from reference_asymptotics import normalization_from_censuses, reference_decimal, schroeder_closed_forms

from treecensus import (
    FamilyId,
    QuadraticNumber,
    StatKind,
    counting_coefficient,
    descriptor,
    limit_probability,
    richardson_check,
    root_stat_gf,
    tightness_report,
    total_leaves,
    total_vertices,
)
from treecensus import asymptotics
from treecensus.render import decimal_string

SMALL_SIZES = (16, 32, 64)


def test_bender_forced_zero():
    # an empty root GF evaluates to an exact 0 in the singularity's field
    empty = ((FamilyId.FULL_BINARY, StatKind.VERTICES, 2), (FamilyId.SCHROEDER, StatKind.VERTICES, 2))
    for family, stat, k in empty:
        assert root_stat_gf(family, stat, k).is_zero()
        limit = limit_probability(family, stat, k).exact_value
        assert limit == QuadraticNumber(0)
        assert limit.radicand == descriptor(family).singularity.radicand == 2


def test_normalization_constants_frozen_values():
    assert descriptor(FamilyId.MOTZKIN).normalization == QuadraticNumber(1)
    assert descriptor(FamilyId.ORDERED).normalization == QuadraticNumber(2)
    assert descriptor(FamilyId.FULL_BINARY).normalization == QuadraticNumber(2)
    assert descriptor(FamilyId.SCHROEDER).normalization == QuadraticNumber(2, 1, 2)


def test_singularities_frozen_values():
    expected = {
        FamilyId.MOTZKIN: QuadraticNumber(Fraction(1, 3)),
        FamilyId.ORDERED: QuadraticNumber(Fraction(1, 4)),
        FamilyId.FULL_BINARY: QuadraticNumber(Fraction(1, 4)),
        FamilyId.SCHROEDER: QuadraticNumber(3, -2, 2),
    }
    for family, rho in expected.items():
        desc = descriptor(family)
        assert desc.singularity == rho, family
        # in Q(sqrt(2)) even when rational, as the printed JSON records
        assert desc.singularity.radicand == desc.normalization.radicand == 2, family


@pytest.mark.parametrize("family", list(FamilyId))
def test_normalization_rederived_from_censuses(family):
    """The constants must match the finite-size oracle to 6+ decimals."""
    empirical = normalization_from_censuses(family)
    frozen = descriptor(family).normalization
    gap = abs(empirical - frozen)
    assert gap < QuadraticNumber(Fraction(1, 10 ** 6))


def test_limit_probability_values():
    assert limit_probability(FamilyId.MOTZKIN, StatKind.LEAVES, 2).exact_value == Fraction(1, 8)
    assert limit_probability(FamilyId.FULL_BINARY, StatKind.VERTICES, 7).exact_value == (
        Fraction(5, 128)
    )
    shroeder4 = limit_probability(FamilyId.SCHROEDER, StatKind.LEAVES, 4).exact_value
    assert shroeder4 == QuadraticNumber(3718, -2629, 2)
    assert abs(float(shroeder4) - 0.0326) < 5e-4


def test_limit_probability_forced_zero_cases():
    for k in (2, 4, 6, 8):
        assert not limit_probability(FamilyId.FULL_BINARY, StatKind.VERTICES, k).exact_value
    assert not limit_probability(FamilyId.SCHROEDER, StatKind.VERTICES, 2).exact_value


def test_limit_probability_motzkin_ladder():
    for k in range(1, 7):
        expected = Fraction(counting_coefficient(FamilyId.MOTZKIN, k), 3 ** k)
        assert limit_probability(FamilyId.MOTZKIN, StatKind.VERTICES, k).exact_value == expected


def test_limits_are_probabilities():
    for family in FamilyId:
        for stat in StatKind:
            for k in range(1, 7):
                p = limit_probability(family, stat, k)
                assert QuadraticNumber(0) <= p.exact_value <= QuadraticNumber(1)
                assert p.method == "closed-form"


def test_richardson_record_shape():
    record = richardson_check(FamilyId.ORDERED, StatKind.VERTICES, 2, SMALL_SIZES)
    assert record.sizes == SMALL_SIZES
    assert len(record.probabilities) == 3
    assert record.exact == Fraction(1, 8)
    # small sizes already land within a percent
    assert record.gap < QuadraticNumber(Fraction(1, 100))


def test_richardson_unreachable_statistic_gives_zero():
    record = richardson_check(FamilyId.MOTZKIN, StatKind.LEAVES, 40, SMALL_SIZES)
    assert all(p == 0 for p in record.probabilities)
    assert record.extrapolate == 0
    assert record.exact > QuadraticNumber(0)  # the limit itself is positive


def test_limit_probability_attaches_diagnostics():
    prob = limit_probability(FamilyId.MOTZKIN, StatKind.VERTICES, 1, check=True, sizes=SMALL_SIZES)
    assert prob.diagnostics is not None
    assert prob.diagnostics.exact == prob.exact_value


def test_checked_limit_evaluates_the_exact_limit_once(monkeypatch):
    calls = []
    exact_limit = asymptotics._exact_limit
    monkeypatch.setattr(asymptotics, "_exact_limit", lambda *args: calls.append(args) or exact_limit(*args))
    for family in FamilyId:
        for stat in StatKind:
            calls.clear()
            prob = limit_probability(family, stat, 3, check=True, sizes=SMALL_SIZES)
            assert len(calls) == 1, (family, stat)
            assert prob.diagnostics == richardson_check(family, stat, 3, SMALL_SIZES)
            assert len(calls) == 2, (family, stat)  # the public check evaluates its own


@pytest.mark.parametrize("sizes", [(600, 300), (300, 300), (150, 600, 300)])
def test_richardson_rejects_sizes_out_of_order(sizes):
    with pytest.raises(ValueError, match="sizes must be strictly increasing"):
        richardson_check(FamilyId.ORDERED, StatKind.VERTICES, 2, sizes=sizes)
    with pytest.raises(ValueError, match="sizes must be strictly increasing"):
        limit_probability(FamilyId.ORDERED, StatKind.VERTICES, 2, check=True, sizes=sizes)


@pytest.mark.parametrize("value", [QuadraticNumber(Fraction(3, 2)), QuadraticNumber(0, -1, 2)])
def test_limit_probability_rejects_values_outside_unit_interval(value, monkeypatch):
    monkeypatch.setattr(asymptotics, "_exact_limit", lambda family, stat, k: value)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        limit_probability(FamilyId.MOTZKIN, StatKind.VERTICES, 1)


def test_schroeder_closed_forms_against_series():
    approx = schroeder_closed_forms(40)
    s40 = counting_coefficient(FamilyId.SCHROEDER, 40)
    assert abs(approx.count_approx / s40 - 1) < 0.05
    l40 = total_leaves(FamilyId.SCHROEDER, 40)
    assert abs(approx.leaf_total_approx / l40 - 1) < 0.05
    v40 = total_vertices(FamilyId.SCHROEDER, 40)
    assert abs(approx.vertex_total_approx / v40 - 1) < 0.05
    assert approx.leaf_probability == QuadraticNumber(1, Fraction(-1, 2), 2)
    # consecutive vertex totals grow by 3 + sqrt(8) up to the sqrt(n) factor
    ratio = schroeder_closed_forms(41).vertex_total_approx / approx.vertex_total_approx
    growth = float(QuadraticNumber(3, 2, 2))
    assert abs(ratio * (41 / 40) ** 0.5 - growth) < 1e-9
    assert abs(ratio / growth - 1) < 0.02


def test_schroeder_closed_forms_domain():
    with pytest.raises(ValueError):
        schroeder_closed_forms(1)


def test_tightness_examples():
    report = tightness_report(FamilyId.FULL_BINARY, StatKind.VERTICES, 1)
    assert report.partial_sum == Fraction(1, 2)
    assert report.deficiency == Fraction(1, 2)
    empty = tightness_report(FamilyId.MOTZKIN, StatKind.VERTICES, 0)
    assert empty.partial_sum == QuadraticNumber(0)
    assert empty.deficiency == QuadraticNumber(1)


def test_tightness_deficiency_monotone_nonnegative():
    for family in FamilyId:
        for stat in StatKind:
            previous = None
            for k_max in range(0, 9):
                report = tightness_report(family, stat, k_max)
                assert report.deficiency >= QuadraticNumber(0)
                if previous is not None:
                    assert report.deficiency <= previous
                previous = report.deficiency


def test_decimal_rendering_reproducible():
    value = limit_probability(FamilyId.SCHROEDER, StatKind.LEAVES, 1).exact_value
    first = decimal_string(value, 10)
    second = decimal_string(
        limit_probability(FamilyId.SCHROEDER, StatKind.LEAVES, 1).exact_value, 10
    )
    assert first == second == "0.5857864376"


def _rounded(value: Decimal, digits: int = 10) -> str:
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, ROUND_HALF_EVEN
        value = +value
        return format(value.quantize(Decimal(1).scaleb(value.adjusted() - digits + 1)), "f")


def _schroeder_values():
    for stat in StatKind:
        for k in (27, 40, 80, 200, 1300):
            yield f"{stat.value} k={k}", limit_probability(FamilyId.SCHROEDER, stat, k).exact_value
        for k_max in (30, 60):
            yield f"{stat.value} deficiency k_max={k_max}", tightness_report(FamilyId.SCHROEDER, stat, k_max).deficiency


def test_decimals_of_cancelling_field_values():
    # p + q*sqrt(2) with p, q of opposite signs and up to 2000 digits each:
    # the printed decimal and float() must match a reference whose working
    # precision covers the cancellation
    for label, value in _schroeder_values():
        assert value.radical_part and (value.rational_part > 0) != (value.radical_part > 0), label
        reference = reference_decimal(value)
        assert decimal_string(value) == _rounded(reference), label
        assert float(value) == float(reference), label
    leaf27 = limit_probability(FamilyId.SCHROEDER, StatKind.LEAVES, 27).exact_value
    assert decimal_string(leaf27) == "0.001713213210"


@pytest.mark.parametrize("digits", [60, 500])
def test_long_decimals_match_the_reference(digits):
    # every digit asked for is computed, for field values and rationals alike
    rationals = [
        (f"motzkin vertices k={k}", limit_probability(FamilyId.MOTZKIN, StatKind.VERTICES, k).exact_value)
        for k in (3, 7)
    ]
    for label, value in [*_schroeder_values(), *rationals]:
        assert decimal_string(value, digits) == _rounded(reference_decimal(value, digits + 20), digits), label
