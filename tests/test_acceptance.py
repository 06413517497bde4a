"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Two published claims are false, and the checks that
meet them test the corrected claim instead of the printed one:

* criterion 1 for the two Schroeder tables (5.1 and 5.2) — the published
  probability columns are exactly half the values forced by the
  enumeration oracle (see ``treecensus errata``, entry
  schroeder-probability-columns-halved).  The check asserts that every
  printed row equals half the computed limit, that no nonzero row
  equals the limit itself (so a stale erratum is caught), and that the
  k = 1 limit, a leaf fraction, lies in (1/2, 1): a tree with n leaves
  has between n+1 and 2n-1 vertices, so the printed 0.2929 is
  impossible;
* criterion 8a — a 0.999 threshold for the Motzkin vertex
  partial sum at k_max = 40 is unattainable: the terms m(k)/3^k decay
  like sqrt(3/(4 pi)) k**-1.5, so the deficiency is ~ sqrt(3/pi)/sqrt(k_max)
  and reaches 0.001 only near k_max ~ 10**6.  The check asserts that
  law instead: sqrt(k_max) times the exact deficiency at k_max = 20 and
  40, Richardson-extrapolated, matches sqrt(3/pi), so no mass is
  missing beyond the tail.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from reference_asymptotics import schroeder_closed_forms
from reference_bivariate import bivariate_series, bivariate_y
from reference_series import Series

from treecensus import (
    FamilyId,
    PUBLISHED_TABLES,
    QuadraticNumber,
    StatKind,
    census_series,
    counting_coefficient,
    counting_series,
    fixed_point_solve,
    limit_probability,
    max_stat_value,
    multiplier_gf,
    richardson_check,
    root_stat_gf,
    tightness_report,
    total_leaves,
    total_vertices,
    verify_family,
)
from treecensus.errata import erratum_by_id
from treecensus.render import matches_printed

RICHARDSON_SIZES = (150, 300, 600)
RICHARDSON_TOLERANCE = QuadraticNumber(Fraction(2, 1000))


@contextmanager
def criterion(label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"criterion {label}: PASS ({time.perf_counter() - started:.1f}s)")


# -- criterion 1: table reproduction ------------------------------------------------

TABLES_IN_SCOPE = [
    ("2.2", FamilyId.MOTZKIN, StatKind.LEAVES, range(1, 7)),
    ("3.1", FamilyId.ORDERED, StatKind.VERTICES, range(1, 8)),
    ("3.2", FamilyId.ORDERED, StatKind.LEAVES, range(1, 5)),
    ("4.1", FamilyId.FULL_BINARY, StatKind.VERTICES, range(1, 7)),  # k=7: criterion 3
    ("4.2", FamilyId.FULL_BINARY, StatKind.LEAVES, range(1, 8)),
    ("5.1", FamilyId.SCHROEDER, StatKind.VERTICES, range(1, 8)),
    ("5.2", FamilyId.SCHROEDER, StatKind.LEAVES, range(1, 8)),
]

# Tables whose printed probability column the errata ledger shows to be
# off by a constant factor: section -> (erratum id, limit / printed value).
CORRECTED_TABLES = {
    "5.1": ("schroeder-probability-columns-halved", 2),
    "5.2": ("schroeder-probability-columns-halved", 2),
}


@pytest.mark.parametrize(
    "section,family,stat,ks", TABLES_IN_SCOPE, ids=[t[0] for t in TABLES_IN_SCOPE]
)
def test_criterion_1_table_reproduction(section, family, stat, ks):
    with criterion(f"1 (table {section}, {family.value}/{stat.value})"):
        started = time.perf_counter()
        rows = PUBLISHED_TABLES[(family, stat)]
        if section in CORRECTED_TABLES:
            _check_corrected_table(section, family, stat, ks, rows)
        else:
            for k in ks:
                exact = limit_probability(family, stat, k).exact_value
                printed = rows[k].probability_text
                assert matches_printed(exact, printed), (
                    f"{family.value}/{stat.value} k={k}: computed {exact} "
                    f"(~{float(exact):.6f}) vs published {printed}"
                )
        assert time.perf_counter() - started < 10.0


def _check_corrected_table(section, family, stat, ks, rows):
    ident, factor = CORRECTED_TABLES[section]
    assert section in erratum_by_id(ident).location, f"erratum {ident} does not cover {section}"
    for k in ks:
        exact = limit_probability(family, stat, k).exact_value
        printed = rows[k].probability_text
        assert matches_printed(exact / factor, printed), (
            f"{family.value}/{stat.value} k={k}: computed {exact} "
            f"(~{float(exact):.6f}) divided by {factor} vs published {printed}; "
            f"erratum {ident} no longer accounts for this row"
        )
        if exact:
            assert not matches_printed(exact, printed), (
                f"{family.value}/{stat.value} k={k}: published {printed} now "
                f"matches the computed limit; erratum {ident} is stale"
            )
        if k == 1:
            # the k = 1 vertices are the leaves, and a tree with n leaves
            # has between n+1 and 2n-1 vertices
            assert QuadraticNumber(Fraction(1, 2)) < exact < QuadraticNumber(1), (
                f"leaf fraction {float(exact):.6f} outside (1/2, 1)"
            )


# -- criterion 2: Motzkin vertex ladder ---------------------------------------------


def test_criterion_2_motzkin_vertex_ladder():
    with criterion("2 (Motzkin vertex ladder)"):
        one_third = limit_probability(FamilyId.MOTZKIN, StatKind.VERTICES, 1).exact_value
        assert one_third == Fraction(1, 3)
        expected_ladder = {
            2: Fraction(1, 9),
            3: Fraction(2, 27),
            4: Fraction(4, 81),
            5: Fraction(9, 243),
            6: Fraction(21, 729),
        }
        for k, expected in expected_ladder.items():
            value = limit_probability(FamilyId.MOTZKIN, StatKind.VERTICES, k).exact_value
            assert value == expected
            assert expected == Fraction(counting_coefficient(FamilyId.MOTZKIN, k), 3 ** k)
        shifted = erratum_by_id("motzkin-vertex-rows-shifted")
        assert "2.1" in shifted.location


# -- criterion 3: full binary k = 7 erratum ------------------------------------------


def test_criterion_3_full_binary_k7():
    with criterion("3 (full binary k=7 erratum)"):
        value = limit_probability(FamilyId.FULL_BINARY, StatKind.VERTICES, 7).exact_value
        assert value == Fraction(5, 128)
        record = richardson_check(
            FamilyId.FULL_BINARY, StatKind.VERTICES, 7, RICHARDSON_SIZES
        )
        assert record.gap <= RICHARDSON_TOLERANCE
        entry = erratum_by_id("fullbinary-vertex-k7")
        assert "5/128" in entry.computed


# -- criterion 4: oracle equivalence --------------------------------------------------


def test_criterion_4_oracle_equivalence():
    with criterion("4 (exhaustive oracle equivalence)"):
        started = time.perf_counter()
        for family in FamilyId:
            report = verify_family(family)
            assert report.passed, report.mismatches[:5]
        assert time.perf_counter() - started < 60.0


# -- criterion 5: transfer-step convergence -------------------------------------------


def test_criterion_5_bender_convergence():
    with criterion("5 (Richardson convergence, k <= 8)"):
        started = time.perf_counter()
        worst = QuadraticNumber(0)
        for family in FamilyId:
            for stat in StatKind:
                for k in range(1, 9):
                    if root_stat_gf(family, stat, k).is_zero():
                        continue  # forced-zero rows are excluded
                    record = richardson_check(family, stat, k, RICHARDSON_SIZES)
                    assert record.gap <= RICHARDSON_TOLERANCE, (
                        f"{family.value}/{stat.value} k={k}: gap {float(record.gap)}"
                    )
                    worst = max(worst, record.gap)
        elapsed = time.perf_counter() - started
        print(f"  worst gap {float(worst):.2e} in {elapsed:.1f}s", end=" ")
        assert elapsed < 120.0


# -- criterion 6: algebraic identity suite --------------------------------------------


def test_criterion_6_identities():
    with criterion("6 (algebraic identity suite)"):
        # sqrt squares back exactly
        for poly in ([1, -4], [1, -2, -3], [1, -6, 1]):
            base = Series.from_polynomial(poly, 200)
            root = base.sqrt()
            assert root.mul(root) == base
        # closed form vs fixed point to order 200
        for family in FamilyId:
            assert counting_series(family, 200) == fixed_point_solve(family, 200)
        # bivariate marginal at y = 1 equals the counting series
        for family in FamilyId:
            ny = max_stat_value(family, bivariate_y(family), 16)
            assert bivariate_series(family, 16, ny).at_y_one() == counting_series(family, 16)
        # Schroeder identities to order 200
        n = 200
        s = counting_series(FamilyId.SCHROEDER, n)
        mult = multiplier_gf(FamilyId.SCHROEDER, n)
        delta = Series.from_polynomial([1, -6, 1], n).sqrt()
        leaf_gf = (
            Series.monomial(1, 1, n)
            .mul(Series.from_polynomial([3, -1], n) + delta, n)
            .div(delta.scale(4), n)
        )
        assert leaf_gf == Series.monomial(1, 1, n).mul(mult, n)
        vertex_gf = Series.of(s).mul(mult, n)
        for m in range(1, 25):
            assert vertex_gf.coefficient(m) == total_vertices(FamilyId.SCHROEDER, m)
            assert leaf_gf.coefficient(m) == total_leaves(FamilyId.SCHROEDER, m)
        ny = max_stat_value(FamilyId.SCHROEDER, StatKind.VERTICES, 24)
        weighted = bivariate_series(FamilyId.SCHROEDER, 24, ny).dy_at_y_one()
        assert weighted == vertex_gf.truncate(24)
        # full binary statistic equivalence to order 60
        for k in range(1, 16):
            assert census_series(FamilyId.FULL_BINARY, StatKind.VERTICES, 2 * k - 1, 60) == (
                census_series(FamilyId.FULL_BINARY, StatKind.LEAVES, k, 60)
            )


# -- criterion 7: Schroeder asymptotic formulas ----------------------------------------


def test_criterion_7_schroeder_asymptotics():
    with criterion("7 (Schroeder asymptotic formulas at n=60)"):
        approx = schroeder_closed_forms(60)
        assert abs(approx.count_approx / counting_coefficient(FamilyId.SCHROEDER, 60) - 1) < 0.05
        assert abs(approx.leaf_total_approx / total_leaves(FamilyId.SCHROEDER, 60) - 1) < 0.05
        assert abs(approx.vertex_total_approx / total_vertices(FamilyId.SCHROEDER, 60) - 1) < 0.05
        printed_constant = approx.leaf_probability
        assert printed_constant == QuadraticNumber(1, Fraction(-1, 2), 2)
        assert abs(float(printed_constant) - 0.293) < 5e-4


# -- criterion 8: tightness diagnostic --------------------------------------------------


def test_criterion_8_partial_sums_never_exceed_one():
    with criterion("8b (partial sums stay <= 1 exactly)"):
        for family in FamilyId:
            for stat in StatKind:
                report = tightness_report(family, stat, 10)
                assert report.partial_sum <= QuadraticNumber(1)
                assert report.deficiency >= QuadraticNumber(0)
        big = tightness_report(FamilyId.MOTZKIN, StatKind.VERTICES, 40)
        assert big.partial_sum <= QuadraticNumber(1)


# The Motzkin vertex terms are m(k)/3^k ~ sqrt(3/(4 pi)) k**-1.5, since
# M_n ~ sqrt(27/(4 pi)) 3^n n**-1.5 (Flajolet-Sedgewick, Analytic
# Combinatorics, VI), so the deficiency is 1 - S(K) ~ sqrt(3/pi)/sqrt(K)
# with a relative correction of order 1/K.
MOTZKIN_TAIL_CONSTANT = math.sqrt(3 / math.pi)
TAIL_LAW_TOLERANCE = 2e-3


def test_criterion_8_motzkin_partial_sum_at_40():
    with criterion("8a (Motzkin vertex deficiency at k_max=40 follows sqrt(3/pi)/sqrt(k_max))"):
        scaled = {
            k_max: float(tightness_report(FamilyId.MOTZKIN, StatKind.VERTICES, k_max).deficiency)
            * math.sqrt(k_max)
            for k_max in (20, 40)
        }
        extrapolated = 2 * scaled[40] - scaled[20]  # cancels the 1/k_max term
        relative_gap = extrapolated / MOTZKIN_TAIL_CONSTANT - 1
        assert abs(relative_gap) < TAIL_LAW_TOLERANCE, (
            f"sqrt(k_max) * deficiency is {scaled[20]:.6f} at k_max=20 and "
            f"{scaled[40]:.6f} at k_max=40; Richardson value {extrapolated:.6f} "
            f"misses sqrt(3/pi) = {MOTZKIN_TAIL_CONSTANT:.6f} by a relative "
            f"{relative_gap:.2e}, so the partial sums do not follow the "
            f"k**-1.5 tail law of the terms m(k)/3^k"
        )
