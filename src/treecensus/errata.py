"""Published reference tables and the errata ledger.

``PUBLISHED_TABLES`` transcribes, verbatim, the probability tables of
the source text this package recomputes (locations cited by section).
``ERRATA`` documents every place where the exact computation — cross
checked against exhaustive enumeration — disagrees with the printed
values or intermediate formulas.  Each entry quotes the printed
content, states the computed correction, and names the derivation
route that adjudicated it.
"""

from __future__ import annotations

from typing import NamedTuple

from .families import FamilyId, StatKind


class PublishedRow(NamedTuple):
    gf_text: str  # root-statistic GF as printed
    probability_text: str  # probability as printed


# (family, statistic) -> {k: printed row}
PUBLISHED_TABLES: "dict[tuple[FamilyId, StatKind], dict[int, PublishedRow]]" = {
    (FamilyId.MOTZKIN, StatKind.VERTICES): {  # section 2.1
        1: PublishedRow("x", "0.33333333"),
        2: PublishedRow("2x^2", "0.22222222"),
        3: PublishedRow("4x^3", "0.14814815"),
        4: PublishedRow("9x^4", "0.11111111"),
        5: PublishedRow("21x^5", "0.086419753"),
        6: PublishedRow("51x^6", "0.069958848"),
    },
    (FamilyId.MOTZKIN, StatKind.LEAVES): {  # section 2.2
        1: PublishedRow("x/(1-x)", "0.5"),
        2: PublishedRow("x^3/(1-x)^3", "0.125"),
        3: PublishedRow("2x^5/(1-x)^5", "0.0625"),
        4: PublishedRow("5x^7/(1-x)^7", "0.0391"),
        5: PublishedRow("14x^9/(1-x)^9", "0.02734"),
        6: PublishedRow("42x^11/(1-x)^11", "0.02051"),
    },
    (FamilyId.ORDERED, StatKind.VERTICES): {  # section 3.1
        1: PublishedRow("x", ".5"),
        2: PublishedRow("x^2", ".125"),
        3: PublishedRow("2x^3", "0.0625"),
        4: PublishedRow("5x^4", "0.03906"),
        5: PublishedRow("14x^5", "0.02734"),
        6: PublishedRow("42x^6", "0.02051"),
        7: PublishedRow("132x^7", "0.0161133"),
    },
    (FamilyId.ORDERED, StatKind.LEAVES): {  # section 3.2
        1: PublishedRow("x/(1-x)", "0.666666667"),
        2: PublishedRow("x^3/(1-x)^3", "0.07407407"),
        3: PublishedRow("(x^4+x^5)/(1-x)^5", "0.04115226"),
        4: PublishedRow("(x^5+3x^6+x^7)/(1-x)^7", "0.0265203475"),
    },
    (FamilyId.FULL_BINARY, StatKind.VERTICES): {  # section 4.1
        1: PublishedRow("x", ".5"),
        2: PublishedRow("0", "0"),
        3: PublishedRow("x^2", "0.125"),
        4: PublishedRow("0", "0"),
        5: PublishedRow("2x^3", "0.0625"),
        6: PublishedRow("0", "0"),
        7: PublishedRow("5x^4", "0.0161133"),
    },
    (FamilyId.FULL_BINARY, StatKind.LEAVES): {  # section 4.2
        1: PublishedRow("x", ".5"),
        2: PublishedRow("x^2", ".125"),
        3: PublishedRow("2x^3", "0.0625"),
        4: PublishedRow("5x^4", "0.03906"),
        5: PublishedRow("14x^5", "0.02734"),
        6: PublishedRow("42x^6", "0.02051"),
        7: PublishedRow("132x^7", "0.0161133"),
    },
    (FamilyId.SCHROEDER, StatKind.VERTICES): {  # section 5.1
        1: PublishedRow("x", ".2929"),
        2: PublishedRow("0", "0"),
        3: PublishedRow("x^2", "0.0503"),
        4: PublishedRow("x^3", "0.0086"),
        5: PublishedRow("2x^3+x^4", "0.0187"),
        6: PublishedRow("5x^4+x^5", "0.0076"),
        7: PublishedRow("5x^4+9x^5+x^6", "0.0097"),
    },
    (FamilyId.SCHROEDER, StatKind.LEAVES): {  # section 5.2
        1: PublishedRow("x", "0.2929"),
        2: PublishedRow("x^2", "0.0503"),
        3: PublishedRow("3x^3", "0.0259"),
        4: PublishedRow("11x^4", "0.0163"),
        5: PublishedRow("45x^5", "0.0114"),
        6: PublishedRow("197x^6", "0.0086"),
        7: PublishedRow("903x^7", "0.0067"),
    },
}


def published_row(family: FamilyId, stat: StatKind, k: int) -> "PublishedRow | None":
    return PUBLISHED_TABLES.get((family, stat), {}).get(k)


class Erratum(NamedTuple):
    ident: str
    location: str
    printed: str
    computed: str
    note: str
    derivation: str


ERRATA: "tuple[Erratum, ...]" = (
    Erratum(
        ident="motzkin-vertex-rows-shifted",
        location="section 2.1 table, rows k >= 2",
        printed='R_2 = "2x^2", R_3 = "4x^3", R_4 = "9x^4", R_5 = "21x^5", R_6 = "51x^6"',
        computed="R_k = m(k) x^k: x^2, 2x^3, 4x^4, 9x^5, 21x^6; probabilities m(k)/3^k = 1/9, 2/27, 4/81, 9/243, 21/729",
        note="the printed rows use the count for k+1 vertices in place of k, shifting the whole column by one",
        derivation="exhaustive enumeration of all trees with up to 14 vertices; series expansion of the counting closed form",
    ),
    Erratum(
        ident="fullbinary-vertex-k7",
        location="section 4.1 table, row k = 7",
        printed='"0.0161133"',
        computed="2 * 5 * (1/4)^4 = 5/128 = 0.0390625",
        note="the printed value duplicates the k = 7 entry of the section 3.1 and 4.2 tables instead of evaluating 5x^4",
        derivation="exact evaluation of the transfer step; Richardson extrapolation of finite-size censuses at n = 150/300/600 confirms 5/128",
    ),
    Erratum(
        ident="ordered-census-recurrence-missing-x",
        location="section 3.1, displayed recurrences (14) and (15)",
        printed='"L_k(x)=R_k(x)+L_k(x)+2L_k(x)T(x)+..." and "L_k(x)=R_k(x)+L_k(x)/(1-T(x))^2"',
        computed="census = R_k + x * census / (1-T)^2 (root removal must weight the removed root by x)",
        note="as printed the recurrence contradicts the closed form (13); with the x factor restored it reproduces (13) exactly",
        derivation="series identity (1 - x/(1-T)^2) * multiplier = 1, checked coefficient-wise to order 200",
    ),
    Erratum(
        ident="schroeder-census-recurrence-denominator",
        location="section 5.1, displayed recurrence (36)",
        printed='"T_k(x)=R_k(x)+T_k(x) S(x)/(1-S(x))^2"',
        computed="T_k = R_k + T_k (2S - S^2)/(1-S)^2, since sum of m S^(m-1) over m >= 2 equals (2S - S^2)/(1-S)^2",
        note="the printed denominator drops one term of the derivative sum and is inconsistent with the closed form (34)",
        derivation="series identity (1 - (2S-S^2)/(1-S)^2) * multiplier = 1 to order 200; numeric check of both forms at x = 1/10",
    ),
    Erratum(
        ident="ordered-vertex-total-lemma",
        location="section 3, vertex-total lemma",
        printed='"V(n) ~ binom(2n+2, n+1)"',
        computed="V(n) = n * t(n) = binom(2n-2, n-1) exactly",
        note="the printed asymptotic is 16 times the true count; only ratios enter the probabilities so the tables are unaffected",
        derivation="exhaustive enumeration (n <= 12) and the exact identity n * Catalan(n-1) = binom(2n-2, n-1)",
    ),
    Erratum(
        ident="ordered-vertex-table-header",
        location="section 3.1 table header",
        printed='"Probability the subtree has k leaves"',
        computed="the column tabulates the k-vertices statistic",
        note="header typo; the surrounding section and the values are about subtree vertex counts",
        derivation="values match R_k = t_k x^k evaluated at 1/4 with constant 2; leaf values would differ",
    ),
    Erratum(
        ident="schroeder-leaf-probability-constant",
        location="section 5, leaf-probability corollary (33)",
        printed='"(1+sqrt(2))/(sqrt(2)(3+sqrt(8))) ~ .293"',
        computed="sqrt(2)(1+sqrt(2))/(3+sqrt(8)) = 2 - sqrt(2) = 0.5857864...",
        note="combining the displayed l(n) and V(n) asymptotics puts the sqrt(2) in the numerator; as printed the constant is exactly half the limit, and a value below 1/2 is impossible because a tree with n leaves has fewer than 2n vertices",
        derivation="exact leaf/vertex ratios l(n)/V(n) = 9/14, 44/70, 225/363, ... extrapolate to 0.585786 (enumeration to n = 10, series to n = 600)",
    ),
    Erratum(
        ident="schroeder-probability-columns-halved",
        location="sections 5.1 and 5.2, probability columns",
        printed='".2929, 0.0503, 0.0086, 0.0187, ..." and "0.2929, 0.0503, 0.0259, 0.0163, ..."',
        computed="exactly twice each printed value (k = 2 vertices row stays 0), e.g. k = 1 gives 2 - sqrt(2) = 0.5858 and leaves k = 4 gives 0.0326",
        note="propagation of the halved constant of corollary (33) through every row of both tables",
        derivation="normalization constant 2 + sqrt(2) re-derived from finite-size censuses by Richardson extrapolation at n = 150/300/600, matching the exact singular expansion",
    ),
    Erratum(
        ident="ordered-bivariate-radicand",
        location="section 3.2, bivariate closed form (16)",
        printed='radicand "x^2y^2-2xy^2+x^2-2xy-2x+1"',
        computed="radicand (xy-x+1)^2 - 4xy = x^2y^2 - 2x^2y + x^2 + 2xy - 2x + 1 - 4xy",
        note="the -2xy^2 term should be -2x^2y; as printed the radicand does not reduce to 1-4x at y = 1 and contradicts the quadratic (18)",
        derivation="the corrected closed form matches the bivariate fixed point coefficient-for-coefficient at small orders; the printed one fails at x^2 y",
    ),
)


def erratum_by_id(ident: str) -> Erratum:
    for e in ERRATA:
        if e.ident == ident:
            return e
    raise KeyError(ident)
