"""Seeded workloads, their query universes and the exact-answer gate.

A workload is a closed loop with one client.  Each *pass* is the list of
queries that ``generate(workload, seed)`` returns; the runner repeats
passes until its time is up.  The seed chooses the mix, the order and the
repeats of queries, always from the fixed universe that ``universe()``
lists, and every query in that universe has its exact answer stored (as a
digest of its parsed value) in ``answers.json``.

Every pass is stratified: the seed picks freely inside each cost class, but
the number of queries per class is fixed.  Costs differ by orders of
magnitude between classes (a cold fit at k = 20 against a monomial root GF),
so without strata the wall time of a pass would measure the seed, not the
program.

Queries are tuples.  For the CLI workloads the tuple is the argument list
of ``treecensus`` (``{golden}`` stands for a temporary file); for the
library workloads it is ``(function name, *arguments)``.  The key of a
query, used in ``answers.json``, is its items joined by spaces.
"""

from __future__ import annotations

import hashlib
import json
import random

FAMILIES = ("motzkin", "ordered", "fullbinary", "schroeder")
STATS = ("vertices", "leaves")
# Exhaustive-enumeration budgets of ``treecensus verify`` (oracle.DEFAULT_BUDGETS).
BUDGETS = {"motzkin": 14, "ordered": 12, "fullbinary": 12, "schroeder": 10}
GOLDEN = "{golden}"

CLI_WORKLOADS = ("limits", "verify")
LIB_WORKLOADS = ("finite-size", "fixed-point")
WORKLOADS = CLI_WORKLOADS + LIB_WORKLOADS

# Passes a run makes at least.  With the pass lengths below this fixes the
# sample of calls, and so the tail percentile, of every workload.
MIN_PASSES = {"limits": 2, "verify": 2, "finite-size": 1, "fixed-point": 2}


def key(query) -> str:
    return " ".join(str(item) for item in query)


# -- limits: cold `table`, `prob` (limit only) and `tightness` ------------------

# Pairs whose root GF is a monomial: a cold call costs little more than
# interpreter start-up.
_MONOMIAL_PAIRS = (
    ("motzkin", "vertices"),
    ("ordered", "vertices"),
    ("fullbinary", "vertices"),
    ("fullbinary", "leaves"),
    ("schroeder", "leaves"),
)


def _limit_queries(family, stat, k_specs, k_maxes):
    common = ("--family", family, "--stat", stat)
    out = []
    for spec in k_specs:
        out.append(("table",) + common + ("--k", spec, "--format", "json"))
        out.append(("prob",) + common + ("--k", spec, "--format", "json"))
    for k_max in k_maxes:
        out.append(("tightness",) + common + ("--k-max", str(k_max), "--format", "json"))
    return out


def _limits_classes():
    specs = [str(k) for k in range(1, 25)] + [f"1..{b}" for b in range(4, 25, 4)]
    monomial = []
    for family, stat in _MONOMIAL_PAIRS:
        monomial += _limit_queries(family, stat, specs, range(8, 41, 8))
    # A polynomial root GF: a cheap fit at any k.
    schroeder = _limit_queries("schroeder", "vertices", specs, range(8, 25, 8))
    # Fitted root GFs whose Pade fit needs the bivariate series at x-order 64.
    # Tightness fits every k up to k_max, so it is a class of its own.
    motzkin_64 = _limit_queries("motzkin", "leaves", [str(k) for k in range(1, 15)], ())
    motzkin_tight = _limit_queries("motzkin", "leaves", (), range(12, 15))
    # Ordered leaf calls at one k and ordered tightness sums cost alike.
    ordered = _limit_queries("ordered", "leaves", [str(k) for k in range(1, 13)], range(6, 9))
    # k = 15..22 pushes the fit to x-order 96: the growth of the fit with k.
    motzkin_96 = _limit_queries("motzkin", "leaves", [str(k) for k in range(15, 23)], ())
    return {
        "monomial": monomial,
        "schroeder": schroeder,
        "motzkin_64": motzkin_64,
        "motzkin_tight": motzkin_tight,
        "ordered": ordered,
        "motzkin_96": motzkin_96,
    }


# Calls per pass of each class above the monomial block.
_LIMITS_COUNTS = {
    "schroeder": 1,
    "motzkin_64": 6,
    "motzkin_tight": 1,
    "ordered": 1,
    "motzkin_96": 1,
}
_MONOMIAL_PER_PAIR = 4


def _spread(rng, queries, count):
    """One query from each of ``count`` equal slices of ``queries`` (repeated
    when shorter than ``count``): the picks cover the class, small and large
    arguments alike, whatever the seed."""
    pool = list(queries) * -(-count // len(queries))
    size = len(pool) / count
    return [[rng.choice(pool[round(i * size):round((i + 1) * size)])] for i in range(count)]


def _gen_limits(rng):
    classes = _limits_classes()
    by_pair = {}
    for q in classes["monomial"]:
        by_pair.setdefault((q[2], q[4]), []).append(q)
    # 30 calls a pass, at least 60 a run: the monomial calls (two thirds)
    # hold the median, and the fits at x-order 64 sit under the three dearest
    # calls of each pass, so the tail (the 11th slowest of two passes) is the
    # 5th slowest of those 12 fits.
    units = [unit for qs in by_pair.values() for unit in _spread(rng, qs, _MONOMIAL_PER_PAIR)]
    for name, count in _LIMITS_COUNTS.items():
        units += _spread(rng, classes[name], count)
    return units


# -- verify: cold `verify` calls --------------------------------------------------


def _verify(family, n_max):
    return ("verify", "--family", family, "--n-max", str(n_max), "--format", "json")


def _round_trip(family, n_max):
    head = ("verify", "--family", family, "--n-max", str(n_max))
    return [head + ("--write-golden", GOLDEN, "--format", "json"),
            head + ("--golden", GOLDEN, "--format", "json")]


_ROUND_TRIP = "fullbinary"


def _gen_verify(rng):
    # The full verify covers every family at its budget, where enumeration
    # dominates; each family also runs once just below its budget.
    units = [[("verify", "--format", "json")]]
    units += [[_verify(family, BUDGETS[family] - 1)] for family in FAMILIES]
    budget = BUDGETS[_ROUND_TRIP]
    units.append(_round_trip(_ROUND_TRIP, rng.randint(budget - 4, budget - 2)))
    # Smaller sizes only for the leaf-counted families: for the other two a
    # small verify is dominated by the leaf total's bivariate series, which
    # the limits workload already measures.  Every Schroeder size from 1 to
    # 8 runs once a pass; with the Schroeder and full binary calls below
    # their budgets, which cost about the same, they hold both the median
    # (18.5th slowest of two passes) and the tail (11th slowest).
    units += _spread(rng, [_verify("fullbinary", n) for n in range(1, BUDGETS["fullbinary"] - 1)], 3)
    units += _spread(rng, [_verify("schroeder", n) for n in range(1, BUDGETS["schroeder"] - 1)], 8)
    return units


def _verify_universe():
    out = [("verify", "--format", "json")]
    for family in FAMILIES:
        out += [_verify(family, n) for n in range(1, BUDGETS[family] + 1)]
    for n in range(BUDGETS[_ROUND_TRIP] - 4, BUDGETS[_ROUND_TRIP] - 1):
        out += _round_trip(_ROUND_TRIP, n)
    return out


# -- finite-size: one warm library process per pass ------------------------------

_KS = (1, 2, 3, 4)
_N_SMALL = tuple(range(1, 17))
_N_RICHARDSON = tuple(n + d for n in (150, 300, 600) for d in (-2, -1, 0, 1, 2))
_N_BEYOND = (610, 620, 630, 640)
_NS = _N_SMALL + _N_RICHARDSON + _N_BEYOND
_N_LARGE = _N_RICHARDSON[-5:] + _N_BEYOND  # 598..602 and 610..640
_DENSE = (("motzkin", "leaves"), ("ordered", "leaves"))  # root GF with a denominator
_DENSE_ORDERS = (298, 299, 300, 301, 302)
_ORDERS = (8, 16, 32, 64, 150) + _DENSE_ORDERS + (600, 640)


def _finite_universe():
    out = []
    for family in FAMILIES:
        for stat in STATS:
            for k in _KS:
                out += [("finite_probability", family, stat, k, n) for n in _NS]
                out += [("census_coefficient", family, stat, k, n) for n in _NS]
                out += [("census_series", family, stat, k, order) for order in _ORDERS]
                out.append(("limit_probability", family, stat, k))
    return out


def _near(rng, n):
    """A size next to n, so bucketed caches are shared."""
    i = _N_LARGE.index(n) + rng.choice((-1, 0, 1))
    return _N_LARGE[min(max(i, 0), len(_N_LARGE) - 1)]


def _gen_finite(rng):
    units = []
    # limit_probability(check=True) sums finite probabilities at 150/300/600,
    # so every family pays its order-640 series once per pass.
    for family in FAMILIES:
        units.append([("limit_probability", family, rng.choice(STATS), rng.choice(_KS))])
    # After those first touches the 12 dense census series are the slowest
    # calls, so the tail (11th slowest of 60) is one of them.
    for _ in range(12):
        family, stat = rng.choice(_DENSE)
        units.append([("census_series", family, stat, rng.choice(_KS), rng.choice(_DENSE_ORDERS))])
    light = [(f, s) for f in FAMILIES for s in STATS if (f, s) not in _DENSE]
    for _ in range(4):
        family, stat = rng.choice(light)
        units.append([("census_series", family, stat, rng.choice(_KS), rng.choice(_ORDERS))])
    point = ("finite_probability", "census_coefficient")
    for _ in range(8):
        units.append([(rng.choice(point), rng.choice(FAMILIES), rng.choice(STATS), rng.choice(_KS), rng.choice(_N_SMALL))])
    # Eight clusters of four Motzkin leaf probabilities at nearby sizes past
    # 600: the first query for each k expands the root GF, the others reuse
    # it.  These warm queries hold the median call; k = 1, whose root GF
    # costs more to convolve, is left out so that every cluster costs alike.
    for _ in range(8):
        k, n = rng.choice(_KS[1:]), rng.choice(_N_LARGE)
        for _ in range(4):
            units.append([("finite_probability", "motzkin", "leaves", k, n)])
            n = _near(rng, n)
    return units


# -- fixed-point: fixed_point_solve over distinct (family, order) pairs -----------

# Narrow order bands: the cost grows like order**3, so wide bands would let
# the seed, not the program, set the wall time of a pass.  A Schroeder sweep
# costs about twice a Motzkin, ordered or full binary one, so its high band
# is lower, where a solve costs about what the others cost at 78 to 82.
_FP_MID = tuple(range(48, 53))
_FP_HIGH = {
    "motzkin": tuple(range(78, 83)),
    "ordered": tuple(range(78, 83)),
    "fullbinary": tuple(range(78, 83)),
    "schroeder": tuple(range(64, 69)),
}


def _fixed_universe():
    return [("fixed_point_solve", f, o) for f in FAMILIES for o in _FP_MID + _FP_HIGH[f]]


def _gen_fixed(rng):
    # One mid order and three high orders per family: the 12 high-order
    # solves of a pass cost alike, so both the median and the tail (the
    # 11th slowest of two passes) fall well inside them.
    units = []
    for family in FAMILIES:
        orders = [rng.choice(_FP_MID)] + rng.sample(_FP_HIGH[family], 3)
        units += [[("fixed_point_solve", family, o)] for o in orders]
    return units


# -- public API ------------------------------------------------------------------

_GENERATORS = {
    "limits": _gen_limits,
    "verify": _gen_verify,
    "finite-size": _gen_finite,
    "fixed-point": _gen_fixed,
}


def generate(workload: str, seed: int) -> "list[tuple]":
    """The seeded pass of a workload: the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    units = _GENERATORS[workload](rng)
    rng.shuffle(units)  # a unit (a golden write and its check) stays in order
    return [q for unit in units for q in unit]


def universe(workload: str) -> "list[tuple]":
    """Every query the generator of a workload can emit."""
    if workload == "limits":
        return [q for qs in _limits_classes().values() for q in qs]
    if workload == "verify":
        return _verify_universe()
    if workload == "finite-size":
        return _finite_universe()
    if workload == "fixed-point":
        return _fixed_universe()
    raise KeyError(workload)


def tail_percentile(workload: str) -> float:
    """The highest percentile with at least 10 calls beyond it in the
    smallest sample a run takes (MIN_PASSES passes)."""
    n = MIN_PASSES[workload] * len(generate(workload, 0))
    return 100.0 * (n - 10) / n


# -- exact-answer gate -------------------------------------------------------------


def digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _exact(entry):
    return [entry["rational_part"], entry["radical_part"], entry["radicand"]]


def cli_value(query, payload, golden_text=None):
    """The values of a CLI json result that the gate compares.

    Only values are taken, so a later release may add fields (such as a
    provenance record) or reorder keys without failing the gate.
    Raises ``ValueError`` for a result that checked nothing.
    """
    command = query[0]
    if command == "table":
        return [[r["k"], _exact(r["exact"]), r["root_gf"], r["erratum"]] for r in payload["rows"]]
    if command == "prob":
        return [[r["k"], _exact(r["exact"])] for r in payload["rows"]]
    if command == "tightness":
        return [
            payload["k_max"],
            [_exact(t["term"]) for t in payload["terms"]],
            _exact(payload["partial_sum"]),
            _exact(payload["deficiency"]),
        ]
    if command == "verify":
        families = [
            [f["family"], f["n_max"], f["checks"], f["passed"], len(f["mismatches"])]
            for f in payload["families"]
        ]
        if not families or any(f[2] < 1 for f in families):
            raise ValueError("verify reported a family with zero checks")
        golden = payload.get("golden")
        if golden is not None:
            if golden["checked"] < 1:
                raise ValueError("golden check compared zero rows")
            golden = [golden["checked"], golden["passed"], len(golden["mismatches"])]
        value = [families, golden, payload["passed"]]
        if "--write-golden" in query:
            rows = [line.split(",") for line in golden_text.splitlines()[1:] if line]
            if not rows:
                raise ValueError("golden file holds no rows")
            value.append(sorted(rows))
        return value
    raise KeyError(command)


def lib_value(result):
    """The values of a library result that the gate compares."""
    if hasattr(result, "exact_value"):  # AsymptoticProbability
        value = [_quadratic(result.exact_value), result.method]
        diag = result.diagnostics
        if diag is not None:
            value.append([
                list(diag.sizes),
                [str(p) for p in diag.probabilities],
                str(diag.extrapolate),
                _quadratic(diag.gap),
            ])
        return value
    if hasattr(result, "coefficients"):  # PowerSeries
        return [str(c) for c in result.coefficients]
    return str(result)  # Fraction or int


def _quadratic(q):
    return [str(q.rational_part), str(q.radical_part), q.radicand]


def check(query, value_digest, answers) -> bool:
    """True when a result's digest equals the stored exact answer."""
    stored = answers.get(key(query))
    return stored is not None and stored == value_digest
