"""Exact subtree-statistic censuses for four planar tree families.

For Motzkin, ordered, full binary and Schroeder trees, this package
computes the generating functions counting vertices whose subtree has
k vertices or k leaves, the exact finite-size probabilities of those
events, and their limits in the appropriate quadratic field — and
cross-checks everything against exhaustive enumeration.
"""

__version__ = "1.0.0"

# Each submodule and the public names it defines.  Names resolve on first
# access (PEP 562), so ``import treecensus.cli`` loads only what the CLI
# imports itself.
_SUBMODULE_NAMES = {
    "asymptotics": (
        "AsymptoticProbability",
        "ConvergenceRecord",
        "TightnessReport",
        "limit_probability",
        "richardson_check",
        "tightness_report",
    ),
    "errata": ("ERRATA", "PUBLISHED_TABLES", "Erratum", "PublishedRow", "published_row"),
    "families": (
        "FAMILIES",
        "DomainError",
        "FamilyDescriptor",
        "FamilyId",
        "SolverError",
        "StatKind",
        "census_coefficient",
        "census_series",
        "clear_caches",
        "counting_coefficient",
        "counting_series",
        "descriptor",
        "finite_probability",
        "fixed_point_solve",
        "max_stat_value",
        "multiplier_gf",
        "root_stat_gf",
        "total_leaves",
        "total_vertices",
    ),
    "oracle": (
        "BudgetError",
        "DEFAULT_BUDGETS",
        "aggregate_census",
        "verify_family",
    ),
    "quadratic": ("QuadraticNumber",),
    "ratfunc": ("PoleError", "RationalFunction"),
    "series": (
        "PowerSeries",
        "SeriesError",
        "TruncationError",
    ),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(__all__))
