"""Import footprint of a cold CLI process and the lazily resolved package namespace."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import treecensus

SRC = Path(treecensus.__file__).resolve().parents[1]

# Prints the modules that `import treecensus` adds to a bare interpreter,
# a separator line, then those that `import treecensus.cli` adds after it.
_ADDED_MODULES = """
import sys
seen = set(sys.modules)
import treecensus
print(*sorted(set(sys.modules) - seen))
print("--")
seen = set(sys.modules)
import treecensus.cli
print(*sorted(set(sys.modules) - seen))
"""


def _added_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _ADDED_MODULES], env=env, capture_output=True, text=True, check=True
    )
    package, separator, cli = done.stdout.splitlines()
    assert separator == "--"
    return set(package.split()), set(cli.split())


# The package modules a cold CLI process loads: no oracle and nothing only
# the tests use.
CLI_MODULES = {
    f"treecensus.{name}"
    for name in ("cli", "families", "asymptotics", "quadratic", "ratfunc", "series", "render", "errata")
}


def test_cold_cli_import_skips_dataclasses_and_oracle():
    package, cli = _added_modules()
    assert package == {"treecensus"}  # the bare package loads no submodule
    assert {name for name in cli if name.startswith("treecensus.")} == CLI_MODULES
    assert "dataclasses" not in cli
    assert "treecensus.oracle" not in cli


def test_public_names_resolve_to_their_submodule_objects():
    assert treecensus.__all__ == sorted(set(treecensus.__all__))
    for name in treecensus.__all__:
        module = import_module(f"treecensus.{treecensus._SUBMODULE[name]}")
        value = getattr(treecensus, name)
        assert value is getattr(module, name), name
        if hasattr(value, "__qualname__"):  # classes and functions: defined there
            assert value.__module__ == module.__name__, name
    assert set(treecensus.__all__) <= set(dir(treecensus))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from treecensus import *", namespace)
    for name in treecensus.__all__:
        assert namespace[name] is getattr(treecensus, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        treecensus.no_such_name
    assert not hasattr(treecensus, "FamilyID")  # a near miss of FamilyId
    with pytest.raises(ImportError):
        exec("from treecensus import no_such_name", {})


def test_clear_caches_never_imports_the_oracle():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, treecensus; treecensus.clear_caches(); print('treecensus.oracle' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False"]


def test_cold_cli_derives_no_family_spec():
    # the spec and both series are derived on first use, not at import
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import treecensus.cli as cli, treecensus.families as f; cli.build_parser(); "
        "print(f._spec.cache_info().currsize, len(f._held_series), len(f._held_sums))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", "0", "0"]
