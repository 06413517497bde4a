"""The CLI reproduces a stored set of outputs byte for byte."""

import pytest

from cli_golden import CASES, GOLDEN_DIR, run_case


def test_golden_set_is_complete():
    stored = {path.stem for path in GOLDEN_DIR.glob("*.out")}
    assert stored == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, text = run_case(CASES[name])
    assert code == 0
    expected = (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert text.encode("utf-8") == expected
