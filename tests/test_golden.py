"""Golden parity: small runs must reproduce their pinned outputs exactly.

Floats are compared through their ``repr`` text, so any last-bit change in a
report value, and any change to the event log, fails the test.
"""

from __future__ import annotations

import pytest

from golden.cases import CASES, dumps, golden_path, pinned, run_case
from invariants import check_invariants


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run_matches_pin(name, tmp_path):
    result = run_case(name, tmp_path)
    check_invariants(result)
    assert dumps(pinned(result)) == golden_path(name).read_text()
