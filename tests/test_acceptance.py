"""Acceptance suite: every criterion at its frozen tolerance, one line each."""

import csv
import time

import pytest

from gatebound.cli import main
from gatebound.verify import CRITERIA


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    result = CRITERIA[number]()
    print(result.line())
    assert result.passed, result.line()


def test_verify_all_cli_end_to_end(tmp_path):
    out = tmp_path / "verify"
    start = time.perf_counter()
    rc = main(["verify-all", "--output", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    with open(out / "verification.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(CRITERIA)
    assert all(row["passed"] == "true" for row in rows)
    assert elapsed < 180.0, f"verify-all took {elapsed:.1f}s, budget is 3 minutes"
