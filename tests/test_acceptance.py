"""Acceptance suite: every criterion at its frozen tolerance, one line each."""

import csv
import dataclasses
import time

import pytest

from gatebound import pulses
from gatebound.cli import main
from gatebound.verify import CRITERIA, criterion_4, run_criteria


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    (result,) = run_criteria([number])  # times the criterion for its printed line
    print(result.line())
    assert result.passed, result.line()


def test_run_criteria_scales_each_tolerance_once():
    # a criterion returns its frozen tolerance; run_criteria applies the scale
    assert CRITERIA[1]().tolerance == 1e-10
    (result,) = run_criteria([1], 1e-12)
    assert result.tolerance == 1e-10 * 1e-12
    assert result.passed == (result.value <= result.tolerance)
    # passed is derived from value and tolerance, never stored beside them
    assert not dataclasses.replace(result, value=1e-20).passed
    assert dataclasses.replace(result, value=1e-20, tolerance=1e-10).passed
    # a criterion named twice runs once (verify-all --criteria 1,1)
    assert len(run_criteria([1, 1])) == 1


def test_criterion_4_screen_is_pinned(monkeypatch):
    # the least energy/bound ratio of the 1000 seeded random pulses: a change
    # to their random stream or to the projection moves it
    screens = []
    screen = pulses.random_feasible_ratios

    def recorded(*args, **kwargs):
        screens.append(screen(*args, **kwargs))
        return screens[-1]

    monkeypatch.setattr(pulses, "random_feasible_ratios", recorded)
    result = criterion_4()
    assert [len(ratios) for ratios in screens] == [1000]
    assert repr(float(min(screens[0]))) == "1.0431553669523255"
    assert result.detail == "min_photon=246.74011, min_ratio=1.043155367, equality_ratio=1.000000"


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
