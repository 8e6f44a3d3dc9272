"""Acceptance gate: every criterion runs at its pinned tolerance.

One pass/fail line is printed per criterion (visible with ``pytest -s`` or
on failure).  The criteria and all tolerances live in ``minsurf.verify``;
this module only drives them and asserts the outcomes, plus the global
runtime budget and report determinism.
"""

import time

import pytest

from minsurf.verify import CRITERIA, report_to_json, run_suite


@pytest.fixture(scope="module")
def full_run():
    """The full suite's report and its elapsed seconds, run once per module."""
    start = time.perf_counter()
    report = run_suite()
    return report, time.perf_counter() - start


@pytest.mark.parametrize("check_id", list(CRITERIA))
def test_criterion(check_id, full_run):
    report, _ = full_run
    (result,) = [r for r in report["checks"] if r["check_id"] == check_id]
    status = "PASS" if result["passed"] else "FAIL"
    print(f"{status} {check_id}: max residual {result['max_residual']:.3e} "
          f"(tolerance {result['tolerance']:.3e}, grid {result['grid']})")
    failed = {name: item for name, item in result["details"].items()
              if not item["passed"]}
    assert result["passed"], f"{check_id} failed sub-checks: {failed}"


def test_full_suite_passes_within_runtime_budget(full_run):
    report, elapsed = full_run
    assert report["summary"]["all_passed"], report["summary"]
    assert report["summary"]["total"] == len(CRITERIA)
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s, budget is 2 minutes"


def test_report_is_deterministic():
    subset = ["01-rotation-split", "09-image-minimality"]
    first = report_to_json(run_suite(subset))
    second = report_to_json(run_suite(subset))
    assert first == second


def test_every_criterion_appears_exactly_once(full_run):
    report = run_suite(["01-rotation-split", "02-axis-distance-extrema"])
    ids = [c["check_id"] for c in report["checks"]]
    assert len(ids) == len(set(ids))
    full, _ = full_run
    ids = [c["check_id"] for c in full["checks"]]
    assert ids == list(CRITERIA)
