"""Tests for the resilient sweep: one bad cell must not sink the sweep."""

import json

import pytest

from repro.apps import synthetic_app
from repro.core import (
    failure_report,
    render_partial_table,
    resilient_sweep,
    run_application,
    save_failure_report,
)
from repro.xylem.params import XylemParams

_TINY = synthetic_app(
    n_steps=1, loops_per_step=1, n_outer=2, n_inner=8, iter_time_ns=20_000
)


def _run_cell_with_poison(poisoned, calls):
    def run_cell(app, n_proc):
        calls.append((app, n_proc))
        if (app, n_proc) in poisoned:
            raise RuntimeError(f"poisoned cell {app}/{n_proc}")
        return run_application(_TINY, n_proc, scale=1.0, os_params=XylemParams(seed=1))

    return run_cell


def test_failing_cell_is_isolated():
    calls = []
    run_cell = _run_cell_with_poison({("B", 4)}, calls)
    outcome = resilient_sweep(["A", "B"], configs=(1, 4), run_cell=run_cell)

    assert not outcome.ok
    assert outcome.failed_cells() == {("B", 4)}
    # All other cells completed despite the failure.
    assert sorted(outcome.results["A"]) == [1, 4]
    assert sorted(outcome.results["B"]) == [1]
    failure = outcome.failures[0]
    assert failure.error_type == "RuntimeError"
    assert failure.attempts == 2  # first try + one same-seed retry
    assert calls.count(("B", 4)) == 2


def test_retries_zero_means_single_attempt():
    calls = []
    run_cell = _run_cell_with_poison({("A", 1)}, calls)
    outcome = resilient_sweep(["A"], configs=(1,), retries=0, run_cell=run_cell)
    assert outcome.failures[0].attempts == 1
    assert calls == [("A", 1)]


def _tiny_cell(app, n_proc):
    return run_application(_TINY, n_proc, scale=1.0, os_params=XylemParams(seed=1))


@pytest.mark.parametrize(
    "path",
    [dict(run_cell=_tiny_cell), dict(scale=0.002, jobs=2)],
    ids=["serial", "pooled"],
)
def test_one_shot_configs_cover_every_app(path):
    # A configs iterator is consumed once, not once per app.
    outcome = resilient_sweep(["FLO52", "OCEAN"], configs=iter((1, 4)), **path)
    assert outcome.ok
    assert {app: sorted(by) for app, by in outcome.results.items()} == {
        "FLO52": [1, 4],
        "OCEAN": [1, 4],
    }


def test_negative_retries_rejected():
    with pytest.raises(ValueError, match="retries"):
        resilient_sweep(["A"], configs=(1,), retries=-1)


def test_partial_table_marks_failures():
    run_cell = _run_cell_with_poison({("B", 4)}, [])
    outcome = resilient_sweep(["A", "B"], configs=(1, 4), run_cell=run_cell)
    table = render_partial_table(outcome)
    assert "FAILED(RuntimeError)" in table
    assert "partial: 1 cell(s) failed" in table
    assert "ok" in table


def test_failure_report_round_trips(tmp_path):
    run_cell = _run_cell_with_poison({("B", 4)}, [])
    outcome = resilient_sweep(["A", "B"], configs=(1, 4), run_cell=run_cell)
    report = failure_report(outcome)
    assert report["schema"] == "cedar-repro/failure-report/v1"
    assert report["cells_ok"] == 3
    assert report["cells_failed"] == 1
    assert report["failures"][0]["app"] == "B"

    path = tmp_path / "failures.json"
    save_failure_report(outcome, path)
    assert json.loads(path.read_text()) == report


def test_clean_sweep_is_ok():
    run_cell = _run_cell_with_poison(set(), [])
    outcome = resilient_sweep(["A"], configs=(1, 4), run_cell=run_cell)
    assert outcome.ok
    assert outcome.failed_cells() == set()
    assert "partial" not in render_partial_table(outcome)
