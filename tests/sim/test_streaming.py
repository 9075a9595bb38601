"""Tests for ``run_many(..., stream=)``: a FleetResult view of the sweep."""

import io
from dataclasses import asdict

import pytest

from repro.faults import FaultEvent, FaultPlan
from repro.obs.streaming import FleetResult, ProgressMonitor
from repro.sim import (
    RunSpec,
    ScenarioConfig,
    combined_telemetry,
    run_many,
)

_QUICK = dict(duration_s=30.0, warmup_s=5.0)


def _specs(count=4, scenario="two-region-hnspf"):
    return [
        RunSpec(scenario, ScenarioConfig(**_QUICK, seed=seed))
        for seed in range(1, count + 1)
    ]


def _comparable(telemetry):
    """Telemetry dict minus the wall-clock (nondeterministic) fields."""
    values = telemetry.to_dict()
    values.pop("wall_s")
    values.pop("phase_wall_s")
    return values


# ----------------------------------------------------------------------
# Progress monitor
# ----------------------------------------------------------------------
def test_progress_monitor_counts_and_eta():
    clock = iter([0.0, 10.0, 10.0, 10.0, 10.0]).__next__
    monitor = ProgressMonitor(4, clock=clock)
    assert monitor.eta_s is None
    monitor.note_started(0)
    monitor.note_completed(0)
    monitor.note_failed(1)
    # 2 finished in 10 s -> 2 remaining take ~10 s more.
    assert monitor.finished == 2
    assert monitor.eta_s == pytest.approx(10.0)
    assert "runs 2/4 done" in monitor.status()
    assert "1 failed" in monitor.status()


def test_progress_monitor_status_line_renders_and_closes():
    stream = io.StringIO()
    monitor = ProgressMonitor(2, status_line=True, stream=stream)
    monitor.note_completed(0)
    monitor.close()
    output = stream.getvalue()
    assert "runs 1/2 done" in output
    assert output.endswith("\n")
    # close() is idempotent and quiet without a line open.
    monitor.close()


# ----------------------------------------------------------------------
# End-to-end equivalence (acceptance criterion)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def batch_baseline():
    specs = _specs()
    reports = run_many(specs, processes=2)
    return specs, reports, combined_telemetry(reports)


@pytest.mark.slow
def test_streaming_equals_combined_telemetry_pooled(batch_baseline):
    specs, reports, combined = batch_baseline
    fleet = run_many(specs, processes=2, stream=True)
    assert isinstance(fleet, FleetResult)
    assert fleet.ok
    assert _comparable(fleet.telemetry) == _comparable(combined)
    # The fleet's reports are the batch path's reports, field for field.
    for rebuilt, reference in zip(fleet.reports, reports):
        assert asdict(rebuilt) == asdict(reference)
        assert rebuilt.telemetry is not None
    assert fleet.progress.completed == len(specs)


def test_streaming_equals_combined_telemetry_serial(batch_baseline):
    specs, reports, combined = batch_baseline
    fleet = run_many(specs, processes=1, stream=True)
    assert _comparable(fleet.telemetry) == _comparable(combined)
    for rebuilt, reference in zip(fleet.reports, reports):
        assert asdict(rebuilt) == asdict(reference)


def test_streaming_collects_failures():
    specs = _specs(2) + [
        RunSpec("_poison-fail", ScenarioConfig(**_QUICK, seed=9))
    ]
    fleet = run_many(specs, processes=1, stream=True, on_error="collect")
    assert not fleet.ok
    assert [r is not None for r in fleet.reports] == [True, True, False]
    [failure] = fleet.failures
    assert (failure.scenario, failure.seed) == ("_poison-fail", 9)
    assert failure.index == 2
    assert fleet.progress.failed == 1
    # The two completed runs still aggregated.
    assert fleet.telemetry.runs == 2


def test_streaming_raises_on_first_failure_by_default():
    from repro.sim import RunFailedError

    specs = [RunSpec("_poison-fail", ScenarioConfig(**_QUICK, seed=3))]
    with pytest.raises(RunFailedError, match="_poison-fail"):
        run_many(specs, processes=1, stream=True)


# ----------------------------------------------------------------------
# The fleet is a view over the one sweep
# ----------------------------------------------------------------------
def test_fleet_reports_are_the_worker_reports():
    """Reports keep every attribute a run attaches, and the fleet
    telemetry is exactly their combined telemetry."""
    plan = FaultPlan(events=(
        FaultEvent(10.0, "fail-circuit", link_id=0),
        FaultEvent(15.0, "restore-circuit", link_id=0),
    ))
    specs = [
        RunSpec("two-region-hnspf", ScenarioConfig(
            **_QUICK, seed=seed, faults=plan, check_invariants=True,
        ))
        for seed in (1, 2)
    ]
    fleet = run_many(specs, processes=1, stream=True)
    for report in fleet.reports:
        assert report.telemetry is not None
        assert report.resilience is not None
        assert report.invariant_violations == []
    combined = combined_telemetry(fleet.reports)
    assert fleet.telemetry.to_dict() == combined.to_dict()
    assert fleet.progress.started == fleet.progress.completed == 2


@pytest.mark.slow
def test_pooled_streaming_blames_only_the_crashing_spec():
    """A worker crash is pinned on its spec; the runs that shared the
    broken pool with it complete and equal their serial runs."""
    specs = _specs(3) + [
        RunSpec("_poison-exit", ScenarioConfig(**_QUICK, seed=13))
    ]
    fleet = run_many(specs, processes=2, stream=True, on_error="collect")
    assert [r is not None for r in fleet.reports] == \
        [True, True, True, False]
    [failure] = fleet.failures
    assert (failure.index, failure.scenario) == (3, "_poison-exit")
    serial = run_many(specs[:3], processes=1)
    assert [asdict(r) for r in fleet.reports[:3]] == \
        [asdict(r) for r in serial]
    assert fleet.telemetry.runs == 3
    assert (fleet.progress.completed, fleet.progress.failed) == (3, 1)


@pytest.mark.slow
def test_streaming_retries_transient_failures():
    specs = _specs(1) + [
        RunSpec("_poison-exit", ScenarioConfig(**_QUICK, seed=5))
    ]
    fleet = run_many(
        specs, processes=2, stream=True, on_error="collect",
        retries=1, retry_backoff_s=0.0,
    )
    [failure] = fleet.failures
    assert failure.attempts == 2
    assert fleet.reports[0] is not None

