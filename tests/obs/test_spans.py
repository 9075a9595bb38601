"""Tests for causal spans (:mod:`repro.obs.spans`)."""

import json

import pytest

from repro.obs.spans import (
    UpdateSpan,
    build_update_spans,
    convergence_episodes,
    convergence_times,
    latency_histogram,
    propagation_latencies,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.sim import ScenarioConfig, build_scenario

_TRACED = ScenarioConfig(duration_s=40.0, warmup_s=5.0, trace="memory")


@pytest.fixture(scope="module")
def traced_run():
    simulation = build_scenario("two-region-hnspf", config=_TRACED)
    report = simulation.run()
    return simulation, report, simulation.tracer.events()


# ----------------------------------------------------------------------
# Span construction
# ----------------------------------------------------------------------
def test_every_generated_update_becomes_a_span(traced_run):
    simulation, report, events = traced_run
    spans = build_update_spans(events)
    generated = sum(
        1 for e in events if e.kind == "update-generated"
    )
    rooted = [s for s in spans if s.generated_t is not None]
    assert len(rooted) == generated
    assert generated > 0


def test_lineages_are_unique_and_well_formed(traced_run):
    simulation, _, events = traced_run
    spans = build_update_spans(events)
    lineages = [span.lineage for span in spans]
    assert len(set(lineages)) == len(lineages)
    for span in spans:
        assert span.lineage == (span.origin, span.sequence)
        assert span.lineage_id == f"{span.origin}/{span.sequence}"
        if span.generated_t is not None:
            # The root carries the origin's whole row of line costs.
            assert span.entries
            assert {link for link, _cost in span.entries} <= set(
                range(len(simulation.network.links))
            )


def test_accepts_cover_the_flood_and_latencies_are_causal(traced_run):
    simulation, _, events = traced_run
    spans = build_update_spans(events)
    n_nodes = len(simulation.network.nodes)
    for span in spans:
        if span.generated_t is None:
            continue
        # Reliable flooding: a settled update reaches every other node
        # exactly once (first-accept per node; the rest are duplicates).
        assert span.nodes_reached <= n_nodes - 1
        for latency in span.latencies():
            assert latency >= 0.0
        if span.accepts:
            assert span.settle_t >= span.generated_t
            assert span.convergence_s == \
                pytest.approx(span.settle_t - span.generated_t)


def test_span_counters_reconcile_with_telemetry(traced_run):
    """Span-derived totals match the flooding counters exactly."""
    _, report, events = traced_run
    spans = build_update_spans(events)
    telemetry = report.telemetry
    assert sum(len(s.accepts) for s in spans) == telemetry.flood_accepted
    assert sum(s.duplicates for s in spans) == telemetry.flood_duplicates
    rooted = sum(1 for s in spans if s.generated_t is not None)
    assert rooted == telemetry.flood_generated


def test_acks_link_into_spans(traced_run):
    """Rosen reliable delivery: every accept is eventually acked."""
    _, _, events = traced_run
    spans = build_update_spans(events)
    total_acks = sum(len(s.acks) for s in spans)
    assert total_acks > 0
    for span in spans:
        for t, node, on in span.acks:
            assert on is not None  # the wire the update crossed


# ----------------------------------------------------------------------
# Distributions
# ----------------------------------------------------------------------
def test_propagation_latency_histogram(traced_run):
    _, _, events = traced_run
    spans = build_update_spans(events)
    latencies = propagation_latencies(spans)
    histogram = latency_histogram(spans)
    assert histogram.count == len(latencies)
    assert histogram.sum == pytest.approx(sum(latencies))
    # Cumulative buckets are monotone and end at the total count.
    snapshot = histogram.snapshot()
    counts = [n for _le, n in snapshot["buckets"]]
    assert counts == sorted(counts)
    assert snapshot["count"] == len(latencies)


def test_convergence_times_distribution(traced_run):
    _, _, events = traced_run
    spans = build_update_spans(events)
    times = convergence_times(spans)
    assert len(times) == sum(
        1 for s in spans if s.generated_t is not None
    )
    assert all(t >= 0.0 for t in times)
    assert max(times) > 0.0  # some flood took nonzero time to settle


def test_convergence_episodes_chain_bursts():
    events = [
        {"t": 1.0, "kind": "cost-change", "link": 0, "value": 100},
        {"t": 1.2, "kind": "update-generated", "node": 0, "link": 0,
         "origin": 0, "seq": 1},
        {"t": 1.4, "kind": "spf-recompute", "node": 1, "link": 0},
        # > quiet_s of silence, then a second burst
        {"t": 20.0, "kind": "cost-change", "link": 1, "value": 50},
        {"t": 20.1, "kind": "spf-recompute", "node": 2, "link": 1},
    ]
    episodes = convergence_episodes(events, quiet_s=5.0)
    assert episodes == [(1.0, 1.4), (20.0, 20.1)]
    # A tighter quiet threshold splits the first burst apart too.
    assert len(convergence_episodes(events, quiet_s=0.1)) == 5
    with pytest.raises(ValueError):
        convergence_episodes(events, quiet_s=0.0)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def test_empty_trace_builds_nothing():
    assert build_update_spans([]) == []
    assert convergence_times([]) == []
    assert convergence_episodes([], quiet_s=5.0) == []
    assert propagation_latencies([]) == []
    chrome = to_chrome_trace([])
    assert chrome["traceEvents"][0]["ph"] == "M"  # just metadata


def test_single_event_lineage_converges_instantly():
    """A generation nobody accepted is a zero-length span, not a crash."""
    events = [{
        "t": 3.0, "kind": "update-generated", "node": 4, "link": 9,
        "value": 140, "origin": 4, "seq": 17,
    }]
    [span] = build_update_spans(events)
    assert span.generated_t == 3.0
    assert span.accepts == []
    assert span.settle_t is None
    assert span.convergence_s == 0.0
    assert span.latencies() == []
    assert convergence_times([span]) == [0.0]


def test_events_without_lineage_tags_are_ignored():
    """Pre-span traces (no ``seq``) build no spans instead of garbage."""
    events = [
        {"t": 1.0, "kind": "update-generated", "node": 0, "link": 0},
        {"t": 1.1, "kind": "update-accepted", "node": 1, "link": 0},
        {"t": 2.0, "kind": "utilization", "link": 0, "value": 0.4},
    ]
    assert build_update_spans(events) == []


def test_spans_accept_dicts_and_trace_events(traced_run):
    """JSONL dict form and TraceEvent form build identical spans."""
    _, _, events = traced_run
    from repro.obs.tracer import events_to_dicts

    from_objects = build_update_spans(events)
    from_dicts = build_update_spans(events_to_dicts(events))
    assert [s.lineage for s in from_objects] == \
        [s.lineage for s in from_dicts]
    assert [s.accepts for s in from_objects] == \
        [s.accepts for s in from_dicts]


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def test_chrome_trace_shape(traced_run, tmp_path):
    _, report, events = traced_run
    trace = to_chrome_trace(events, report.telemetry.phase_wall_s)
    assert trace["displayTimeUnit"] == "ms"
    records = trace["traceEvents"]
    begins = [r for r in records if r["ph"] == "b"]
    ends = [r for r in records if r["ph"] == "e"]
    assert len(begins) == len(ends) > 0
    # Async spans pair up by id, and close no earlier than they open.
    opened = {r["id"]: r["ts"] for r in begins}
    for record in ends:
        assert record["ts"] >= opened[record["id"]]
    # The file form is valid JSON with the same payload.
    path = str(tmp_path / "trace.json")
    write_chrome_trace(path, events, report.telemetry.phase_wall_s)
    with open(path) as handle:
        assert json.load(handle) == trace


def test_chrome_trace_includes_circuit_instants_and_phases():
    events = [
        {"t": 2.0, "kind": "circuit-fail", "link": 3},
        {"t": 9.0, "kind": "circuit-restore", "link": 3},
    ]
    trace = to_chrome_trace(events, {"spf": 0.25, "scheduling": 0.75})
    instants = [r for r in trace["traceEvents"] if r["ph"] == "i"]
    assert [r["name"] for r in instants] == \
        ["circuit-fail", "circuit-restore"]
    phases = [r for r in trace["traceEvents"] if r["ph"] == "X"]
    assert {r["name"] for r in phases} == {"spf", "scheduling"}
    # Phases lie end-to-end: total extent equals total wall time.
    assert sum(r["dur"] for r in phases) == pytest.approx(1e6)


# ----------------------------------------------------------------------
# The paper's 57-node failure scenario (acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_arpanet_failure_convergence_distribution():
    """Convergence-time distribution of a trunk failure on ARPANET-1987.

    The paper's subject network: 57 PSNs under HN-SPF.  Fail one trunk
    mid-run and assert the span machinery records a real distribution
    of per-update convergence times around the disturbance.
    """
    config = ScenarioConfig(duration_s=40.0, warmup_s=0.0, trace="memory")
    simulation = build_scenario("aug87", config=config)
    assert len(simulation.network.nodes) == 57
    link_id = simulation.network.links[0].link_id
    simulation.fail_circuit_at(link_id, 20.0)
    simulation.run()
    events = simulation.tracer.events()

    spans = build_update_spans(events)
    times = convergence_times(spans)
    assert len(times) >= 57  # at least the boot flood, one per node
    assert all(t >= 0.0 for t in times)
    assert max(times) > 0.0
    # The failure's updates propagated: spans rooted after the failure
    # exist and settled across the (56-node) surviving network.
    post_fault = [
        s for s in spans
        if s.generated_t is not None and s.generated_t >= 20.0
    ]
    assert post_fault
    assert max(s.nodes_reached for s in post_fault) > 40
    # Episode analysis sees a disturbance containing the failure time
    # with a positive time-to-quiescence.
    episodes = convergence_episodes(events, quiet_s=5.0)
    containing = [
        (start, end) for start, end in episodes if start <= 20.0 <= end
    ]
    assert containing
    start, end = containing[0]
    assert end > 20.0
    # And the latency histogram covers every accept.
    histogram = latency_histogram(spans)
    assert histogram.count == sum(len(s.accepts) for s in spans)
    assert histogram.count > 0
