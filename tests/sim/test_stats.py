"""Unit tests for statistics collection and reporting."""

import math

import pytest

from repro.psn import Packet, PacketKind
from repro.sim import StatsCollector
from repro.topology import build_ring_network


def packet(src, dst, created=10.0, size=600.0, trail=()):
    p = Packet(
        packet_id=1, kind=PacketKind.DATA, src=src, dst=dst,
        size_bits=size, created_s=created,
    )
    p.trail = list(trail)
    return p


@pytest.fixture
def net():
    return build_ring_network(4)


def test_delivery_accounting(net):
    stats = StatsCollector(net)
    stats.packet_offered(10.0)
    stats.packet_delivered(packet(0, 1, created=10.0, trail=[0]), 10.5)
    report = stats.report("test", 100.0)
    assert report.delivered_packets == 1
    assert report.offered_packets == 1
    assert report.round_trip_delay_ms == pytest.approx(1000.0)  # 2 x 0.5 s
    assert report.actual_path_hops == 1.0
    assert report.minimum_path_hops == 1.0
    assert report.delivery_ratio == 1.0


def test_warmup_excludes_early_events(net):
    stats = StatsCollector(net, warmup_s=50.0)
    stats.packet_offered(10.0)
    stats.packet_delivered(packet(0, 1, created=10.0), 11.0)
    stats.packet_offered(60.0)
    stats.packet_delivered(packet(0, 1, created=60.0, trail=[0]), 61.0)
    report = stats.report("test", 100.0)
    assert report.delivered_packets == 1
    assert report.offered_packets == 1


def test_path_ratio(net):
    stats = StatsCollector(net)
    # 0 -> 1 via the long way: 3 hops actual, 1 minimum.
    stats.packet_delivered(packet(0, 1, trail=[10, 11, 12]), 11.0)
    report = stats.report("test", 100.0)
    assert report.actual_path_hops == 3.0
    assert report.minimum_path_hops == 1.0
    assert report.path_ratio == pytest.approx(3.0)


def test_drop_reasons(net):
    stats = StatsCollector(net)
    stats.packet_dropped(packet(0, 1), "congestion", 10.0)
    stats.packet_dropped(packet(0, 1), "unreachable", 10.0)
    stats.packet_dropped(packet(0, 1), "hop-limit", 10.0)
    with pytest.raises(ValueError):
        stats.packet_dropped(packet(0, 1), "gremlins", 10.0)
    report = stats.report("test", 100.0)
    assert report.congestion_drops == 1
    assert report.other_drops == 2


def test_throughput_in_kbps(net):
    stats = StatsCollector(net)
    stats.packet_delivered(packet(0, 1, size=50_000.0, trail=[0]), 20.0)
    report = stats.report("test", 100.0)
    assert report.internode_traffic_kbps == pytest.approx(0.5)


def test_update_accounting(net):
    stats = StatsCollector(net, warmup_s=10.0)
    # One node update per call, one history row per line it carries.
    stats.update_originated(1, ((3, 42), (4, 50)), 5.0)  # warmup: history
    stats.update_originated(1, ((3, 55), (4, 50)), 20.0)
    stats.update_originated(1, ((3, 55), (4, 60)), 30.0)
    report = stats.report("test", 110.0)
    assert report.updates_per_s == pytest.approx(2 / 100.0)
    assert stats.cost_series(3) == [(5.0, 42), (20.0, 55), (30.0, 55)]
    assert stats.cost_series(4) == [(5.0, 50), (20.0, 50), (30.0, 60)]
    assert stats.update_log == [(5.0, 1, 0), (20.0, 1, 2), (30.0, 1, 4)]
    # per node: 2 updates / 100 s / 4 nodes.
    assert report.update_period_per_node_s == pytest.approx(200.0)


def test_utilization_history(net):
    stats = StatsCollector(net)
    stats.utilization_sample(2, 0.5, 10.0)
    stats.utilization_sample(2, 0.7, 20.0)
    assert stats.utilization_history[2] == [(10.0, 0.5), (20.0, 0.7)]


def test_min_hop_distance_cached(net):
    stats = StatsCollector(net)
    assert stats.min_hop_distance(0, 2) == 2
    assert stats.min_hop_distance(0, 2) == 2
    assert len(stats._min_hop_trees) == 1


def test_empty_report_has_no_nans_where_counts_exist(net):
    stats = StatsCollector(net)
    report = stats.report("empty", 100.0)
    assert report.delivered_packets == 0
    assert math.isnan(report.delivery_ratio)
    assert math.isnan(report.path_ratio)
    assert report.round_trip_delay_ms == 0.0


def test_delay_percentiles_with_zero_delivered_packets(net):
    stats = StatsCollector(net)
    stats.packet_offered(10.0)  # offered but never delivered
    report = stats.report("empty", 100.0)
    assert report.delay_p50_ms == 0.0
    assert report.delay_p90_ms == 0.0
    assert report.delay_p99_ms == 0.0
    assert stats.delay_percentile_ms(1.0) == 0.0
    with pytest.raises(ValueError):
        stats.delay_percentile_ms(1.5)


def test_path_ratio_with_zero_minimum_hops(net):
    # Self-addressed delivery: zero minimum hops must not divide.
    stats = StatsCollector(net)
    stats.packet_delivered(packet(0, 0, trail=[9]), 11.0)
    report = stats.report("test", 100.0)
    assert report.minimum_path_hops == 0.0
    assert report.actual_path_hops == 1.0
    assert math.isnan(report.path_ratio)


def test_update_trunk_rate_averages_whole_run_by_default(net):
    stats = StatsCollector(net, warmup_s=50.0)
    trunks = len(net.links)
    report = stats.report(
        "test", 150.0, update_transmissions=150 * trunks
    )
    # transmissions / trunks / the full 150 s, warmup included.
    assert report.updates_per_trunk_s == pytest.approx(1.0)


def test_update_trunk_rate_post_warmup_cut(net):
    stats = StatsCollector(net, warmup_s=50.0,
                           post_warmup_update_rates=True)
    trunks = len(net.links)
    # The caller supplies the post-warmup transmission count; the rate
    # divides by the post-warmup window (100 s), not the duration.
    report = stats.report(
        "test", 150.0, update_transmissions=100 * trunks
    )
    assert report.updates_per_trunk_s == pytest.approx(1.0)
