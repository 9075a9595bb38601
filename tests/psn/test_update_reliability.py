"""Tests for reliable update delivery (ACK + retransmission).

Rosen's updating protocol retransmits updates per link until
acknowledged; lost updates are repaired within a retransmission interval
rather than waiting for the 50-second keepalive.
"""

from repro.metrics import HopNormalizedMetric
from repro.psn.node import UPDATE_RETRANSMIT_S
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_ring_network, build_string_network
from repro.traffic import TrafficMatrix


def build_sim(net, error_rate=0.0, seed=0):
    return NetworkSimulation(
        net, HopNormalizedMetric(), TrafficMatrix({(0, 1): 1_000.0}),
        ScenarioConfig(duration_s=300.0, warmup_s=30.0, seed=seed,
                       line_error_rate=error_rate),
    )


def test_acks_clear_pending_retransmissions():
    net = build_ring_network(4)
    sim = build_sim(net)
    sim.run(until_s=5.0)
    # Boot advertisements have all been ACKed: nothing pending anywhere.
    for node_id, psn in sim.psns.items():
        assert psn._unacked == {}, node_id


def test_lost_update_repaired_within_retransmit_interval():
    """Heavy line errors: every node always holds one of the owner's
    two most recent advertisements -- losses are repaired within a few
    retransmission rounds, never waiting for the 50 s keepalive."""
    net = build_string_network(4)
    sim = build_sim(net, error_rate=0.4, seed=13)
    own_link = net.out_links(0)[0].link_id
    for checkpoint in (40.0, 80.0, 120.0, 160.0):
        # Land between measurement intervals, several retransmission
        # rounds after the last advertisement could have been produced.
        sim.run(until_s=checkpoint + 8 * UPDATE_RETRANSMIT_S)
        series = [
            cost for _t, cost in sim.stats.cost_series(own_link)
        ]
        recent = set(series[-2:])
        for node_id, psn in sim.psns.items():
            assert psn.costs[own_link] in recent, (checkpoint, node_id)


def test_tables_stay_consistent_under_sustained_loss():
    net = build_ring_network(5)
    sim = build_sim(net, error_rate=0.25, seed=3)
    sim.run()
    reference = sim.psns[0].costs.costs
    for node_id, psn in sim.psns.items():
        assert psn.costs.costs == reference, node_id


def test_newer_update_supersedes_pending():
    net = build_ring_network(4)
    sim = build_sim(net)
    sim.run(until_s=5.0)
    psn = sim.psns[0]
    own_link = net.out_links(0)[0].link_id
    psn.advertise({own_link: 40})
    psn.advertise({own_link: 50})  # before any ACK can return
    # Only the newest is pending per (link, origin).
    pending = [
        dict(update.entries)[own_link]
        for (link_id, _key), (update, _t) in psn._unacked.items()
    ]
    assert 40 not in pending
    assert pending.count(50) >= 1
    sim.run(until_s=10.0)
    assert psn._unacked == {}
    for other in sim.psns.values():
        assert other.costs[own_link] == 50.0


def test_link_down_purges_pending():
    net = build_ring_network(4)
    sim = build_sim(net)
    sim.run(until_s=5.0)
    dead = net.out_links(0)[0].link_id
    psn = sim.psns[0]
    psn.advertise({dead: 60})
    net.set_circuit_state(dead, up=False)
    psn.local_link_down(dead)
    assert not any(l == dead for (l, _k) in psn._unacked)
