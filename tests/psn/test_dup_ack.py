"""Duplicate-ack suppression: proofs, owed-ack repayment, liveness.

The suppression may only ever remove an explicit ack whose information
provably reaches the sender another way; these tests pin each limb of
that proof structure -- the skip conditions, the owed-ack debt and its
three settlement paths (neighbour ack, wire-suppression payment with
piggybacking, second-duplicate fallback) -- and the end-to-end
guarantees: identical data plane and routing tables, and no
ack-starvation livelock even under stochastic link flapping.
"""

import pytest

from repro.faults import FaultPlan, LinkFlap
from repro.metrics import HopNormalizedMetric
from repro.psn.packet import PacketKind, acquire
from repro.routing.flooding import RoutingUpdate
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_ring_network
from repro.traffic import TrafficMatrix


def build_sim(net, dup_ack=None, **overrides):
    options = dict(
        duration_s=60.0, warmup_s=10.0, seed=3,
        incremental_flooding=True, dup_ack_suppression=dup_ack,
    )
    options.update(overrides)
    return NetworkSimulation(
        net, HopNormalizedMetric(), TrafficMatrix({(0, 3): 2_000.0}),
        ScenarioConfig(**options),
    )


def _circuit(net, src, dst):
    """The (forward link, reverse link id) pair between two neighbours."""
    for link in net.out_links(src):
        if link.dst == dst:
            return link
    raise AssertionError(f"no link {src}->{dst}")


def test_requires_incremental_flooding():
    net = build_ring_network(4)
    with pytest.raises(ValueError, match="requires incremental flooding"):
        build_sim(net, dup_ack=True, incremental_flooding=False)


def test_default_follows_incremental_flooding():
    on = build_sim(build_ring_network(4))
    assert all(psn._dup_ack for psn in on.psns.values())
    off = build_sim(
        build_ring_network(4), incremental_flooding=False
    )
    assert not any(psn._dup_ack for psn in off.psns.values())


def test_fresh_updates_always_acked():
    """Only *duplicates* are ever screened; a first copy is acked."""
    sim = build_sim(build_ring_network(4))
    sim.run(until_s=5.0)
    psn = sim.psns[1]
    via = _circuit(sim.network, 0, 1)
    fresh = RoutingUpdate(0, ((via.link_id, 33),), sequence=10_000)
    assert not psn._skip_duplicate_ack(fresh, via)


def test_skip_records_owed_ack_and_second_duplicate_pays():
    """The en-route-copy skip leaves a debt; a retransmission collects it.

    First duplicate: our own copy is queued toward the sender, so the
    explicit ack is skipped and the debt recorded.  If the sender
    retransmits anyway -- the en-route copy was lost, so the proof
    failed -- the second duplicate must be acknowledged unconditionally
    (there is no third round: the fallback never skips).
    """
    sim = build_sim(build_ring_network(4))
    sim.run(until_s=5.0)  # boot flood settled, queues quiet
    psn = sim.psns[1]
    via = _circuit(sim.network, 0, 1)  # updates from node 0 arrive here
    reverse_id = via.reverse_id
    flooding = psn.flooding
    stats = flooding.stats

    update = RoutingUpdate(0, ((via.link_id, 44),), sequence=500)
    key = update.key()
    # Make it a duplicate with an en-route copy: we have seen this
    # sequence, and our own forward of it was queued toward the sender.
    flooding._highest_seen[key] = update.sequence
    flooding.note_sent(reverse_id, update)

    skips = stats.dup_acks_suppressed
    reverse = psn.transmitters[reverse_id]
    backlog = reverse.control_backlog()
    packet = acquire(
        PacketKind.ROUTING_UPDATE, 0, None, 1000.0, sim.sim.now,
        update=update,
    )
    psn._handle_update(packet, via)
    assert stats.dup_acks_suppressed == skips + 1
    assert psn._ack_owed[(reverse_id, key)] == update.sequence
    assert reverse.control_backlog() == backlog, "no ack may be queued"

    # The sender retransmits: the debt is paid, unconditionally.
    owed = stats.owed_acks_sent
    again = acquire(
        PacketKind.ROUTING_UPDATE, 0, None, 1000.0, sim.sim.now,
        update=update,
    )
    psn._handle_update(again, via)
    assert stats.owed_acks_sent == owed + 1
    assert (reverse_id, key) not in psn._ack_owed
    assert reverse.control_backlog() == backlog + 1, (
        "the owed ack must go on the wire (queue was empty: standalone)"
    )


def test_neighbor_ack_settles_debt_silently():
    """The neighbour's explicit ack proves the implicit ack landed."""
    sim = build_sim(build_ring_network(4))
    sim.run(until_s=5.0)
    psn = sim.psns[1]
    via = _circuit(sim.network, 0, 1)
    reverse_id = via.reverse_id
    update = RoutingUpdate(0, ((via.link_id, 44),), sequence=500)
    psn._ack_owed[(reverse_id, update.key())] = update.sequence

    ack = acquire(
        PacketKind.UPDATE_ACK, 0, 1, 200.0, sim.sim.now, update=update,
    )
    # An ack for our copy arrives on the forward link (it was sent on
    # the reverse): pending and debt both clear, nothing is sent.
    psn._handle_ack(ack, via)
    assert (reverse_id, update.key()) not in psn._ack_owed


def test_owed_ack_piggybacks_on_queued_control_packet():
    """A queued control packet tows the owed ack in its header for free.

    The receiving side must honour the ride: piggybacked acks clear the
    sender's retransmission state exactly as a standalone ack packet
    would, without an ack packet ever existing.
    """
    sim = build_sim(build_ring_network(4))
    sim.run(until_s=5.0)
    a, b = sim.psns[0], sim.psns[1]
    link_ab = _circuit(sim.network, 0, 1)
    link_ba = _circuit(sim.network, 1, 0)

    # A waits on an ack for ``update`` from B.
    update = RoutingUpdate(0, ((link_ab.link_id, 44),), sequence=500)
    a._unacked[(link_ab.link_id, update.key())] = (update, sim.sim.now)

    # B has a control packet queued toward A; the owed ack rides it.
    carrier_payload = RoutingUpdate(1, ((link_ba.link_id, 7),), sequence=400)
    carrier = acquire(
        PacketKind.ROUTING_UPDATE, 1, None, 1000.0, sim.sim.now,
        update=carrier_payload,
    )
    transmitter = b.transmitters[link_ba.link_id]
    acks_before = transmitter.ack_packets_sent
    transmitter.send(carrier)
    assert b._place_ack(update, link_ba.link_id) is True
    assert carrier.acks == [update]

    sim.run(until_s=6.0)
    assert (link_ab.link_id, update.key()) not in a._unacked
    assert a.flooding.neighbor_acked(link_ab.link_id, update.key()) == 500
    assert transmitter.ack_packets_sent == acks_before, (
        "the ack rode the carrier; no standalone ack packet may exist"
    )


def test_data_plane_and_tables_identical_with_suppression():
    """Suppression removes acks, never routing information."""
    on = build_sim(build_ring_network(6), dup_ack=True)
    report_on = on.run()
    off = build_sim(build_ring_network(6), dup_ack=False)
    report_off = off.run()

    assert report_on.delivered_packets == report_off.delivered_packets
    assert report_on.offered_packets == report_off.offered_packets
    for node_id in on.psns:
        assert on.psns[node_id].costs.costs == \
            off.psns[node_id].costs.costs, node_id

    on_t, off_t = report_on.telemetry, report_off.telemetry
    assert on_t.dup_acks_suppressed > 0
    assert off_t.dup_acks_suppressed == 0
    # The two runs' flood timelines diverge once acks disappear (fewer
    # control packets reshuffle queue departures), so the saving is not
    # a packet-for-packet identity -- but it must be a real reduction:
    # strictly fewer acks, and most repaid debts must ride for free.
    assert on_t.ack_packets_sent < off_t.ack_packets_sent
    assert on_t.owed_acks_sent >= on_t.owed_acks_piggybacked


def test_no_retransmit_livelock_under_link_flaps():
    """Suppression plus flapping must never starve the ack machinery.

    A flapping circuit constantly invalidates en-route proofs (flushes
    eat queued copies, including debt-carrying carriers).  Liveness
    demands every surviving debt resolve within the protocol's normal
    recovery: the invariant monitor stays clean in strict mode, nothing
    stays pending once the run quiesces, and retransmission stays a
    repair mechanism, not a steady state.
    """
    net = build_ring_network(6)
    flapped = net.out_links(2)[0].link_id
    plan = FaultPlan(flaps=(
        LinkFlap(link_id=flapped, mtbf_s=8.0, mttr_s=2.0, start_s=15.0),
    ))
    sim = build_sim(
        net, dup_ack=True, duration_s=120.0,
        faults=plan, check_invariants="strict",
    )
    report = sim.run()
    assert report.invariant_violations == []
    telemetry = report.telemetry
    assert telemetry.flap_transitions > 0, "the fault must actually fire"
    # Repair-scale, not livelock-scale: a livelocked pair retransmits
    # every second for the whole run (hundreds of retransmissions).
    assert telemetry.updates_retransmitted < \
        0.05 * telemetry.update_packets_sent
    # Residual debts on live links are benign when the implicit ack
    # landed (both sides skipped; neither retransmits).  Starvation is
    # the failure mode: a *peer* still waiting on a sequence our debt
    # covers, for longer than the retransmission machinery's cadence.
    now = sim.sim.now
    for node_id, psn in sim.psns.items():
        for (link_id, key), owed_seq in psn._ack_owed.items():
            link = sim.network.link(link_id)
            if not link.up:
                continue
            pending = sim.psns[link.dst]._unacked.get(
                (link.reverse_id, key)
            )
            if pending is None:
                continue
            update, sent_at = pending
            assert update.sequence > owed_seq or now - sent_at < 5.0, (
                f"node {node_id}: peer starved waiting on owed ack "
                f"for {key} seq {owed_seq}"
            )
