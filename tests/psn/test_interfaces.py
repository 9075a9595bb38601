"""Unit tests for the link transmitter."""

import pytest

from repro.des import Simulator
from repro.psn import LinkTransmitter, Packet, PacketKind
from repro.psn.interfaces import PROCESSING_DELAY_S
from repro.routing import RoutingUpdate
from repro.topology import Network, line_type


def make_link(type_name="56K-T", propagation_s=0.010):
    net = Network()
    a = net.add_node().node_id
    b = net.add_node().node_id
    link, _ = net.add_circuit(a, b, line_type(type_name), propagation_s)
    return link


def data_packet(pid, size_bits=560.0, created_s=0.0):
    return Packet(
        packet_id=pid, kind=PacketKind.DATA, src=0, dst=1,
        size_bits=size_bits, created_s=created_s,
    )


def update_packet(pid):
    return Packet(
        packet_id=pid, kind=PacketKind.ROUTING_UPDATE, src=0, dst=None,
        size_bits=1000.0, created_s=0.0,
        update=RoutingUpdate(0, ((0, 30),), 1),
    )


def test_transmission_and_propagation_timing():
    sim = Simulator()
    link = make_link()  # 56 kb/s, 10 ms propagation
    delivered = []
    tx = LinkTransmitter(sim, link, lambda p, l: delivered.append(sim.now))
    tx.send(data_packet(1, size_bits=5600.0))  # 100 ms on the wire
    sim.run()
    assert delivered == [pytest.approx(0.100 + 0.010)]


def test_fifo_serialization():
    sim = Simulator()
    link = make_link()
    order = []
    tx = LinkTransmitter(sim, link, lambda p, l: order.append(p.packet_id))
    for pid in (1, 2, 3):
        tx.send(data_packet(pid, size_bits=560.0))
    sim.run()
    assert order == [1, 2, 3]


def test_updates_jump_the_data_queue():
    sim = Simulator()
    link = make_link()
    order = []
    tx = LinkTransmitter(sim, link, lambda p, l: order.append(p.packet_id))
    tx.send(data_packet(1))
    tx.send(data_packet(2))
    tx.send(update_packet(99))
    sim.run()
    # Packet 1 is already "on the wire" conceptually (first dequeue), but
    # the update must beat packet 2.
    assert order.index(99) < order.index(2)


def test_buffer_overflow_drops():
    sim = Simulator()
    link = make_link()
    drops = []
    tx = LinkTransmitter(
        sim, link, lambda p, l: None, buffer_packets=2,
        on_drop=lambda p, l: drops.append(p.packet_id),
    )
    accepted = [tx.send(data_packet(pid)) for pid in range(5)]
    # One packet may already be dequeued by the transmitter only after the
    # sim runs; synchronously, 2 fit and 3 drop.
    assert accepted == [True, True, False, False, False]
    assert drops == [2, 3, 4]
    assert tx.drops == 3


def test_control_queue_never_drops():
    sim = Simulator()
    link = make_link()
    tx = LinkTransmitter(sim, link, lambda p, l: None, buffer_packets=1)
    for pid in range(10):
        assert tx.send(update_packet(pid))
    assert tx.drops == 0


def test_delay_samples_include_all_components():
    sim = Simulator()
    link = make_link()  # 56 kb/s, 10 ms prop
    samples = []
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    tx.on_delay_sample = samples.append
    tx.send(data_packet(1, size_bits=5600.0))
    sim.run()
    expected = 0.0 + PROCESSING_DELAY_S + 0.100 + 0.010
    assert samples == [pytest.approx(expected)]


def test_delay_samples_measure_queueing():
    sim = Simulator()
    link = make_link()
    samples = []
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    tx.on_delay_sample = samples.append
    tx.send(data_packet(1, size_bits=5600.0))  # occupies wire 100 ms
    tx.send(data_packet(2, size_bits=5600.0))  # waits 100 ms
    sim.run()
    assert samples[1] - samples[0] == pytest.approx(0.100)


def test_updates_not_measured_as_data_delay():
    sim = Simulator()
    link = make_link()
    samples = []
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    tx.on_delay_sample = samples.append
    tx.send(update_packet(1))
    sim.run()
    assert samples == []


def test_utilization_accounting():
    sim = Simulator()
    link = make_link()
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    tx.send(data_packet(1, size_bits=5600.0))  # 100 ms of wire time
    sim.run(until=10.0)
    assert tx.take_utilization(10.0) == pytest.approx(0.01)
    assert tx.take_utilization(10.0) == 0.0  # reset
    with pytest.raises(ValueError):
        tx.take_utilization(0.0)


def test_down_link_discards():
    sim = Simulator()
    link = make_link()
    delivered = []
    drops = []
    tx = LinkTransmitter(
        sim, link, lambda p, l: delivered.append(p),
        on_drop=lambda p, l: drops.append(p.packet_id),
    )
    link.up = False
    tx.send(data_packet(1))
    sim.run()
    assert delivered == []
    assert drops == [1]


def test_flush_discards_queue():
    sim = Simulator()
    link = make_link()
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    for pid in range(4):
        tx.send(data_packet(pid))
    discarded = tx.flush()
    # The transmitter may have dequeued the head already at t=0 only after
    # running; synchronously all 4 are still queued.
    assert discarded == 4
    assert tx.queue_length() == 0


def test_trail_records_link():
    sim = Simulator()
    link = make_link()
    delivered = []
    tx = LinkTransmitter(sim, link, lambda p, l: delivered.append(p))
    tx.send(data_packet(1))
    sim.run()
    assert delivered[0].trail == [link.link_id]


def test_queue_length_counts_both_queues():
    sim = Simulator()
    link = make_link()
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    tx.send(data_packet(1))
    tx.send(update_packet(2))
    assert tx.queue_length() == 2
