"""Unit tests for the flooding protocol logic."""

import pytest

from repro.routing import FloodingState, RoutingUpdate
from repro.topology import build_ring_network


@pytest.fixture
def ring():
    return build_ring_network(4)


def _lines(network, node, cost):
    """A node update's entries: every line of ``node`` at ``cost``."""
    return tuple((link.link_id, cost) for link in network.out_links(node))


def test_originate_increments_sequence(ring):
    state = FloodingState(ring, 0)
    first = state.originate(_lines(ring, 0, 30))
    second = state.originate(_lines(ring, 0, 47))
    assert first.sequence == 1
    assert second.sequence == 2
    assert first.key() == second.key() == 0
    assert second.entries == _lines(ring, 0, 47)


def test_originate_rejects_foreign_link(ring):
    state = FloodingState(ring, 0)
    foreign = ring.out_links(1)[0].link_id
    with pytest.raises(ValueError):
        state.originate(_lines(ring, 0, 30) + ((foreign, 30),))


def test_accept_new_then_reject_duplicate(ring):
    sender = FloodingState(ring, 0)
    receiver = FloodingState(ring, 1)
    update = sender.originate(_lines(ring, 0, 42))
    assert receiver.accept(update)
    assert not receiver.accept(update)
    assert receiver.stats.accepted == 1
    assert receiver.stats.duplicates == 1


def test_stale_sequence_rejected(ring):
    sender = FloodingState(ring, 0)
    receiver = FloodingState(ring, 1)
    old = sender.originate(_lines(ring, 0, 42))
    new = sender.originate(_lines(ring, 0, 60))
    assert receiver.accept(new)
    assert not receiver.accept(old)


def test_originator_ignores_reflected_copy(ring):
    sender = FloodingState(ring, 0)
    update = sender.originate(_lines(ring, 0, 42))
    assert not sender.accept(update)


def test_one_sequence_space_per_node(ring):
    # Every update of a node shares its one counter, whatever lines
    # changed; another node's counter is independent.
    sender = FloodingState(ring, 0)
    other = FloodingState(ring, 1)
    u1 = sender.originate(_lines(ring, 0, 42))
    u2 = sender.originate(_lines(ring, 0, 43))
    u3 = other.originate(_lines(ring, 1, 42))
    assert (u1.sequence, u2.sequence, u3.sequence) == (1, 2, 1)
    assert u1.key() == u2.key() != u3.key()


def test_forward_links_exclude_arrival_reverse(ring):
    state = FloodingState(ring, 1)
    # Update arrived on the link 0 -> 1; don't send it back on 1 -> 0.
    arrival = ring.links_between(0, 1)[0].link_id
    back = ring.link(arrival).reverse_id
    forwards = state.forward_links(arrived_on=arrival)
    assert back not in forwards
    assert len(forwards) == len(ring.out_links(1)) - 1


def test_forward_links_all_when_originating(ring):
    state = FloodingState(ring, 1)
    forwards = state.forward_links(arrived_on=None)
    assert len(forwards) == len(ring.out_links(1))


def test_flood_reaches_every_node_once(ring):
    """Simulate a full synchronous flood; every node accepts exactly once."""
    states = {n: FloodingState(ring, n) for n in ring.nodes}
    update = states[0].originate(_lines(ring, 0, 55))
    frontier = [(update, link_id) for link_id in
                states[0].forward_links(None)]
    accepted = {0}
    while frontier:
        update_msg, via = frontier.pop(0)
        receiver = ring.link(via).dst
        if states[receiver].accept(update_msg):
            accepted.add(receiver)
            frontier.extend(
                (update_msg, out)
                for out in states[receiver].forward_links(arrived_on=via)
            )
    assert accepted == set(ring.nodes)
    for node, state in states.items():
        if node != 0:
            assert state.stats.accepted == 1


def test_update_is_immutable():
    update = RoutingUpdate(origin=0, entries=((0, 30), (7, 30)), sequence=1)
    with pytest.raises(AttributeError):
        update.entries = ((0, 99),)
