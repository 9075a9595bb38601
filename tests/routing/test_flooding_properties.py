"""Property tests for the flooding protocol on arbitrary topologies."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import FloodingState
from repro.topology import build_random_network


def synchronous_flood(network, origin_node, update):
    """Flood an update to completion; return per-node accept counts."""
    states = {n: FloodingState(network, n) for n in network.nodes}
    # Re-key the origin's state so sequence numbers line up.
    states[origin_node]._highest_seen[update.key()] = update.sequence
    frontier = [
        (update, link_id)
        for link_id in states[origin_node].forward_links(None)
    ]
    accepts = {n: 0 for n in network.nodes}
    hops = 0
    while frontier:
        hops += 1
        assert hops < 100_000, "flood did not terminate"
        message, via = frontier.pop()
        receiver = network.link(via).dst
        if states[receiver].accept(message):
            accepts[receiver] += 1
            frontier.extend(
                (message, out)
                for out in states[receiver].forward_links(arrived_on=via)
            )
    return accepts


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=14),
    extra=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=500),
    origin_pick=st.integers(min_value=0, max_value=10 ** 6),
)
def test_property_flood_reaches_everyone_exactly_once(
    n, extra, seed, origin_pick
):
    """On any connected topology, any flooded update is accepted exactly
    once by every node other than the originator, and the flood
    terminates."""
    network = build_random_network(n, extra_circuits=extra, seed=seed)
    origin = origin_pick % n
    origin_state = FloodingState(network, origin)
    update = origin_state.originate(
        tuple((link.link_id, 42) for link in network.out_links(origin))
    )

    accepts = synchronous_flood(network, origin, update)
    assert accepts[origin] == 0
    for node in network.nodes:
        if node != origin:
            assert accepts[node] == 1, node


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=10),
    seed=st.integers(min_value=0, max_value=200),
    costs=st.lists(
        st.integers(min_value=30, max_value=90), min_size=3, max_size=3
    ),
)
def test_property_repeated_floods_keep_latest(n, seed, costs):
    """Sequenced re-floods: every node ends holding only the newest."""
    network = build_random_network(n, extra_circuits=3, seed=seed)
    origin_state = FloodingState(network, 0)
    own_links = [link.link_id for link in network.out_links(0)]
    receivers = {
        node: FloodingState(network, node)
        for node in network.nodes if node != 0
    }
    last_accepted = {}
    for cost in costs:
        update = origin_state.originate(
            tuple((link_id, cost) for link_id in own_links)
        )
        for node, state in receivers.items():
            if state.accept(update):
                last_accepted[node] = dict(update.entries)[own_links[0]]
        # Replaying any older update is always rejected.
        for node, state in receivers.items():
            assert not state.accept(update)
    for node in receivers:
        assert last_accepted[node] == costs[-1]
