"""Tests for lazily resolved next hops and the shared-tree SPF cache.

Covers the guarantees :mod:`repro.routing.spf_cache` makes:

* the next-hop table a PSN compiles lazily from its tree agrees with
  :meth:`SpfTree.next_hop_link` entry for entry (including the root and
  unreachable destinations), survives no-op updates and is forgotten
  by tree-changing ones,
* shared-tree keys invalidate on cost changes and on link up/down, and
  the hit/miss accounting reflects every lookup,
* cost-table keys track content, not mutation history.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import HopNormalizedMetric
from repro.routing import CostTable, RoutingUpdate, SpfTree
from repro.routing.spf_cache import UNRESOLVED, SpfCache, resolve_next_hop
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_random_network, build_ring_network
from repro.traffic import TrafficMatrix


def _resolved_table(tree, order):
    table = [UNRESOLVED] * len(tree.network.nodes)
    for dest in order:
        resolve_next_hop(tree, table, dest)
    return table


def _assert_table_matches_tree(table, tree):
    for dest in tree.network.nodes:
        assert table[dest] == tree.next_hop_link(dest), (
            f"lazy table disagrees with tree at dest {dest}"
        )


# ----------------------------------------------------------------------
# resolve_next_hop
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    n=st.integers(min_value=2, max_value=16),
    extra=st.integers(min_value=0, max_value=10),
    root=st.integers(min_value=0, max_value=15),
    order=st.randoms(use_true_random=False),
)
def test_compiled_table_matches_next_hop_link(seed, n, extra, root, order):
    """Whatever order destinations are first asked for, back-filled
    chains give every entry the tree's own answer."""
    net = build_random_network(n, extra_circuits=extra, seed=seed)
    costs = CostTable([float(1 + (i * 7) % 5) for i in range(len(net.links))])
    tree = SpfTree(net, root % n, costs)
    dests = list(net.nodes)
    order.shuffle(dests)
    table = _resolved_table(tree, dests)
    _assert_table_matches_tree(table, tree)
    assert UNRESOLVED not in table


def test_compiled_table_handles_unreachable_partition():
    net = build_ring_network(4)
    # Sever node 3 from the ring entirely: both its circuits go down.
    down = {
        link.link_id
        for link in net.out_links(3, include_down=True)
    }
    for link_id in sorted(down):
        net.set_circuit_state(link_id, up=False)
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    table = [UNRESOLVED] * 4
    assert resolve_next_hop(tree, table, 0) is None  # the root itself
    assert resolve_next_hop(tree, table, 3) is None  # unreachable
    assert table[1] == UNRESOLVED  # nothing resolved beyond the chain
    assert resolve_next_hop(tree, table, 2) is not None
    assert table[1] is not None  # back-filled on the way to 2
    _assert_table_matches_tree(table, tree)


# ----------------------------------------------------------------------
# The PSN's lazy table follows its tree
# ----------------------------------------------------------------------
def _idle_psn():
    network = build_ring_network(5)
    simulation = NetworkSimulation(
        network, HopNormalizedMetric(), TrafficMatrix({}),
        ScenarioConfig(duration_s=1.0, warmup_s=0.0),
    )
    psn = simulation.psns[0]
    for dest in network.nodes:
        resolve_next_hop(psn.tree, psn._next_hop, dest)
    return network, psn


def test_lazy_table_survives_no_op_update():
    network, psn = _idle_psn()
    table = psn._next_hop
    before = list(table)
    # Re-advertise node 2's lines at the costs node 0 already holds.
    entries = tuple(
        (link.link_id, int(psn.costs[link.link_id]))
        for link in network.out_links(2)
    )
    psn._apply_update(RoutingUpdate(2, entries, 1))
    psn.flush_pending_updates()
    assert psn._next_hop is table
    assert table == before


def test_lazy_table_dropped_by_tree_changing_update():
    network, psn = _idle_psn()
    first_hop = psn._next_hop[1]
    assert first_hop is not None
    # Make node 0's only tree link into node 1 very expensive: node 1's
    # route (and every route through it) has to move.
    entries = ((first_hop, 10_000),)
    psn._apply_update(RoutingUpdate(0, entries, 1))
    psn.flush_pending_updates()
    assert psn._next_hop == [UNRESOLVED] * len(network.nodes)
    assert resolve_next_hop(psn.tree, psn._next_hop, 1) != first_hop
    _assert_table_matches_tree(
        _resolved_table(psn.tree, network.nodes), psn.tree
    )


# ----------------------------------------------------------------------
# Shared trees
# ----------------------------------------------------------------------
def test_shared_tree_hit_and_miss_accounting():
    net = build_ring_network(5)
    cache = SpfCache(net)
    costs = CostTable.uniform(net, 7.0)

    tree = cache.shared_tree(1, costs)
    assert cache.stats.tree_misses == 1
    assert cache.shared_tree(1, CostTable.uniform(net, 7.0)) is tree
    assert cache.stats.tree_hits == 1

    # The shared tree must be a real from-scratch Dijkstra result.
    fresh = SpfTree(net, 1, costs.copy())
    assert tree.dist == fresh.dist
    assert tree.parent_link == fresh.parent_link

    # The cached tree owns a private copy: mutating the caller's table
    # afterwards must not corrupt it.
    costs[0] = 99.0
    assert tree.costs[0] == 7.0


def test_link_state_change_invalidates_cached_entries():
    net = build_ring_network(4)
    cache = SpfCache(net)
    costs = CostTable.uniform(net, 5.0)
    cache.shared_tree(0, costs)
    version = net.topology_version

    affected = net.set_circuit_state(0, up=False)
    assert affected and net.topology_version > version
    # Same root, same costs -- but the topology version in the key
    # changed, so the store must miss.
    down_tree = cache.shared_tree(0, costs)
    assert cache.stats.tree_misses == 2
    assert 0 not in down_tree.parent_link.values()

    # Bringing the circuit back up is a *new* version again, not a
    # return to the old key: trees computed while it was down can never
    # be served for the restored topology.
    net.set_circuit_state(0, up=True)
    cache.shared_tree(0, costs)
    assert cache.stats.tree_misses == 3


def test_lru_eviction_is_bounded_and_counted():
    net = build_ring_network(4)
    cache = SpfCache(net, max_entries=2)
    costs = CostTable.uniform(net, 1.0)
    for root in range(3):
        cache.shared_tree(root, costs)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    # Root 0 was evicted (least recently used) -> looking it up misses.
    cache.shared_tree(0, costs)
    assert cache.stats.tree_misses == 4

    cache.clear()
    assert len(cache) == 0
    assert cache.stats.tree_misses == 4  # stats survive clear()


def test_max_entries_must_be_positive():
    with pytest.raises(ValueError):
        SpfCache(build_ring_network(3), max_entries=0)


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def test_cache_key_tracks_content_not_history():
    net = build_ring_network(5)
    mutated = CostTable.uniform(net, 1.0)
    mutated[2] = 7.0
    mutated[4] = 3.0
    mutated[2] = 1.0  # revert

    assert CostTable(list(mutated.costs)).cache_key() == mutated.cache_key()

    # And a genuine difference is never masked.
    mutated[4] = 1.0
    assert CostTable(list(mutated.costs)).cache_key() == mutated.cache_key()
    assert mutated.cache_key() != CostTable(
        [2.0] * len(net.links)
    ).cache_key()
