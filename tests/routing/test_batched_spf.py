"""Batched multi-link SPF repair: ``SpfTree.update_costs``.

The batched pass promises the *bit-identical* shortest-path tree after
absorbing an arbitrary mix of cost increases and decreases in one scan:
every repair path resolves equal-cost ties with the canonical
smallest-link-id rule, making the tree a pure function of the cost
table.  The property test drives it with random topologies, random
deltas, dead (``inf``) costs and down links, and checks distances *and*
parent pointers against a from-scratch Dijkstra.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.routing.spf import UNREACHABLE, CostTable, SpfTree
from repro.topology.generators import build_random_network, build_ring_network


def _tree(network, costs, root=0):
    return SpfTree(network, root, CostTable(list(costs)))


def _assert_valid_tree(tree, network, costs):
    """Structural invariants: every parent pointer is consistent."""
    for node, link_id in tree.parent_link.items():
        if link_id is None:
            assert node == tree.root or math.isinf(tree.dist[node])
            continue
        link = network.links[link_id]
        assert link.dst == node
        assert tree.dist[node] == tree.dist[link.src] + costs[link_id]


# ----------------------------------------------------------------------
# Deterministic cases
# ----------------------------------------------------------------------
def test_empty_batch_is_a_no_op():
    network = build_ring_network(5)
    tree = _tree(network, [1.0] * len(network.links))
    before = dict(tree.dist)
    assert tree.update_costs([]) is False
    assert tree.dist == before
    assert tree.stats.batched_passes == 0


def test_unchanged_costs_are_a_no_op():
    network = build_ring_network(5)
    tree = _tree(network, [1.0] * len(network.links))
    assert tree.update_costs([(0, 1.0), (3, 1.0)]) is False
    assert tree.stats.no_op_updates == 1


def test_last_write_wins_for_duplicate_links():
    network = build_ring_network(4)
    tree = _tree(network, [1.0] * len(network.links))
    assert tree.update_costs([(0, 9.0), (0, 1.0)]) is False
    assert tree.costs[0] == 1.0


def test_mixed_batch_matches_recompute():
    network = build_random_network(10, extra_circuits=4, seed=7)
    costs = [float(c) for c in range(2, 2 + len(network.links))]
    tree = _tree(network, costs)
    # Guarantee real tree surgery: push one in-use (tree) link way up,
    # pull two others way down, bump one non-tree link.
    tree_link = next(
        link_id for link_id in tree.parent_link.values() if link_id is not None
    )
    changes = [(tree_link, 50.0), (1, 1.0), (5, 30.0), (8, 1.0)]
    assert tree.update_costs(changes) is True
    for link_id, cost in changes:
        costs[link_id] = cost
    fresh = _tree(network, costs)
    assert tree.dist == fresh.dist
    assert tree.parent_link == fresh.parent_link
    _assert_valid_tree(tree, network, costs)
    assert tree.stats.batched_passes == 1
    assert tree.stats.batched_changes == len(changes)


def test_down_links_never_carry_a_repaired_route():
    """A dead line's table cost can stay finite, and can even drop (an
    update sent before the failure arrives after it).  No repair may
    route over it: not when its own cost drops, not when the settle pass
    scans its tail, not when a moved node's parent is re-derived."""
    network = build_ring_network(4)
    dead = network.links_between(1, 2)[0]
    network.set_circuit_state(dead.link_id, up=False)
    costs = [5.0] * len(network.links)
    # 0 -> 1 -> 2 would tie 0 -> 3 -> 2 once 0 -> 3 costs 4.
    costs[dead.link_id] = 4.0
    cases = [
        (dead.link_id, 1.0),
        (network.links_between(0, 1)[0].link_id, 1.0),
        (network.links_between(0, 3)[0].link_id, 4.0),
    ]
    for link_id, cost in cases:
        final = list(costs)
        final[link_id] = cost
        fresh = _tree(network, final)
        batched = _tree(network, costs)
        batched.update_costs([(link_id, cost)])
        single = _tree(network, costs)
        single.update_cost(link_id, cost)
        for tree in (batched, single):
            assert tree.dist == fresh.dist, (link_id, cost)
            assert tree.parent_link == fresh.parent_link, (link_id, cost)
            assert dead.link_id not in tree.parent_link.values()


def test_link_added_after_trees_exist_refreshes_adjacency():
    """Trees share their network's adjacency; a circuit added later
    must show up in every repair that runs afterwards."""
    network = build_ring_network(6)
    costs = [1.0] * len(network.links)
    tree = _tree(network, costs)
    other = _tree(network, costs, root=3)
    chord, back = network.add_circuit(0, 3, network.links[0].line_type)
    for added in (tree, other):
        # The new lines enter the tables dead, so both trees stay exact.
        added.costs.costs.extend([UNREACHABLE, UNREACHABLE])
    final = costs + [1.0, 1.0]

    assert tree.update_costs([(chord.link_id, 1.0)]) is True
    assert tree.parent_link[3] == chord.link_id
    assert other.update_costs([(back.link_id, 1.0)]) is True
    assert other.parent_link[0] == back.link_id
    for repaired in (tree, other):
        repaired.update_costs([(chord.link_id, 1.0), (back.link_id, 1.0)])
        fresh = _tree(network, final, root=repaired.root)
        assert repaired.dist == fresh.dist
        assert repaired.parent_link == fresh.parent_link
        _assert_valid_tree(repaired, network, final)


# ----------------------------------------------------------------------
# Property: batched repair == full recompute, bit for bit
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_update_costs_equals_recompute(data):
    nodes = data.draw(st.integers(min_value=3, max_value=12), label="nodes")
    extra = data.draw(st.integers(min_value=0, max_value=6), label="extra")
    topo_seed = data.draw(st.integers(min_value=0, max_value=999),
                          label="topo_seed")
    network = build_random_network(nodes, extra_circuits=extra,
                                   seed=topo_seed)
    link_count = len(network.links)

    cost_value = st.one_of(
        st.integers(min_value=1, max_value=20).map(float),
        st.just(UNREACHABLE),
    )
    costs = data.draw(
        st.lists(cost_value, min_size=link_count, max_size=link_count),
        label="costs",
    )
    link_id = st.integers(min_value=0, max_value=link_count - 1)
    changes = data.draw(
        st.lists(st.tuples(link_id, cost_value), max_size=link_count),
        label="changes",
    )
    # Lines that are down before the tree is built (the tree never used
    # them; their table costs may still be anything, even drop), and
    # lines that fail afterwards, whose owner's update reports them dead
    # in the same batch.
    down_before = data.draw(st.sets(link_id, max_size=3), label="down_before")
    down_after = data.draw(st.sets(link_id, max_size=3), label="down_after")
    for lid in down_before:
        network.links[lid].up = False

    tree = _tree(network, costs)
    for lid in sorted(down_after):
        network.links[lid].up = False
        changes.append((lid, UNREACHABLE))
    tree.update_costs(changes)

    final = list(costs)
    for lid, cost in changes:
        final[lid] = cost
    fresh = _tree(network, final)

    assert tree.dist == fresh.dist
    assert tree.parent_link == fresh.parent_link
    assert list(tree.costs.costs) == final
    _assert_valid_tree(tree, network, final)
