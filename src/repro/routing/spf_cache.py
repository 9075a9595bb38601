"""Lazily resolved next hops and network-wide shared Dijkstra trees.

**Lazy next hops.**  Single-path forwarding needs one decision per
packet: the outgoing link toward the destination.  Each PSN keeps a flat
``next_hop[dest]`` list that starts out :data:`UNRESOLVED` and is reset
to that whenever its SPF tree changes.  The first packet toward a
destination fills the entry with :func:`resolve_next_hop`, which walks
the tree's parent pointers and back-fills every node on the way, so
later packets pay one list index.  The entries are a pure function of
the owner's tree, so they agree with
:meth:`~repro.routing.spf.SpfTree.next_hop_link` decision for decision.

**Shared trees.**  The equal-cost multipath router needs a from-scratch
Dijkstra tree per neighbour per recompute.  With a consistent cost view,
every node's "tree rooted at X" is the same, so the :class:`SpfCache`
computes each once and shares it network-wide; during D-SPF oscillation
the network revisits the same few cost states, so trees are reused
across *time* too.  Entries are keyed by root, topology version
(:attr:`~repro.topology.graph.Network.topology_version`) and cost-table
content (:meth:`~repro.routing.spf.CostTable.cache_key`), so stale trees
can never be returned, only evicted; the store is bounded and evicts in
LRU order, deterministically.  Simulations build a cache only when
multipath forwarding is on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.routing.spf import CostTable, SpfTree
from repro.topology.graph import Network

#: A next-hop entry not resolved since the tree last changed (link ids
#: are >= 0, and ``None`` means "no route").
UNRESOLVED = -1


def resolve_next_hop(
    tree: SpfTree, table: List[Optional[int]], dest: int
) -> Optional[int]:
    """Resolve ``table[dest]``, the first link of ``tree``'s path to ``dest``.

    ``None`` for the root itself and for unreachable destinations, as
    :meth:`SpfTree.next_hop_link`.  The walk up the parent pointers
    stops at the root or at the first node already resolved, and every
    node it passed gets the same answer, so resolving all destinations
    costs O(N) in total.
    """
    root = tree.root
    parent_link = tree.parent_link
    links = tree.network.links
    chain = [dest]
    node = dest
    hop: Optional[int] = None
    while node != root:
        link_id = parent_link[node]
        if link_id is None:
            hop = None  # unreachable: the whole chain forwards nowhere
            break
        src = links[link_id].src
        if src == root:
            hop = link_id
            break
        hop = table[src]
        if hop != UNRESOLVED:
            break
        chain.append(src)
        node = src
    for member in chain:
        table[member] = hop
    return hop


@dataclass
class SpfCacheStats:
    """Hit/miss accounting for the shared-tree store."""

    tree_hits: int = 0
    tree_misses: int = 0
    evictions: int = 0

    @property
    def tree_lookups(self) -> int:
        return self.tree_hits + self.tree_misses


class SpfCache:
    """Shared from-scratch SPF trees for one network.

    Parameters
    ----------
    network:
        The shared topology.  Cache keys include its
        ``topology_version``, so link up/down events invalidate every
        entry computed under the old link state.
    max_entries:
        Bound on the store; least-recently-used entries are evicted.
    """

    def __init__(self, network: Network, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.network = network
        self.max_entries = max_entries
        self.stats = SpfCacheStats()
        self._trees: OrderedDict = OrderedDict()

    def __repr__(self) -> str:
        return (
            f"<SpfCache trees={len(self._trees)} "
            f"hits={self.stats.tree_hits}>"
        )

    def shared_tree(self, root: int, costs: CostTable) -> SpfTree:
        """A full Dijkstra tree rooted at ``root`` under ``costs``.

        The tree is computed from scratch on a miss (over a private copy
        of ``costs``) and shared by reference afterwards -- treat it as
        frozen.  Any node whose cost table has the same content gets the
        same tree object back.
        """
        key = (root, self.network.topology_version, costs.cache_key())
        tree = self._trees.get(key)
        if tree is not None:
            self.stats.tree_hits += 1
            self._trees.move_to_end(key)
            return tree
        self.stats.tree_misses += 1
        tree = SpfTree(self.network, root, costs.copy())
        self._trees[key] = tree
        if len(self._trees) > self.max_entries:
            self._trees.popitem(last=False)
            self.stats.evictions += 1
        return tree

    def clear(self) -> None:
        """Drop every cached tree (stats are kept)."""
        self._trees.clear()

    def __len__(self) -> int:
        return len(self._trees)
