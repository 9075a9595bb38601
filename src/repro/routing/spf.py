"""Shortest Path First route computation.

Each PSN knows the full topology and a cost for every link, and builds a
shortest-path tree rooted at itself with Dijkstra's algorithm [Dijkstra
1959].  The ARPANET implementation is an *incremental* SPF: when a routing
update changes one link's cost, the PSN adjusts only the affected part of
the tree -- e.g. *"if a routing update reports an increase in the cost for
a link not in the tree, the algorithm does not recompute any part of the
tree"*.

:class:`SpfTree` implements both the full computation and the incremental
update, and counts how much work each update costs (the Table-1 "PSN CPU
utilization" proxy).  Correctness of the incremental path is property-
tested against full recomputation.

**Canonical tie-breaking.**  Where several equal-cost shortest paths
exist, every code path -- full recompute, per-link incremental repair,
and the batched multi-link repair -- resolves the tie the same way:
each node's parent is the *smallest link id* among its tight in-links
(links ``u -> v`` with ``dist[u] + cost == dist[v]``).  Distances are a
pure function of the cost table, so with this rule the whole tree is
too: applying the same cost changes one at a time, in one batch, or by
recomputing from scratch yields bit-identical trees.  That is what lets
the simulator run batched SPF repair by default without perturbing the
per-update goldens, and what makes the multipath router's shared trees
(keyed only by cost-table content) exact rather than merely
tie-equivalent.

Every tree of a network walks the one adjacency the
:class:`~repro.topology.graph.Network` keeps
(:meth:`~repro.topology.graph.Network.static_adjacency`), skipping links
whose ``up`` flag is off, and reads the raw cost list.  Forwarding does
not walk the tree per packet: each PSN resolves next hops from the
parent pointers lazily (:func:`~repro.routing.spf_cache.resolve_next_hop`)
and forgets them whenever the tree changes.

Costs are floats so the analysis package can sweep costs in fractional
hops; the operational simulator feeds integer routing units.  Down links
have cost ``inf`` (:data:`UNREACHABLE`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.topology.graph import Network

#: Cost of an unusable (down) link.
UNREACHABLE = math.inf


@dataclass
class SpfStats:
    """Work counters for route computation."""

    full_computations: int = 0
    incremental_updates: int = 0
    no_op_updates: int = 0
    nodes_scanned: int = 0
    #: Batched multi-link repair passes (see :meth:`SpfTree.update_costs`).
    batched_passes: int = 0
    #: Individual link changes absorbed by those passes.
    batched_changes: int = 0

    def reset(self) -> "SpfStats":
        snapshot = SpfStats(
            self.full_computations,
            self.incremental_updates,
            self.no_op_updates,
            self.nodes_scanned,
            self.batched_passes,
            self.batched_changes,
        )
        self.full_computations = 0
        self.incremental_updates = 0
        self.no_op_updates = 0
        self.nodes_scanned = 0
        self.batched_passes = 0
        self.batched_changes = 0
        return snapshot


@dataclass
class CostTable:
    """A node's view of every link's cost, indexed by link id.

    ``table[link_id] = cost`` validates before it writes.  The SPF
    repair loops read (and, after validating, write) the raw ``costs``
    list directly.
    """

    costs: List[float]

    @classmethod
    def uniform(cls, network: Network, cost: float) -> "CostTable":
        return cls([cost] * len(network.links))

    @classmethod
    def from_metric(cls, network: Network, metric) -> "CostTable":
        """Initialize from a metric's idle costs (steady light load)."""
        return cls([metric.idle_cost(link) for link in network.links])

    def __getitem__(self, link_id: int) -> float:
        return self.costs[link_id]

    def __setitem__(self, link_id: int, cost: float) -> None:
        if cost < 0:
            raise ValueError(f"link cost must be >= 0, got {cost}")
        self.costs[link_id] = cost

    def copy(self) -> "CostTable":
        return CostTable(list(self.costs))

    def cache_key(self) -> tuple:
        """A hashable content key: tables with equal keys route identically.

        Built on demand in O(links).  Only the multipath router's shared
        Dijkstra trees (:meth:`~repro.routing.spf_cache.SpfCache.shared_tree`)
        key on it, and each of their recomputes runs (degree + 1) full
        Dijkstras anyway.
        """
        return tuple(self.costs)


class SpfTree:
    """A shortest-path tree rooted at one PSN, incrementally maintained.

    Parameters
    ----------
    network:
        The (shared, read-only) topology.
    root:
        Node id of the PSN owning this tree.
    costs:
        The node's cost table.  The tree keeps a reference: mutate it
        through :meth:`update_cost` so the tree stays consistent.
    """

    def __init__(self, network: Network, root: int, costs: CostTable) -> None:
        if root not in network.nodes:
            raise ValueError(f"unknown root {root}")
        self.network = network
        self.root = root
        self.costs = costs
        self.stats = SpfStats()
        self.dist: Dict[int, float] = {}
        #: link id of the tree edge *into* each node (None for root and
        #: unreachable nodes).
        self.parent_link: Dict[int, Optional[int]] = {}
        self.recompute()

    # ------------------------------------------------------------------
    # Full computation
    # ------------------------------------------------------------------
    def recompute(self) -> None:
        """Full Dijkstra from the root."""
        self.stats.full_computations += 1
        nodes = self.network.nodes
        self.dist = dict.fromkeys(nodes, UNREACHABLE)
        self.parent_link = dict.fromkeys(nodes)
        self.dist[self.root] = 0.0
        # Every settled node relaxes all its out-links, so the settle's
        # inline tie-compares see every tight in-link of every node: the
        # parents come out canonical without a separate sweep.
        self._settle([(0.0, 0, self.root)], 1)

    # ------------------------------------------------------------------
    # Incremental update
    # ------------------------------------------------------------------
    def update_cost(self, link_id: int, new_cost: float) -> bool:
        """Apply one link-cost change, adjusting only the affected region.

        Implements the classic incremental SPF cases:

        * cost increase on a link not in the tree: **no work at all**,
        * cost decrease: propagate the (possible) improvement from the
          link's head,
        * cost increase on a tree link: detach the affected subtree and
          re-attach it through its best boundary links.

        Returns ``True`` when the tree was adjusted and ``False`` for a
        no-op, so callers can keep routing state derived from the tree
        (e.g. resolved next hops) across no-op updates.
        """
        old_cost = self.costs[link_id]
        self.costs[link_id] = new_cost
        if new_cost == old_cost:
            self.stats.no_op_updates += 1
            return False
        link = self.network.link(link_id)
        in_tree = self.parent_link.get(link.dst) == link_id

        if new_cost < old_cost:
            base = self.dist[link.src]
            if math.isinf(base) or not link.up:
                self.stats.no_op_updates += 1
                return False
            if in_tree or base + new_cost < self.dist[link.dst]:
                self.stats.incremental_updates += 1
                self._propagate_improvement(link_id)
                return True
            if base + new_cost == self.dist[link.dst]:
                # The decrease created an exact tie: no distance moves,
                # but the canonical (min-link-id) parent may switch.
                current = self.parent_link[link.dst]
                if current is not None and link_id < current:
                    self.parent_link[link.dst] = link_id
                    self.stats.incremental_updates += 1
                    return True
            self.stats.no_op_updates += 1
            return False

        # Cost increased.
        if not in_tree:
            # "the algorithm does not recompute any part of the tree"
            self.stats.no_op_updates += 1
            return False
        self.stats.incremental_updates += 1
        self._reattach_subtree(link.dst)
        return True

    def update_costs(self, changes) -> bool:
        """Apply many link-cost changes in **one** repair pass.

        ``changes`` is an iterable of ``(link_id, new_cost)`` pairs (the
        last write wins when a link appears twice).  Semantically this is
        a batched routing interval: the tree afterwards is **bit
        identical** to applying the same changes one :meth:`update_cost`
        at a time, or to a full :meth:`recompute` -- all three resolve
        equal-cost ties with the canonical smallest-link-id rule (see
        the module docstring), and this equivalence is property-tested.

        The pass generalizes the single-link cases: all increased tree
        links detach one *union* subtree, which is re-seeded across its
        boundary together with every decreased link, then settled with a
        single Dijkstra scan.  Cost: one scan of the affected region,
        however many links changed, instead of one scan per link.

        Returns ``True`` when the tree was adjusted (same contract as
        :meth:`update_cost`).
        """
        effective: Dict[int, float] = {}
        for link_id, new_cost in changes:
            if new_cost < 0:
                raise ValueError(f"link cost must be >= 0, got {new_cost}")
            effective[link_id] = new_cost

        costs = self.costs.costs
        links = self.network.links
        dist = self.dist
        parent = self.parent_link
        decreased: List[int] = []
        detach_roots: List[int] = []
        applied = 0
        for link_id, new_cost in effective.items():
            old_cost = costs[link_id]
            if new_cost == old_cost:
                continue
            costs[link_id] = new_cost
            applied += 1
            if new_cost < old_cost:
                decreased.append(link_id)
            else:
                dst = links[link_id].dst
                if parent[dst] == link_id:
                    detach_roots.append(dst)
            # Increases on non-tree links need no work at all.

        if applied == 0:
            self.stats.no_op_updates += 1
            return False
        self.stats.batched_changes += applied

        # Detach the union of the subtrees below every increased tree
        # link; everything outside keeps a still-achievable distance.
        # Children are discovered through the static adjacency -- ``m``
        # hangs off ``n`` exactly when ``parent_link[m]`` is a link
        # n->m -- so the walk costs O(subtree * degree) instead of the
        # O(N) children index a 512-node tree pays per pass.
        out_adj, in_adj = self.network.static_adjacency()
        detached: Set[int] = set()
        if detach_roots:
            stack = detach_roots
            while stack:
                node = stack.pop()
                if node in detached:
                    continue
                detached.add(node)
                for link in out_adj[node]:
                    if parent[link.dst] == link.link_id:
                        stack.append(link.dst)
        for node in detached:
            dist[node] = UNREACHABLE
            parent[node] = None

        heappush = heapq.heappush
        heap: List = []
        sequence = 0
        moved = bool(detached)
        touched: Set[int] = set(detached)

        # Re-seed detached nodes from every link crossing the boundary.
        for node in detached:
            for link in in_adj[node]:
                if not link.up:
                    continue
                src = link.src
                if src in detached:
                    continue
                cost = costs[link.link_id]
                base = dist[src]
                if cost == UNREACHABLE or base == UNREACHABLE:
                    continue
                candidate = base + cost
                if candidate < dist[node]:
                    dist[node] = candidate
                    parent[node] = link.link_id
                    heappush(heap, (candidate, sequence, node))
                    sequence += 1

        # Relax every decreased link directly.  A down link carries
        # nothing, however cheap its last advertised cost.
        for link_id in decreased:
            link = links[link_id]
            if not link.up:
                continue
            base = dist[link.src]
            cost = costs[link_id]
            if base == UNREACHABLE or cost == UNREACHABLE:
                continue
            candidate = base + cost
            dst = link.dst
            if candidate < dist[dst]:
                dist[dst] = candidate
                parent[dst] = link_id
                touched.add(dst)
                heappush(heap, (candidate, sequence, dst))
                sequence += 1
                moved = True
            elif candidate == dist[dst]:
                # The decrease made this link exactly tight: the
                # canonical (min-link-id) parent may switch.
                current = parent[dst]
                if current is not None and link_id < current:
                    parent[dst] = link_id
                    moved = True

        if not heap and not moved:
            self.stats.no_op_updates += 1
            return False
        self.stats.batched_passes += 1

        # One settle pass over the whole affected region.
        touched.update(self._settle(heap, sequence))
        self._canonicalize_parents(touched)
        return True

    def _propagate_improvement(self, link_id: int) -> None:
        """Relax outward from a link whose cost dropped."""
        link = self.network.link(link_id)
        candidate = self.dist[link.src] + self.costs[link_id]
        if candidate < self.dist[link.dst] or (
            self.parent_link.get(link.dst) == link_id
            and candidate != self.dist[link.dst]
        ):
            self.dist[link.dst] = candidate
            self.parent_link[link.dst] = link_id
            touched = [link.dst]
            touched.extend(self._settle([(candidate, 0, link.dst)], 1))
            self._canonicalize_parents(touched)

    def _reattach_subtree(self, subtree_root: int) -> None:
        """Recompute distances for the subtree hanging off ``subtree_root``.

        Every node outside the subtree keeps its (still optimal) distance;
        subtree nodes are re-seeded from all links crossing into the
        subtree, then settled with Dijkstra.
        """
        subtree = self._collect_subtree(subtree_root)
        for node in subtree:
            self.dist[node] = UNREACHABLE
            self.parent_link[node] = None

        _out_adj, in_adj = self.network.static_adjacency()
        heap: List = []
        sequence = 0
        for node in subtree:
            for link in in_adj[node]:
                if not link.up or link.src in subtree:
                    continue
                cost = self.costs[link.link_id]
                base = self.dist[link.src]
                if cost == UNREACHABLE or base == UNREACHABLE:
                    continue
                candidate = base + cost
                if candidate < self.dist[node]:
                    self.dist[node] = candidate
                    self.parent_link[node] = link.link_id
                    heapq.heappush(heap, (candidate, sequence, node))
                    sequence += 1
        self._settle(heap, sequence)
        self._canonicalize_parents(subtree)

    def _settle(self, heap: List, sequence: int) -> List[int]:
        """Dijkstra-settle a repair's seeded heap over up links.

        ``sequence`` continues the tie-breaking counter of the heap
        entries already pushed.  Returns the nodes whose distance
        dropped, in order.
        """
        out_adj, _in_adj = self.network.static_adjacency()
        dist = self.dist
        parent = self.parent_link
        costs = self.costs.costs
        heappush = heapq.heappush
        heappop = heapq.heappop
        moved: List[int] = []
        scanned = 0
        while heap:
            d, _seq, node = heappop(heap)
            if d > dist[node]:
                continue
            scanned += 1
            for out in out_adj[node]:
                if not out.up:
                    continue
                out_id = out.link_id
                cost = costs[out_id]
                if cost == UNREACHABLE:
                    continue
                candidate = d + cost
                dst = out.dst
                known = dist[dst]
                if candidate < known:
                    dist[dst] = candidate
                    parent[dst] = out_id
                    moved.append(dst)
                    heappush(heap, (candidate, sequence, dst))
                    sequence += 1
                elif candidate == known:
                    # A new tie into a node whose distance is unchanged:
                    # its canonical parent is min(old parent, this link).
                    current = parent[dst]
                    if current is not None and out_id < current:
                        parent[dst] = out_id
        self.stats.nodes_scanned += scanned
        return moved

    def _canonicalize_parents(self, nodes) -> None:
        """Re-derive the canonical parent for ``nodes`` from final dists.

        The inline tie-comparisons in the relaxation loops keep parents
        canonical for nodes whose distance never changed, but a node
        whose distance *moved* can be tight through an in-link whose
        source was never rescanned in that pass.  Tightness is a pure
        function of distances and costs, so one sweep over the moved
        nodes -- picking the smallest tight in-link id -- restores the
        global invariant at O(moved * degree).  In-links are listed in
        link-id order, so the first tight one is the smallest.
        """
        if not nodes:
            return
        _out_adj, in_adj = self.network.static_adjacency()
        dist = self.dist
        parent = self.parent_link
        costs = self.costs.costs
        root = self.root
        for node in nodes:
            if node == root:
                continue
            d = dist[node]
            best: Optional[int] = None
            if d != UNREACHABLE:
                for link in in_adj[node]:
                    if not link.up:
                        continue
                    cost = costs[link.link_id]
                    if cost != UNREACHABLE and dist[link.src] + cost == d:
                        best = link.link_id
                        break
            parent[node] = best

    def _children_index(self) -> Dict[int, List[int]]:
        """Tree children per node, from the parent-link pointers."""
        children: Dict[int, List[int]] = {}
        links = self.network.links
        for node, link_id in self.parent_link.items():
            if link_id is not None:
                src = links[link_id].src
                bucket = children.get(src)
                if bucket is None:
                    children[src] = [node]
                else:
                    bucket.append(node)
        return children

    def _collect_subtree(self, subtree_root: int) -> Set[int]:
        """All nodes whose tree path passes through ``subtree_root``."""
        children = self._children_index()
        subtree: Set[int] = set()
        stack = [subtree_root]
        while stack:
            node = stack.pop()
            if node in subtree:
                continue
            subtree.add(node)
            stack.extend(children.get(node, ()))
        return subtree

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reachable(self, dest: int) -> bool:
        """Whether the root currently has any path to ``dest``."""
        return not math.isinf(self.dist[dest])

    def next_hop_link(self, dest: int) -> Optional[int]:
        """The outgoing link the root uses toward ``dest``.

        ``None`` for the root itself or unreachable destinations.  This is
        the single-path forwarding decision: all packets for ``dest`` leave
        on this link.
        """
        if dest == self.root or not self.reachable(dest):
            return None
        node = dest
        while True:
            link_id = self.parent_link[node]
            link = self.network.link(link_id)
            if link.src == self.root:
                return link_id
            node = link.src

    def path_links(self, dest: int) -> List[int]:
        """Tree path from the root to ``dest`` as link ids (may be [])."""
        if dest == self.root or not self.reachable(dest):
            return []
        links: List[int] = []
        node = dest
        while node != self.root:
            link_id = self.parent_link[node]
            links.append(link_id)
            node = self.network.link(link_id).src
        links.reverse()
        return links

    def path_nodes(self, dest: int) -> List[int]:
        """Tree path from the root to ``dest`` as node ids."""
        if not self.reachable(dest):
            return []
        nodes = [self.root]
        for link_id in self.path_links(dest):
            nodes.append(self.network.link(link_id).dst)
        return nodes

    def hop_count(self, dest: int) -> int:
        """Number of links on the tree path to ``dest`` (0 for the root)."""
        return len(self.path_links(dest))

    def uses_link(self, dest: int, link_id: int) -> bool:
        """Whether the root's route to ``dest`` traverses ``link_id``."""
        return link_id in self.path_links(dest)
