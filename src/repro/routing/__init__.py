"""Route computation and dissemination.

* :class:`~repro.routing.spf.SpfTree` -- incremental Dijkstra SPF, the
  route computation both D-SPF and HN-SPF share,
* :class:`~repro.routing.spf.CostTable` -- a node's view of link costs,
* :class:`~repro.routing.flooding.FloodingState` -- sequence-numbered
  routing-update flooding (Rosen's updating protocol, simplified),
* :class:`~repro.routing.bellman_ford.BellmanFordNode` -- the original
  1969 distributed Bellman-Ford algorithm with the instantaneous
  queue-length metric, kept as a historical baseline,
* :func:`~repro.routing.spf_cache.resolve_next_hop` -- lazily resolved
  O(1) next-hop entries, and :class:`~repro.routing.spf_cache.SpfCache`
  -- network-wide sharing of the multipath router's Dijkstra trees,
* :class:`~repro.routing.defense.NodeDefense` -- Byzantine-update
  screening, neighbour quarantine and purge-and-reflood
  self-stabilization (the post-1980 ARPANET hardening).
"""

from repro.routing.bellman_ford import (
    BellmanFordNode,
    has_routing_loop,
    queue_length_metric,
)
from repro.routing.defense import (
    REJECT_REASONS,
    DefenseConfig,
    DefensePolicy,
    DefenseStats,
    NodeDefense,
)
from repro.routing.flooding import FloodingState, FloodingStats, RoutingUpdate
from repro.routing.multipath import MultipathRouter
from repro.routing.spf import UNREACHABLE, CostTable, SpfStats, SpfTree
from repro.routing.spf_cache import (
    UNRESOLVED,
    SpfCache,
    SpfCacheStats,
    resolve_next_hop,
)

__all__ = [
    "BellmanFordNode",
    "CostTable",
    "DefenseConfig",
    "DefensePolicy",
    "DefenseStats",
    "FloodingState",
    "FloodingStats",
    "MultipathRouter",
    "NodeDefense",
    "REJECT_REASONS",
    "RoutingUpdate",
    "SpfCache",
    "SpfCacheStats",
    "SpfStats",
    "SpfTree",
    "UNREACHABLE",
    "UNRESOLVED",
    "has_routing_loop",
    "queue_length_metric",
    "resolve_next_hop",
]
