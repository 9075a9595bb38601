"""Statistics collection and the simulation report.

One :class:`StatsCollector` instance observes a whole simulation run:
packet fates, routing-update traffic, reported-cost and utilization time
series.  :meth:`StatsCollector.report` condenses it into the indicators
Table 1 uses (delay, throughput, update rates, path lengths) plus drop
counts for Figure 13.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import COST_CHANGE, PACKET_DROP, UTILIZATION, Tracer
from repro.psn.packet import Packet
from repro.routing.spf import CostTable, SpfTree
from repro.topology.graph import Network


class DeliveryTimeline:
    """Bucketed offered/delivered packet counts over simulation time.

    The summary report only keeps whole-run totals; resilience analysis
    needs *when* delivery dipped -- the fraction of offered packets that
    made it through while the network routed around a fault.  The
    timeline buckets both counters (default one-second buckets, O(1) per
    packet) so :func:`repro.report.resilience_summary` can ask for the
    delivery fraction over any window.  It is only attached when a run
    has faults or invariant checking enabled; otherwise the collector
    holds ``None`` and the hot path pays a single ``is not None`` test.
    """

    __slots__ = ("bucket_s", "offered", "delivered")

    def __init__(self, bucket_s: float = 1.0) -> None:
        if bucket_s <= 0:
            raise ValueError(f"bucket must be positive: {bucket_s}")
        self.bucket_s = bucket_s
        self.offered: Dict[int, int] = {}
        self.delivered: Dict[int, int] = {}

    def record_offered(self, now: float) -> None:
        bucket = int(now / self.bucket_s)
        self.offered[bucket] = self.offered.get(bucket, 0) + 1

    def record_delivered(self, now: float) -> None:
        bucket = int(now / self.bucket_s)
        self.delivered[bucket] = self.delivered.get(bucket, 0) + 1

    def fraction(self, start_s: float, end_s: float) -> float:
        """Delivered / offered over ``[start_s, end_s)`` (NaN if idle)."""
        if end_s <= start_s:
            return float("nan")
        first = int(start_s / self.bucket_s)
        last = int((end_s - 1e-12) / self.bucket_s)
        offered = sum(
            self.offered.get(b, 0) for b in range(first, last + 1)
        )
        if offered == 0:
            return float("nan")
        delivered = sum(
            self.delivered.get(b, 0) for b in range(first, last + 1)
        )
        return delivered / offered


@dataclass
class SimulationReport:
    """Summary indicators of one run (the Table-1 row set).

    Besides the dataclass fields, every report carries a ``telemetry``
    attribute: the :class:`~repro.obs.telemetry.RunTelemetry` counter
    block of the producing run, or ``None`` for reports built directly
    from a collector.  It is deliberately *not* a dataclass field --
    ``dataclasses.asdict`` (and therefore the golden snapshots, which
    pin the report bit-for-bit) sees only the behavioural indicators,
    never the observability side-channel.
    """

    metric_name: str
    duration_s: float
    #: Delivered internode traffic, kb/s.
    internode_traffic_kbps: float
    #: Mean round-trip delay, ms (twice the mean one-way delay; the
    #: ARPANET measured echoes, we measure one-way transit).
    round_trip_delay_ms: float
    #: Routing updates generated network-wide per second.
    updates_per_s: float
    #: Routing-update transmissions per trunk per second (flooding puts
    #: each update on every link; Table 1's "Rtg. Updates per Trunk/sec").
    #: Averaged over the whole run, warmup included, unless the run used
    #: ``post_warmup_update_rates=True`` (then post-warmup only).
    updates_per_trunk_s: float
    #: Mean seconds between updates per node.
    update_period_per_node_s: float
    #: Mean hops actually traversed per delivered packet.
    actual_path_hops: float
    #: Mean minimum-hop path length over the same packets.
    minimum_path_hops: float
    #: Congestion (buffer/line) drops.
    congestion_drops: int
    #: Packets dropped for other reasons (no route, hop limit).
    other_drops: int
    #: Packets delivered.
    delivered_packets: int
    #: Offered packets.
    offered_packets: int
    #: One-way delay percentiles over delivered packets, milliseconds.
    delay_p50_ms: float = 0.0
    delay_p90_ms: float = 0.0
    delay_p99_ms: float = 0.0

    def __post_init__(self) -> None:
        # Attached by NetworkSimulation.run(); see the class docstring
        # for why these are attributes and not fields.  ``telemetry`` is
        # the run's counter block; ``invariant_violations`` is the
        # InvariantMonitor's findings (None when checking was off);
        # ``resilience`` is the per-fault recovery summary (None when the
        # run had no fault plan).
        self.telemetry = None
        self.invariant_violations = None
        self.resilience = None

    @property
    def path_ratio(self) -> float:
        """Actual / minimum path length (1.0 = always shortest-hop)."""
        if self.minimum_path_hops == 0:
            return float("nan")
        return self.actual_path_hops / self.minimum_path_hops

    @property
    def delivery_ratio(self) -> float:
        """Delivered / offered packets."""
        if self.offered_packets == 0:
            return float("nan")
        return self.delivered_packets / self.offered_packets


class StatsCollector:
    """Accumulates everything a run reports.

    Parameters
    ----------
    network:
        Topology (used to precompute minimum-hop distances).
    warmup_s:
        Events before this simulation time are ignored in summaries
        (route tables and filters need time to settle).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; when enabled, the
        collector also emits drop, cost-change and utilization trace
        events as they are recorded.  Disabled or absent tracers cost
        nothing (the emission sites hold ``None``).
    post_warmup_update_rates:
        Compute ``updates_per_trunk_s`` over the post-warmup window
        only, from the post-warmup transmission count the simulation
        supplies.  Default off: the historical indicator averages the
        whole run, warmup (and its boot flood) included, which skews
        Table-1 comparisons -- see ``docs/observability.md``.
    timeline:
        Optional :class:`DeliveryTimeline`; when present, every offered
        and delivered packet is also bucketed by time (warmup included)
        for resilience analysis.  ``None`` (the default) costs one
        ``is not None`` test per packet.
    """

    def __init__(
        self,
        network: Network,
        warmup_s: float = 0.0,
        tracer: Optional[Tracer] = None,
        post_warmup_update_rates: bool = False,
        timeline: Optional[DeliveryTimeline] = None,
    ) -> None:
        self.network = network
        self.warmup_s = warmup_s
        self.post_warmup_update_rates = post_warmup_update_rates
        self.timeline = timeline
        #: None when tracing is disabled, so emission sites pay one
        #: ``is not None`` test and nothing else.
        self._trace: Optional[Tracer] = (
            tracer if tracer is not None and tracer.enabled else None
        )
        self.delivered = 0
        self.offered = 0
        self.delay_sum_s = 0.0
        #: Reservoir sample of one-way delays for percentile estimates.
        self._delay_reservoir: List[float] = []
        self._reservoir_limit = 50_000
        self._reservoir_seen = 0
        self.bits_delivered = 0.0
        self.hops_sum = 0
        self.min_hops_sum = 0
        self.congestion_drops = 0
        self.unreachable_drops = 0
        self.hop_limit_drops = 0
        self.updates_originated = 0
        #: (time, link_id, cost) for every line of every originated update.
        self.cost_history: List[Tuple[float, int, int]] = []
        #: (time, origin, index of its first ``cost_history`` row) for
        #: every originated update, warmup included.
        self.update_log: List[Tuple[float, int, int]] = []
        #: per-link utilization time series: link_id -> [(time, value)].
        self.utilization_history: Dict[int, List[Tuple[float, float]]] = \
            defaultdict(list)
        self._min_hop_trees: Dict[int, SpfTree] = {}
        # Per-pair memo over the trees above (one walk per pair, not per
        # delivered packet).
        self._min_hop_pairs: Dict[Tuple[int, int], int] = {}
        self._first_event_s: Optional[float] = None
        self._last_event_s: float = 0.0

    # ------------------------------------------------------------------
    # Recording callbacks (invoked by PSNs / sources / transmitters)
    # ------------------------------------------------------------------
    def _note_time(self, now: float) -> None:
        if now < self.warmup_s:
            return
        if self._first_event_s is None:
            self._first_event_s = now
        self._last_event_s = max(self._last_event_s, now)

    def packet_offered(self, now: float) -> None:
        if self.timeline is not None:
            self.timeline.record_offered(now)
        if now < self.warmup_s:
            return
        self._note_time(now)
        self.offered += 1

    def packet_delivered(self, packet: Packet, now: float) -> None:
        if self.timeline is not None:
            self.timeline.record_delivered(now)
        if packet.created_s < self.warmup_s:
            return
        self._note_time(now)
        self.delivered += 1
        self.delay_sum_s += now - packet.created_s
        self._sample_delay(now - packet.created_s)
        self.bits_delivered += packet.size_bits
        self.hops_sum += packet.hop_count
        pair = (packet.src, packet.dst)
        min_hops = self._min_hop_pairs.get(pair)
        if min_hops is None:
            min_hops = self._min_hop_pairs[pair] = \
                self.min_hop_distance(*pair)
        self.min_hops_sum += min_hops

    def packet_dropped(self, packet: Packet, reason: str, now: float) -> None:
        if self._trace is not None:
            self._trace.emit(
                now, PACKET_DROP, node=packet.src,
                data={"reason": reason, "dst": packet.dst},
            )
        if now < self.warmup_s:
            return
        self._note_time(now)
        if reason == "congestion":
            self.congestion_drops += 1
        elif reason == "unreachable":
            self.unreachable_drops += 1
        elif reason == "hop-limit":
            self.hop_limit_drops += 1
        else:
            raise ValueError(f"unknown drop reason {reason!r}")

    def update_originated(self, origin: int, entries, now: float) -> None:
        """One node update, carrying ``(link_id, cost)`` per line.

        Counts one origination (Table 1 counts updates per node) and
        records one cost-history row per line.
        """
        self._note_time(now)
        history = self.cost_history
        self.update_log.append((now, origin, len(history)))
        for link_id, cost in entries:
            history.append((now, link_id, cost))
            if self._trace is not None:
                self._trace.emit(now, COST_CHANGE, link=link_id, value=cost)
        if now >= self.warmup_s:
            self.updates_originated += 1

    def utilization_sample(
        self, link_id: int, value: float, now: float
    ) -> None:
        self.utilization_history[link_id].append((now, value))
        if self._trace is not None:
            self._trace.emit(now, UTILIZATION, link=link_id, value=value)

    def _sample_delay(self, delay_s: float) -> None:
        """Reservoir sampling (Vitter's algorithm R) of delays."""
        self._reservoir_seen += 1
        if len(self._delay_reservoir) < self._reservoir_limit:
            self._delay_reservoir.append(delay_s)
            return
        # Deterministic (hash-free) replacement index keeps runs
        # reproducible without threading an RNG through the collector.
        slot = (self._reservoir_seen * 2654435761) % self._reservoir_seen
        if slot < self._reservoir_limit:
            self._delay_reservoir[slot] = delay_s

    def delay_percentile_ms(self, fraction: float) -> float:
        """Estimated one-way delay percentile in milliseconds."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        if not self._delay_reservoir:
            return 0.0
        ordered = sorted(self._delay_reservoir)
        index = min(
            int(fraction * len(ordered)), len(ordered) - 1
        )
        return ordered[index] * 1000.0

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------
    def min_hop_distance(self, src: int, dst: int) -> int:
        """Minimum-hop distance on the full topology (cached trees)."""
        if src not in self._min_hop_trees:
            self._min_hop_trees[src] = SpfTree(
                self.network, src, CostTable.uniform(self.network, 1.0)
            )
        return self._min_hop_trees[src].hop_count(dst)

    def cost_series(self, link_id: int) -> List[Tuple[float, int]]:
        """Reported-cost time series for one link."""
        return [
            (t, cost) for t, lid, cost in self.cost_history if lid == link_id
        ]

    def report(
        self,
        metric_name: str,
        duration_s: float,
        update_transmissions: int = 0,
    ) -> SimulationReport:
        """Summarize the run over its post-warmup window.

        ``update_transmissions`` is the count of routing-update packets
        put on the wire (supplied by the simulation, which owns the
        transmitters): the whole-run total normally, or the post-warmup
        count when the collector was built with
        ``post_warmup_update_rates=True`` (the rate then divides by the
        post-warmup window instead of the full duration).
        """
        window_s = max(duration_s - self.warmup_s, 1e-9)
        mean_delay_s = (
            self.delay_sum_s / self.delivered if self.delivered else 0.0
        )
        node_count = max(len(self.network), 1)
        updates_per_s = self.updates_originated / window_s
        per_node_rate = updates_per_s / node_count
        update_period = (1.0 / per_node_rate) if per_node_rate > 0 else 0.0
        trunk_count = max(len(self.network.links), 1)
        update_rate_window_s = (
            window_s if self.post_warmup_update_rates else duration_s
        )
        return SimulationReport(
            metric_name=metric_name,
            duration_s=window_s,
            internode_traffic_kbps=self.bits_delivered / window_s / 1000.0,
            round_trip_delay_ms=2.0 * mean_delay_s * 1000.0,
            updates_per_s=updates_per_s,
            updates_per_trunk_s=(
                update_transmissions / trunk_count / update_rate_window_s
            ),
            update_period_per_node_s=update_period,
            actual_path_hops=(
                self.hops_sum / self.delivered if self.delivered else 0.0
            ),
            minimum_path_hops=(
                self.min_hops_sum / self.delivered if self.delivered else 0.0
            ),
            congestion_drops=self.congestion_drops,
            other_drops=self.unreachable_drops + self.hop_limit_drops,
            delivered_packets=self.delivered,
            offered_packets=self.offered,
            delay_p50_ms=self.delay_percentile_ms(0.50),
            delay_p90_ms=self.delay_percentile_ms(0.90),
            delay_p99_ms=self.delay_percentile_ms(0.99),
        )
