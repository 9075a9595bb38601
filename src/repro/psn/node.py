"""The PSN: forwarding, measurement, update generation, route maintenance.

Each :class:`Psn` owns the transmitters of its outgoing links, a private
cost table with an incrementally-maintained SPF tree, flooding state, and
per-link metric state.  A measurement process closes a ten-second
averaging interval per link and runs the metric; when any line's change
is significant (or the 50-second cap expires), the PSN floods one update
carrying the fresh cost of every one of its lines.

Routing-update packets are processed the instant they are delivered --
*"routing update processing is a high priority process within the PSN"* --
which is exactly what makes all nodes shift their routes near-
simultaneously and fuels D-SPF's oscillation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.des import RandomStreams, Simulator
from repro.metrics.base import LinkMetric
from repro.metrics.queueing import service_time_s
from repro.obs.profiler import PhaseProfiler, instrument_psn
from repro.obs.tracer import (
    DB_PURGED,
    FLOOD_SUPPRESSED,
    NEIGHBOR_QUARANTINED,
    SPF_BATCH_REPAIR,
    SPF_RECOMPUTE,
    UPDATE_ACCEPTED,
    UPDATE_ACKED,
    UPDATE_FLOODED,
    UPDATE_GENERATED,
    UPDATE_REJECTED,
    UPDATE_SUPPRESSED,
    Tracer,
)
from repro.psn.flow_control import RFNM_BITS, HostInterface
from repro.psn.interfaces import PROCESSING_DELAY_S, LinkTransmitter
from repro.psn.measurement import DelayAverager, SignificanceCriterion
from repro.psn.packet import Packet, PacketKind, acquire, release

#: Hot-path aliases: one global load instead of two attribute chases.
_ROUTING_UPDATE = PacketKind.ROUTING_UPDATE
_UPDATE_ACK = PacketKind.UPDATE_ACK
_RFNM = PacketKind.RFNM
from repro.routing.defense import DefensePolicy, NodeDefense
from repro.routing.flooding import FloodingState, RoutingUpdate
from repro.routing.multipath import MultipathRouter
from repro.routing.spf import UNREACHABLE, CostTable, SpfTree
from repro.routing.spf_cache import SpfCache
from repro.topology.graph import Link, Network
from repro.units import MEASUREMENT_INTERVAL_S

if TYPE_CHECKING:  # pragma: no cover - avoids a psn <-> sim import cycle
    from repro.sim.stats import StatsCollector

#: Update cost advertising a dead link (anything >= this maps to inf).
DOWN_COST = 2 ** 20

#: Forwarding hop limit; transient inconsistency can loop packets.
MAX_HOPS = 32

#: Size of a routing-update packet on the wire (bits).
UPDATE_PACKET_BITS = 1000.0

#: Size of an update acknowledgement (bits).
ACK_PACKET_BITS = 200.0

#: How often unacknowledged updates are retransmitted (seconds).  Rosen's
#: protocol retransmits until the neighbour acknowledges or the line is
#: declared dead.
UPDATE_RETRANSMIT_S = 1.0

#: Incremental flooding: how long the deferring side of a circuit holds
#: a flood forward, in units of one-way control flight time
#: (serialization + propagation + processing).  Two flights let the
#: peer's symmetric copy -- sent when ours was decided -- arrive and
#: plant the suppression proof before ours hits the wire.
FLOOD_DEFER_FLIGHTS = 2.0


class Psn:
    """One packet switching node.

    Parameters
    ----------
    sim, network, node_id:
        Where and who.
    metric:
        The link metric in force (shared by all nodes).
    transmitters:
        This node's outgoing-link transmitters, keyed by link id.
    stats:
        The run-wide statistics collector.
    streams:
        Random streams (used to stagger measurement phases).
    measurement_interval_s:
        The averaging period (paper: 10 s).
    spf_cache:
        Optional network-wide :class:`~repro.routing.spf_cache.SpfCache`.
        When present, per-packet forwarding consults a flat next-hop
        table compiled from (and kept consistent with) the node's SPF
        tree, instead of walking the tree's parent pointers; the
        equal-cost multipath router also shares its Dijkstra trees
        through it.  Pure speed: decisions are identical either way.
    batched_spf:
        Buffer incoming routing updates and repair the SPF tree with one
        :meth:`~repro.routing.spf.SpfTree.update_costs` pass when the
        tree is next consulted (a forwarding decision), instead of one
        incremental repair per update.  Routing-update *bursts* -- a
        flood reaching this node while it has no data packet in flight --
        then cost one Dijkstra pass instead of many.  Batched and
        per-update repair share the canonical smallest-link-id tie-break
        (see :mod:`repro.routing.spf`), so the resulting trees are bit
        identical and scenarios enable batching by default.  Ignored
        under multipath, whose router recomputes per update anyway.
    incremental_flooding:
        Maintain per-neighbour sequence windows and suppress provably
        redundant update forwards, at flood time and at wire time (see
        :mod:`repro.routing.flooding`).  On each circuit the higher-id
        endpoint additionally *defers* its forwards by one cross-flight
        time, so the peer's symmetric copy -- which would otherwise
        cross ours in flight -- arrives first and plants the
        suppression proof.  Every node still learns every cost change;
        reliable delivery is untouched (no proof means send), but the
        flood stops delivering each update over every circuit twice.
        Scenarios auto-enable this at the large-network threshold.
    dup_ack_suppression:
        Skip the explicit acknowledgement of a *duplicate* update when
        this node's own copy of the same (or a newer) update was already
        queued toward the sender -- that copy's arrival acts as the
        implicit ack, so the explicit one is redundant.  The skip keeps
        an **owed-ack** record: if the wire-time suppressor later
        cancels the en-route copy (the proof evaporates), the owed ack
        is paid on the spot -- piggybacked on the next queued control
        packet's header when the backlog offers a carrier (acks were
        header bits in the real IMP protocol), standalone otherwise --
        and if the sender retransmits
        anyway (the copy was lost to line noise, or the sender was
        stuck when it arrived) the second duplicate is acknowledged
        unconditionally.  Retransmission reliability is therefore
        untouched: every skip either becomes an implicit ack or is
        repaid within one retransmission period.  Requires (and is
        forced off without) ``incremental_flooding``, whose sent/acked
        windows carry the proofs.
    defense_policy:
        Optional shared :class:`~repro.routing.defense.DefensePolicy`;
        when given, every received update is screened (cost bounds,
        sequence plausibility, per-neighbour rate limiting with
        quarantine) before it can touch the flooding database, and a
        periodic purge pass evicts entries not refreshed within the
        policy's age bound (the post-1980 self-stabilization).  ``None``
        (the default) allocates nothing and adds no checks.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` recording this node's
        control-plane events (update generation, flood forwarding,
        duplicate suppression, SPF repairs).  A disabled or absent
        tracer costs nothing: the emission sites hold ``None`` and the
        per-packet forwarding path is never traced at all.
    profiler:
        Optional :class:`~repro.obs.profiler.PhaseProfiler`; when given,
        this node's SPF, forwarding and measurement entry points are
        wrapped for per-phase wall-time attribution (``profile=True``
        runs only -- wrapping changes timing, never behaviour).
    idle_costs:
        The network's idle cost table
        (:meth:`~repro.routing.spf.CostTable.from_metric`), built once
        per simulation; each node starts from its own copy.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        metric: LinkMetric,
        transmitters: Dict[int, LinkTransmitter],
        stats: "StatsCollector",
        streams: RandomStreams,
        measurement_interval_s: float = MEASUREMENT_INTERVAL_S,
        multipath_mode: Optional[str] = None,
        multipath_slack: float = 0.0,
        flow_control_window: Optional[int] = None,
        spf_cache: Optional[SpfCache] = None,
        batched_spf: bool = False,
        incremental_flooding: bool = False,
        dup_ack_suppression: bool = False,
        defense_policy: Optional[DefensePolicy] = None,
        tracer: Optional[Tracer] = None,
        profiler: Optional[PhaseProfiler] = None,
        *,
        idle_costs: CostTable,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.metric = metric
        self.transmitters = transmitters
        self.stats = stats
        self.measurement_interval_s = measurement_interval_s
        #: None unless an *enabled* tracer was supplied: the emission
        #: sites then pay one ``is not None`` test, nothing more.
        self._trace: Optional[Tracer] = (
            tracer if tracer is not None and tracer.enabled else None
        )

        # End-to-end (RFNM) flow control, if the scenario enables it.
        self.host: Optional[HostInterface] = None
        if flow_control_window is not None:
            self.host = HostInterface(
                window=flow_control_window, send=self._inject_now
            )

        self.costs = idle_costs.copy()
        self.flooding = FloodingState(
            network, node_id, neighbor_windows=incremental_flooding
        )
        self._incremental_flooding = incremental_flooding
        #: Duplicate-ack suppression rides on the incremental-flooding
        #: windows (they carry the en-route proof); without them there
        #: is never a proof, so the knob degrades to off.
        self._dup_ack = dup_ack_suppression and incremental_flooding
        #: Owed acknowledgements: (out link id, origin) -> the
        #: sequence whose en-route copy justified skipping an explicit
        #: duplicate ack.  Settled silently when the neighbour's ack
        #: arrives, paid explicitly when the wire-time suppressor
        #: cancels the en-route copy or the neighbour retransmits.
        self._ack_owed: Dict[tuple, int] = {}
        #: Byzantine-fault defense state (None = defenses off: no
        #: screening, no purge timer, nothing allocated).
        self.defense: Optional[NodeDefense] = None
        #: Adversarial stuck-node flag: while True the control plane is
        #: frozen -- incoming updates and acks are dropped on the floor
        #: (no ack, no application, no re-flood) and nothing originates.
        #: The data plane keeps forwarding on the frozen tables.
        self.control_stuck = False
        if defense_policy is not None:
            self.defense = NodeDefense(defense_policy, node_id, self.flooding)
            self.defense.on_quarantine = self._on_quarantine
            purge_interval = defense_policy.config.purge_interval_s
            if purge_interval > 0:
                sim.timers.every(
                    purge_interval, self._purge_tick,
                    first_fire_s=purge_interval,
                )
        #: Forward hold time per deferring out-link (see below); empty
        #: with incremental flooding off.
        self._defer_s: Dict[int, float] = {}
        self._metric_state: Dict[int, object] = {}
        self._averager: Dict[int, DelayAverager] = {}
        self._criterion: Dict[int, SignificanceCriterion] = {}
        self._advertised: Dict[int, int] = {}

        for link_id, transmitter in transmitters.items():
            link = network.link(link_id)
            self._init_link_state(link)
            transmitter.on_delay_sample = self._averager[link_id].add_sample
            # Everyone assumes idle costs at boot; advertise our real
            # initial (ease-in) costs so the network learns them.
            initial = metric.initial_cost(link)
            self.costs[link_id] = float(initial)
            self._advertised[link_id] = initial
            if incremental_flooding:
                transmitter.suppress_update = \
                    self._make_wire_suppressor(link_id)
                if node_id > link.dst:
                    # Deferring side of this circuit: hold forwards for
                    # two cross-flight times (serialization + propagation
                    # + processing, both ways) so the peer's copy of the
                    # same update can arrive and prove itself redundant.
                    self._defer_s[link_id] = FLOOD_DEFER_FLIGHTS * (
                        UPDATE_PACKET_BITS / link.bandwidth_bps
                        + link.propagation_s
                        + PROCESSING_DELAY_S
                    )

        self.tree = SpfTree(network, node_id, self.costs)
        # Hot-path forwarding: a flat next-hop table compiled from the
        # tree, fetched from the shared cache and dropped whenever a
        # routing update touches our cost table.
        self.spf_cache = spf_cache
        self._forwarding: Optional[list] = None
        # Batched SPF repair: updates land in this buffer and are applied
        # in one update_costs pass when the tree is next consulted.  None
        # means per-update (eager) repair.  The *cost table* is written
        # eagerly either way -- only the tree repair lags -- so reading
        # ``psn.costs`` never depends on when this node last forwarded a
        # packet; ``_pending_old`` remembers each buffered link's
        # pre-batch cost so the flush can hand ``update_costs`` the true
        # before/after diff.
        self._pending_updates: Optional[list] = (
            [] if (batched_spf and multipath_mode is None) else None
        )
        self._pending_old: Dict[int, float] = {}
        # Optional extension: equal-cost multipath forwarding (the
        # remedy the paper's section 4.5 cites for few-large-flows
        # traffic).  The router shares our cost table and is rebuilt
        # whenever an update lands.
        self.router: Optional[MultipathRouter] = None
        if multipath_mode is not None:
            self.router = MultipathRouter(
                network, node_id, self.costs, mode=multipath_mode,
                slack=multipath_slack, cache=spf_cache,
            )
        # Profiling must wrap the instance methods *before* the timer
        # registrations below capture bound callbacks.
        if profiler is not None:
            instrument_psn(profiler, self)
        offset = streams.uniform(
            f"psn-{node_id}-phase", 0.0, measurement_interval_s
        )
        # Periodic work rides the timer wheel: one reusable heap entry
        # per timer instead of a Timeout + generator resumption per tick.
        self._measurement = sim.timers.every(
            measurement_interval_s,
            self._close_measurement_interval,
            first_fire_s=offset + measurement_interval_s,
        )
        # Reliable update delivery (Rosen's protocol): every update sent
        # on a link is retransmitted until the neighbour acknowledges it.
        # (link_id, origin) -> (update, send time).
        self._unacked: Dict[tuple, tuple] = {}
        sim.timers.every(UPDATE_RETRANSMIT_S, self._retransmit_tick)
        # A booting PSN floods its links' initial (ease-in) costs --
        # otherwise the rest of the network would assume idle costs and
        # the ease-in would only exist in the owner's imagination.
        boot_jitter = streams.uniform(f"psn-{node_id}-boot", 0.0, 0.1)
        sim.call_in(boot_jitter, self.advertise)

    def _init_link_state(self, link: Link) -> None:
        zero_load = (
            service_time_s(link.bandwidth_bps)
            + link.propagation_s
            + PROCESSING_DELAY_S
        )
        self._metric_state[link.link_id] = self.metric.create_state(link)
        self._averager[link.link_id] = DelayAverager(zero_load)
        self._criterion[link.link_id] = SignificanceCriterion(
            self.metric.change_threshold(link),
            measurement_interval_s=self.measurement_interval_s,
        )

    # ------------------------------------------------------------------
    # Packet plane
    # ------------------------------------------------------------------
    def inject(self, src: int, dst: int, size_bits: float) -> None:
        """Accept a locally generated message.

        With flow control enabled the message may wait in the host queue
        for window space; otherwise it enters the subnet immediately.
        """
        self.stats.packet_offered(self.sim.now)
        if self.host is not None:
            self.host.submit(dst, size_bits)
            return
        self._inject_now(dst, size_bits)

    def _inject_now(self, dst: int, size_bits: float) -> None:
        self.forward(acquire(
            PacketKind.DATA, self.node_id, dst, size_bits, self.sim.now,
        ))

    def receive(self, packet: Packet, via: Link) -> None:
        """Handle a packet delivered by a neighbour's transmitter.

        Every terminal fate (an update or ack consumed, a message or
        RFNM at its destination) releases the packet back to the
        freelist; transit packets pass to :meth:`forward`, which owns
        them from then on.
        """
        kind = packet.kind
        if kind is _ROUTING_UPDATE:
            if packet.acks is not None:
                self._drain_piggyback(packet, via)
            self._handle_update(packet, via)
            release(packet)
            return
        if kind is _UPDATE_ACK:
            if packet.acks is not None:
                self._drain_piggyback(packet, via)
            self._handle_ack(packet, via)
            release(packet)
            return
        if kind is _RFNM:
            if packet.dst == self.node_id:
                if self.host is not None:
                    self.host.on_rfnm(packet.src)
                release(packet)
            else:
                self.forward(packet)
            return
        if packet.dst == self.node_id:
            self.stats.packet_delivered(packet, self.sim.now)
            if self.host is not None:
                self._send_rfnm(packet)
            release(packet)
            return
        self.forward(packet)

    def _send_rfnm(self, delivered: Packet) -> None:
        """Acknowledge a delivered message back to its source PSN."""
        self.forward(acquire(
            PacketKind.RFNM, self.node_id, delivered.src,
            RFNM_BITS, self.sim.now,
        ))

    def forward(self, packet: Packet) -> None:
        """Single-path, destination-based forwarding."""
        pending = self._pending_updates
        if pending:
            self.flush_pending_updates()
        if len(packet.trail) >= MAX_HOPS:
            self.stats.packet_dropped(packet, "hop-limit", self.sim.now)
            release(packet)
            return
        if self.router is not None:
            link_id = self.router.next_hop_link(packet.dst, src=packet.src)
        elif self.spf_cache is not None:
            # O(1) table lookup instead of walking tree parent pointers.
            table = self._forwarding
            if table is None:
                table = self._forwarding = \
                    self.spf_cache.forwarding_table(self.tree)
            link_id = table[packet.dst]
        else:
            link_id = self.tree.next_hop_link(packet.dst)
        if link_id is None:
            self.stats.packet_dropped(packet, "unreachable", self.sim.now)
            release(packet)
            return
        self.transmitters[link_id].send(packet)

    # ------------------------------------------------------------------
    # Measurement / update generation
    # ------------------------------------------------------------------
    def _close_measurement_interval(self) -> None:
        fresh: Dict[int, int] = {}
        significant = False
        for link_id, transmitter in self.transmitters.items():
            link = self.network.link(link_id)
            utilization = transmitter.take_utilization(
                self.measurement_interval_s
            )
            self.stats.utilization_sample(link_id, utilization, self.sim.now)
            if not link.up or self.control_stuck:
                continue  # stuck: measurement closes, but nothing reports
            average_delay = self._averager[link_id].take_average()
            cost = self.metric.measured_cost(
                link, self._metric_state[link_id], average_delay
            )
            fresh[link_id] = cost
            # Every line's criterion sees its change (and decays when it
            # is not met), whether or not another line already fired.
            change = cost - self._advertised[link_id]
            if self._criterion[link_id].should_report(change):
                significant = True
        if significant:
            self.advertise(fresh)

    def advertise(self, fresh: Optional[Dict[int, int]] = None) -> None:
        """Originate and flood one update carrying every line's cost.

        A line's entry is its cost in ``fresh`` when given there, the
        line-dead cost when it is down, and otherwise its last
        advertised cost.  The update refreshes every line, so each one
        is marked advertised and its significance criterion re-armed.
        """
        if self.control_stuck:
            return  # a frozen control plane reports nothing
        links = self.network.links
        advertised = self._advertised
        entries = []
        for link_id in self.transmitters:
            if not links[link_id].up:
                cost = DOWN_COST
            elif fresh is not None and link_id in fresh:
                cost = fresh[link_id]
            else:
                cost = advertised[link_id]
            advertised[link_id] = cost
            self._criterion[link_id].rearm()
            entries.append((link_id, cost))
        update = self.flooding.originate(tuple(entries))
        self.stats.update_originated(
            self.node_id, update.entries, self.sim.now
        )
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, UPDATE_GENERATED,
                node=self.node_id, value=len(update.entries),
                data={"origin": update.origin, "seq": update.sequence,
                      "entries": update.entries},
            )
        self._apply_update(update)
        self._flood(update, arrived_on=None)

    # ------------------------------------------------------------------
    # Update plane
    # ------------------------------------------------------------------
    def _handle_update(self, packet: Packet, via: Link) -> None:
        update = packet.update
        if update is None:
            raise ValueError(f"routing-update packet without payload: {packet}")
        if self.control_stuck:
            return  # frozen control plane: no ack, no apply, no forward
        if self._incremental_flooding:
            # The neighbour forwarded this, so it has it: remember that
            # (window), and treat it as an implicit ack for any older
            # update from the same origin still awaiting retransmission
            # toward that neighbour -- its information is superseded.
            # (Bookkeeping only -- no events -- so running it before the
            # ack decision below changes nothing except that the
            # decision sees current windows.)
            sent_on = via.reverse_id
            self.flooding.note_received(sent_on, update)
            if sent_on is not None:
                pending = self._unacked.get((sent_on, update.origin))
                if pending is not None and \
                        pending[0].sequence <= update.sequence:
                    del self._unacked[(sent_on, update.origin)]
        # Acknowledge on the reverse link -- duplicates too, since the
        # duplicate usually means our earlier ACK was lost -- unless
        # duplicate-ack suppression can prove the explicit ack redundant.
        if not self._dup_ack or not self._skip_duplicate_ack(update, via):
            self._send_ack(update, via)
        if self.defense is not None:
            # Screen *before* accept, so a rejected update never touches
            # the flooding database.  It was still ACKed above: the ack
            # only says "stop retransmitting", not "I believed you" --
            # and without it a quarantined neighbour's retransmissions
            # would themselves become an update storm.
            reason = self.defense.screen(update, via.src, self.sim.now)
            if reason is not None:
                if self._trace is not None:
                    self._trace.emit(
                        self.sim.now, UPDATE_REJECTED,
                        node=self.node_id,
                        data={"reason": reason, "origin": update.origin,
                              "seq": update.sequence, "from": via.src},
                    )
                return
        if not self.flooding.accept(update):
            if self._trace is not None:
                self._trace.emit(
                    self.sim.now, UPDATE_SUPPRESSED,
                    node=self.node_id,
                    data={"origin": update.origin, "seq": update.sequence},
                )
            return
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, UPDATE_ACCEPTED,
                node=self.node_id,
                data={"origin": update.origin, "seq": update.sequence},
            )
        if self.defense is not None:
            self.defense.note_accepted(update, self.sim.now)
        self._apply_update(update)
        self._flood(update, arrived_on=via.link_id)

    def _skip_duplicate_ack(self, update: RoutingUpdate, via: Link) -> bool:
        """Whether a duplicate update's explicit ack can be skipped.

        True only when the sender provably does not need it: either it
        already acknowledged our own copy of this sequence (so its
        retransmission state for the origin is long cleared), or our
        copy was queued toward it and its arrival will be the implicit
        ack.
        The latter skip records an owed ack; see ``dup_ack_suppression``
        in the class docstring for how the debt is always repaid when
        the proof fails.  Fresh (non-duplicate) updates are always
        acknowledged explicitly.
        """
        reverse_id = via.reverse_id
        if reverse_id is None:
            return False
        flooding = self.flooding
        sequence = update.sequence
        if not flooding.already_seen(update):
            return False  # fresh update: ack it
        key = update.origin
        owed = self._ack_owed.get((reverse_id, key))
        if owed is not None and owed >= sequence:
            # We skipped once for this proof and the sender is *still*
            # retransmitting -- the en-route copy never took effect
            # (line noise, or the sender was stuck when it arrived).
            # Pay the debt unconditionally; no third round can happen.
            del self._ack_owed[(reverse_id, key)]
            self._pay_owed_ack(update, reverse_id)
            return True
        if flooding.neighbor_acked(reverse_id, key) >= sequence:
            # The sender explicitly acknowledged our own copy of this
            # sequence, which means it received (and processed) it; its
            # retransmission state is already clear.
            flooding.stats.dup_acks_suppressed += 1
            return True
        if flooding.sent_seq(reverse_id, key) >= sequence:
            # Our own copy is queued/en route toward the sender: its
            # arrival is the implicit ack.  Remember the debt in case
            # the wire-time suppressor cancels that copy.
            self._ack_owed[(reverse_id, key)] = sequence
            flooding.stats.dup_acks_suppressed += 1
            return True
        return False

    def _send_ack(self, update: RoutingUpdate, via: Link) -> None:
        if via.reverse_id is None:
            return
        reverse = self.transmitters.get(via.reverse_id)
        if reverse is None or not self.network.link(via.reverse_id).up:
            return
        reverse.send(acquire(
            PacketKind.UPDATE_ACK, self.node_id, via.src,
            ACK_PACKET_BITS, self.sim.now, update=update,
        ))

    def _place_ack(self, update: RoutingUpdate, link_id: int) -> bool:
        """Deliver one owed acknowledgement toward ``link_id``'s neighbour.

        Piggybacks on the next queued control packet when one exists
        (the real IMP protocol carried acks as header bits, so a queued
        update tows the ack for free); otherwise sends a standalone ack
        packet.  Returns ``True`` when the ack rode a carrier.
        """
        transmitter = self.transmitters.get(link_id)
        if transmitter is None or not self.network.link(link_id).up:
            return False
        if transmitter.piggyback_ack(update):
            return True
        transmitter.send(acquire(
            PacketKind.UPDATE_ACK, self.node_id,
            self.network.link(link_id).dst,
            ACK_PACKET_BITS, self.sim.now, update=update,
        ))
        return False

    def _pay_owed_ack(self, update: RoutingUpdate, link_id: int) -> None:
        """Pay an owed duplicate-ack on ``link_id`` right now.

        Called by the wire-time suppressor when it cancels the en-route
        copy whose arrival was going to act as the implicit ack.  The
        payment piggybacks on the control backlog when it can; a
        standalone re-entrant send lands in the transmitter's control
        queue and goes out in the same dequeue loop.
        """
        self.flooding.stats.owed_acks_sent += 1
        if self._place_ack(update, link_id):
            self.flooding.stats.owed_acks_piggybacked += 1

    def _drain_piggyback(self, packet: Packet, via: Link) -> None:
        """Process acknowledgements riding a control packet's header."""
        if self.control_stuck:
            return
        sent_on = via.reverse_id
        for update in packet.acks:
            self._register_ack(update, sent_on)

    def _handle_ack(self, packet: Packet, via: Link) -> None:
        update = packet.update
        if update is None:
            raise ValueError(f"update-ack packet without payload: {packet}")
        if self.control_stuck:
            return
        # The ACK arrived on the reverse of the link we sent the update on.
        self._register_ack(update, via.reverse_id)

    def _register_ack(
        self, update: RoutingUpdate, sent_on: Optional[int]
    ) -> None:
        """One acknowledgement (explicit or piggybacked) took effect."""
        key = (sent_on, update.origin)
        pending = self._unacked.get(key)
        if pending is not None and pending[0].sequence <= update.sequence:
            del self._unacked[key]
        if self._ack_owed:
            # The neighbour acknowledged our copy, so it received and
            # processed it -- the implicit ack we were counting on took
            # effect and any owed-ack debt for the origin is settled.
            owed = self._ack_owed.get(key)
            if owed is not None and update.sequence >= owed:
                del self._ack_owed[key]
        self.flooding.note_acked(sent_on, update)
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, UPDATE_ACKED,
                node=self.node_id,
                data={"origin": update.origin, "seq": update.sequence,
                      "on": sent_on},
            )

    def _retransmit_tick(self) -> None:
        if not self._unacked or self.control_stuck:
            return
        now = self.sim.now
        overdue: Dict[int, list] = {}
        for (link_id, _key), (update, sent_at) in self._unacked.items():
            if now - sent_at >= UPDATE_RETRANSMIT_S:
                overdue.setdefault(link_id, []).append(update)
        for link_id, updates in overdue.items():
            if not self.network.link(link_id).up:
                continue
            if self.transmitters[link_id].control_backlog() > 0:
                # The originals (or a burst of other updates) have
                # not even left our own queue yet; retransmitting
                # now would only feed a control-channel congestion
                # collapse on slow lines.  Wait for the queue to
                # drain -- the ACK clock only matters once the
                # packets have actually been on the wire.
                continue
            # The queue is drained: retransmit this link's whole
            # overdue batch.
            for update in updates:
                self._transmit_update(update, link_id)
                self.flooding.stats.retransmitted += 1

    def flush_pending_updates(self) -> None:
        """Apply any buffered routing updates in one batched SPF pass."""
        pending = self._pending_updates
        if not pending:
            return
        self._pending_updates = []
        # The table already holds the batch's final costs (written
        # eagerly as updates arrived); rewind it to the pre-batch values
        # so the repair pass computes the same old -> new diff it would
        # have seen unbatched, then let it write the finals back.
        for link_id, old_cost in self._pending_old.items():
            self.costs[link_id] = old_cost
        self._pending_old.clear()
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, SPF_BATCH_REPAIR,
                node=self.node_id, value=len(pending),
            )
        if self.tree.update_costs(pending):
            self._forwarding = None

    def _apply_update(self, update: RoutingUpdate) -> None:
        costs = self.costs
        pending = self._pending_updates
        if pending is not None:
            pending_old = self._pending_old
            for link_id, advertised in update.entries:
                cost = (UNREACHABLE if advertised >= DOWN_COST
                        else float(advertised))
                old_cost = costs[link_id]
                if cost != old_cost:
                    # Most lines of an update are unchanged; only a
                    # real change touches the table (and its
                    # fingerprint) or needs rewinding at the flush.
                    if link_id not in pending_old:
                        pending_old[link_id] = old_cost
                    costs[link_id] = cost
                pending.append((link_id, cost))
            return
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, SPF_RECOMPUTE,
                node=self.node_id, value=len(update.entries),
            )
        tree = self.tree
        changed = False
        for link_id, advertised in update.entries:
            cost = (UNREACHABLE if advertised >= DOWN_COST
                    else float(advertised))
            if tree.update_cost(link_id, cost):
                changed = True
        if changed:
            # The compiled next-hop table reflects the old tree; drop it
            # and recompile (or re-fetch from the cache) on the next
            # packet.  No-op updates leave the tree -- and therefore the
            # table -- untouched.
            self._forwarding = None
        if self.router is not None:
            # The router shares our cost table (updated by the tree);
            # rebuild its equal-cost candidate sets.
            self.router.recompute()

    def _flood(self, update: RoutingUpdate, arrived_on: Optional[int]) -> None:
        links = self.flooding.forward_links(arrived_on, update=update)
        defer = self._defer_s
        for link_id in links:
            hold_s = defer.get(link_id)
            if hold_s is None:
                self._transmit_update(update, link_id)
            else:
                self.sim.call_in(
                    hold_s, self._transmit_deferred, update, link_id
                )
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, UPDATE_FLOODED,
                node=self.node_id, value=len(links),
                data={"origin": update.origin, "seq": update.sequence},
            )

    def _transmit_update(self, update: RoutingUpdate, link_id: int) -> None:
        """Send one update on one link, arming its retransmission."""
        packet = acquire(
            PacketKind.ROUTING_UPDATE, self.node_id, None,
            UPDATE_PACKET_BITS, self.sim.now, update=update,
        )
        # A newer update from the same origin supersedes any older one
        # still awaiting its ACK on this link.
        self._unacked[(link_id, update.origin)] = (update, self.sim.now)
        self.flooding.note_sent(link_id, update)
        self.transmitters[link_id].send(packet)

    def _transmit_deferred(self, update: RoutingUpdate, link_id: int) -> None:
        """A held flood-forward came due: send unless now provably moot.

        While we held it, the neighbour's own copy (or its ack) may have
        arrived and proven possession; a newer update from the same
        origin may also have gone out on this link, superseding ours.
        Either way the transmission is redundant and is skipped;
        otherwise it proceeds exactly as an immediate forward would
        have.
        """
        if not self.network.link(link_id).up:
            # The link died during the hold; its advertise(DOWN) path
            # already flushed the queue, and the neighbour re-syncs on
            # recovery.  (An immediate forward would have been flushed
            # or dropped at the dead wire the same way.)
            return
        flooding = self.flooding
        key = update.origin
        sequence = update.sequence
        if flooding.neighbor_seq(link_id, key) >= sequence:
            flooding.stats.suppressed_flood += 1
            if self._trace is not None:
                self._trace.emit(
                    self.sim.now, FLOOD_SUPPRESSED,
                    node=self.node_id,
                    data={"origin": update.origin, "seq": sequence,
                          "on": link_id},
                )
            return
        if flooding.sent_seq(link_id, key) >= sequence:
            flooding.stats.suppressed_flood += 1
            return
        self._transmit_update(update, link_id)

    def _make_wire_suppressor(self, link_id: int):
        """Dequeue-time suppression check for one transmitter.

        During a flood the control queues run long; by the time a queued
        update reaches the head of the line, the neighbour's own copy has
        often crossed it in the other direction.  The windows then prove
        the transmission redundant: drop it, and retire any pending
        retransmission state it covered (the same proof an ACK gives).
        """
        def suppress(packet: Packet) -> bool:
            update = packet.update
            key = update.origin
            known = self.flooding.neighbor_seq(link_id, key)
            if known < update.sequence:
                return False
            self.flooding.stats.suppressed_wire += 1
            pending = self._unacked.get((link_id, key))
            if pending is not None and pending[0].sequence <= known:
                del self._unacked[(link_id, key)]
            owed = self._ack_owed.get((link_id, key))
            if owed is not None and update.sequence >= owed:
                # This queued copy was the en-route proof that let us
                # skip an explicit duplicate ack; cancelling it would
                # leave the neighbour retransmitting with no ack ever
                # coming.  Pay the owed ack explicitly, right now.
                del self._ack_owed[(link_id, key)]
                self._pay_owed_ack(update, link_id)
            riding = packet.acks
            if riding is not None:
                # The cancelled carrier had owed acks riding its header;
                # re-home them on the next queued control packet (or as
                # standalone ack packets if the queue just drained).
                packet.acks = None
                for owed_update in riding:
                    self._place_ack(owed_update, link_id)
            if self._trace is not None:
                self._trace.emit(
                    self.sim.now, FLOOD_SUPPRESSED,
                    node=self.node_id,
                    data={"origin": update.origin, "seq": update.sequence,
                          "on": link_id},
                )
            return True

        return suppress

    # ------------------------------------------------------------------
    # Defenses / adversarial hooks
    # ------------------------------------------------------------------
    def _on_quarantine(self, neighbor: int, until_s: float) -> None:
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, NEIGHBOR_QUARANTINED,
                node=self.node_id, value=until_s,
                data={"neighbor": neighbor},
            )

    def _purge_tick(self) -> None:
        """Periodic purge-and-reflood self-stabilization pass.

        Evicts flooding-database entries not refreshed within the
        policy's age bound; the 50-second re-advertisement cap refloods
        honest entries within one cap interval (see
        :mod:`repro.routing.defense`).
        """
        purged = self.defense.purge(self.sim.now)
        if purged and self._trace is not None:
            self._trace.emit(
                self.sim.now, DB_PURGED,
                node=self.node_id, value=float(purged),
            )

    def set_control_stuck(self, stuck: bool) -> None:
        """Freeze or thaw the control plane (the stuck-node fault)."""
        self.control_stuck = stuck

    def emit_forged_update(
        self,
        link_id: int,
        cost: int,
        sequence: Optional[int] = None,
    ) -> RoutingUpdate:
        """Adversarial harness: flood a forged update from this node.

        The forgery is a whole node update: every line at its advertised
        cost, except ``link_id``, which reports ``cost``.  With
        ``sequence=None`` the update is protocol-legal -- it spends a
        real sequence number from the origination counter (the
        babbling-node fault: well-formed, just far too frequent).  With
        an explicit ``sequence`` the forgery bypasses the counter
        entirely (the corrupt-update fault: the counter keeps its honest
        value, so legitimate later updates carry *smaller* sequence
        numbers than the forgery -- exactly the 1980 poisoning).
        Neither path touches ``_advertised`` or the origination stats:
        forged traffic is the fault, not a report.
        """
        entries = tuple(
            (line, cost if line == link_id else self._advertised[line])
            for line in self.transmitters
        )
        if sequence is None:
            update = self.flooding.originate(entries)
        else:
            update = RoutingUpdate(self.node_id, entries, sequence)
        self._flood(update, arrived_on=None)
        return update

    # ------------------------------------------------------------------
    # Link failure / recovery
    # ------------------------------------------------------------------
    def local_link_down(self, link_id: int) -> None:
        """React to one of our own links dying.

        Flush its queue and flood an update reporting the line dead.
        (The caller flips the topology's ``up`` flag for both
        directions; each endpoint node reports its own direction.)
        """
        self.transmitters[link_id].flush()
        # Updates awaiting ACKs on the dead link will never be ACKed;
        # the neighbour will re-learn everything when the link returns.
        for key in [k for k in self._unacked if k[0] == link_id]:
            del self._unacked[key]
        # Owed duplicate-acks toward that neighbour are moot for the
        # same reason: its retransmission state resets with the circuit.
        for key in [k for k in self._ack_owed if k[0] == link_id]:
            del self._ack_owed[key]
        self.advertise()

    def local_link_up(self, link_id: int) -> None:
        """React to one of our own links recovering.

        Metric state is re-created, so HN-SPF's ease-in applies: the
        link re-enters service at its maximum cost and pulls traffic in
        gradually.
        """
        link = self.network.link(link_id)
        self._init_link_state(link)
        self.transmitters[link_id].on_delay_sample = \
            self._averager[link_id].add_sample
        self.advertise({link_id: self.metric.initial_cost(link)})
