"""Compiles a :class:`~repro.faults.plan.FaultPlan` onto a simulation.

The injector is constructed with a built (not yet run)
:class:`~repro.sim.network_sim.NetworkSimulation` and schedules every
scripted event and stochastic flap through the simulator's event queue,
bottoming out in the simulation's existing circuit machinery
(``_fail_circuit`` / ``_restore_circuit``) so faults interact with
routing exactly as the hand-scripted ``fail_circuit_at`` calls always
have.

Determinism: scripted events fire at fixed times; flap inter-event
times are drawn *at fire time* from a dedicated per-link random stream
(``fault-flap-<link_id>``), so each flapping circuit's trajectory
depends only on the master seed and its own link id -- never on other
traffic, other flaps, or scheduler backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.faults.adversarial import (
    BabblingNode,
    CorruptUpdate,
    ReorderCircuit,
    StuckNode,
)
from repro.faults.plan import FaultEvent, FaultPlan, LinkFlap
from repro.obs.tracer import (
    PARTITION,
    PARTITION_HEAL,
    PSN_CRASH,
    PSN_RESTART,
)

if TYPE_CHECKING:  # pragma: no cover - avoids a faults <-> sim import cycle
    from repro.sim.network_sim import NetworkSimulation


class FaultInjector:
    """Schedules one plan's faults into one simulation run."""

    def __init__(self, simulation: "NetworkSimulation", plan: FaultPlan) -> None:
        self.simulation = simulation
        self.plan = plan
        self._validate(plan)
        #: Circuit transitions actually performed (fail + restore).
        self.faults_injected = 0
        self.restores_injected = 0
        #: Up->down->up cycles completed by stochastic flaps.
        self.flap_transitions = 0
        #: Every applied transition, in order: (t_s, "fail"|"restore",
        #: link_id).  The resilience summary walks this list.
        self.applied: List[tuple] = []
        # -- adversarial faults ----------------------------------------
        #: Forged updates actually emitted, by kind.
        self.corrupt_updates_injected = 0
        self.babble_updates_injected = 0
        #: Stuck-node freeze/thaw transitions applied.
        self.stuck_transitions = 0
        #: Control packets sent out of order by reorder hooks.
        self.reorder_swaps = 0
        #: Every adversarial action, in order: (t_s, kind, target id).
        self.adversarial_applied: List[tuple] = []
        #: Periodic containment samples, only with adversarial faults:
        #: (t_s, poisoned-node count) and (t_s, cumulative update
        #: transmissions).  The resilience containment summary reads
        #: both (see :mod:`repro.report.resilience`).
        self.poison_samples: List[Tuple[float, int]] = []
        self.update_tx_samples: List[Tuple[float, int]] = []
        sim = simulation.sim
        for event in plan.events:
            sim.call_in(max(event.at_s - sim.now, 0.0), self._fire, event)
        for flap in plan.flaps:
            self._arm_flap(flap)
        for fault in plan.adversarial:
            if isinstance(fault, CorruptUpdate):
                self._arm_corrupt(fault)
            elif isinstance(fault, BabblingNode):
                self._arm_babble(fault)
            elif isinstance(fault, StuckNode):
                self._arm_stuck(fault)
            elif isinstance(fault, ReorderCircuit):
                self._arm_reorder(fault)
        if plan.adversarial:
            # The containment sampler is read-only (it only compares
            # databases against owners' counters), so sampling never
            # perturbs the run -- same argument as the metrics sampler.
            interval = simulation.config.measurement_interval_s
            sim.timers.every(
                interval, self._sample_containment, first_fire_s=interval
            )

    def _validate(self, plan: FaultPlan) -> None:
        network = self.simulation.network
        links = len(network.links)
        for event in plan.events:
            if event.link_id is not None and not 0 <= event.link_id < links:
                raise ValueError(f"no such link {event.link_id}: {event}")
            if event.node_id is not None and event.node_id not in network.nodes:
                raise ValueError(f"no such node {event.node_id}: {event}")
            for node in event.nodes:
                if node not in network.nodes:
                    raise ValueError(f"no such node {node}: {event}")
        seen_circuits = {}
        for flap in plan.flaps:
            if not 0 <= flap.link_id < links:
                raise ValueError(f"no such link {flap.link_id}: {flap}")
            # Either direction names the duplex circuit; two flaps on
            # one circuit would fight over the same physical line.
            link = network.link(flap.link_id)
            circuit = min(
                flap.link_id,
                link.reverse_id if link.reverse_id is not None
                else flap.link_id,
            )
            if circuit in seen_circuits:
                raise ValueError(
                    f"links {seen_circuits[circuit]} and {flap.link_id} "
                    f"flap the same duplex circuit"
                )
            seen_circuits[circuit] = flap.link_id
        reordered = {}
        for fault in plan.adversarial:
            if isinstance(fault, ReorderCircuit):
                if not 0 <= fault.link_id < links:
                    raise ValueError(f"no such link {fault.link_id}: {fault}")
                circuit = self._circuit_id(fault.link_id)
                if circuit in reordered:
                    raise ValueError(
                        f"links {reordered[circuit]} and {fault.link_id} "
                        f"reorder the same duplex circuit"
                    )
                reordered[circuit] = fault.link_id
            elif fault.node_id not in network.nodes:
                raise ValueError(f"no such node {fault.node_id}: {fault}")

    # ------------------------------------------------------------------
    # Scripted events
    # ------------------------------------------------------------------
    def _fire(self, event: FaultEvent) -> None:
        if event.action == "fail-circuit":
            self._fail(event.link_id)
        elif event.action == "restore-circuit":
            self._restore(event.link_id)
        elif event.action == "crash-node":
            self._emit(PSN_CRASH, node=event.node_id)
            for link_id in self._node_circuits(event.node_id):
                self._fail(link_id)
        elif event.action == "restart-node":
            self._emit(PSN_RESTART, node=event.node_id)
            for link_id in self._node_circuits(event.node_id):
                self._restore(link_id)
        elif event.action == "partition":
            self._emit(PARTITION, value=float(len(event.nodes)))
            for link_id in self._crossing_circuits(event.nodes):
                self._fail(link_id)
        elif event.action == "heal-partition":
            self._emit(PARTITION_HEAL, value=float(len(event.nodes)))
            for link_id in self._crossing_circuits(event.nodes):
                self._restore(link_id)

    def _fail(self, link_id: int) -> None:
        """Down one circuit (idempotent: already-down circuits are left)."""
        if not self.simulation.network.link(link_id).up:
            return
        self.faults_injected += 1
        self.applied.append((self.simulation.sim.now, "fail", link_id))
        self.simulation._fail_circuit(link_id)

    def _restore(self, link_id: int) -> None:
        if self.simulation.network.link(link_id).up:
            return
        self.restores_injected += 1
        self.applied.append((self.simulation.sim.now, "restore", link_id))
        self.simulation._restore_circuit(link_id)

    def _node_circuits(self, node_id: int) -> List[int]:
        """The circuits incident to a PSN (one direction each)."""
        return [
            link.link_id
            for link in self.simulation.network.out_links(
                node_id, include_down=True
            )
        ]

    def _crossing_circuits(self, group) -> List[int]:
        """Circuits with exactly one endpoint inside ``group``.

        Each duplex circuit is named once, by its lower-numbered
        direction, so fail/restore touch it exactly once.
        """
        inside = set(group)
        crossing = []
        for link in self.simulation.network.links:
            if link.reverse_id is not None and link.reverse_id < link.link_id:
                continue
            if (link.src in inside) != (link.dst in inside):
                crossing.append(link.link_id)
        return crossing

    def _emit(self, kind: str, node=None, value=None) -> None:
        tracer = self.simulation.tracer
        if tracer.enabled:
            tracer.emit(self.simulation.sim.now, kind, node=node, value=value)

    # ------------------------------------------------------------------
    # Stochastic flapping
    # ------------------------------------------------------------------
    def _flap_rng(self, flap: LinkFlap):
        return self.simulation.streams.stream(f"fault-flap-{flap.link_id}")

    def _arm_flap(self, flap: LinkFlap) -> None:
        delay = self._flap_rng(flap).expovariate(1.0 / flap.mtbf_s)
        self.simulation.sim.call_in(
            max(flap.start_s - self.simulation.sim.now, 0.0) + delay,
            self._flap_fail, flap,
        )

    def _flap_fail(self, flap: LinkFlap) -> None:
        now = self.simulation.sim.now
        if flap.until_s is not None and now >= flap.until_s:
            return  # past the flap window: no new failures
        self._fail(flap.link_id)
        repair = self._flap_rng(flap).expovariate(1.0 / flap.mttr_s)
        self.simulation.sim.call_in(repair, self._flap_restore, flap)

    def _flap_restore(self, flap: LinkFlap) -> None:
        self._restore(flap.link_id)
        self.flap_transitions += 1
        now = self.simulation.sim.now
        if flap.until_s is not None and now >= flap.until_s:
            return
        delay = self._flap_rng(flap).expovariate(1.0 / flap.mtbf_s)
        self.simulation.sim.call_in(delay, self._flap_fail, flap)

    # ------------------------------------------------------------------
    # Adversarial faults (see repro.faults.adversarial)
    # ------------------------------------------------------------------
    def _circuit_id(self, link_id: int) -> int:
        """The duplex circuit a simplex link belongs to (lower id)."""
        link = self.simulation.network.link(link_id)
        if link.reverse_id is None:
            return link_id
        return min(link_id, link.reverse_id)

    def _own_links(self, node_id: int) -> List[int]:
        """A node's outgoing link ids, in deterministic (sorted) order."""
        return sorted(
            link.link_id
            for link in self.simulation.network.out_links(
                node_id, include_down=True
            )
        )

    def _arm_corrupt(self, fault: CorruptUpdate) -> None:
        rng = self.simulation.streams.stream(f"fault-corrupt-{fault.node_id}")
        links = self._own_links(fault.node_id)
        delay = rng.expovariate(fault.rate_per_s)
        self.simulation.sim.call_in(
            max(fault.start_s - self.simulation.sim.now, 0.0) + delay,
            self._corrupt_fire, fault, rng, links,
        )

    def _corrupt_fire(self, fault: CorruptUpdate, rng, links: List[int]) -> None:
        """Emit one forged update, then rearm.

        Three corruption modes (drawn from the fault's own stream): a
        bit-flipped *sequence number* -- a high bit OR-ed into the next
        honest sequence, the 1980 failure mode that poisons every
        database against the node's later legitimate updates -- an
        out-of-range *cost field* riding an honest sequence number, or
        both at once.
        """
        now = self.simulation.sim.now
        if fault.until_s is not None and now >= fault.until_s:
            return
        psn = self.simulation.psns[fault.node_id]
        link_id = links[rng.randrange(len(links))]
        mode = rng.random()
        if mode < 0.6:
            # Sequence bit-flip; the cost is the node's current honest
            # advertisement, so only the sequence space is poisoned.
            sequence = (
                psn.flooding._own_sequence + 1
            ) | (1 << rng.randint(8, 17))
            cost = psn._advertised.get(link_id, 1)
        elif mode < 0.85:
            # Garbage cost on an honest sequence number (below the
            # line-dead threshold, so undefended receivers route on it).
            sequence = None
            cost = rng.randrange(100_000, 2 ** 20)
        else:
            sequence = (
                psn.flooding._own_sequence + 1
            ) | (1 << rng.randint(8, 17))
            cost = rng.randrange(100_000, 2 ** 20)
        psn.emit_forged_update(link_id, cost, sequence=sequence)
        self.corrupt_updates_injected += 1
        self.adversarial_applied.append((now, "corrupt-update", fault.node_id))
        self.simulation.sim.call_in(
            rng.expovariate(fault.rate_per_s), self._corrupt_fire,
            fault, rng, links,
        )

    def _arm_babble(self, fault: BabblingNode) -> None:
        rng = self.simulation.streams.stream(f"fault-babble-{fault.node_id}")
        links = self._own_links(fault.node_id)
        delay = rng.expovariate(fault.rate_per_s)
        self.simulation.sim.call_in(
            max(fault.start_s - self.simulation.sim.now, 0.0) + delay,
            self._babble_fire, fault, rng, links,
        )

    def _babble_fire(self, fault: BabblingNode, rng, links: List[int]) -> None:
        """One well-formed but gratuitous update: honest sequence, the
        current advertisement re-announced verbatim.  Every sanity
        screen passes it (it is the truth, just far too often) -- only
        per-neighbour rate limiting contains a babbler."""
        now = self.simulation.sim.now
        if fault.until_s is not None and now >= fault.until_s:
            return
        psn = self.simulation.psns[fault.node_id]
        link_id = links[rng.randrange(len(links))]
        cost = psn._advertised.get(link_id, 1)
        psn.emit_forged_update(link_id, cost)
        self.babble_updates_injected += 1
        self.adversarial_applied.append((now, "babbling-node", fault.node_id))
        self.simulation.sim.call_in(
            rng.expovariate(fault.rate_per_s), self._babble_fire,
            fault, rng, links,
        )

    def _arm_stuck(self, fault: StuckNode) -> None:
        sim = self.simulation.sim
        sim.call_in(
            max(fault.start_s - sim.now, 0.0), self._stuck_set, fault, True
        )
        if fault.until_s is not None:
            sim.call_in(
                max(fault.until_s - sim.now, 0.0),
                self._stuck_set, fault, False,
            )

    def _stuck_set(self, fault: StuckNode, stuck: bool) -> None:
        self.simulation.psns[fault.node_id].set_control_stuck(stuck)
        self.stuck_transitions += 1
        self.adversarial_applied.append(
            (self.simulation.sim.now, "stuck-node", fault.node_id)
        )

    def _arm_reorder(self, fault: ReorderCircuit) -> None:
        """Install the dequeue-time reorder hook on both directions.

        One stream per duplex circuit; the hook itself checks the
        active window at fire time, so installation order never shifts
        draws (draws happen only on in-window dequeues).
        """
        circuit = self._circuit_id(fault.link_id)
        rng = self.simulation.streams.stream(f"fault-reorder-{circuit}")
        sim = self.simulation.sim

        def pick(queue_len: int) -> int:
            now = sim.now
            if now < fault.start_s:
                return 0
            if fault.until_s is not None and now >= fault.until_s:
                return 0
            if rng.random() >= fault.probability:
                return 0
            self.reorder_swaps += 1
            return rng.randint(1, min(fault.depth, queue_len - 1))

        link = self.simulation.network.link(fault.link_id)
        self.simulation.transmitters[fault.link_id].reorder_control = pick
        if link.reverse_id is not None:
            self.simulation.transmitters[link.reverse_id].reorder_control = pick

    # ------------------------------------------------------------------
    # Containment sampling (adversarial plans only)
    # ------------------------------------------------------------------
    def _sample_containment(self) -> None:
        """Record (t, poisoned-node count) and cumulative update traffic.

        Read-only: compares every node's flooding database against the
        owning node's own origination counters and current
        advertisements.  Never touches simulation state.
        """
        now = self.simulation.sim.now
        count = sum(
            1 for psn in self.simulation.psns.values()
            if self._node_poisoned(psn)
        )
        self.poison_samples.append((now, count))
        self.update_tx_samples.append((now, sum(
            t.update_packets_sent
            for t in self.simulation.transmitters.values()
        )))

    def _node_poisoned(self, psn) -> bool:
        """Whether a node's database disagrees with ground truth.

        Poisoned means either a *sequence* ahead of the owning node's
        own origination counter (a forged sequence number got in -- the
        owner's honest updates are now blocked), or the *cost* on
        record at the owner's current sequence differs from what the
        owner actually advertises (a forged cost got in).  A lagging
        sequence is just propagation in flight, not poisoning.
        """
        from repro.psn.node import DOWN_COST
        from repro.routing.spf import UNREACHABLE

        simulation = self.simulation
        seen = psn.flooding._highest_seen
        for owner in simulation.psns.values():
            if owner is psn:
                continue
            own_seq = owner.flooding._own_sequence
            recorded = seen.get(owner.node_id, 0)
            if recorded > own_seq:
                return True
            if recorded == own_seq and own_seq > 0:
                for link_id, advertised in owner._advertised.items():
                    applied = (
                        UNREACHABLE if advertised >= DOWN_COST
                        else float(advertised)
                    )
                    if psn.costs[link_id] != applied:
                        return True
        return False
