"""Routing-update flooding.

Routing updates carry *"only link cost information; no other routing
information is disseminated through the network"*.  As in the ARPANET,
each PSN floods **one update per node**: it names the reporting node,
lists the cost of every line that node owns, and carries one sequence
number from the node's single origination counter.  Updates are flooded
-- forwarded on every link except the one they arrived on -- with
duplicate suppression by sequence number, the essence of Rosen's
updating protocol [Rosen 1980].  The origin is the update's key: every
accept, acknowledgement and retransmission is tracked per origin.

:class:`FloodingState` is the pure protocol logic (what to accept, where
to forward); the DES-side transmission and per-hop delay live in
:mod:`repro.psn`.  Keeping the protocol pure makes it unit-testable
without a simulator.

**Per-neighbor sequence windows** (the large-network fast path): with
``neighbor_windows=True`` the state additionally remembers, per outgoing
link, the highest sequence number *sent to* and *provably held by* the
neighbour for each origin -- fed by received updates (the neighbour
forwarded it, so it has it) and by its explicit acknowledgements.  A
node then never re-forwards an update the neighbour demonstrably
already has: once at flood time (:meth:`forward_links`), and again at
wire time just before a queued update would transmit (see
``LinkTransmitter.suppress_update``), which is where the boot flood's
long control backlogs make cross-arrivals common.  Windows are bounded
(FIFO eviction, counted); a missing entry never suppresses -- absence
of proof means *send*, so reliability is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.topology.graph import Network

#: Per-neighbour window bound: origins remembered per outgoing link.
#: Updates are keyed by origin, so 1024 keys hold every node of a
#: 512-node network twice over; beyond that, oldest entries fall off
#: (safe: an evicted key just loses its suppression proof).
WINDOW_KEYS_PER_NEIGHBOR = 1024


@dataclass(frozen=True)
class RoutingUpdate:
    """One node's link-cost report, as flooded through the network.

    ``entries`` holds a ``(link_id, cost)`` pair for every line the
    origin owns -- down lines at the line-dead cost -- so one update
    refreshes the origin's whole row of every node's cost table, the
    way an ARPANET PSN packed all of its lines into one update.
    """

    origin: int
    entries: Tuple[Tuple[int, int], ...]
    sequence: int

    def key(self) -> int:
        """Identity of the sequence-number space: the origin node."""
        return self.origin


@dataclass
class FloodingStats:
    """Counters for update traffic seen by one node."""

    generated: int = 0
    accepted: int = 0
    duplicates: int = 0
    forwarded: int = 0
    #: Forwards skipped at flood time because the target neighbour is the
    #: update's origin or its window already proves possession.
    suppressed_flood: int = 0
    #: Queued updates dropped at wire time (the neighbour's own copy
    #: crossed ours while we sat in the control queue).
    suppressed_wire: int = 0
    #: Window entries discarded to stay under the per-neighbour bound.
    window_evictions: int = 0
    #: Explicit duplicate-acks skipped because the sender provably did
    #: not need them (see ``Psn`` duplicate-ack suppression).
    dup_acks_suppressed: int = 0
    #: Owed acks paid explicitly after a skip's proof failed (the
    #: wire-time suppressor cancelled the en-route copy, or the sender
    #: retransmitted anyway).
    owed_acks_sent: int = 0
    #: The subset of owed-ack payments that rode a queued control
    #: packet's header (piggyback) instead of costing a standalone
    #: ack packet.
    owed_acks_piggybacked: int = 0
    #: Updates retransmitted by the reliability timer (unacked past the
    #: retransmission period).
    retransmitted: int = 0


class FloodingState:
    """Per-node flooding protocol state.

    Parameters
    ----------
    network:
        Shared topology (used to enumerate forwarding links).
    node_id:
        The owning PSN.
    neighbor_windows:
        Maintain per-neighbour sequence windows and use them to suppress
        provably redundant forwards (see the module docstring).  Off by
        default: the paper-sized scenarios keep the classic protocol,
        bit for bit.
    window_limit:
        Maximum update keys remembered per outgoing link.
    """

    def __init__(
        self,
        network: Network,
        node_id: int,
        neighbor_windows: bool = False,
        window_limit: int = WINDOW_KEYS_PER_NEIGHBOR,
    ) -> None:
        self.network = network
        self.node_id = node_id
        #: origin -> highest sequence accepted from it.
        self._highest_seen: Dict[int, int] = {}
        #: This node's origination counter (one sequence space per node).
        self._own_sequence = 0
        self.neighbor_windows = neighbor_windows
        self._window_limit = window_limit
        #: link id -> {origin -> highest sequence the neighbour
        #: provably has} (from its forwards and its acks).
        self._neighbor_has: Dict[int, Dict[int, int]] = {}
        #: link id -> {origin -> highest sequence sent that way}.
        self._sent_to: Dict[int, Dict[int, int]] = {}
        #: link id -> {origin -> highest sequence the neighbour has
        #: *explicitly acknowledged*}.  Strictly stronger evidence than
        #: ``_neighbor_has`` (which a received forward also feeds): an
        #: entry here proves the neighbour processed our copy, which is
        #: what duplicate-ack suppression needs -- the update being
        #: screened would itself plant a ``_neighbor_has`` entry, so
        #: that table cannot serve as the proof.
        self._acked_by: Dict[int, Dict[int, int]] = {}
        self.stats = FloodingStats()

    # ------------------------------------------------------------------
    # Origination
    # ------------------------------------------------------------------
    def originate(
        self, entries: Tuple[Tuple[int, int], ...]
    ) -> RoutingUpdate:
        """Create this node's next update from its ``(link_id, cost)``
        lines (every line it owns)."""
        network = self.network
        for link_id, _cost in entries:
            owner = network.link(link_id).src
            if owner != self.node_id:
                raise ValueError(
                    f"node {self.node_id} does not own link {link_id} "
                    f"(owned by {owner})"
                )
        self._own_sequence += 1
        update = RoutingUpdate(self.node_id, entries, self._own_sequence)
        # The originator has, by definition, seen its own update.
        self._highest_seen[self.node_id] = update.sequence
        self.stats.generated += 1
        return update

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def accept(self, update: RoutingUpdate) -> bool:
        """Decide whether ``update`` is new; record it if so.

        Returns ``True`` exactly when the update should be applied to the
        local cost table and forwarded onward.
        """
        highest = self._highest_seen.get(update.origin, 0)
        if update.sequence <= highest:
            self.stats.duplicates += 1
            return False
        self._highest_seen[update.origin] = update.sequence
        self.stats.accepted += 1
        return True

    def already_seen(self, update: RoutingUpdate) -> bool:
        """Whether ``update`` would be a duplicate, without recording it.

        A side-effect-free peek at the :meth:`accept` decision, used by
        duplicate-ack suppression to classify an update *before* the
        acknowledgement decision (which protocol-wise precedes accept).
        """
        return self._highest_seen.get(update.origin, 0) >= update.sequence

    def forward_links(
        self,
        arrived_on: Optional[int],
        update: Optional[RoutingUpdate] = None,
    ) -> List[int]:
        """Link ids an accepted update must be re-flooded on.

        Every up link out of this node except the reverse of the link it
        arrived on (sending it straight back is pure waste; other
        duplicates are caught by sequence numbers).  With neighbour
        windows enabled and the ``update`` supplied, links whose
        neighbour provably already has it -- it *is* the origin, it
        forwarded this sequence to us, or it acknowledged it -- are
        suppressed too.
        """
        excluded = None
        if arrived_on is not None:
            excluded = self.network.link(arrived_on).reverse_id
        links = []
        if update is None or not self.neighbor_windows:
            for link in self.network.out_links(self.node_id):
                if link.link_id != excluded:
                    links.append(link.link_id)
        else:
            sequence = update.sequence
            origin = update.origin
            for link in self.network.out_links(self.node_id):
                link_id = link.link_id
                if link_id == excluded:
                    continue
                if link.dst == origin:
                    # The originator has its own update by definition.
                    self.stats.suppressed_flood += 1
                    continue
                if self.neighbor_seq(link_id, origin) >= sequence:
                    self.stats.suppressed_flood += 1
                    continue
                sent = self._sent_to.get(link_id)
                if sent is not None and sent.get(origin, 0) >= sequence:
                    # Already sent (and still retransmitting until
                    # acked): reliable delivery covers the neighbour.
                    self.stats.suppressed_flood += 1
                    continue
                links.append(link_id)
        self.stats.forwarded += len(links)
        return links

    # ------------------------------------------------------------------
    # Per-neighbour sequence windows
    # ------------------------------------------------------------------
    def _note(
        self,
        table: Dict[int, Dict[int, int]],
        link_id: int,
        key: int,
        sequence: int,
    ) -> None:
        window = table.get(link_id)
        if window is None:
            window = table[link_id] = {}
        current = window.get(key)
        if current is None:
            if len(window) >= self._window_limit:
                # FIFO eviction: drop the oldest-learned key.  Losing an
                # entry only loses a suppression opportunity.
                del window[next(iter(window))]
                self.stats.window_evictions += 1
            window[key] = sequence
        elif sequence > current:
            window[key] = sequence

    def note_received(
        self, link_id: Optional[int], update: RoutingUpdate
    ) -> None:
        """The neighbour behind ``link_id`` forwarded ``update`` to us."""
        if not self.neighbor_windows or link_id is None:
            return
        self._note(self._neighbor_has, link_id, update.origin, update.sequence)

    def note_acked(
        self, link_id: Optional[int], update: RoutingUpdate
    ) -> None:
        """The neighbour behind ``link_id`` acknowledged ``update``."""
        if not self.neighbor_windows or link_id is None:
            return
        self._note(self._neighbor_has, link_id, update.origin, update.sequence)
        self._note(self._acked_by, link_id, update.origin, update.sequence)

    def note_sent(self, link_id: int, update: RoutingUpdate) -> None:
        """We queued ``update`` for transmission on ``link_id``."""
        if not self.neighbor_windows:
            return
        self._note(self._sent_to, link_id, update.origin, update.sequence)

    def neighbor_seq(self, link_id: int, key: int) -> int:
        """Highest sequence the neighbour provably has from origin ``key``.

        0 when nothing is known (sequence numbers start at 1, so 0 never
        suppresses anything).
        """
        window = self._neighbor_has.get(link_id)
        if window is None:
            return 0
        return window.get(key, 0)

    def neighbor_acked(self, link_id: int, key: int) -> int:
        """Highest sequence the neighbour *explicitly acknowledged*.

        0 when nothing is known.  Unlike :meth:`neighbor_seq` this is
        never fed by received forwards, so it proves the neighbour
        processed our copy (a stuck node acks nothing).
        """
        window = self._acked_by.get(link_id)
        if window is None:
            return 0
        return window.get(key, 0)

    def sent_seq(self, link_id: int, key: int) -> int:
        """Highest sequence we ever queued toward ``link_id`` for ``key``.

        0 when nothing was sent (or the window entry was evicted --
        absence of proof never suppresses anything).
        """
        window = self._sent_to.get(link_id)
        if window is None:
            return 0
        return window.get(key, 0)
