"""Host-speed reference for the benchmark's timings.

On a shared host the same iteration can take anywhere from 3 s to 8 s:
neighbours on the machine slow every instruction, in phases lasting
from seconds to minutes, and process CPU time moves with the wall clock,
so neither clock can separate the program from the host.  Each
iteration therefore times :func:`time_reference` right after its timed
call, on as many CPUs as that call used: a small discrete-event loop
over a graph of slotted objects too big for the caches, with the
simulator's mix of heap, dict, attribute and float work and no code
shared with it.  The benchmark reports host seconds rescaled to the
speed at which the loop takes :data:`REFERENCE_S`::

    reported = measured * REFERENCE_S / reference time of that iteration

A change to the simulator moves the measured time and not the
reference, so it shows in full; a slow phase of the host moves both and
largely cancels.  The raw host seconds are printed and stored beside
the rescaled ones.
"""

from __future__ import annotations

import heapq
import multiprocessing
import random
import time

#: Seconds :func:`time_reference` takes on the host the bounds in
#: ``BENCHMARK.json`` were tuned on (a 2-vCPU Xeon VM, CPython 3.11).
REFERENCE_S = 0.5


class _Node:
    __slots__ = ("ident", "load", "peers", "seen")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.load = 0.0
        self.peers: list = []
        self.seen: dict = {}

    def handle(self, now: float, key: int) -> "_Node":
        self.load = 0.9 * self.load + 0.1 * now
        self.seen[key] = self.seen.get(key, 0) + 1
        return self.peers[key % len(self.peers)]


def time_reference_on(processes: int) -> float:
    """Mean :func:`time_reference` over ``processes`` concurrent copies.

    A timed call that keeps several CPUs busy (the fleet) is compared
    with the host's speed on as many CPUs, each of which a neighbour can
    slow independently.
    """
    if processes == 1:
        return time_reference()
    context = multiprocessing.get_context("fork")
    with context.Pool(processes) as pool:
        times = pool.map(_time_reference, range(processes))
    return sum(times) / len(times)


def _time_reference(_index: int) -> float:
    return time_reference()


def time_reference(nodes: int = 50_000, steps: int = 120_000) -> float:
    """Host seconds a fixed amount of event-loop work takes right now.

    Building the graph is not timed; dispatching ``steps`` events over
    it is.
    """
    rng = random.Random(20261017)
    graph = [_Node(i) for i in range(nodes)]
    for node in graph:
        node.peers = [graph[rng.randrange(nodes)] for _ in range(4)]
    heap = [(rng.random(), i, graph[rng.randrange(nodes)], i)
            for i in range(20_000)]
    heapq.heapify(heap)
    sequence = len(heap)
    started = time.perf_counter()
    for _ in range(steps):
        now, _seq, node, key = heapq.heappop(heap)
        target = node.handle(now, key)
        sequence += 1
        heapq.heappush(heap, (now + rng.expovariate(10.0), sequence, target,
                              (key * 31 + sequence) & 0xFFFFF))
    return time.perf_counter() - started
