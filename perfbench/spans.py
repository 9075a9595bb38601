"""Exclusive-time spans around the simulator's layer boundaries.

The benchmark's traced run installs these wrappers at class level,
before the scenario is built, so every bound method a component
captures at construction (transmitter -> ``Psn.receive``, timers ->
their callbacks, ``LinkTransmitter._call_in`` -> ``Simulator.call_in``)
is already the traced one.  Nothing in ``src/`` knows about them.

Every wrapped call pushes a frame on one span stack.  When it returns,
its duration is charged to the frame below it as child time, and the
span's *self* time (duration minus child time) is added to an
aggregate keyed by ``(boundary, parent boundary)``.  Millions of calls
therefore cost one dict entry per distinct edge of the call tree, and
the aggregates stay in memory until the benchmark writes them out.

A boundary is a named entry point (``"Psn.forward"``,
``"LinkTransmitter._arrive"``); :func:`layer_of` maps it to one of the
benchmark's layers (``"psn.forward"``, ``"psn.link"``).  Callbacks
handed to the kernel's scheduling calls become boundaries named after
the callback, so the kernel's own self time is the event loop alone.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (boundary, parent boundary or None) -> [calls, total_s, self_s].
SpanTable = Dict[Tuple[str, Optional[str]], List[float]]

#: Boundary (exact name, or the class part before the first ".") ->
#: layer.  Exact names win over class names.
LAYERS: Dict[str, str] = {
    "Simulator.run": "des",
    "PoissonSource": "traffic",
    "LinkTransmitter": "psn.link",
    "Psn.inject": "psn.forward",
    "Psn.forward": "psn.forward",
    "Psn.receive[data]": "psn.forward",
    "Psn.receive[update]": "psn.update",
    "Psn": "psn.update",
    "Psn._close_measurement_interval": "psn.measurement",
    "DelayAverager": "psn.measurement",
    "SignificanceCriterion": "psn.measurement",
    "HopNormalizedMetric": "metrics",
    "DelayMetric": "metrics",
    "FloodingState": "routing.flooding",
    "SpfTree": "routing.spf",
    "SpfCache": "routing.spf_cache",
    "NodeDefense": "routing.defense",
    "Psn._purge_tick": "routing.defense",
    "FaultInjector": "faults",
    "InvariantMonitor": "faults",
    "StatsCollector": "sim.stats",
    "NetworkSimulation.run": "sim.run",
    "NetworkSimulation.__init__": "sim.build",
    "topology": "topology.build",
    "TrafficMatrix": "traffic.matrix",
    "run_spec": "sim.parallel",
}

#: Every layer a run can report, in print order.
LAYER_ORDER = (
    "des", "traffic", "psn.link", "psn.forward", "psn.update",
    "psn.measurement", "metrics", "routing.flooding", "routing.spf",
    "routing.spf_cache", "routing.defense", "faults", "sim.stats",
    "sim.run", "sim.parallel", "sim.build", "topology.build",
    "traffic.matrix",
)


def layer_of(boundary: str) -> str:
    """The layer a boundary belongs to (``"other"`` if unmapped)."""
    layer = LAYERS.get(boundary)
    if layer is None:
        layer = LAYERS.get(boundary.split(".", 1)[0], "other")
    return layer


class SpanStack:
    """Exclusive-time accounting over nested calls.

    ``enter(name)`` / ``exit()`` bracket one call.  ``spans`` holds the
    per-edge aggregates; :meth:`take` hands them over and starts afresh.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open frames: [boundary, start, child seconds].
        self.frames: List[list] = []
        self.spans: SpanTable = {}

    def enter(self, name: str) -> None:
        self.frames.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, child = self.frames.pop()
        total = end - start
        parent = None
        if self.frames:
            top = self.frames[-1]
            top[2] += total
            parent = top[0]
        record = self.spans.get((name, parent))
        if record is None:
            record = self.spans[(name, parent)] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += total
        record[2] += total - child

    def take(self) -> SpanTable:
        """The aggregates so far; the stack keeps recording into new ones."""
        spans, self.spans = self.spans, {}
        return spans


def merge_spans(tables) -> SpanTable:
    """Sum several span tables edge by edge."""
    merged: SpanTable = {}
    for table in tables:
        for key, (calls, total, self_s) in table.items():
            record = merged.setdefault(key, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += self_s
    return merged


def by_layer(spans: SpanTable) -> Dict[str, Dict[str, float]]:
    """Self seconds and calls per layer."""
    layers: Dict[str, Dict[str, float]] = {}
    for (name, _parent), (calls, _total, self_s) in spans.items():
        entry = layers.setdefault(layer_of(name), {"self_s": 0.0, "calls": 0})
        entry["self_s"] += self_s
        entry["calls"] += calls
    return layers


def boundary_total(spans: SpanTable, layer: str) -> float:
    """Inclusive seconds of a layer's outermost spans.

    Spans of the layer nested inside another span of the same layer
    are skipped, so recursion is not counted twice.
    """
    return sum(
        total for (name, parent), (_c, total, _s) in spans.items()
        if layer_of(name) == layer
        and (parent is None or layer_of(parent) != layer)
    )


class Instrumentation:
    """Class-level wrappers feeding one :class:`SpanStack`.

    Use :func:`instrumented`; it installs every wrapper and removes them
    again on exit.
    """

    def __init__(self, stack: SpanStack) -> None:
        self.stack = stack
        self._undo: List[Tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------
    def _replace(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _traced(self, function, boundary: str):
        enter, exit_ = self.stack.enter, self.stack.exit

        @functools.wraps(function)
        def traced(*args, **kwargs):
            enter(boundary)
            try:
                return function(*args, **kwargs)
            finally:
                exit_()

        return traced

    def wrap(self, owner, attr: str, boundary: Optional[str] = None) -> None:
        """Trace ``owner.attr`` (a function, classmethod or staticmethod)."""
        original = owner.__dict__[attr]
        if boundary is None:
            boundary = f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(original, (classmethod, staticmethod)):
            kind = type(original)
            self._replace(owner, attr,
                          kind(self._traced(original.__func__, boundary)))
        else:
            self._replace(owner, attr, self._traced(original, boundary))

    def wrap_public(self, cls) -> None:
        """Trace every public function defined on ``cls`` itself."""
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if callable(value) or isinstance(value, (classmethod, staticmethod)):
                self.wrap(cls, attr)

    def wrap_receive(self, psn_cls, data_kinds) -> None:
        """``Psn.receive`` split by packet kind: data plane vs updates."""
        original = psn_cls.__dict__["receive"]
        enter, exit_ = self.stack.enter, self.stack.exit

        @functools.wraps(original)
        def receive(self, packet, via):
            enter("Psn.receive[data]" if packet.kind in data_kinds
                  else "Psn.receive[update]")
            try:
                return original(self, packet, via)
            finally:
                exit_()

        self._replace(psn_cls, "receive", receive)

    def wrap_scheduling(self, simulator_cls, timer_tick) -> None:
        """Trace every callback handed to the kernel's scheduling calls.

        The scheduled entry becomes ``trampoline(boundary, fn, args)``;
        its time and sequence number are unchanged, so the event order
        (and every simulated result) is too.  A periodic timer's tick is
        named after the callback it drives.
        """
        enter, exit_ = self.stack.enter, self.stack.exit
        names: Dict[object, str] = {}

        def boundary(fn) -> str:
            function = getattr(fn, "__func__", fn)
            if function is timer_tick:
                return boundary(fn.__self__.callback)
            name = names.get(function)
            if name is None:
                name = names[function] = getattr(
                    function, "__qualname__", type(fn).__name__
                )
            return name

        def trampoline(name, fn, args):
            enter(name)
            try:
                fn(*args)
            finally:
                exit_()

        call_in = simulator_cls.__dict__["call_in"]
        call_soon = simulator_cls.__dict__["call_soon"]
        call_at = simulator_cls.__dict__["_schedule_call_at"]

        @functools.wraps(call_in)
        def traced_call_in(self, delay, fn, *args):
            call_in(self, delay, trampoline, boundary(fn), fn, args)

        @functools.wraps(call_soon)
        def traced_call_soon(self, fn, *args):
            call_soon(self, trampoline, boundary(fn), fn, args)

        @functools.wraps(call_at)
        def traced_call_at(self, when, fn, args):
            call_at(self, when, trampoline, (boundary(fn), fn, args))

        self._replace(simulator_cls, "call_in", traced_call_in)
        self._replace(simulator_cls, "call_soon", traced_call_soon)
        self._replace(simulator_cls, "_schedule_call_at", traced_call_at)

    def wrap_run_spec(self, parallel_module) -> None:
        """Trace each fleet run inside its worker and ship its spans home.

        Pool workers fork from the instrumented process, so they inherit
        every wrapper.  Each run resets the worker's stack, runs under a
        ``run_spec`` root span, and attaches ``(pid, wall, spans)`` to
        its report, which pickles back to the parent with it.  The
        wrapper keeps ``run_spec``'s module and name, so the pool still
        pickles it by reference.
        """
        stack = self.stack
        original = parallel_module.__dict__["run_spec"]

        @functools.wraps(original)
        def run_spec(spec):
            stack.frames.clear()
            stack.take()
            started = stack.clock()
            stack.enter("run_spec")
            try:
                report = original(spec)
            finally:
                stack.exit()
            report.perfbench_trace = {
                "pid": os.getpid(),
                "wall_s": stack.clock() - started,
                "spans": stack.take(),
            }
            return report

        self._replace(parallel_module, "run_spec", run_spec)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@contextmanager
def instrumented(stack: SpanStack) -> Iterator[Instrumentation]:
    """Install the benchmark's layer wrappers for the duration."""
    from repro.des.engine import Simulator
    from repro.des.timers import PeriodicTimer
    from repro.faults.invariants import InvariantMonitor
    from repro.metrics.dspf import DelayMetric
    from repro.metrics.hnspf import HopNormalizedMetric
    from repro.psn.interfaces import LinkTransmitter
    from repro.psn.measurement import DelayAverager, SignificanceCriterion
    from repro.psn.node import Psn
    from repro.psn.packet import PacketKind
    from repro.routing.defense import NodeDefense
    from repro.routing.flooding import FloodingState
    from repro.routing.spf import SpfTree
    from repro.routing.spf_cache import SpfCache
    from repro.sim import network_sim, parallel, scenarios
    from repro.sim.stats import StatsCollector
    from repro.traffic.matrix import TrafficMatrix

    tool = Instrumentation(stack)
    try:
        tool.wrap(Simulator, "run")
        tool.wrap_scheduling(Simulator, PeriodicTimer.__dict__["_tick"])
        tool.wrap(LinkTransmitter, "send")
        tool.wrap_receive(Psn, (PacketKind.DATA, PacketKind.RFNM))
        for attr in ("inject", "forward", "flush_pending_updates"):
            tool.wrap(Psn, attr)
        for cls in (FloodingState, SpfCache, StatsCollector, DelayAverager,
                    SignificanceCriterion, HopNormalizedMetric, DelayMetric):
            tool.wrap_public(cls)
        for attr in ("update_cost", "update_costs", "recompute"):
            tool.wrap(SpfTree, attr)
        tool.wrap(NodeDefense, "screen")
        tool.wrap(NodeDefense, "purge")
        tool.wrap(InvariantMonitor, "check_now")
        tool.wrap(network_sim.NetworkSimulation, "run")
        tool.wrap(network_sim.NetworkSimulation, "__init__")
        for attr in ("build_arpanet_1987", "build_milnet_1987",
                     "build_two_region_network", "build_grid_network",
                     "build_random_network"):
            tool.wrap(scenarios, attr, f"topology.{attr}")
        for attr in ("site_weights", "milnet_site_weights"):
            tool.wrap(scenarios, attr, f"TrafficMatrix.{attr}")
        for attr in ("gravity", "random_pairs", "two_region"):
            tool.wrap(TrafficMatrix, attr)
        tool.wrap_run_spec(parallel)
        yield tool
    finally:
        tool.restore()
