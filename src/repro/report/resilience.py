"""Per-fault recovery analysis (the resilience summary).

The paper's resilience story is about *transients*: how long the
network storms after a line dies, how much routing traffic the storm
costs, and how much data delivery suffers while routes converge.  This
module condenses a fault-injected run (a
:class:`~repro.sim.network_sim.NetworkSimulation` with a
:class:`~repro.faults.FaultPlan` attached) into one JSON-ready dict:

* **time to reconverge** per fault -- the span of the routing-update
  burst the fault triggered (updates chained with gaps below
  ``quiet_s``, which defaults to half the 10-second measurement
  cadence);
* **update-storm size** -- how many updates that burst contained;
* **delivery fraction during degradation** -- delivered / offered
  packets over the burst window, from the run's
  :class:`~repro.sim.stats.DeliveryTimeline` (``None`` when no traffic
  was offered in the window).

``NetworkSimulation.run`` attaches the summary to the report as its
``resilience`` attribute whenever a fault plan is present; the CLI
prints it under ``--resilience-summary``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - keeps repro.report sim-free
    from repro.sim.network_sim import NetworkSimulation

#: Default burst gap: updates closer than this chain into one storm.
#: Half the paper's 10-second measurement cadence, so two ordinary
#: periodic reports never merge into a single "storm".
DEFAULT_QUIET_S = 5.0


def _burst(
    times: List[float], t0: float, quiet_s: float
) -> Tuple[float, int]:
    """(last update time, update count) of the burst starting at ``t0``.

    Walks the sorted update timestamps from the first at or after
    ``t0``, chaining successive updates while the gap stays within
    ``quiet_s``.  An empty burst returns ``(t0, 0)``.
    """
    index = bisect_left(times, t0)
    last = t0
    count = 0
    while index < len(times) and times[index] - last <= quiet_s:
        last = times[index]
        count += 1
        index += 1
    return last, count


def containment_summary(simulation: "NetworkSimulation") -> Optional[Dict]:
    """Condense an adversarial run's containment trajectory.

    ``None`` unless the run's fault plan carried adversarial faults.
    Reads the injector's periodic containment samples (taken each
    measurement interval): the poisoned-node count over time, the
    containment time (when the last poisoned database healed, relative
    to the first adversarial action), and the update-storm
    amplification factor (peak post-fault per-interval update rate over
    the pre-fault median rate).
    """
    injector = simulation.fault_injector
    if injector is None or not injector.plan.adversarial:
        return None
    if injector.adversarial_applied:
        first_fault_s = min(t for t, _, _ in injector.adversarial_applied)
    else:
        first_fault_s = min(
            fault.start_s for fault in injector.plan.adversarial
        )
    samples = injector.poison_samples
    poisoned_peak = max((count for _, count in samples), default=0)
    poisoned_final = samples[-1][1] if samples else 0
    #: Containment time: 0 when the poison never took hold, ``None``
    #: while the last sample is still poisoned (uncontained), otherwise
    #: the first clean sample after the last poisoned one, relative to
    #: the first adversarial action.
    containment_s: Optional[float] = 0.0
    if poisoned_peak:
        if poisoned_final:
            containment_s = None
        else:
            last_poisoned = max(t for t, count in samples if count)
            clean_at = min(t for t, _ in samples if t > last_poisoned)
            containment_s = max(clean_at - first_fault_s, 0.0)
    # Per-interval update transmission rates from the cumulative
    # samples; the pre-fault *median* absorbs the boot-flood interval.
    tx = injector.update_tx_samples
    rates = [
        (tx[i][0], (tx[i][1] - tx[i - 1][1]) / (tx[i][0] - tx[i - 1][0]))
        for i in range(1, len(tx))
        if tx[i][0] > tx[i - 1][0]
    ]
    before = sorted(rate for t, rate in rates if t <= first_fault_s)
    after = [rate for t, rate in rates if t > first_fault_s]
    baseline = before[len(before) // 2] if before else None
    peak = max(after, default=None)
    amplification: Optional[float] = None
    if baseline and peak is not None:
        amplification = peak / baseline
    timeline = simulation.timeline
    during_fraction: Optional[float] = None
    after_fraction: Optional[float] = None
    if timeline is not None and samples:
        end = samples[-1][0]
        value = timeline.fraction(first_fault_s, end)
        if not math.isnan(value):
            during_fraction = min(value, 1.0)
        if containment_s is not None and containment_s > 0:
            value = timeline.fraction(first_fault_s + containment_s, end)
            if not math.isnan(value):
                after_fraction = min(value, 1.0)
    return {
        "first_fault_s": first_fault_s,
        "adversarial_actions": len(injector.adversarial_applied),
        "poisoned_peak": poisoned_peak,
        "poisoned_final": poisoned_final,
        "containment_s": containment_s,
        "baseline_update_rate": baseline,
        "peak_update_rate": peak,
        "storm_amplification": amplification,
        "delivery_fraction_during": during_fraction,
        "delivery_fraction_after": after_fraction,
        "poison_timeline": [[t, count] for t, count in samples],
    }


def resilience_summary(
    simulation: "NetworkSimulation", quiet_s: float = DEFAULT_QUIET_S
) -> Dict:
    """Summarize recovery from every fault the run's injector applied.

    Returns a JSON-serializable dict: a ``faults`` list (one record per
    applied transition, scripted or stochastic) plus aggregates.  Bursts
    of overlapping faults (e.g. dense flapping) attribute the shared
    update traffic to each triggering fault independently.
    """
    injector = simulation.fault_injector
    applied = injector.applied if injector is not None else []
    times = [t for t, _, _ in simulation.stats.update_log]
    timeline = simulation.timeline
    faults: List[Dict] = []
    for t0, kind, link_id in applied:
        last, storm = _burst(times, t0, quiet_s)
        reconverge_s = max(last - t0, 0.0)
        fraction: Optional[float] = None
        if timeline is not None:
            window_end = max(last, t0 + timeline.bucket_s)
            value = timeline.fraction(t0, window_end)
            if not math.isnan(value):
                # Packets offered just before the window can be
                # delivered inside it, nudging the raw ratio past 1.
                fraction = min(value, 1.0)
        faults.append({
            "t_s": t0,
            "kind": kind,
            "link": link_id,
            "reconverge_s": reconverge_s,
            "storm_updates": storm,
            "delivery_fraction": fraction,
        })
    reconverges = [f["reconverge_s"] for f in faults]
    fractions = [
        f["delivery_fraction"] for f in faults
        if f["delivery_fraction"] is not None
    ]
    monitor = getattr(simulation, "invariant_monitor", None)
    return {
        "quiet_s": quiet_s,
        "faults": faults,
        "fault_count": len(faults),
        "flap_transitions": (
            injector.flap_transitions if injector is not None else 0
        ),
        "mean_reconverge_s": (
            sum(reconverges) / len(reconverges) if reconverges else 0.0
        ),
        "worst_reconverge_s": max(reconverges, default=0.0),
        "total_storm_updates": sum(f["storm_updates"] for f in faults),
        "min_delivery_fraction": min(fractions) if fractions else None,
        "invariant_violations": (
            len(monitor.violations) if monitor is not None else None
        ),
        "containment": containment_summary(simulation),
    }
