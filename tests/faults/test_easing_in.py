"""Golden trace for the paper's line-restore easing-in behavior.

Section: "when a line comes up it is eased into service" -- a restored
trunk re-enters the tables advertising its *maximum* cost, so traffic
returns gradually as the cost walks down under the movement limit,
instead of stampeding onto the still-empty line.

The pinned series is the bridge line's entry in every update its PSN
sent across a scripted fail/restore of the two-region bridge under the
hop-normalized metric (56K trunk: min 30, max 90, max_down 16/period).
Regenerate with the inline driver below if the metric tables change
deliberately.
"""

from repro.faults import FaultPlan
from repro.metrics import HopNormalizedMetric
from repro.psn.node import DOWN_COST
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_two_region_network
from repro.traffic import TrafficMatrix

BRIDGE = 12

#: (t_s rounded to 2 decimals, advertised cost) for the bridge circuit.
GOLDEN_SERIES = [
    (0.0, 90),            # boot advertisement at maximum cost
    (14.94, 74),          # easing toward measured load, -16/period
    (24.94, 58),
    (30.0, DOWN_COST),    # scripted failure
    (34.94, DOWN_COST),   # the owner's later updates carry every line,
    (54.94, DOWN_COST),   # the dead one included
    (60.0, 90),           # restore: re-enters AT MAXIMUM cost
    (64.94, 74),          # and eases back in, never faster than
    (74.94, 58),          # max_down per measurement period
    (84.94, 42),
    (104.94, 30),         # settles at the idle-line floor
]


def _run():
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(
            duration_s=120.0, warmup_s=10.0, seed=5,
            faults=FaultPlan.single_outage(BRIDGE, 30.0, 60.0),
            check_invariants=True,
        ),
    )
    simulation.run()
    return simulation


def test_restored_line_eases_in_golden_trace():
    simulation = _run()
    series = [
        (round(t, 2), cost)
        for t, link_id, cost in simulation.stats.cost_history
        if link_id == BRIDGE
    ]
    # The boot advertisement lands within the first event tick.
    series[0] = (0.0, series[0][1])
    assert series == GOLDEN_SERIES


def test_easing_in_satisfies_the_monitor():
    """The golden trajectory is itself invariant-clean."""
    simulation = _run()
    assert simulation.invariant_monitor.violations == []


def test_restore_advertises_maximum_cost_first():
    simulation = _run()
    costs_after_restore = [
        cost
        for t, link_id, cost in simulation.stats.cost_history
        if link_id == BRIDGE and t >= 60.0 and cost < DOWN_COST
    ]
    metric = HopNormalizedMetric()
    link = simulation.network.link(BRIDGE)
    assert costs_after_restore[0] == metric.params_for(link).max_cost
    # Monotone descent, bounded by max_down per period.
    deltas = [
        later - earlier
        for earlier, later in zip(costs_after_restore, costs_after_restore[1:])
    ]
    max_down = metric.params_for(link).max_down
    assert all(-max_down <= d <= 0 for d in deltas)
    assert costs_after_restore[-1] == metric.min_cost_for(link)
