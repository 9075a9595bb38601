"""Incremental-flooding windows are keyed by origin.

Every PSN floods one update per node, so a neighbour window needs one
entry per origin.  A window exactly as large as the network therefore
holds every key of the boot flood -- nothing is ever evicted -- while
still proving enough possession to suppress redundant forwards.
"""

from repro.metrics import HopNormalizedMetric
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_random_network
from repro.traffic import TrafficMatrix


def test_window_of_node_count_never_evicts_in_boot_flood():
    network = build_random_network(12, extra_circuits=8, seed=4)
    simulation = NetworkSimulation(
        network, HopNormalizedMetric(), TrafficMatrix.uniform(network, 0.0),
        ScenarioConfig(duration_s=5.0, warmup_s=0.0, seed=1,
                       incremental_flooding=True),
    )
    for psn in simulation.psns.values():
        psn.flooding._window_limit = len(network.nodes)
    report = simulation.run()
    telemetry = report.telemetry
    # Every node flooded its boot update and everyone accepted it.
    assert telemetry.flood_generated == len(network.nodes)
    assert telemetry.flood_accepted == len(network.nodes) * (
        len(network.nodes) - 1
    )
    assert telemetry.flood_window_evictions == 0
    suppressed = sum(
        psn.flooding.stats.suppressed_flood
        + psn.flooding.stats.suppressed_wire
        for psn in simulation.psns.values()
    )
    assert suppressed > 0, "the windows must still prove possession"
