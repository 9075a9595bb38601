"""The benchmark's workloads: what each one builds, times and checks.

Every workload goes through the public API in the default
configuration (``ScenarioConfig(duration_s, warmup_s, seed)`` plus only
the knobs named below), so a number measured here is a number a user
of ``build_scenario`` / ``run_many`` gets.

=====================  ===================================================
``steady-aug87``       aug87 under HN-SPF: the boot flood sits inside the
                       10 s warmup and every PSN closes three full 10 s
                       delay-averaging periods after it -- the paper's
                       steady-state regime, data plane dominant, heap
                       scheduler, 57 nodes (below the 128-node threshold,
                       so incremental flooding and duplicate-ack
                       suppression stay off).
``bootflood-rand256``  rand256 cut 0.15 s after boot: the run is its boot
                       flood, the pending-event population crosses the
                       ``auto`` threshold and the kernel migrates to the
                       calendar queue, and incremental flooding, dup-ack
                       suppression and batched SPF repair all resolve on.
``attack-milnet``      milnet-hnspf under the corrupt-update fault plan the
                       chaos-smoke job runs, with ``defenses=True`` and
                       ``check_invariants="record"``: the only workload
                       that drives ``repro.faults`` and
                       ``repro.routing.defense``.
``fleet-may87``        ``run_many`` over four may87 (D-SPF) replications on
                       the default chunked executor: the only workload
                       that measures ``repro.sim.parallel``.
=====================  ===================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from calibrate import time_reference_on
from repro.faults import load_fault_plan
from repro.routing.spf import SpfTree
from repro.sim import (
    RunSpec,
    ScenarioConfig,
    build_scenario,
    combined_telemetry,
    replicate,
    run_many,
    run_spec,
)
from spans import merge_spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The fault plan of the CI chaos-smoke job.
CORRUPT_PLAN = os.path.join(ROOT, "examples", "faultplans", "corrupt-update.json")


@dataclass(frozen=True)
class Workload:
    """One named workload; ``smoke`` shrinks it to a few host seconds."""

    name: str
    scenario: str
    duration_s: float
    warmup_s: float
    smoke_duration_s: float
    smoke_warmup_s: float
    #: Adversarial plan + defenses + recorded invariant checks.
    attack: bool = False
    #: Replications in the fleet (0 = one in-process run).
    fleet_runs: int = 0
    smoke_fleet_runs: int = 0

    @property
    def fleet(self) -> bool:
        return self.fleet_runs > 0

    def config(self, seed: int, smoke: bool = False) -> ScenarioConfig:
        duration, warmup = (
            (self.smoke_duration_s, self.smoke_warmup_s) if smoke
            else (self.duration_s, self.warmup_s)
        )
        if not self.attack:
            return ScenarioConfig(duration_s=duration, warmup_s=warmup,
                                  seed=seed)
        return ScenarioConfig(
            duration_s=duration, warmup_s=warmup, seed=seed,
            faults=load_fault_plan(CORRUPT_PLAN), defenses=True,
            check_invariants="record",
        )

    def specs(self, seed: int, smoke: bool = False) -> List[RunSpec]:
        """The fleet's runs: ``seed`` is the master seed of the replication."""
        runs = self.smoke_fleet_runs if smoke else self.fleet_runs
        # The fleet seed reaches the runs through replicate(); the
        # spec's own config seed is then replaced per replication.
        return replicate(RunSpec(self.scenario, self.config(0, smoke)),
                         seed, runs)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("steady-aug87", "aug87", 50.0, 10.0, 12.0, 2.0),
        Workload("bootflood-rand256", "rand256", 0.15, 0.0, 0.04, 0.0),
        Workload("attack-milnet", "milnet-hnspf", 150.0, 30.0, 50.0, 10.0,
                 attack=True),
        Workload("fleet-may87", "may87", 30.0, 10.0, 8.0, 2.0,
                 fleet_runs=4, smoke_fleet_runs=2),
    )
}


def fleet_processes() -> int:
    """``min(nproc, 2)`` worker processes for the fleet."""
    return min(len(os.sched_getaffinity(0)), 2)


# ----------------------------------------------------------------------
# Set-up and the timed call
# ----------------------------------------------------------------------
def setup(workload: Workload, seed: int, smoke: bool):
    """Build what the timed call consumes.

    A single run consumes its simulation (``build_scenario``).  The
    fleet consumes its spec list; its set-up also builds the first
    spec's scenario once -- the per-run set-up every worker repeats --
    and keeps it for the resolved-configuration record.
    """
    if not workload.fleet:
        return build_scenario(workload.scenario,
                              config=workload.config(seed, smoke))
    specs = workload.specs(seed, smoke)
    probe = build_scenario(specs[0].scenario, config=specs[0].config)
    return specs, probe


def timed_call(workload: Workload, built):
    """The call ``wall_s`` times: ``simulation.run()`` or ``run_many``."""
    if not workload.fleet:
        return built.run()
    specs, _probe = built
    return run_many(specs, processes=fleet_processes())


def peak_rss_mb(workload: Workload) -> float:
    """Peak resident memory so far; the fleet's is its largest worker's.

    Both read the kernel's high-water mark.  The fleet's workers have
    been joined by the time ``run_many`` returns, so ``RUSAGE_CHILDREN``
    holds the largest of them.
    """
    who = resource.RUSAGE_CHILDREN if workload.fleet else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# What a run did: digest, deterministic counts, resolved configuration
# ----------------------------------------------------------------------
def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def routing_tables(simulation) -> Dict[int, List[Optional[int]]]:
    """Every PSN's next-hop link toward every node (its final table)."""
    nodes = sorted(simulation.network.nodes)
    return {
        node_id: [psn.tree.next_hop_link(dest) for dest in nodes]
        for node_id, psn in sorted(simulation.psns.items())
    }


def report_digest(reports, tables=None) -> str:
    """SHA-256 over ``asdict(report)`` (each report) plus routing tables."""
    return _sha256({
        "reports": [asdict(report) for report in reports],
        "routing": _sha256(tables) if tables is not None else None,
    })


def counts(telemetry) -> Dict[str, int]:
    """The telemetry counters: every field but the wall-clock ones."""
    values = telemetry.to_dict()
    for key in ("wall_s", "phase_wall_s"):
        values.pop(key)
    return values


def resolved_config(workload: Workload, simulation, seed: int,
                    telemetry) -> Dict:
    """What the defaults resolved to, read from the built objects.

    The PSNs keep their resolved knobs in private attributes -- the
    program exposes no resolved-configuration record -- so this reads
    them there.
    """
    psns = list(simulation.psns.values())

    def uniform(flags) -> object:
        flags = set(flags)
        return flags.pop() if len(flags) == 1 else sorted(flags)

    requested = simulation.sim.scheduler
    if workload.fleet:
        # The runs happened in workers; their telemetry says which
        # backend dispatched events.
        active = "calendar" if telemetry.events_calendar else "heap"
    else:
        active = simulation.sim.active_scheduler
    return {
        "scheduler_requested": requested,
        "scheduler_active": active,
        "auto_migrated": requested == "auto" and active == "calendar",
        "batched_spf": uniform(p._pending_updates is not None for p in psns),
        "incremental_flooding": uniform(p._incremental_flooding for p in psns),
        "dup_ack_suppression": uniform(p._dup_ack for p in psns),
        "defenses": uniform(p.defense is not None for p in psns),
        "nodes": len(simulation.network.nodes),
        "links": len(simulation.network.links),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def check_routing(simulation, tables) -> Optional[str]:
    """Each PSN's table must equal a fresh full SPF over its cost table."""
    nodes = sorted(simulation.network.nodes)
    for node_id, psn in sorted(simulation.psns.items()):
        fresh = SpfTree(simulation.network, node_id, psn.costs.copy())
        expected = [fresh.next_hop_link(dest) for dest in nodes]
        if tables[node_id] != expected:
            wrong = [d for d, a, b in zip(nodes, tables[node_id], expected)
                     if a != b]
            return (f"PSN {node_id}: next hop differs from a fresh SPF "
                    f"toward {len(wrong)} node(s), first {wrong[0]}")
    return None


def check_attack(report) -> List[str]:
    problems = []
    violations = report.invariant_violations or []
    if violations:
        problems.append(f"{len(violations)} invariant violation(s), first: "
                        f"{violations[0]}")
    containment = (report.resilience or {}).get("containment") or {}
    if containment.get("containment_s") is None:
        problems.append("containment_s is null: the run ended poisoned")
    return problems


def check_fleet(specs, reports) -> Optional[str]:
    """The first replication must equal a serial ``run_spec`` of its spec."""
    serial = run_spec(specs[0])
    if asdict(serial) != asdict(reports[0]):
        return (f"fleet report for seed {specs[0].config.seed} differs "
                f"from a serial run_spec of the same spec")
    return None


# ----------------------------------------------------------------------
# One measured iteration
# ----------------------------------------------------------------------
def iteration(workload: Workload, seed: int, smoke: bool, full_checks: bool,
              stack=None) -> Dict:
    """Build, run and check once; returns the iteration record.

    ``stack`` (a :class:`~spans.SpanStack`) marks a traced iteration:
    the caller has installed the instrumentation, and the record gains
    the set-up and run span tables.  ``full_checks`` adds the checks
    that cost a run's worth of work (fresh SPF per PSN, the serial
    fleet replay); later iterations are tied to the first by digest.
    The host-speed reference is timed last, once the peak RSS is read.
    """
    clock = time.perf_counter
    started = clock()
    built = setup(workload, seed, smoke)
    setup_s = clock() - started
    setup_spans = stack.take() if stack is not None else None
    started = clock()
    result = timed_call(workload, built)
    wall_s = clock() - started
    rss_mb = peak_rss_mb(workload)
    run_spans = stack.take() if stack is not None else None

    failures: List[str] = []
    record = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": rss_mb}
    if workload.fleet:
        specs, probe = built
        reports = result
        telemetry = combined_telemetry(reports)
        record["digest"] = report_digest(reports)
        record["resolved"] = resolved_config(workload, probe, seed, telemetry)
        record["resolved"]["fleet_runs"] = len(specs)
        record["resolved"]["fleet_processes"] = fleet_processes()
        record["resolved"]["run_seeds"] = [s.config.seed for s in specs]
        if stack is not None:
            traces = [r.perfbench_trace for r in reports]
            record["worker_traces"] = [
                {"pid": t["pid"], "wall_s": t["wall_s"]} for t in traces
            ]
            run_spans = merge_spans(t["spans"] for t in traces)
        if full_checks:
            problem = check_fleet(specs, reports)
            if problem:
                failures.append(problem)
    else:
        simulation, report = built, result
        telemetry = report.telemetry
        tables = routing_tables(simulation)
        record["digest"] = report_digest([report], tables)
        record["resolved"] = resolved_config(workload, simulation, seed,
                                             telemetry)
        if full_checks:
            problem = check_routing(simulation, tables)
            if problem:
                failures.append(problem)
        if workload.attack:
            failures.extend(check_attack(report))
    record["counts"] = counts(telemetry)
    record["offered_packets"] = sum(
        r.offered_packets for r in (reports if workload.fleet else [report])
    )
    record["failures"] = failures
    if stack is not None:
        record["setup_spans"] = setup_spans
        record["run_spans"] = run_spans
    record["reference_s"] = time_reference_on(
        fleet_processes() if workload.fleet else 1)
    return record


def layer_counts(telemetry_counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer counters derived from one run's telemetry."""
    c = telemetry_counts
    accepted, duplicates = c["flood_accepted"], c["flood_duplicates"]
    lookups = (c["cache_table_hits"] + c["cache_table_misses"]
               + c["cache_tree_hits"] + c["cache_tree_misses"])
    hits = c["cache_table_hits"] + c["cache_tree_hits"]
    return {
        "des.events": c["events_processed"],
        "des.calendar_resizes": c["calendar_resizes"],
        "psn.link.data_sent": c["data_packets_sent"],
        "psn.link.control_sent": c["control_packets_sent"],
        "psn.link.drops": c["transmitter_drops"],
        "psn.update.acks_sent": c["ack_packets_sent"],
        "psn.update.dup_acks_suppressed": c["dup_acks_suppressed"],
        "psn.update.retransmitted": c["updates_retransmitted"],
        "metrics.updates_originated": c["flood_generated"],
        "routing.flooding.accepted": accepted,
        "routing.flooding.duplicates": duplicates,
        "routing.flooding.useful_ratio": (
            accepted / (accepted + duplicates) if accepted + duplicates else 0.0
        ),
        "routing.flooding.avoided": c["flood_duplicates_avoided"],
        "routing.flooding.window_evictions": c["flood_window_evictions"],
        "routing.spf.passes": (c["spf_full_computations"]
                               + c["spf_incremental_updates"]
                               + c["spf_batched_passes"]),
        "routing.spf.nodes_scanned": c["spf_nodes_scanned"],
        "routing.spf_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "routing.defense.rejected": (c["defense_rejected_quarantine"]
                                     + c["defense_rejected_rate"]
                                     + c["defense_rejected_cost"]
                                     + c["defense_rejected_seq"]),
        "routing.defense.purged": c["defense_purged_entries"],
        "faults.injected": (c["faults_injected"]
                            + c["corrupt_updates_injected"]
                            + c["babble_updates_injected"]
                            + c["stuck_transitions"] + c["reorder_swaps"]),
        "faults.invariant_checks": c["invariant_checks"],
    }


def traced_walls(record: Dict) -> Tuple[float, float]:
    """(wall the layers must account for, span self-time sum).

    A single run's spans cover the timed ``run()``; a fleet's cover
    each worker's ``run_spec``, so its attribution is checked against
    the summed worker-side run walls.
    """
    self_total = sum(s for (_c, _t, s) in record["run_spans"].values())
    if "worker_traces" in record:
        return sum(t["wall_s"] for t in record["worker_traces"]), self_total
    return record["wall_s"], self_total
