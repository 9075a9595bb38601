"""The repository's benchmark: one workload, measured, checked, reported.

Run from the repository root::

    python3 perfbench/run.py --workload steady-aug87 --seed 3 --seconds 25 --trace 0

Each *iteration* builds the workload (``setup_s``), makes the timed call
(``wall_s``) and checks what came out, in a process forked from this one
once the simulator is imported, so every iteration starts from the same
state and reports its own peak resident memory.  Iterations repeat until
``--seconds`` are used (at least two); the end-to-end metrics are
medians over them, in host seconds rescaled to a reference host speed
(see ``calibrate.py``).  ``--trace 1`` times fewer untraced iterations
and adds one traced iteration whose exclusive span times give the
per-layer metrics (see ``spans.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything else --
quartiles, resolved configuration, digests, counters, the layer table --
is printed above it and written to ``perfbench/results/``.
See ``perfbench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import time
import traceback

from calibrate import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
EXPECTED = os.path.join(HERE, "expected.json")

#: Timed iterations per run, whatever ``--seconds`` says.
MIN_ITERATIONS = 2
#: Set-up samples per run (iterations plus set-up-only builds).
MIN_SETUPS = 7
#: Everything, traced iteration included, ends this long after start.
RUN_BUDGET_S = 170.0
#: Traced iteration cost in untraced iterations (measured 1.7x-2.6x).
TRACED_COST = 2.5
#: Largest |unattributed| share of the traced wall a traced run may show.
ATTRIBUTION_TOLERANCE = 0.05

WORKLOAD_NAMES = ("steady-aug87", "bootflood-rand256", "attack-milnet",
                  "fleet-may87")
LAYER_SELF = ("des", "traffic", "psn.link", "psn.forward", "psn.update",
              "psn.measurement", "metrics", "routing.flooding",
              "routing.spf", "routing.spf_cache", "routing.defense",
              "faults", "sim.stats")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny durations, two iterations plus a traced one; every "
             "check still runs (a harness self-test, not a measurement)")
    parser.add_argument(
        "--record-expected", action="store_true",
        help="store this run's digest and counters in "
             "perfbench/expected.json as the values later commits "
             "are compared against")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Forked iterations
# ----------------------------------------------------------------------
def _child(sender, fn, args) -> None:
    try:
        message = ("ok", fn(*args))
    except Exception:  # reported to the parent, which counts it
        message = ("error", traceback.format_exc())
    sender.send(message)
    sender.close()


def in_child(fn, args, timeout_s: float):
    """Run ``fn(*args)`` in a forked process; returns (status, value, s).

    Forking after the imports keeps import time out of every iteration
    and gives each one a fresh heap, so no iteration inherits the
    simulator's process-global state from the one before.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child, args=(sender, fn, args))
    started = time.perf_counter()
    process.start()
    sender.close()
    try:
        if receiver.poll(max(timeout_s, 0.0)):
            status, value = receiver.recv()
        else:
            status, value = "error", f"timed out after {timeout_s:.0f} s"
    except EOFError:
        status, value = "error", "iteration process died without a result"
    finally:
        receiver.close()
        process.join(5.0)
        if process.is_alive():
            process.terminate()
            process.join()
    return status, value, time.perf_counter() - started


def timed_iteration(workload, seed, smoke, full_checks):
    import workloads

    return workloads.iteration(workload, seed, smoke, full_checks)


def traced_iteration(workload, seed, smoke):
    import workloads
    from spans import SpanStack, instrumented

    stack = SpanStack()
    with instrumented(stack):
        return workloads.iteration(workload, seed, smoke, False, stack)


def setup_only(workload, seed, smoke):
    import workloads

    started = time.perf_counter()
    workloads.setup(workload, seed, smoke)
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Measure one workload; returns the full result record."""
    import workloads

    workload = workloads.WORKLOADS[name]
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S

    def step(fn, *args):
        return in_child(fn, (workload, seed, smoke) + args,
                        deadline - time.perf_counter())

    # A traced run stays near --seconds too: it stops the untraced
    # iterations early enough to leave room for the traced one.
    if smoke:
        min_iterations = 2
    else:
        min_iterations = 1 if trace else MIN_ITERATIONS
    records, errors = [], []
    while True:
        status, value, elapsed = step(timed_iteration, not records)
        if status != "ok":
            errors.append(value)
            break
        records.append(value)
        used = time.perf_counter() - started
        if trace:
            reserve = TRACED_COST * elapsed
        else:  # the build-only iterations still to come
            reserve = max(MIN_SETUPS - len(records), 0) * value["setup_s"]
        if len(records) >= min_iterations and (
            smoke or used + elapsed + reserve > seconds
        ):
            break
    setups = [r["setup_s"] for r in records]
    while records and not trace and len(setups) < MIN_SETUPS:
        status, value, _ = step(setup_only)
        if status != "ok":
            errors.append(value)
            break
        setups.append(value)

    # Every iteration ran the same seed: digests and counters must repeat.
    for record in records[1:]:
        for key in ("digest", "counts"):
            if record[key] != records[0][key]:
                record["failures"].append(
                    f"{key} differs from iteration 1 (same seed)")
    traced = None
    if trace and records:
        status, value, _ = step(traced_iteration)
        if status != "ok":
            errors.append(value)
        else:
            traced = value
            for key in ("digest", "counts"):
                if traced[key] != records[0][key]:
                    traced["failures"].append(
                        f"traced {key} differs from the untraced run's")
            wall, attributed = workloads.traced_walls(traced)
            if abs(wall - attributed) > ATTRIBUTION_TOLERANCE * wall:
                traced["failures"].append(
                    f"layer self times sum to {attributed:.3f} s of a "
                    f"{wall:.3f} s traced wall")
    runs = records + ([traced] if traced is not None else [])
    attempted = len(runs) + len(errors)
    failed = len(errors) + sum(1 for r in runs if r["failures"])
    return {
        "workload": name, "seed": seed, "smoke": smoke,
        "seconds": time.perf_counter() - started,
        "records": records, "traced": traced, "errors": errors,
        "setups": setups, "attempted": attempted, "failed": failed,
    }


def speed_factor(record: dict) -> float:
    """Host seconds -> seconds at the reference speed, for one iteration."""
    return REFERENCE_S / record["reference_s"]


def rescaled_walls(records) -> list:
    return [r["wall_s"] * speed_factor(r) for r in records]


def run_factor(records) -> float:
    """The run's factor, for samples without a reference of their own."""
    return REFERENCE_S / statistics.median(r["reference_s"] for r in records)


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics, host times at the reference speed.

    Build-only samples have no reference of their own, so ``setup_s``
    is rescaled by the run's median reference time.
    """
    records = result["records"]
    attempted = max(result["attempted"], 1)
    metrics = {}
    if records:
        metrics["wall_s"] = (statistics.median(rescaled_walls(records)), "s")
        metrics["setup_s"] = (
            run_factor(records) * statistics.median(result["setups"]), "s")
        metrics["peak_rss_mb"] = (
            statistics.median(r["peak_rss_mb"] for r in records), "MB")
    metrics["success_rate"] = (
        (attempted - result["failed"]) / attempted, "ratio")
    return metrics


def per_layer(result: dict) -> dict:
    import workloads
    from spans import boundary_total, by_layer

    traced, records = result["traced"], result["records"]
    if traced is None:
        return {}
    layers = by_layer(traced["run_spans"])
    metrics = {}
    for layer in LAYER_SELF:
        metrics[f"{layer}.self_s"] = (layers.get(layer, {}).get("self_s", 0.0),
                                      "s")
    for layer in ("psn.forward", "sim.stats"):
        metrics[f"{layer}.calls"] = (layers.get(layer, {}).get("calls", 0),
                                     "count")
    screened = sum(
        calls for (name, _p), (calls, _t, _s) in traced["run_spans"].items()
        if name == "NodeDefense.screen"
    )
    metrics["routing.defense.screened"] = (screened, "count")
    for key, value in workloads.layer_counts(records[0]["counts"]).items():
        unit = "ratio" if key.endswith("_ratio") else "count"
        metrics[key] = (value, unit)
    metrics["traffic.packets_offered"] = (records[0]["offered_packets"],
                                          "count")
    for layer in ("topology.build", "traffic.matrix", "sim.build"):
        metrics[f"{layer}_s"] = (
            boundary_total(traced["setup_spans"], layer), "s")

    fleet_wall = traced["wall_s"]
    if "worker_traces" in traced:
        per_worker = {}
        for run in traced["worker_traces"]:
            per_worker[run["pid"]] = per_worker.get(run["pid"], 0.0) + \
                run["wall_s"]
        workers = traced["resolved"]["fleet_processes"]
        busy = sum(per_worker.values())
        overhead = fleet_wall - max(per_worker.values())
    else:
        workers, busy, overhead = 1, fleet_wall, 0.0
    metrics["sim.parallel.overhead_s"] = (overhead, "s")
    metrics["sim.parallel.busy_ratio"] = (busy / (workers * fleet_wall),
                                          "ratio")
    wall, attributed = workloads.traced_walls(traced)
    metrics["trace.unattributed_s"] = (wall - attributed, "s")
    # Host seconds at the reference speed, like the end-to-end times.
    factor = speed_factor(traced)
    metrics = {
        name: (value * factor if unit == "s" else value, unit)
        for name, (value, unit) in metrics.items()
    }
    metrics["trace.overhead_s"] = (
        fleet_wall * factor - statistics.median(rescaled_walls(records)), "s")
    return metrics


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_report(result: dict, e2e: dict, layers: dict) -> None:
    import workloads
    from spans import LAYER_ORDER, by_layer

    records, traced = result["records"], result["traced"]
    mode = "traced" if traced is not None else "tracing off"
    print(f"workload {result['workload']}  seed {result['seed']}  ({mode}"
          f"{', smoke' if result['smoke'] else ''}): {len(records)} timed "
          f"iteration(s), {result['seconds']:.1f} s")
    if records:
        resolved = records[0]["resolved"]
        print("resolved config: " + "  ".join(
            f"{k}={v}" for k, v in resolved.items()))
        print(f"digest: {records[0]['digest']}")
        print("counts: " + "  ".join(
            f"{k}={v}" for k, v in records[0]["counts"].items() if v))
        references = [r["reference_s"] for r in records]
        print(f"host speed: reference loop {statistics.median(references):.4f}"
              f" s (median of {len(references)}; {REFERENCE_S} s nominal); "
              f"times are host seconds rescaled to the nominal speed")
        factor = run_factor(records)
        for name, values, raw in (
            ("wall_s", rescaled_walls(records), [r["wall_s"] for r in records]),
            ("setup_s", [factor * s for s in result["setups"]],
             result["setups"]),
            ("peak_rss_mb", [r["peak_rss_mb"] for r in records], None),
        ):
            q1, q2, q3 = quartiles(values)
            extra = (f", raw host median {statistics.median(raw):.4f}"
                     if raw else "")
            print(f"  {name:<14} {q2:12.4f} {e2e[name][1]:<5} "
                  f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}{extra})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':<14} {failed / max(attempted, 1):12.4f} ratio "
          f"({failed} of {attempted} runs failed)")
    for record in records + ([traced] if traced else []):
        for failure in record["failures"]:
            print(f"  FAILED CHECK: {failure}")
    for error in result["errors"]:
        print("  FAILED RUN:\n    " + error.strip().replace("\n", "\n    "))
    if traced is not None:
        wall, attributed = workloads.traced_walls(traced)
        what = ("summed worker run walls" if "worker_traces" in traced
                else "traced wall")
        print(f"{what} {wall:.4f} raw host s; layer self times in raw "
              f"host s ({attributed:.4f} s attributed):")
        layer_table = by_layer(traced["run_spans"])
        for layer in LAYER_ORDER + ("other",):
            entry = layer_table.get(layer)
            if entry:
                print(f"  {layer:<18} {entry['self_s']:10.4f} s "
                      f"{100 * entry['self_s'] / wall:6.2f} %  "
                      f"{int(entry['calls'])} calls")
        print("per-layer metrics:")
        for name, (value, unit) in layers.items():
            print(f"  {name:<36} {value:14.6g} {unit}")
    expected = result.get("expected")
    if expected:
        print(f"expected digest and counts (seed {result['seed']}): "
              f"{expected}")


def _jsonable(result: dict) -> dict:
    """The result with span tables as lists (tuple keys are not JSON)."""
    def spans(table):
        return [
            {"boundary": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(
                table.items(), key=lambda item: -item[1][2])
        ]

    out = dict(result)
    if result["traced"] is not None:
        traced = dict(result["traced"])
        traced["run_spans"] = spans(traced["run_spans"])
        traced["setup_spans"] = spans(traced["setup_spans"])
        out["traced"] = traced
    return out


def compare_expected(result: dict, record: bool) -> None:
    """Match this run's digest and counters against the stored ones."""
    if result["smoke"] or not result["records"]:
        return
    first = result["records"][0]
    key = f"{result['workload']}/{result['seed']}"
    stored = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as handle:
            stored = json.load(handle)
    entry = {"digest": first["digest"],
             "counts": {k: v for k, v in first["counts"].items() if v}}
    if record:
        stored[key] = entry
        with open(EXPECTED, "w") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
            handle.write("\n")
        result["expected"] = "recorded"
    elif key not in stored:
        result["expected"] = "none stored for this seed"
    elif stored[key] == entry:
        result["expected"] = "match"
    else:
        before = stored[key]["counts"]
        changed = sorted(
            k for k in set(entry["counts"]) | set(before)
            if entry["counts"].get(k) != before.get(k)
        )
        result["expected"] = (
            "DIFFERS (simulated output changed): digest "
            f"{'same' if entry['digest'] == stored[key]['digest'] else 'new'}"
            f", counters changed: {', '.join(changed) or 'none'}"
        )


def run_one(name: str, args) -> dict:
    result = measure(name, args.seed, args.seconds, bool(args.trace or
                                                         args.smoke),
                     args.smoke)
    compare_expected(result, args.record_expected)
    e2e = end_to_end(result)
    layers = per_layer(result)
    print_report(result, e2e, layers)
    os.makedirs(RESULTS, exist_ok=True)
    suffix = "smoke" if args.smoke else f"trace{args.trace}"
    path = os.path.join(RESULTS, f"{name}-seed{args.seed}-{suffix}.json")
    with open(path, "w") as handle:
        json.dump(_jsonable(result), handle, indent=1, default=repr)
    result["e2e"], result["layers"] = e2e, layers
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads  # noqa: F401  (imports the simulator before forking)

    result = run_one(args.workload, args)
    chosen = result["layers"] if args.trace else result["e2e"]
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in chosen.items()}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
