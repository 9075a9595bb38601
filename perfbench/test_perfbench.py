"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Instrumentation, SpanStack, by_layer, instrumented  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Toy:
    """a() -> b() -> c(), with b() also called directly."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def a(self) -> None:
        self.clock.now += 1.0
        self.b()
        self.clock.now += 4.0

    def b(self) -> None:
        self.clock.now += 2.0
        self.c()

    def c(self) -> None:
        self.clock.now += 3.0


def test_span_stack_keeps_exclusive_time_and_parents():
    clock = FakeClock()
    stack = SpanStack(clock)
    tool = Instrumentation(stack)
    for attr in ("a", "b", "c"):
        tool.wrap(Toy, attr)
    try:
        toy = Toy(clock)
        toy.a()
        toy.b()
    finally:
        tool.restore()
    spans = stack.take()
    # (boundary, parent) -> [calls, total_s, self_s]
    assert spans == {
        ("Toy.a", None): [1, 10.0, 5.0],
        ("Toy.b", "Toy.a"): [1, 5.0, 2.0],
        ("Toy.c", "Toy.b"): [2, 6.0, 6.0],
        ("Toy.b", None): [1, 5.0, 2.0],
    }
    # Self times add up to the outermost spans' wall: no residual.
    assert sum(s for (_c, _t, s) in spans.values()) == 15.0
    # Restored: calling again records nothing.
    Toy(clock).a()
    assert stack.take() == {}


def test_scheduled_callbacks_keep_order_and_get_attributed():
    from repro.des import Simulator

    fired = []

    class Source:
        def tick(self, label):
            fired.append(label)

    def schedule(sim, source):
        sim.call_in(2.0, source.tick, "late")
        sim.call_in(1.0, source.tick, "early")
        sim.call_soon(source.tick, "now")

    plain = Simulator()
    schedule(plain, Source())
    plain.run()
    expected, fired[:] = list(fired), []

    stack = SpanStack()
    with instrumented(stack):
        sim = Simulator()
        schedule(sim, Source())
        sim.run()
    assert fired == expected
    spans = stack.take()
    tick = [k for k in spans if k[0].endswith("Source.tick")]
    assert tick and all(parent == "Simulator.run" for _name, parent in tick)
    assert by_layer(spans)["des"]["calls"] == 1


def _run_cli(*argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_runs_every_workload_and_check(name):
    result = _run_cli("--workload", name, "--seed", "1", "--smoke",
                      "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3  # two timed iterations + the traced one
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    metrics = result["metrics"]
    assert abs(metrics["trace.unattributed_s"]["value"]) < 0.05 * (
        sum(metrics[f"{layer}.self_s"]["value"] for layer in run.LAYER_SELF)
    )


def test_smoke_prints_end_to_end_metrics():
    result = _run_cli("--workload", "attack-milnet", "--seed", "1",
                      "--smoke", "--trace", "0")
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_times_are_rescaled_to_the_reference_speed():
    half = run.REFERENCE_S / 2  # a host running twice the nominal speed
    result = {
        "records": [
            {"wall_s": 1.0, "reference_s": half, "peak_rss_mb": 50.0},
            {"wall_s": 3.0, "reference_s": 3 * half, "peak_rss_mb": 52.0},
            {"wall_s": 1.5, "reference_s": half, "peak_rss_mb": 51.0},
        ],
        "setups": [0.1, 0.2, 0.3], "attempted": 4, "failed": 1,
    }
    metrics = run.end_to_end(result)
    # Per iteration 2.0, 2.0 and 3.0 s at the nominal speed.
    assert metrics["wall_s"] == (pytest.approx(2.0), "s")
    # Build-only samples take the run's median factor (2x).
    assert metrics["setup_s"] == (pytest.approx(0.4), "s")
    assert metrics["peak_rss_mb"] == (51.0, "MB")
    assert metrics["success_rate"] == (0.75, "ratio")


def test_seed_reaches_the_program():
    args = run.parse_args(["--workload", "attack-milnet", "--seed", "7"])
    assert args.seed == 7
    attack = workloads.WORKLOADS["attack-milnet"]
    assert attack.config(7).seed == 7
    fleet = workloads.WORKLOADS["fleet-may87"]
    from repro.sim import replication_seeds

    assert [s.config.seed for s in fleet.specs(7)] == replication_seeds(7, 4)
    first = workloads.iteration(attack, 1, True, False)
    second = workloads.iteration(attack, 2, True, False)
    assert first["resolved"]["seed"] == 1 and second["resolved"]["seed"] == 2
    assert first["digest"] != second["digest"]
    assert workloads.iteration(attack, 1, True, False)["digest"] == \
        first["digest"]


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady-aug87",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
