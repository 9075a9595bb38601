"""Parallel execution of independent simulation runs.

The paper's performance study -- and any Monte-Carlo use of this repo --
needs many *independent* replications: the same scenario under different
seeds, or different scenarios side by side.  Each run is a separate
process-sized unit of work (one :class:`~repro.des.engine.Simulator`,
one network), so the natural speedup is process-level fan-out.

:func:`run_many` executes a list of :class:`RunSpec` across a process
pool and returns their :class:`~repro.sim.stats.SimulationReport` in
input order.  Determinism is preserved in both senses:

* each run's result depends only on its spec (scenario + config), never
  on scheduling, pool size, or which worker picked it up;
* :func:`replication_seeds` derives per-replication master seeds from a
  single experiment seed through the same SHA-256 construction
  :class:`~repro.des.random_streams.RandomStreams` uses for named
  streams, so replication *k* of an experiment is the same run no matter
  how many replications surround it.

**Graceful degradation.**  A thousand-replication sweep should not be
discarded because one worker died.  ``run_many`` therefore supports

* ``on_error="collect"`` -- finish everything that can finish and
  return a :class:`BatchResult`: the completed reports plus one
  structured :class:`RunFailure` record per run that could not (the
  default ``on_error="raise"`` keeps the historical fail-fast
  behaviour);
* ``timeout_s`` -- a per-run wall-clock budget; a run that exceeds it
  is abandoned (the pool is recycled) instead of hanging the sweep;
* ``retries`` / ``retry_backoff_s`` -- bounded re-execution with
  exponential backoff for *transient* failures (a crashed worker, a
  timed-out run).  Deterministic in-run exceptions are never retried:
  the same spec would fail the same way.

Because runs are deterministic, re-executing one after a pool crash is
safe: a completed retry returns exactly the report the first attempt
would have produced.

Every call -- serial or pooled, batch or ``stream=`` -- goes through
one executor, :class:`_Sweep`; ``processes == 1`` drives it over an
in-process stand-in for the pool.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

from repro.des.random_streams import RandomStreams
from repro.obs.streaming import FleetResult, ProgressMonitor, StreamConfig
from repro.obs.telemetry import RunTelemetry, merge_telemetry
from repro.sim.network_sim import ScenarioConfig
from repro.sim.scenarios import build_scenario
from repro.sim.stats import SimulationReport

#: Backoff sleep hook.  Indirection point only: tests monkeypatch this
#: to observe the (fully deterministic) retry schedule without waiting
#: it out in wall-clock time.
_sleep = time.sleep


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run: a named scenario plus its config.

    Specs are plain picklable data -- the scenario is rebuilt inside the
    worker process -- so a spec is also a complete, storable description
    of how to reproduce the run.
    """

    scenario: str
    config: ScenarioConfig = field(default_factory=ScenarioConfig)

    def with_seed(self, seed: int) -> "RunSpec":
        """This spec with a different master seed (a replication)."""
        return RunSpec(self.scenario, replace(self.config, seed=seed))


class RunFailedError(RuntimeError):
    """One :class:`RunSpec` failed; says *which* one.

    A bare pool traceback names the exception but not the run, which for
    a 100-replication sweep is useless -- the whole point of
    deterministic specs is that the failing run can be replayed alone.
    This wrapper carries the scenario name and seed so the message is a
    reproduction recipe, and it survives the trip back from a worker
    process (``__reduce__`` below: exceptions raised in a pool are
    pickled to the parent, and the default reduction would drop our
    extra constructor arguments).

    ``cause`` is the failure rendered as text.  On the worker side it is
    the *full* ``traceback.format_exception`` output, so the original
    multi-line traceback survives the pickle round-trip verbatim
    (exception chaining itself does not pickle); :attr:`summary` is its
    last line (``TypeName: message``), and the full text is appended to
    the message only when there is more than the summary to show.
    """

    def __init__(self, scenario: str, seed: int, cause: str) -> None:
        summary = cause.strip().rsplit("\n", 1)[-1].strip()
        message = (
            f"run failed: scenario={scenario!r} seed={seed} -- {summary}; "
            f"replay with run_spec(RunSpec({scenario!r}, "
            f"ScenarioConfig(seed={seed})))"
        )
        if summary != cause.strip():
            message += f"\n--- worker traceback ---\n{cause.rstrip()}"
        super().__init__(message)
        self.scenario = scenario
        self.seed = seed
        self.cause = cause

    @property
    def summary(self) -> str:
        """The last line of the cause (``TypeName: message``)."""
        return self.cause.strip().rsplit("\n", 1)[-1].strip()

    def __reduce__(self):
        return (RunFailedError, (self.scenario, self.seed, self.cause))


@dataclass(frozen=True)
class RunFailure:
    """Structured record of one run that could not complete.

    Collected by ``run_many(..., on_error="collect")`` instead of
    raising.  ``traceback`` preserves the worker's full traceback text
    (or a one-line description for timeouts and pool crashes, where no
    Python traceback exists); ``attempts`` counts executions including
    retries.
    """

    index: int
    scenario: str
    seed: int
    error: str
    traceback: str
    attempts: int

    def to_error(self) -> RunFailedError:
        """The failure as the exception ``on_error="raise"`` would raise."""
        return RunFailedError(self.scenario, self.seed, self.traceback)

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "scenario": self.scenario,
            "seed": self.seed,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }


@dataclass
class BatchResult:
    """Everything a partial-results ``run_many`` sweep produced.

    ``results`` is slot-aligned with the input specs (``None`` where the
    run failed); ``failures`` holds one :class:`RunFailure` per failed
    slot.  ``reports`` flattens the completed runs in input order --
    with no failures it equals what ``on_error="raise"`` returns.
    """

    results: List[Optional[SimulationReport]]
    failures: List[RunFailure]

    @property
    def reports(self) -> List[SimulationReport]:
        return [report for report in self.results if report is not None]

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_first(self) -> None:
        """Re-raise the first failure (no-op when everything completed)."""
        if self.failures:
            raise self.failures[0].to_error()


def _resolve_trace_dir(
    config: ScenarioConfig, scenario: str
) -> ScenarioConfig:
    """Apply the worker-side trace naming convention.

    When a spec's ``trace`` names a *directory* (an existing one, or a
    path spelled with a trailing separator), the run writes
    ``trace-<scenario>-<seed>.jsonl`` under it.  Fleet runs can then
    point every replication at one directory and get per-run trace
    files without hand-assigned names.  The scenario rides in the name
    because mixed-scenario sweeps legitimately share seeds -- naming by
    seed alone silently overwrote one scenario's trace with another's.
    Exact spec duplicates (same scenario *and* seed) get a dedup
    counter (``...-2.jsonl``, ``...-3.jsonl``): each worker claims its
    file with an atomic exclusive create, so concurrent duplicates
    never collide either.  File paths and the ``"memory"`` /
    ``"null"`` specs pass through untouched.
    """
    trace = config.trace
    if not isinstance(trace, str) or trace in ("memory", "null"):
        return config
    if trace.endswith(os.sep) or trace.endswith("/") or os.path.isdir(trace):
        os.makedirs(trace, exist_ok=True)
        base = f"trace-{scenario}-{config.seed}"
        copy = 1
        while True:
            name = base if copy == 1 else f"{base}-{copy}"
            path = os.path.join(trace, f"{name}.jsonl")
            try:
                handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                copy += 1
                continue
            os.close(handle)
            return replace(config, trace=path)
    return config


def run_spec(spec: RunSpec) -> SimulationReport:
    """Build and run one spec to completion (the worker-side function).

    Any failure is re-raised as :class:`RunFailedError` identifying the
    spec, chained to the original exception (visible on the serial path;
    chaining doesn't survive the pool's pickle round-trip, so the full
    traceback text also rides in ``cause``).
    """
    try:
        config = _resolve_trace_dir(spec.config, spec.scenario)
        simulation = build_scenario(spec.scenario, config=config)
        return simulation.run()
    except Exception as exc:
        raise RunFailedError(
            spec.scenario,
            spec.config.seed,
            "".join(traceback.format_exception(type(exc), exc,
                                               exc.__traceback__)).rstrip(),
        ) from exc


def replication_seeds(master_seed: int, count: int) -> List[int]:
    """``count`` independent master seeds derived from ``master_seed``.

    Uses :class:`RandomStreams`' named-stream derivation (SHA-256 over
    ``"<master_seed>:replication-<k>"``), so seed *k* is a pure function
    of ``(master_seed, k)``: extending an experiment from 10 to 100
    replications never changes the first 10 runs.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    streams = RandomStreams(master_seed)
    return [
        streams.stream(f"replication-{k}").getrandbits(48)
        for k in range(count)
    ]


def replicate(spec: RunSpec, master_seed: int, count: int) -> List[RunSpec]:
    """``count`` replications of ``spec`` under derived seeds."""
    return [
        spec.with_seed(seed)
        for seed in replication_seeds(master_seed, count)
    ]


def run_many(
    specs: Sequence[RunSpec],
    processes: Optional[int] = None,
    on_error: str = "raise",
    timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.5,
    stream: Union[None, bool, StreamConfig] = None,
) -> Union[List[SimulationReport], BatchResult, FleetResult]:
    """Run every spec, fanning out across worker processes.

    Parameters
    ----------
    specs:
        The runs to execute.  Results come back in input order.
    processes:
        Worker pool size; ``None`` uses one worker per CPU
        (``os.cpu_count()``).  Never more workers than specs, and
        ``processes == 1`` (or fewer than two specs) runs serially in
        this process -- same results, no pool overhead -- so callers can
        always use :func:`run_many` and tune ``processes`` freely.
    on_error:
        ``"raise"`` (default): raise the first :class:`RunFailedError`,
        returning a plain report list on success -- the historical
        fail-fast contract.  ``"collect"``: never raise for a failed
        run; return a :class:`BatchResult` with every completed report
        plus structured :class:`RunFailure` records.
    timeout_s:
        Per-run wall-clock budget.  A run exceeding it counts as a
        transient failure: the pool is recycled (a hung worker cannot be
        cancelled, only abandoned) and the run is retried or recorded.
        Only enforced when a pool is used; the serial path runs
        everything in this process and cannot preempt a run.
    retries:
        Extra executions granted to *transiently* failed runs (worker
        crash, pool breakage, timeout).  Deterministic in-run exceptions
        are never retried -- the same spec fails the same way.
    retry_backoff_s:
        Sleep before retry round *r* is ``retry_backoff_s * 2**(r-1)``
        (exponential backoff, first retry waits one unit).
    stream:
        ``True`` or a :class:`~repro.obs.streaming.StreamConfig`
        returns the sweep as a :class:`~repro.obs.streaming.FleetResult`
        instead: slot-aligned reports (``None`` where a run failed),
        failures, their :func:`combined_telemetry`, and the
        :class:`~repro.obs.streaming.ProgressMonitor` the sweep fed as
        it harvested.  ``on_error``, ``timeout_s`` and ``retries`` keep
        their meaning.
    """
    specs = list(specs)
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if on_error not in ("raise", "collect"):
        raise ValueError(
            f"on_error must be 'raise' or 'collect': {on_error!r}"
        )
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout must be positive: {timeout_s}")
    if processes is None:
        processes = os.cpu_count() or 1
    processes = min(processes, len(specs)) if specs else 1
    status_line = isinstance(stream, StreamConfig) and stream.status_line
    sweep = _Sweep(
        specs, processes, timeout_s, retries, retry_backoff_s,
        fail_fast=on_error == "raise", status_line=status_line,
    )
    batch = sweep.run()
    if on_error == "raise":
        batch.raise_first()
    if stream:
        return FleetResult(
            reports=batch.results,
            failures=batch.failures,
            telemetry=combined_telemetry(batch.reports),
            progress=sweep.progress,
        )
    return batch if on_error == "collect" else batch.reports


class _Deferred:
    """A call that runs when its result is asked for."""

    def __init__(self, fn, args) -> None:
        self.fn = fn
        self.args = args

    def result(self, timeout: Optional[float] = None):
        return self.fn(*self.args)


class _InlinePool:
    """In-process stand-in for the worker pool (``processes == 1``).

    Each submitted call runs when the sweep harvests it, so specs run
    one at a time, in input order, in this process: a failure raises
    its original exception chain, and a fail-fast sweep stops before
    running the specs after it.  Nothing here can time out or crash.
    """

    def submit(self, fn, *args) -> _Deferred:
        return _Deferred(fn, args)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        pass


class _Sweep:
    """The state machine behind every :func:`run_many` call.

    Two modes, because a broken pool cannot say *which* task killed it
    (``BrokenProcessPool`` hits every in-flight future at once):

    * **pooled** -- submit everything pending, harvest in input order.
      Deterministic :class:`RunFailedError` results are final; a
      *timeout* is charged to the run we were waiting on (nobody else is
      affected -- the hung worker is reclaimed by recycling the pool at
      the end of the round); a *broken pool* charges nobody, keeps the
      runs that had already finished, and drops to isolation mode.
    * **isolation** -- run pending specs one at a time on the pool, so a
      crash unambiguously identifies its spec.  Completed isolation runs
      are kept (real progress, just without parallelism); once a crash
      has been attributed -- retried or recorded -- the sweep returns to
      pooled mode for the remainder.

    ``processes == 1`` drives the same machine over an
    :class:`_InlinePool`.  :attr:`progress` counts runs as they are
    harvested.  Deterministic runs make re-execution after a lost round
    safe: a retry returns exactly the report the first attempt would
    have.
    """

    def __init__(
        self,
        specs: Sequence[RunSpec],
        processes: int,
        timeout_s: Optional[float],
        retries: int,
        retry_backoff_s: float,
        fail_fast: bool,
        status_line: bool = False,
    ) -> None:
        self.specs = specs
        self.processes = processes
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.fail_fast = fail_fast
        self.progress = ProgressMonitor(len(specs), status_line=status_line)
        self.results: List[Optional[SimulationReport]] = [None] * len(specs)
        self.failures: Dict[int, RunFailure] = {}
        self.attempts = [0] * len(specs)
        self.pending = list(range(len(specs)))
        self.pool = None
        self._backoff_rounds = 0
        #: Every backoff delay actually applied, in order.  The schedule
        #: is a pure function of ``retry_backoff_s`` and the number of
        #: transient losses -- no wall-clock jitter -- which is what
        #: makes failure-path tests reproducible; the regression test
        #: pins this list.
        self.backoff_delays: List[float] = []

    # -- plumbing ------------------------------------------------------
    def _fresh_pool(self):
        if self.pool is not None:
            _shutdown(self.pool)
        self.pool = (
            _InlinePool() if self.processes == 1
            else ProcessPoolExecutor(max_workers=self.processes)
        )
        return self.pool

    def _backoff(self) -> None:
        """Exponential sleep before re-running after a transient loss.

        Deterministic by construction: round *r* (0-based) sleeps
        exactly ``retry_backoff_s * 2**r`` seconds.  The sleep goes
        through the module-level :data:`_sleep` hook so tests can
        intercept it and pin the schedule without waiting it out.
        """
        delay = self.retry_backoff_s * (2 ** self._backoff_rounds)
        self._backoff_rounds += 1
        self.backoff_delays.append(delay)
        if delay > 0:
            _sleep(delay)

    def _harvest(self, index: int, future) -> None:
        """Wait for one run; a deterministic failure is final (and, when
        failing fast, re-raised as is).  Timeouts and pool breakage
        propagate to the caller, which knows who to blame."""
        self.progress.note_started(index)
        self.attempts[index] += 1
        try:
            self.results[index] = future.result(timeout=self.timeout_s)
        except RunFailedError as error:
            self._final(index, error.summary, error.cause)
            if self.fail_fast:
                raise
            return
        self.progress.note_completed(index)

    def _final(self, index: int, error: str, tb: str) -> None:
        spec = self.specs[index]
        self.failures[index] = RunFailure(
            index=index,
            scenario=spec.scenario,
            seed=spec.config.seed,
            error=error,
            traceback=tb,
            attempts=self.attempts[index],
        )
        self.progress.note_failed(index)

    def _charge_transient(self, index: int, description: str) -> bool:
        """Charge a transient failure; True if the run may retry."""
        if self.attempts[index] <= self.retries:
            return True
        self._final(index, description.split("\n", 1)[0], description)
        return False

    def _timeout_text(self) -> str:
        return (
            f"TimeoutError: run exceeded its {self.timeout_s}s "
            f"wall-clock budget"
        )

    # -- the two modes -------------------------------------------------
    def _pooled_round(self) -> str:
        """One submit-everything round; returns the next mode."""
        pool = self._fresh_pool() if self.pool is None else self.pool
        futures = {
            index: pool.submit(run_spec, self.specs[index])
            for index in self.pending
        }
        hung = False
        broken = False
        for index in self.pending:
            future = futures[index]
            if broken and not (future.done() and future.exception() is None):
                continue  # lost with the pool; only finished runs count
            try:
                self._harvest(index, future)
            except FutureTimeout:
                # Only this run is implicated; the rest of the pool is
                # still computing.  The hung worker is reclaimed when
                # the round's pool is recycled below.
                hung = True
                self._charge_transient(index, self._timeout_text())
                if self.fail_fast and self.failures:
                    break
            except BrokenProcessPool:
                # Pool breakage: every in-flight future fails together,
                # so blame cannot be assigned here.  Charge nobody
                # (undo this harvest's attempt) and isolate.
                self.attempts[index] -= 1
                broken = True
        self.pending = [
            i for i in self.pending
            if self.results[i] is None and i not in self.failures
        ]
        if broken:
            self._fresh_pool()
            return "isolate"
        if hung:
            self._fresh_pool()
            if self.pending:
                self._backoff()
        return "pooled"

    def _isolation_step(self) -> str:
        """Run exactly one pending spec alone; returns the next mode."""
        index = self.pending[0]
        pool = self.pool if self.pool is not None else self._fresh_pool()
        try:
            self._harvest(index, pool.submit(run_spec, self.specs[index]))
        except FutureTimeout:
            retrying = self._charge_transient(index, self._timeout_text())
            self._fresh_pool()
            if retrying:
                self._backoff()
                return "isolate"  # same spec, alone, next step
        except BrokenProcessPool as exc:
            # Alone on the pool, so the crash is unambiguously this
            # spec's.  Attribution done -- parallelism can resume.
            description = (
                f"{type(exc).__name__}: worker process died while "
                f"running this spec alone ({exc or 'no detail'})"
            )
            retrying = self._charge_transient(index, description)
            self._fresh_pool()
            if retrying:
                self._backoff()
                return "isolate"
        self.pending.pop(0)
        return "pooled"

    def run(self) -> BatchResult:
        mode = "pooled"
        try:
            while self.pending:
                if self.fail_fast and self.failures:
                    break
                if mode == "isolate":
                    mode = self._isolation_step()
                else:
                    mode = self._pooled_round()
        finally:
            if self.pool is not None:
                _shutdown(self.pool)
            self.progress.close()
        ordered = [self.failures[i] for i in sorted(self.failures)]
        return BatchResult(results=list(self.results), failures=ordered)


def _shutdown(pool) -> None:
    """Tear a pool down without waiting on abandoned (hung) work."""
    # Snapshot the workers first: shutdown() drops the executor's
    # ``_processes`` reference, and a timed-out run may still be
    # executing in one of them.  (ProcessPoolExecutor keeps no public
    # handle on its workers.)
    workers = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    # Forcibly end still-running workers so abandoned work cannot
    # outlive the sweep or deadlock interpreter exit (the pool's atexit
    # hook joins its management thread, which waits on its workers).
    for process in workers:
        if process.is_alive():
            process.terminate()
    # Reap them here: a worker counts toward RUSAGE_CHILDREN (peak
    # memory) only once joined, and none may outlive the sweep.
    for process in workers:
        process.join()


def combined_telemetry(
    reports: Sequence[SimulationReport],
) -> Optional[RunTelemetry]:
    """Merge the telemetry blocks of a batch of reports into one.

    Reports travel back from workers with their ``telemetry`` attribute
    intact (it rides the instance ``__dict__`` through pickling), so a
    :func:`run_many` batch reduces to a single fleet-wide counter block:
    ``runs`` counts the replications, every other field sums.  Returns
    ``None`` when no report carried telemetry.
    """
    return merge_telemetry(
        [getattr(report, "telemetry", None) for report in reports]
    )
