"""Fleet results and progress for ``run_many(..., stream=...)``.

``stream=`` changes what :func:`~repro.sim.parallel.run_many` returns,
not how it runs: the one sweep executes every spec and returns its
worker reports, and :class:`FleetResult` presents them with their
collected failures, their combined telemetry, and the
:class:`ProgressMonitor` the sweep fed as it harvested each run
(completed/failed counts with a wall-clock ETA and an optional
single-line terminal status display).  No multiprocessing imports here,
so the module stays importable everywhere.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import List, Optional, TextIO

from repro.obs.telemetry import RunTelemetry


@dataclass(frozen=True)
class StreamConfig:
    """Options for a streaming ``run_many`` call.

    Attributes
    ----------
    status_line:
        Render a live ``\\r``-rewritten status line on stderr while the
        fleet runs (off by default: tests and CI logs want clean
        output).
    """

    status_line: bool = False


class ProgressMonitor:
    """Fleet progress: counts, rate, ETA, optional status line.

    Wall-clock timing lives here (and only here) -- it feeds the ETA
    display, never results, so streaming runs stay deterministic where
    it matters.
    """

    def __init__(
        self,
        total: int,
        status_line: bool = False,
        stream: Optional[TextIO] = None,
        clock=time.monotonic,
    ) -> None:
        if total < 0:
            raise ValueError(f"total must be >= 0: {total}")
        self.total = total
        self.started = 0
        self.completed = 0
        self.failed = 0
        self._status_line = status_line
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._t0 = clock()
        self._line_open = False

    @property
    def finished(self) -> int:
        return self.completed + self.failed

    @property
    def remaining(self) -> int:
        return self.total - self.finished

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._t0

    @property
    def eta_s(self) -> Optional[float]:
        """Estimated wall seconds to finish (``None`` before any data)."""
        if self.finished == 0 or self.remaining == 0:
            return None if self.remaining else 0.0
        return self.elapsed_s / self.finished * self.remaining

    # ------------------------------------------------------------------
    def note_started(self, index: int) -> None:
        self.started += 1
        self._render()

    def note_completed(self, index: int) -> None:
        self.completed += 1
        self._render()

    def note_failed(self, index: int) -> None:
        self.failed += 1
        self._render()

    def status(self) -> str:
        """One-line summary, e.g. ``runs 3/8 done, 1 failed, eta 2.1s``."""
        parts = [f"runs {self.finished}/{self.total} done"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        eta = self.eta_s
        if eta is not None and self.remaining:
            parts.append(f"eta {eta:.1f}s")
        return ", ".join(parts)

    def _render(self) -> None:
        if not self._status_line:
            return
        self._stream.write("\r\x1b[K" + self.status())
        self._stream.flush()
        self._line_open = True

    def close(self) -> None:
        """Terminate the status line (if one was being rendered)."""
        if self._line_open:
            self._stream.write("\n")
            self._stream.flush()
            self._line_open = False


@dataclass
class FleetResult:
    """What a streaming ``run_many`` returns.

    ``reports`` holds the worker :class:`~repro.sim.stats.SimulationReport`
    objects themselves, in spec order (``None`` where that spec failed
    and failures are being collected), each carrying its ``telemetry``.
    ``telemetry`` is :func:`~repro.sim.parallel.combined_telemetry` over
    the completed reports.
    """

    reports: List[object]
    failures: List[object]
    telemetry: Optional[RunTelemetry]
    progress: ProgressMonitor

    @property
    def ok(self) -> bool:
        return not self.failures
