"""Delay measurement and the update-significance criterion.

The PSN measures the delay of every packet it forwards and averages per
outgoing link over a ten-second period.  The average is compared with the
last *reported* value; if the difference on any line passes its
significance criterion, the PSN sends a routing update covering all of
its lines.  *"The significance criterion gets adjusted downward each time
it is not satisfied ... the maximum time between routing updates for each
PSN is 50 seconds"* -- so even an idle, unchanged PSN re-advertises its
lines every 50 s for reliability.
"""

from __future__ import annotations

from repro.units import MAX_UPDATE_INTERVAL_S, MEASUREMENT_INTERVAL_S


class DelayAverager:
    """Accumulates per-packet delay samples for one link's interval."""

    def __init__(self, zero_load_delay_s: float) -> None:
        if zero_load_delay_s < 0:
            raise ValueError(
                f"zero-load delay must be >= 0, got {zero_load_delay_s}"
            )
        self.zero_load_delay_s = zero_load_delay_s
        self._sum_s = 0.0
        self._count = 0

    def add_sample(self, delay_s: float) -> None:
        """Record one forwarded packet's total delay."""
        if delay_s < 0:
            raise ValueError(f"delay must be >= 0, got {delay_s}")
        self._sum_s += delay_s
        self._count += 1

    @property
    def sample_count(self) -> int:
        """Packets measured so far this interval."""
        return self._count

    def take_average(self) -> float:
        """Close the interval: return its average delay and reset.

        An interval with no forwarded packets reports the zero-load delay
        (an idle line still has transmission + propagation delay; the
        D-SPF bias exists precisely so this never quantizes to zero).
        """
        if self._count == 0:
            average = self.zero_load_delay_s
        else:
            average = self._sum_s / self._count
        self._sum_s = 0.0
        self._count = 0
        return average


class SignificanceCriterion:
    """The decaying update-generation threshold for one link.

    Starts at the metric's change threshold and steps down linearly each
    unsatisfied measurement interval, reaching zero after
    ``MAX_UPDATE_INTERVAL_S`` so an update is forced at least that often.
    """

    def __init__(
        self,
        initial_threshold: float,
        measurement_interval_s: float = MEASUREMENT_INTERVAL_S,
        max_update_interval_s: float = MAX_UPDATE_INTERVAL_S,
    ) -> None:
        if initial_threshold < 0:
            raise ValueError(
                f"threshold must be >= 0, got {initial_threshold}"
            )
        if measurement_interval_s <= 0 or max_update_interval_s <= 0:
            raise ValueError("intervals must be positive")
        steps = max_update_interval_s / measurement_interval_s
        if steps < 1:
            raise ValueError(
                "max update interval shorter than a measurement interval"
            )
        self.initial_threshold = float(initial_threshold)
        #: Decay applied after each unsatisfied interval.  After
        #: (steps - 1) failures the threshold is exactly zero, so the
        #: check on the steps-th interval always passes.
        self._decay = self.initial_threshold / max(steps - 1.0, 1.0)
        self.threshold = self.initial_threshold

    def should_report(self, change: float) -> bool:
        """Test a cost change; decay on failure, re-arm on success."""
        if abs(change) >= self.threshold:
            self.threshold = self.initial_threshold
            return True
        self.threshold = max(self.threshold - self._decay, 0.0)
        return False

    def rearm(self) -> None:
        """Restart the decay: the line's cost was just reported.

        A PSN's update carries every line, so an update triggered by one
        line re-arms the criteria of all of them.
        """
        self.threshold = self.initial_threshold
