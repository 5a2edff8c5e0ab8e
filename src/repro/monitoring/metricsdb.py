"""A small in-memory time-series store — the MySQL database behind the
real DDN tool (§IV-A): "This tool polls each controller for various pieces
of information (e.g. I/O request sizes, write and read bandwidths) at
regular rates and stores this information in a MySQL database.
Standardized queries and reports support the efforts of the system
administrators."

Series are keyed by (metric name, source); points append in time order.
The query surface covers what the reporting tools need: ranges, latest
values, rates from counters, and simple aggregation across sources.
Every point is kept; there is no retention cap.  The monitoring overlay
does not write here: its rollups stay in its own collector.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

__all__ = ["MetricPoint", "MetricsDb"]


@dataclass(frozen=True)
class MetricPoint:
    """One sample of one series: ``value`` observed at sim-time ``time``."""

    time: float
    value: float


class _Series:
    __slots__ = ("times", "values")

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def append(self, time: float, value: float) -> None:
        # Equal timestamps are legal: two pollers legitimately sample the
        # same simulated instant (e.g. both started on the engine at t=0
        # with the same interval).  Only true out-of-order inserts reject.
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"out-of-order insert at {time} (last {self.times[-1]})"
            )
        self.times.append(time)
        self.values.append(value)


class MetricsDb:
    """The store: insert points, query ranges, compute counter rates."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, str], _Series] = {}

    def insert(self, metric: str, source: str, time: float, value: float) -> None:
        key = (metric, source)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Series()
        series.append(time, float(value))

    def sources(self, metric: str) -> list[str]:
        return sorted(s for m, s in self._series if m == metric)

    def metrics(self) -> list[str]:
        return sorted({m for m, _s in self._series})

    def _get(self, metric: str, source: str) -> _Series:
        key = (metric, source)
        if key not in self._series:
            raise KeyError(f"no series for {metric!r}/{source!r}")
        return self._series[key]

    def latest(self, metric: str, source: str) -> MetricPoint:
        s = self._get(metric, source)
        if not s.times:
            raise KeyError(f"empty series {metric!r}/{source!r}")
        return MetricPoint(s.times[-1], s.values[-1])

    def range(self, metric: str, source: str,
              t0: float = -np.inf, t1: float = np.inf) -> list[MetricPoint]:
        s = self._get(metric, source)
        lo = bisect.bisect_left(s.times, t0)
        hi = bisect.bisect_right(s.times, t1)
        return [MetricPoint(t, v) for t, v in zip(s.times[lo:hi], s.values[lo:hi])]

    def rate(self, metric: str, source: str,
             t0: float = -np.inf, t1: float = np.inf) -> float:
        """Mean rate of change over the window — turns monotonically
        increasing byte counters into bandwidths.

        Counter resets (a negative delta between consecutive points — a
        rebooted controller restarts its counters at zero) restart the
        measurement window at the reset point instead of producing a
        negative bandwidth.
        """
        points = self.range(metric, source, t0, t1)
        if len(points) < 2:
            return 0.0
        # Restart the window after the most recent counter reset.
        start = 0
        for i in range(1, len(points)):
            if points[i].value < points[i - 1].value:
                start = i
        dt = points[-1].time - points[start].time
        if dt <= 0:
            return 0.0
        return (points[-1].value - points[start].value) / dt


    def aggregate_latest(self, metric: str) -> float:
        """Sum of latest values across all sources of ``metric``."""
        total = 0.0
        for source in self.sources(metric):
            total += self.latest(metric, source).value
        return total

    def top_sources(self, metric: str, n: int = 5) -> list[tuple[str, float]]:
        """Sources ranked by latest value — the 'who is hammering the
        controllers' operator query."""
        pairs = [(s, self.latest(metric, s).value) for s in self.sources(metric)]
        pairs.sort(key=lambda p: -p[1])
        return pairs[:n]
