"""The root collector: windowed rollups, staleness tagging, MELT bridge.

Batches arriving from the aggregation tree buffer until the window
closes; each close folds the buffered rows into one :class:`Rollup`
per canonical (``mon.``-prefixed) metric — sample counts, staleness
counts, and the mean/max/p99 of the freshest per-source values, plus a
rate for counter probes — kept in :attr:`CollectorSink.rollups` for the
alert engine and the run's outcome, and recorded as a sweep span on the
:class:`~repro.obs.trace.Tracer`.

Two invariants the test suite enforces:

* **Ingest-order independence** — folds operate on rows sorted by
  ``(metric, source, sampled_at, value)`` and per-source freshness is a
  max, so delivering the same window's batches in any order produces
  bit-identical rollups (the same boundary contract as the
  ``LustreHealthChecker`` partition).
* **Telemetry neutrality** — only ``mon.`` metrics enter rollups;
  mirrored telemetry gauges update the overlay-view gauges (the
  Lesson-12 lag column) and nothing else, so rollups are bit-identical
  with the registry enabled or disabled.

The fold is columnar: every ``(metric, source)`` key gets an integer
code once, each batch's key tuple maps to a cached code array once, and
a window close is one stable ``np.lexsort`` over (key rank,
``sampled_at``, value) of all buffered rows — the freshest row per key
is the last of its run.  Sums stay Python ``sum`` over ascending value
lists, so each rollup is the same float the row-by-row fold produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs.instruments import get_telemetry
from repro.obs.trace import get_tracer

from repro.obs.overlay.scraper import PROBE_PREFIX, Batch

__all__ = ["Rollup", "CollectorSink"]


@dataclass(frozen=True)
class Rollup:
    """One metric's aggregate over one closed window.

    ``rate`` is the per-second change of the summed per-source values
    since the previous window (0 for gauge metrics and on counter
    resets); ``mean``/``max``/``p99`` summarize the freshest value per
    source inside the window.  All fields are plain values, so rollup
    tuples from identically seeded runs compare equal with ``==``.
    """

    window_end: float
    metric: str
    n_sources: int
    n_samples: int
    n_stale: int
    rate: float
    mean: float
    max: float
    p99: float


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (exact, not binned)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class CollectorSink:
    """Buffers delivered batches and folds them at window close.

    Args:
        rollup_interval: window width in seconds (used for span naming;
            the runtime owns the close schedule).
        staleness_limit: samples older than this at window close are
            tagged stale (they still aggregate — stale beats absent, but
            the operator surface must say so).
        counter_metrics: canonical metric names whose probes are
            monotone counters; these get a ``rate`` in their rollups.
    """

    def __init__(
        self,
        *,
        rollup_interval: float,
        staleness_limit: float,
        counter_metrics: frozenset[str] = frozenset(),
    ) -> None:
        if rollup_interval <= 0:
            raise ValueError("rollup_interval must be positive")
        if staleness_limit <= 0:
            raise ValueError("staleness_limit must be positive")
        self.rollup_interval = float(rollup_interval)
        self.staleness_limit = float(staleness_limit)
        self.counter_metrics = frozenset(counter_metrics)
        self.rollups: list[Rollup] = []
        self.n_windows = 0
        self.n_samples = 0
        self.n_stale = 0
        self._buffer: list[Batch] = []
        self._latest: list[Rollup] = []
        #: freshest delivered (value, sampled_at) per canonical
        #: (metric, source) — the overlay's current belief
        self._view: dict[tuple[str, str], tuple[float, float]] = {}
        #: freshest mirrored telemetry (value, sampled_at) per
        #: (metric, source) — feeds the Lesson-12 lag gauges only
        self._mirror: dict[tuple[str, str], tuple[float, float]] = {}
        #: previous window's (close time, summed value) per counter metric
        self._counter_last: dict[str, tuple[float, float]] = {}
        # Key registry: code -> (metric, source), its metric's id and
        # whether it is canonical; code -> rank in sorted key order is
        # rebuilt whenever new keys arrive.
        self._code: dict[tuple[str, str], int] = {}
        self._keys: list[tuple[str, str]] = []
        self._metric_id: dict[str, int] = {}
        self._key_metric: list[int] = []
        self._key_canonical: list[bool] = []
        self._rank = np.zeros(0, dtype=np.intp)
        self._metric_of = np.zeros(0, dtype=np.intp)
        self._canonical = np.zeros(0, dtype=bool)
        #: id(batch key tuple) -> (that tuple, its code array); holding
        #: the tuple keeps its id from being reused
        self._batch_codes: dict[int, tuple[tuple, np.ndarray]] = {}

    # -- ingest ---------------------------------------------------------------

    def deliver(self, batches: tuple[Batch, ...], now: float) -> None:
        """Batches arrived at the root at sim time ``now``; buffer them
        until the window closes.  ``now`` is unused beyond the contract
        that batches for a window arrive before its close."""
        del now
        self._buffer.extend(batches)

    def _codes_of(self, keys: tuple[tuple[str, str], ...]) -> np.ndarray:
        """The code array of one batch key tuple, registering new keys."""
        hit = self._batch_codes.get(id(keys))
        if hit is not None:
            return hit[1]
        code = self._code
        for key in keys:
            if key not in code:
                code[key] = len(self._keys)
                self._keys.append(key)
                metric = key[0]
                self._key_metric.append(
                    self._metric_id.setdefault(metric, len(self._metric_id)))
                self._key_canonical.append(metric.startswith(PROBE_PREFIX))
        codes = np.array([code[key] for key in keys], dtype=np.intp)
        self._batch_codes[id(keys)] = (keys, codes)
        return codes

    def _refresh_keys(self) -> None:
        """Rebuild the per-code arrays after new keys registered."""
        n = len(self._keys)
        if self._rank.shape[0] == n:
            return
        rank = np.empty(n, dtype=np.intp)
        rank[sorted(range(n), key=self._keys.__getitem__)] = np.arange(n)
        self._rank = rank
        self._metric_of = np.array(self._key_metric, dtype=np.intp)
        self._canonical = np.array(self._key_canonical, dtype=bool)

    # -- window close ---------------------------------------------------------

    def close_window(self, now: float) -> list[Rollup]:
        """Fold the buffered batches into per-metric rollups at ``now``.

        Returns the new rollups (also appended to :attr:`rollups`).
        Folding sorts every buffered row first, so the result is
        independent of batch arrival order within the window.
        """
        batches = [b for b in self._buffer if len(b)]
        self._buffer.clear()
        new_rollups = []
        if batches:
            codes = np.concatenate([self._codes_of(b.keys) for b in batches])
            self._refresh_keys()
            values = np.concatenate([b.values for b in batches])
            times = np.repeat([b.sampled_at for b in batches],
                              [len(b) for b in batches])
            order = np.lexsort((values, times, self._rank[codes]))
            codes = codes[order]
            values = values[order]
            times = times[order]
            # The freshest row per key is the last of its run.
            last = np.flatnonzero(np.append(codes[1:] != codes[:-1], True))
            last_codes = codes[last]
            canonical = self._canonical[last_codes]
            mirrored = ~canonical
            self._fold_view(self._mirror, last_codes[mirrored],
                            values[last][mirrored], times[last][mirrored])
            fresh_codes = last_codes[canonical]
            fresh = values[last][canonical]
            self._fold_view(self._view, fresh_codes, fresh,
                            times[last][canonical])

            rows = self._canonical[codes]
            row_metric = self._metric_of[codes[rows]]
            stale = (now - times[rows]) > self.staleness_limit
            n_rows = np.bincount(row_metric).tolist()
            n_stale = np.bincount(row_metric[stale],
                                  minlength=len(n_rows)).tolist()
            # Canonical keys run metric by metric, in metric order.
            fresh_metric = self._metric_of[fresh_codes]
            cuts = (np.flatnonzero(np.diff(fresh_metric)) + 1).tolist()
            for lo, hi in zip([0] + cuts, cuts + [fresh.shape[0]]):
                if lo == hi:
                    continue
                m = int(fresh_metric[lo])
                new_rollups.append(self._rollup(
                    now, self._keys[int(fresh_codes[lo])][0],
                    np.sort(fresh[lo:hi], kind="stable").tolist(),
                    n_rows[m], n_stale[m]))
        self.rollups.extend(new_rollups)
        self._latest = new_rollups
        self.n_windows += 1

        self._publish_view_gauges(now)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record(
                f"sweep:{self.n_windows - 1}", "overlay",
                now - self.rollup_interval, now,
                samples=sum(r.n_samples for r in new_rollups),
                stale=sum(r.n_stale for r in new_rollups),
                metrics=len(new_rollups))
        return new_rollups

    def _fold_view(self, view: dict, codes: np.ndarray, values: np.ndarray,
                   times: np.ndarray) -> None:
        """Overwrite ``view`` with each key's freshest ``(value,
        sampled_at)``, in key order (the row-by-row fold's insertion
        order)."""
        keys = self._keys
        view.update(zip([keys[c] for c in codes.tolist()],
                        zip(values.tolist(), times.tolist())))

    def _rollup(self, now: float, metric: str, values: list[float],
                n_samples: int, n_stale: int) -> Rollup:
        """One metric's rollup from its ascending freshest values."""
        rate = 0.0
        if metric in self.counter_metrics:
            total = sum(values)
            last = self._counter_last.get(metric)
            if last is not None:
                t_last, v_last = last
                dt = now - t_last
                # A negative delta is a counter reset (a replaced
                # cable, a restarted MDS): restart the window.
                if dt > 0 and total >= v_last:
                    rate = (total - v_last) / dt
            self._counter_last[metric] = (now, total)
        self.n_samples += n_samples
        self.n_stale += n_stale
        return Rollup(
            window_end=now,
            metric=metric,
            n_sources=len(values),
            n_samples=n_samples,
            n_stale=n_stale,
            rate=rate,
            mean=sum(values) / len(values),
            max=values[-1],
            p99=_percentile(values, 99.0),
        )

    def _publish_view_gauges(self, now: float) -> None:
        """Expose the mirrored layer view (load + age) as telemetry
        gauges — the ``overlay.view.*`` surface the Lesson-12 report
        diffs against ground truth."""
        telemetry = get_telemetry()
        if not telemetry.enabled or not self._mirror:
            return
        for metric, source in sorted(self._mirror):
            value, sampled_at = self._mirror[(metric, source)]
            if metric == "flow.layer.load":
                telemetry.gauge("overlay.view.load", source).set(value)
                telemetry.gauge("overlay.view.age_seconds", source).set(
                    now - sampled_at)
            elif metric == "flow.layer.capacity":
                telemetry.gauge("overlay.view.capacity", source).set(value)

    # -- queries --------------------------------------------------------------

    def view(self) -> dict[tuple[str, str], tuple[float, float]]:
        """The overlay's current belief: freshest delivered ``(value,
        sampled_at)`` per canonical (metric, source)."""
        return dict(self._view)

    def latest_rollups(self) -> list[Rollup]:
        """The rollups of the most recently closed window (metric-sorted;
        empty when that window folded no canonical sample)."""
        return list(self._latest)
