"""Alerting on the overlay view — never on ground truth.

The :class:`AlertEngine` consumes only what the collector actually
delivered: per-source freshest values for threshold rules, per-window
rollup rates for burn-rate rules.  A fault the overlay has not yet seen
(lost batches, tree lag, scrape phase) therefore cannot fire an alert —
which is the point: alert timing inherits the monitoring pipeline's
physics instead of the simulator's omniscience.

Threshold rules debounce by consecutive windows (``for_windows``) and
latch per source — one alert per excursion, not one per window.  A
source returning in bounds resets its streak and unlatches, so the next
excursion alerts again.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.overlay.collector import Rollup

__all__ = [
    "Alert",
    "ThresholdRule",
    "BurnRateRule",
    "AlertEngine",
    "default_rules",
]


@dataclass(frozen=True)
class Alert:
    """One fired alert: ``rule`` on ``metric``/``source`` observed at
    sim time ``time`` with offending ``value``."""

    time: float
    rule: str
    metric: str
    source: str
    value: float


@dataclass(frozen=True)
class ThresholdRule:
    """Fire when a source's freshest value crosses a bound for
    ``for_windows`` consecutive windows.

    Exactly one of ``below``/``above`` must be set; the rule latches per
    source until the value returns in bounds.
    """

    name: str
    metric: str
    below: float | None = None
    above: float | None = None
    for_windows: int = 1

    def __post_init__(self) -> None:
        if (self.below is None) == (self.above is None):
            raise ValueError(
                f"rule {self.name!r}: set exactly one of below/above")
        if self.for_windows < 1:
            raise ValueError(f"rule {self.name!r}: for_windows must be >= 1")

    def breached(self, value: float) -> bool:
        """Is ``value`` out of bounds for this rule?"""
        if self.below is not None:
            return value < self.below
        return value > self.above


@dataclass(frozen=True)
class BurnRateRule:
    """Fire when a counter metric's short-term rate exceeds ``factor``
    times its long-term rate (and a floor), the classic multi-window
    burn-rate shape.

    ``short_windows``/``long_windows`` are rollup-window counts; the
    floor ``threshold_rate`` suppresses alerts while both rates are
    negligible (a brand-new overlay has no history to burn against).
    """

    name: str
    metric: str
    threshold_rate: float
    short_windows: int = 2
    long_windows: int = 10
    factor: float = 4.0

    def __post_init__(self) -> None:
        if not 1 <= self.short_windows < self.long_windows:
            raise ValueError(
                f"rule {self.name!r}: need 1 <= short_windows < long_windows")
        if self.threshold_rate < 0:
            raise ValueError(
                f"rule {self.name!r}: threshold_rate must be non-negative")
        if self.factor <= 1:
            raise ValueError(f"rule {self.name!r}: factor must be > 1")


class AlertEngine:
    """Evaluates rules against each closed window's overlay state.

    Args:
        threshold_rules: per-source freshest-value rules.
        burn_rate_rules: per-metric rollup-rate rules.
    """

    def __init__(
        self,
        threshold_rules: list[ThresholdRule] | None = None,
        burn_rate_rules: list[BurnRateRule] | None = None,
    ) -> None:
        self.threshold_rules = list(threshold_rules or [])
        self.burn_rate_rules = list(burn_rate_rules or [])
        self.alerts: list[Alert] = []
        #: (rule name, source) -> consecutive breached-window count
        self._streaks: dict[tuple[str, str], int] = {}
        #: latched (rule name, source) pairs — alerted, not yet recovered
        self._latched: set[tuple[str, str]] = set()
        #: per burn-rate metric: window-end -> rate history (ordered)
        self._rate_history: dict[str, list[float]] = {}

    def observe_window(
        self,
        now: float,
        view: dict[tuple[str, str], tuple[float, float]],
        rollups: list[Rollup],
    ) -> list[Alert]:
        """Evaluate every rule against one closed window.

        Args:
            now: the window-close sim time.
            view: the collector's freshest ``(value, sampled_at)`` per
                (metric, source) — :meth:`CollectorSink.view`.
            rollups: the window's new rollups.

        Returns:
            Alerts fired this window (also appended to :attr:`alerts`).
        """
        fired = []
        # Group the view by metric once: each rule walks only its own
        # metric's sources, in sorted order.
        ruled = {rule.metric for rule in self.threshold_rules}
        by_metric: dict[str, list[str]] = {}
        for metric, source in view:
            if metric in ruled:
                by_metric.setdefault(metric, []).append(source)
        for rule in self.threshold_rules:
            metric = rule.metric
            for source in sorted(by_metric.get(metric, ())):
                value, _sampled_at = view[(metric, source)]
                key = (rule.name, source)
                if rule.breached(value):
                    streak = self._streaks.get(key, 0) + 1
                    self._streaks[key] = streak
                    if streak >= rule.for_windows and key not in self._latched:
                        self._latched.add(key)
                        fired.append(Alert(now, rule.name, metric, source,
                                           value))
                else:
                    self._streaks[key] = 0
                    self._latched.discard(key)

        rates = {r.metric: r.rate for r in rollups}
        for rule in self.burn_rate_rules:
            history = self._rate_history.setdefault(rule.metric, [])
            history.append(rates.get(rule.metric, 0.0))
            del history[:-rule.long_windows]
            if len(history) < rule.long_windows:
                continue
            short = sum(history[-rule.short_windows:]) / rule.short_windows
            long = sum(history) / len(history)
            key = (rule.name, "overlay")
            if short > rule.threshold_rate and short > rule.factor * long:
                if key not in self._latched:
                    self._latched.add(key)
                    fired.append(Alert(now, rule.name, rule.metric,
                                       "overlay", short))
            else:
                self._latched.discard(key)

        self.alerts.extend(fired)
        return fired


def default_rules() -> tuple[list[ThresholdRule], list[BurnRateRule]]:
    """The stock rule set for a Spider system overlay: couplet failover,
    cable loss, router-module loss, and a cable-error burn rate."""
    thresholds = [
        ThresholdRule("couplet-degraded", "mon.couplet_bw_frac", below=0.95),
        ThresholdRule("cable-down", "mon.cable_ok", below=0.5),
        ThresholdRule("routers-down", "mon.routers_online_frac", below=0.95),
        ThresholdRule("raid-rebuilding", "mon.groups_degraded", above=0.5,
                      for_windows=2),
    ]
    burn_rates = [
        BurnRateRule("cable-error-burn", "mon.cable_errors",
                     threshold_rate=1.0),
    ]
    return thresholds, burn_rates
