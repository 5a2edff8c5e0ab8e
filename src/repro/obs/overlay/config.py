"""Configuration of the in-band monitoring overlay.

One frozen dataclass holds every knob of the MELT-style pipeline
(arXiv:1504.06836): how often per-node agents scrape their probes, how
the aggregation tree is shaped (bounded fan-in inserts relay hops), what
one tree hop costs in propagation latency, how often a sample batch is
lost on the way up, and how wide the root collector's rollup windows
are.  The config is pure data — the
runtime (:mod:`repro.obs.overlay.runtime`) turns it into engine
processes, and the observed detector
(:mod:`repro.obs.overlay.observed`) turns it into an MTTD formula — so
a paired study can sweep cadence and fan-in without touching code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["OverlayConfig"]

#: default per-agent scrape cadence (seconds) — matches the analytic
#: detector's poll grid so the paired study compares like with like
DEFAULT_SCRAPE_INTERVAL = 30.0
#: default per-hop propagation latency up the aggregation tree (seconds)
DEFAULT_HOP_LATENCY = 1.0
#: default bounded fan-in of every tree node (children per parent)
DEFAULT_FAN_IN = 8
#: default per-batch loss probability on the path to the root — matches
#: the analytic detector's per-sweep miss probability
DEFAULT_LOSS_PROBABILITY = 0.02
#: default root rollup window (seconds)
DEFAULT_ROLLUP_INTERVAL = 60.0
#: the tightened arm of the MTTD study scrapes this many times as often
#: and packs this many times the children per tree node
TIGHT_CADENCE_FACTOR = 3.0
TIGHT_FAN_IN_FACTOR = 2
#: cap on consecutive lost batches the observed detector will model, so
#: a pathological loss probability cannot stall detection unboundedly
#: (mirrors ``resilience.detector.MAX_MISSED_SWEEPS``)
MAX_LOST_BATCHES = 20


@dataclass(frozen=True)
class OverlayConfig:
    """Every knob of the monitoring overlay, all times in seconds.

    ``scrape_interval`` is the per-agent poll cadence (agents tick on the
    shared grid ``k * scrape_interval``, like the analytic detector's
    poll grid).  ``fan_in`` bounds the children of every aggregation-tree
    node; smaller fan-in inserts relay hops, deepening the tree.
    ``hop_latency`` is the per-hop propagation cost, so an agent at depth
    ``d`` delivers ``d * hop_latency`` seconds after sampling.
    ``loss_probability`` is the chance one batch never reaches the root.
    ``seed`` feeds the overlay's named RNG substreams (batch loss,
    detector loss retries).
    """

    scrape_interval: float = DEFAULT_SCRAPE_INTERVAL
    hop_latency: float = DEFAULT_HOP_LATENCY
    fan_in: int = DEFAULT_FAN_IN
    loss_probability: float = DEFAULT_LOSS_PROBABILITY
    rollup_interval: float = DEFAULT_ROLLUP_INTERVAL
    seed: int = 0

    def __post_init__(self) -> None:
        # NaN compares False to everything, so each time check is written
        # to fail on it, and infinities are rejected explicitly.
        if not (math.isfinite(self.scrape_interval)
                and self.scrape_interval > 0):
            raise ValueError("scrape_interval must be positive and finite")
        if not (math.isfinite(self.hop_latency) and self.hop_latency >= 0):
            raise ValueError("hop_latency must be non-negative and finite")
        if self.fan_in < 2:
            raise ValueError("fan_in must be at least 2")
        if not (0 <= self.loss_probability < 1):
            raise ValueError("loss_probability must be in [0, 1)")
        if not (math.isfinite(self.rollup_interval)
                and self.rollup_interval > 0):
            raise ValueError("rollup_interval must be positive and finite")

    def tightened(self) -> "OverlayConfig":
        """The "tightened" arm of the MTTD study: the scrape interval
        divided by :data:`TIGHT_CADENCE_FACTOR` and the fan-in multiplied
        by :data:`TIGHT_FAN_IN_FACTOR`, everything else kept."""
        return replace(
            self,
            scrape_interval=self.scrape_interval / TIGHT_CADENCE_FACTOR,
            fan_in=self.fan_in * TIGHT_FAN_IN_FACTOR)
