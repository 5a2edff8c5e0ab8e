"""The in-band monitoring overlay (MELT-style tree aggregation).

Per-node :class:`~repro.obs.overlay.scraper.Scraper` agents sample
ground-truth probes on a seeded cadence; an
:class:`~repro.obs.overlay.tree.AggregationTree` spanning the SION
leaf/core fabric carries the batches to a root
:class:`~repro.obs.overlay.collector.CollectorSink` with per-hop
latency, bounded fan-in, and seeded loss; the collector folds them into
windowed rollups and a per-source view, which feed an
:class:`~repro.obs.overlay.alerts.AlertEngine`; the tree and cadence
back the non-omniscient
:class:`~repro.obs.overlay.observed.ObservedDetector`.
The A16 study that compares that detector with the analytic one lives
with the A15 study in :mod:`repro.resilience.study`.

Deliberately *not* imported from :mod:`repro.obs` itself: the overlay
reaches down into faults/core/sched surfaces that the leaf ``obs``
package must stay independent of.
"""

from repro.obs.overlay.alerts import (
    Alert,
    AlertEngine,
    BurnRateRule,
    ThresholdRule,
    default_rules,
)
from repro.obs.overlay.collector import CollectorSink, Rollup
from repro.obs.overlay.config import OverlayConfig
from repro.obs.overlay.observed import ObservedDetector, resolver_for_system
from repro.obs.overlay.runtime import MonitoringOverlay, OverlayOutcome
from repro.obs.overlay.scraper import (
    Batch,
    Probe,
    ProbeGroup,
    Sample,
    Scraper,
    probes_for_system,
)
from repro.obs.overlay.tree import AggregationTree

__all__ = [
    "AggregationTree",
    "Alert",
    "AlertEngine",
    "Batch",
    "BurnRateRule",
    "CollectorSink",
    "MonitoringOverlay",
    "ObservedDetector",
    "OverlayConfig",
    "OverlayOutcome",
    "Probe",
    "ProbeGroup",
    "Rollup",
    "Sample",
    "Scraper",
    "ThresholdRule",
    "default_rules",
    "probes_for_system",
    "resolver_for_system",
]
