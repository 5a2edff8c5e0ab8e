"""Per-node monitoring agents: probes, samples, and the scrapers.

A :class:`Probe` is one ground-truth reader — a closure over live system
state (a couplet's failover-aware bandwidth cap, a cable's health bit, a
router module's live count) that the overlay samples on its cadence.  A
:class:`ProbeGroup` is one metric over many sources with one read that
returns an array (the routing layer's per-link utilizations).  Probe
metrics all carry the ``mon.`` prefix so the canonical rollup set is
disjoint from mirrored telemetry names by construction.

A sweep returns one columnar :class:`Batch`: the agent's fixed
``(metric, source)`` key tuple, built once when the agent is made, plus
the sweep's values and one ``sampled_at``.  Iterating a batch yields its
:class:`Sample` rows.

:func:`probes_for_system` builds the standard agent inventory for a
:class:`~repro.core.spider.SpiderSystem`: one agent per SSU (couplet
state, degraded RAID groups, and the IB cables of its OSSes), one agent
per LNET router module, and one agent per metadata server.  Agent count
therefore scales with cabinets, not hosts — ~150 agents on the full
Spider II, ~12 on the test mini — which keeps overlay event cost bounded.

A :class:`Scraper` may also *mirror* the in-process telemetry registry
(the MELT bridge): when the registry is enabled, the flow solver's
``flow.layer.*`` gauges ride the same batches up the tree, giving the
Lesson-12 report an overlay *view* to diff against ground truth.  The
mirror reads the registry only when enabled and mirrored metrics are
excluded from rollups, so rollups stay bit-identical with telemetry on or
off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.obs.instruments import get_telemetry

__all__ = [
    "Batch",
    "Probe",
    "ProbeGroup",
    "Sample",
    "Scraper",
    "probes_for_system",
    "routing_probes",
]

#: metric-name prefix of every canonical (rollup-eligible) overlay probe
PROBE_PREFIX = "mon."

#: telemetry gauge names the MELT bridge mirrors up the tree when the
#: registry is enabled (the Lesson-12 layer surface)
MIRRORED_GAUGES = ("flow.layer.load", "flow.layer.capacity")


def _check_metric(metric: str) -> None:
    if not metric.startswith(PROBE_PREFIX):
        raise ValueError(
            f"probe metric {metric!r} must start with {PROBE_PREFIX!r}")


@dataclass(frozen=True)
class Probe:
    """One ground-truth reader an agent samples each sweep.

    ``metric`` must carry the ``mon.`` prefix; ``source`` names the
    entity measured (an SSU, an OSS cable, a router module, an MDS);
    ``read`` returns the current value (pure: no mutation, no RNG);
    ``counter`` marks monotonically increasing values so the collector
    computes a rate for them.
    """

    metric: str
    source: str
    read: Callable[[], float] = field(compare=False)
    counter: bool = False

    def __post_init__(self) -> None:
        _check_metric(self.metric)


@dataclass(frozen=True)
class ProbeGroup:
    """One metric read for many sources at once.

    ``read`` returns one value per entry of ``sources``, in order, as an
    array (pure: no mutation, no RNG); ``counter`` is as on
    :class:`Probe`.
    """

    metric: str
    sources: tuple[str, ...]
    read: Callable[[], np.ndarray] = field(compare=False)
    counter: bool = False

    def __post_init__(self) -> None:
        _check_metric(self.metric)


@dataclass(frozen=True)
class Sample:
    """One sampled value: ``metric``/``source`` read at sim time
    ``sampled_at``."""

    metric: str
    source: str
    value: float
    sampled_at: float


class Batch:
    """One sweep's payload, in columns.

    ``keys`` is the sending agent's ``(metric, source)`` tuple — built
    once per agent and shared by every batch it sends, so the collector
    can cache its per-key bookkeeping by identity; ``values`` is a
    float64 array aligned with ``keys``; every row was read at
    ``sampled_at``.  Iterating yields the :class:`Sample` rows.
    """

    __slots__ = ("keys", "values", "sampled_at")

    def __init__(self, keys: tuple[tuple[str, str], ...],
                 values: np.ndarray, sampled_at: float) -> None:
        self.keys = keys
        self.values = values
        self.sampled_at = sampled_at

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Sample]:
        at = self.sampled_at
        for (metric, source), value in zip(self.keys, self.values.tolist()):
            yield Sample(metric, source, value, at)


class Scraper:
    """One monitoring agent: sweeps its probes on the overlay cadence.

    Args:
        name: the agent's name — also its leaf node in the aggregation
            tree and the host-resolution target of the observed detector.
        leaf: the fabric leaf switch the agent hangs off.
        probes: the ground-truth readers this agent owns
            (:class:`Probe` and :class:`ProbeGroup`).
        mirror_telemetry: when ``True`` the agent also samples the
            mirrored telemetry gauges (:data:`MIRRORED_GAUGES`) from the
            process registry *if it is enabled* — the MELT bridge.  The
            sweep itself always runs, so the overlay's event and RNG
            schedule is identical with the registry on or off.
    """

    def __init__(
        self,
        name: str,
        leaf: int,
        probes: list[Probe | ProbeGroup],
        *,
        mirror_telemetry: bool = False,
    ) -> None:
        self.name = name
        self.leaf = int(leaf)
        self.probes = list(probes)
        self.mirror_telemetry = mirror_telemetry
        singles = [p for p in self.probes if isinstance(p, Probe)]
        groups = [p for p in self.probes if isinstance(p, ProbeGroup)]
        self._reads = tuple(p.read for p in singles)
        self._group_reads = tuple(g.read for g in groups)
        #: the batch key tuple, built once: the single probes, then each
        #: group's sources, each in probe order
        self.keys: tuple[tuple[str, str], ...] = tuple(
            [(p.metric, p.source) for p in singles]
            + [(g.metric, src) for g in groups for src in g.sources])
        #: :attr:`keys` plus the last mirrored gauge keys, reused while
        #: the mirrored gauge set holds
        self._mirrored_keys = self.keys

    def sweep(self, now: float) -> Batch:
        """Read every probe (and the telemetry mirror, when enabled) at
        sim time ``now``; returns the batch payload."""
        values = np.array([float(read()) for read in self._reads])
        if self._group_reads:
            values = np.concatenate([values] + [
                np.asarray(read(), dtype=float) for read in self._group_reads])
        keys = self.keys
        if self.mirror_telemetry:
            telemetry = get_telemetry()
            if telemetry.enabled:
                mirrored = [g for g in telemetry.gauges()
                            if g.name in MIRRORED_GAUGES]
                if mirrored:
                    extra = tuple((g.name, g.source) for g in mirrored)
                    if self._mirrored_keys[len(self.keys):] != extra:
                        self._mirrored_keys = self.keys + extra
                    keys = self._mirrored_keys
                    values = np.concatenate([values, np.array(
                        [g.value for g in mirrored], dtype=float)])
        return Batch(keys, values, now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Scraper({self.name!r}, leaf={self.leaf}, "
                f"probes={len(self.probes)})")


def _ssu_scraper(system, ssu_index: int) -> Scraper:
    """The agent watching one SSU: couplet, RAID groups, OSS cables."""
    ssu = system.ssus[ssu_index]
    # Nominal is the couplet cap at overlay construction (both
    # controllers online), so the fraction reads 1.0 healthy and ~0.5
    # after a failover regardless of controller generation.
    nominal = float(ssu.couplet.bw_cap(fs_level=True)) or 1.0
    probes = [
        Probe(
            "mon.couplet_bw_frac", ssu.name,
            lambda s=ssu, n=nominal: s.couplet.bw_cap(fs_level=True) / n),
        # The SSU's kept count, not a walk over its groups: this runs on
        # every sweep.
        Probe(
            "mon.groups_degraded", ssu.name,
            lambda s=ssu: float(s.n_unclean)),
    ]
    fabric = system.fabric
    for oss in system.osses:
        if oss.ssu_index != ssu_index:
            continue
        probes.append(Probe(
            "mon.cable_ok", oss.name,
            lambda f=fabric, h=oss.name: 1.0 if f.cable_of(h).healthy
            else 0.0))
        probes.append(Probe(
            "mon.cable_errors", oss.name,
            lambda f=fabric, h=oss.name: float(f.cable_of(h).symbol_errors),
            counter=True))
    leaf = min((oss.leaf for oss in system.osses
                if oss.ssu_index == ssu_index),
               default=ssu_index % system.fabric.spec.n_leaf_switches)
    return Scraper(ssu.name, leaf, probes)


def _router_module_scrapers(system) -> list[Scraper]:
    """One agent per LNET router module (``rtrNNN``), counting live
    routers against the module's slot count."""
    modules: dict[str, list] = {}
    for router in system.routers:
        modules.setdefault(router.name.split(".")[0], []).append(router)
    scrapers = []
    lnet = system.lnet
    for module in sorted(modules):
        routers = modules[module]

        def _frac(rs=tuple(routers), cfg=lnet) -> float:
            live = sum(1 for r in rs if cfg.router_online(r.name))
            return live / len(rs)

        scrapers.append(Scraper(
            module, routers[0].leaf,
            [Probe("mon.routers_online_frac", module, _frac)]))
    return scrapers


def _mds_scrapers(system) -> list[Scraper]:
    """One agent per namespace MDS, reading its served-op and busy-time
    ground-truth counters."""
    scrapers = []
    for fs_name in sorted(system.filesystems):
        mds = system.filesystems[fs_name].mds
        scrapers.append(Scraper(mds.name, 0, [
            Probe("mon.mds_busy_seconds", mds.name,
                  lambda m=mds: float(m.busy_seconds), counter=True),
            Probe("mon.mds_ops", mds.name,
                  lambda m=mds: float(m.ops_served), counter=True),
        ]))
    return scrapers


def probes_for_system(system, *,
                      extra_probes: list[Probe | ProbeGroup] | None = None,
                      ) -> list[Scraper]:
    """The standard agent inventory for a built Spider system.

    Args:
        system: a :class:`~repro.core.spider.SpiderSystem`.
        extra_probes: optional additional probes or probe groups (e.g.
            the per-link group from :func:`routing_probes`), attached to
            a dedicated ``aux`` agent on leaf 0.

    Returns:
        One :class:`Scraper` per SSU, per router module, and per MDS,
        plus the telemetry-mirroring ``flowstats`` agent, sorted by name.
    """
    scrapers = [_ssu_scraper(system, i) for i in range(len(system.ssus))]
    scrapers.extend(_router_module_scrapers(system))
    scrapers.extend(_mds_scrapers(system))
    scrapers.append(Scraper("flowstats", 0, [], mirror_telemetry=True))
    if extra_probes:
        scrapers.append(Scraper("aux", 0, list(extra_probes)))
    scrapers.sort(key=lambda s: s.name)
    return scrapers


def routing_probes(builder, components) -> ProbeGroup:
    """The per-link utilization probe group for the routing layer's feed.

    ``builder`` is duck-typed on
    :meth:`repro.core.path.PathBuilder.link_utilizations`; the group is
    one ``mon.link_util`` gauge per watched component, read as one array
    per sweep.  This is the only channel through which the adaptive
    policy sees solver outcomes: the values ride the overlay's
    sweep/window cadence, so routing reacts to what a monitoring system
    would have shown minutes ago, not to in-process truth — and the
    reads are plain method calls, never the telemetry registry, so
    decisions stay bit-identical with telemetry on or off.
    """
    components = tuple(components)
    return ProbeGroup(
        "mon.link_util", components,
        lambda b=builder, c=components: b.link_utilizations(c))
