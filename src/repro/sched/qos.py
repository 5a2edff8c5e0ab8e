"""QoS policy and the per-resolve bandwidth arbiter.

The arbiter is the time-varying extension of the interference study: it
owns one persistent :class:`~repro.core.flow.FlowNetwork` whose solver
state survives across allocation rounds.  The scheduler applies delta
operations as jobs come and go (:meth:`BandwidthArbiter.add` /
:meth:`~BandwidthArbiter.remove`) and each
:meth:`~BandwidthArbiter.reallocate` is an incremental re-solve — the
cost model is documented in ``docs/PERFORMANCE.md``.  Each running phase
is one flow crossing three components:

* ``ingest:<class>`` — the platform's injection capacity (Titan's LNET
  router aggregate for simulations, the analysis-cluster and DTN uplinks
  for the others);
* ``qos:<class>`` — the class demand cap, a fraction of the *current*
  backbone, present only when the policy is enabled (DIAL-style
  client-side bandwidth allocation);
* ``fs:backbone`` — the file system's delivered aggregate, recomputed
  from the live system so injected faults surface in every allocation.

Max-min fairness inside and across classes comes from the flow solver;
the policy adds the knobs the paper's Lesson 1 wishes it had — per-class
caps that stop a checkpoint storm from saturating the path analytics
latency rides on.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.flow import FlowNetwork
from repro.sched.jobs import PlatformClass

__all__ = ["QosPolicy", "BandwidthArbiter", "BACKBONE_COMPONENT"]

#: the shared file-system component every I/O flow crosses
BACKBONE_COMPONENT = "fs:backbone"


def _default_caps() -> dict[PlatformClass, float]:
    # Caps sum to 0.7, reserving headroom for analytics (uncapped) so a
    # checkpoint storm plus a DTN campaign can never saturate the path
    # interactive latency rides on.
    return {
        PlatformClass.SIMULATION: 0.50,
        PlatformClass.ANALYTICS: 1.0,
        PlatformClass.DATA_TRANSFER: 0.20,
    }


def _default_degraded_caps() -> dict[PlatformClass, float]:
    # Degraded mode halves the bulk classes' shares: checkpoint and DTN
    # traffic shed into their queues so the storm-hit links drain, while
    # analytics (the latency victim backpressure exists to protect)
    # stays uncapped.
    return {
        PlatformClass.SIMULATION: 0.25,
        PlatformClass.ANALYTICS: 1.0,
        PlatformClass.DATA_TRANSFER: 0.10,
    }


def _default_limits() -> dict[PlatformClass, int]:
    return {
        PlatformClass.SIMULATION: 24,
        PlatformClass.ANALYTICS: 48,
        PlatformClass.DATA_TRANSFER: 12,
    }


@dataclass(frozen=True)
class QosPolicy:
    """Per-class demand caps and admission limits.

    ``cap_fraction`` bounds each class's aggregate allocation to a
    fraction of the current backbone (1.0 = uncapped);
    ``max_concurrent`` is the admission limit — arrivals beyond it queue
    FIFO per class.
    """

    enabled: bool = True
    cap_fraction: Mapping[PlatformClass, float] = field(
        default_factory=_default_caps)
    max_concurrent: Mapping[PlatformClass, int] = field(
        default_factory=_default_limits)
    #: tighter caps applied while backpressure holds the arbiter in
    #: degraded mode (see :meth:`BandwidthArbiter.set_degraded`): bulk
    #: classes shed harder so the hot links drain; unset classes fall
    #: back to their normal cap
    degraded_cap_fraction: Mapping[PlatformClass, float] = field(
        default_factory=_default_degraded_caps)

    def __post_init__(self) -> None:
        for cls, frac in self.cap_fraction.items():
            if not (0 < frac <= 1):
                raise ValueError(f"cap fraction for {cls.value} must be in (0, 1]")
        for cls, frac in self.degraded_cap_fraction.items():
            if not (0 < frac <= 1):
                raise ValueError(
                    f"degraded cap for {cls.value} must be in (0, 1]")
        for cls, limit in self.max_concurrent.items():
            if limit < 1:
                raise ValueError(f"max_concurrent for {cls.value} must be >= 1")

    @classmethod
    def disabled(cls) -> "QosPolicy":
        """Arbitration without caps: pure max-min over the shared path
        (the as-deployed Spider, where isolation was a lesson, not a knob)."""
        return cls(enabled=False)

    def cap_of(self, platform: PlatformClass) -> float:
        """The class's cap fraction (1.0 when unset)."""
        return float(self.cap_fraction.get(platform, 1.0))

    def degraded_cap_of(self, platform: PlatformClass) -> float:
        """The class's cap while degraded: the tighter of its degraded
        and normal fractions (degraded mode never *loosens* a cap)."""
        return min(float(self.degraded_cap_fraction.get(platform, 1.0)),
                   self.cap_of(platform))

    def limit_of(self, platform: PlatformClass) -> int:
        """The class's admission limit (effectively unbounded when unset)."""
        return int(self.max_concurrent.get(platform, sys.maxsize))


class BandwidthArbiter:
    """Arbitrates bandwidth over the currently running I/O phases.

    The arbiter keeps one persistent :class:`FlowNetwork` across
    allocation rounds: phases join and leave via :meth:`add` /
    :meth:`remove` (delta operations) and :meth:`reallocate` refreshes
    the capacity components and re-solves incrementally.  The one-shot
    :meth:`allocate` wrapper rebuilds from scratch for callers outside
    the scheduler loop.
    """

    def __init__(self, policy: QosPolicy) -> None:
        self.policy = policy
        self._net = FlowNetwork()
        self._net.add_component(BACKBONE_COMPONENT, math.inf)
        # platform -> component path, registered lazily on first flow;
        # capacities are placeholders until the next reallocate().
        self._class_paths: dict[PlatformClass, list[str]] = {}
        # capacity-refresh memo: the capacities pushed into the network
        # by the last reallocate — a repeat round (the common quiet case)
        # skips the per-component set_capacity walk entirely
        self._caps_memo: tuple | None = None
        #: backpressure degraded mode: while set, per-class caps come
        #: from the policy's degraded fractions (see :meth:`set_degraded`)
        self.degraded = False

    @property
    def solve_counts(self) -> dict[str, int]:
        """Cumulative solve counts by resolve path: ``full`` / ``delta`` /
        ``cached``, the :data:`~repro.core.flow.RESOLVE_COUNTERS`
        suffixes."""
        return self._net.solve_counts

    @property
    def n_flows(self) -> int:
        """Number of I/O phases currently held by the arbiter."""
        return self._net.n_flows

    def reset(self) -> None:
        """Drop all flows and solver state (a fresh scheduler run)."""
        self._net = FlowNetwork()
        self._net.add_component(BACKBONE_COMPONENT, math.inf)
        self._class_paths = {}
        self._caps_memo = None

    def set_degraded(self, active: bool) -> None:
        """Flip backpressure degraded mode (idempotent).

        While degraded, :meth:`reallocate` prices each class's ``qos``
        cap from :meth:`QosPolicy.degraded_cap_of` instead of its normal
        fraction — the shed path the
        :class:`~repro.network.routing.BackpressureController` drives.
        A transition invalidates the capacity memo so the next round
        pushes the new caps even if nothing else moved.
        """
        active = bool(active)
        if active != self.degraded:
            self.degraded = active
            self._caps_memo = None

    def _effective_cap(self, platform: PlatformClass) -> float:
        if self.degraded:
            return self.policy.degraded_cap_of(platform)
        return self.policy.cap_of(platform)

    def _path_of(self, platform: PlatformClass) -> list[str]:
        """The component path for ``platform``, registering it lazily.

        The ``qos`` element is registered whenever *either* the normal or
        the degraded cap can bind, so entering degraded mode later is a
        pure capacity delta — never a topology change.
        """
        path = self._class_paths.get(platform)
        if path is None:
            ingest = f"ingest:{platform.value}"
            self._net.add_component(ingest, math.inf)
            path = [ingest]
            can_bind = (self.policy.cap_of(platform) < 1.0
                        or self.policy.degraded_cap_of(platform) < 1.0)
            if self.policy.enabled and can_bind:
                qos = f"qos:{platform.value}"
                self._net.add_component(qos, math.inf)
                path.append(qos)
            path.append(BACKBONE_COMPONENT)
            self._class_paths[platform] = path
        return path

    def add(self, name: str, platform: PlatformClass,
            demand: float) -> None:
        """Register a running I/O phase as a flow (delta operation)."""
        self._net.add_flow(name, self._path_of(platform), demand=demand)

    def remove(self, name: str) -> None:
        """Drop a finished I/O phase's flow (delta operation)."""
        self._net.remove_flow(name)

    def reallocate(
        self,
        *,
        backbone_capacity: float,
        ingest_caps: Mapping[PlatformClass, float],
    ) -> np.ndarray:
        """Refresh capacities and re-solve over the held flows.

        Returns a rate array aligned with the arrival order of the held
        flows (the order :meth:`add` calls happened, minus removals) —
        the same order the scheduler walks its active-phase table in.
        Unchanged capacities are no-ops, so a quiet round costs only the
        delta induced by phase churn.
        """
        net = self._net
        if net.n_flows == 0:
            return np.empty(0)
        # Memo on the capacity values actually pushed (per registered
        # class, in registration order): quiet rounds between faults
        # repeat them verbatim.
        memo = (backbone_capacity, self.degraded,
                tuple(ingest_caps.get(platform, math.inf)
                      for platform in self._class_paths))
        if memo != self._caps_memo:
            net.set_capacity(BACKBONE_COMPONENT, float(backbone_capacity))
            for platform, path in self._class_paths.items():
                net.set_capacity(path[0],
                                 float(ingest_caps.get(platform, math.inf)))
                if len(path) == 3:
                    cap = self._effective_cap(platform)
                    net.set_capacity(path[1], cap * backbone_capacity)
            self._caps_memo = memo
        return net.solve_rates()

    def allocate(
        self,
        requests: list[tuple[str, PlatformClass, float]],
        *,
        backbone_capacity: float,
        ingest_caps: Mapping[PlatformClass, float],
    ) -> np.ndarray:
        """One-shot allocation for ``(name, platform, demand)`` requests.

        Rebuilds the solver state from scratch and returns a rate array
        aligned with ``requests``.  Analysis-style callers that price a
        single scenario use this; the scheduler loop uses the delta API.
        """
        if not requests:
            return np.empty(0)
        self.reset()
        for name, platform, demand in requests:
            self.add(name, platform, demand)
        return self.reallocate(backbone_capacity=backbone_capacity,
                               ingest_caps=ingest_caps)
