"""The two fault-campaign studies: remediation (A15) and detection (A16).

Each runs the *same* fault plan on the *same* seed three times, one fresh
system per arm, and keeps every arm's whole
:class:`~repro.faults.campaign.CampaignResult`.  Faults, flow re-solves
and the sampling grid are identical across arms, so every difference is
attributable to the one knob the study turns:

* :func:`run_paired_study` — scripted repairs only (how the §IV-A
  timeline played out) vs the closed loop with imperative recovery + ARN
  vs the closed loop with standard recovery (the §IV-D ablation);
* :func:`run_mttd_study` — the analytic
  :class:`~repro.resilience.detector.Detector` vs the in-band overlay's
  :class:`~repro.obs.overlay.observed.ObservedDetector` (real tree lag
  and batch loss) vs the overlay with
  :meth:`~repro.obs.overlay.config.OverlayConfig.tightened` knobs, which
  strictly reduce MTTD by a closed-form function of scrape interval and
  tree depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.resilience.playbooks import RemediationPolicy
from repro.resilience.runner import RemediationOutcome

if TYPE_CHECKING:
    from repro.core.spider import SpiderSystem
    from repro.faults.campaign import CampaignResult
    from repro.faults.plan import FaultPlan
    from repro.obs.overlay.config import OverlayConfig

__all__ = ["PairedStudyResult", "MttdStudyResult", "run_paired_study",
           "run_mttd_study"]


def _outcome(arm: "CampaignResult") -> RemediationOutcome:
    assert arm.remediation is not None, "arm ran without a policy"
    return arm.remediation


@dataclass(frozen=True)
class PairedStudyResult:
    """Manual vs automated vs standard-recovery ablation, one seed."""

    seed: int
    manual: "CampaignResult"
    automated: "CampaignResult"
    standard: "CampaignResult"

    @property
    def blackout_reduction_seconds(self) -> float:
        """Blackout seconds the closed loop removed vs the scripted plan."""
        return (self.manual.total_blackout_seconds()
                - self.automated.total_blackout_seconds())

    @property
    def availability_gain(self) -> float:
        """Availability delta, automated minus manual."""
        return self.automated.availability - self.manual.availability

    def rows(self) -> list[tuple[str, str, str, str]]:
        """Comparison table rows: metric, manual, automated, standard."""
        arms = (self.manual, self.automated, self.standard)
        return [
            ("availability", *(f"{a.availability:.3%}" for a in arms)),
            ("blackout",
             *(f"{a.total_blackout_seconds():,.0f} s" for a in arms)),
            ("mean MTTR", *(
                "—" if a.remediation is None
                else f"{a.remediation.mean_mttr_seconds:,.1f} s"
                for a in arms)),
        ]


@dataclass(frozen=True)
class MttdStudyResult:
    """Analytic vs observed vs tightened-overlay detection, one seed."""

    seed: int
    analytic: "CampaignResult"
    observed: "CampaignResult"
    tight: "CampaignResult"
    #: per-arm detection cadence (seconds): the analytic detector's poll
    #: interval, then each overlay's scrape interval
    intervals: tuple[float, float, float]

    @property
    def observed_penalty_seconds(self) -> float:
        """MTTD the monitoring pipeline adds over the analytic model."""
        return (_outcome(self.observed).mean_mttd_seconds
                - _outcome(self.analytic).mean_mttd_seconds)

    @property
    def tightening_gain_seconds(self) -> float:
        """MTTD removed by tightening cadence and fan-in."""
        return (_outcome(self.observed).mean_mttd_seconds
                - _outcome(self.tight).mean_mttd_seconds)

    def rows(self) -> list[tuple[str, str, str, str]]:
        """Comparison table rows: metric, analytic, observed, tight."""
        arms = (self.analytic, self.observed, self.tight)
        outcomes = [_outcome(a) for a in arms]
        return [
            ("scrape/poll interval",
             *(f"{i:,.1f} s" for i in self.intervals)),
            ("tree depth", *(
                "—" if a.overlay is None else str(a.overlay.tree_depth)
                for a in arms)),
            ("mean MTTD",
             *(f"{o.mean_mttd_seconds:,.1f} s" for o in outcomes)),
            ("mean MTTR",
             *(f"{o.mean_mttr_seconds:,.1f} s" for o in outcomes)),
            ("availability", *(f"{a.availability:.3%}" for a in arms)),
        ]


def _arm(
    system_factory: "Callable[[], SpiderSystem]",
    plan_factory: "Callable[[SpiderSystem], FaultPlan]",
    *,
    duration: float | None,
    threshold: float,
    policy: RemediationPolicy | None,
    config: "OverlayConfig | None" = None,
) -> "CampaignResult":
    # Imported lazily: the campaign lazy-imports this package's runner,
    # and the overlay's observed detector imports repro.resilience.
    from repro.faults.campaign import FaultCampaign
    from repro.obs.overlay.runtime import MonitoringOverlay

    system = system_factory()
    plan = plan_factory(system)
    monitor = (MonitoringOverlay(system, config)
               if config is not None else None)
    return FaultCampaign(
        system, plan,
        duration=duration,
        threshold=threshold,
        remediation=policy,
        monitor=monitor,
    ).run()


def run_paired_study(
    system_factory: "Callable[[], SpiderSystem]",
    plan_factory: "Callable[[SpiderSystem], FaultPlan]",
    *,
    seed: int = 0,
    duration: float | None = None,
    threshold: float = 0.5,
) -> PairedStudyResult:
    """Run the manual / automated / standard-ablation triple.

    Args:
        system_factory: builds a *fresh* system per arm (arms mutate
            hardware state, so they cannot share one instance).
        plan_factory: builds the fault plan from that system; must be
            deterministic so all arms face the same faults.
        seed: seeds the remediation policy (detection misses, step
            failures, backoff jitter, nested recovery sims).
        duration: campaign horizon override, as in
            :class:`~repro.faults.campaign.FaultCampaign`.
        threshold: degradation threshold for the availability metrics.
    """
    def arm(policy: RemediationPolicy | None) -> "CampaignResult":
        return _arm(system_factory, plan_factory, duration=duration,
                    threshold=threshold, policy=policy)

    return PairedStudyResult(
        seed=seed,
        manual=arm(None),
        automated=arm(RemediationPolicy(
            imperative=True, hp_journaling=True, seed=seed)),
        standard=arm(RemediationPolicy(
            imperative=False, hp_journaling=False, seed=seed)),
    )


def run_mttd_study(
    system_factory: "Callable[[], SpiderSystem]",
    plan_factory: "Callable[[SpiderSystem], FaultPlan]",
    *,
    seed: int = 0,
    duration: float | None = None,
    threshold: float = 0.5,
    base: "OverlayConfig | None" = None,
) -> MttdStudyResult:
    """Run the analytic / observed / tightened triple on one plan.

    Args:
        system_factory: builds a *fresh* system per arm (campaigns mutate
            hardware state, so arms cannot share one instance).
        plan_factory: builds the fault plan from that system; must be
            deterministic so every arm faces the same faults.
        seed: seeds both the remediation policy and the overlay.
        duration: campaign horizon override.
        threshold: degradation threshold for the availability metric.
        base: the observed arm's overlay config (default
            :class:`~repro.obs.overlay.config.OverlayConfig` with this
            ``seed``); the tight arm uses ``base.tightened()``.
    """
    from repro.obs.overlay.config import OverlayConfig

    if base is None:
        base = OverlayConfig(seed=seed)
    tight = base.tightened()
    policy = RemediationPolicy(imperative=True, hp_journaling=True, seed=seed)

    def arm(config: OverlayConfig | None) -> "CampaignResult":
        return _arm(system_factory, plan_factory, duration=duration,
                    threshold=threshold, policy=policy, config=config)

    return MttdStudyResult(
        seed=seed,
        analytic=arm(None),
        observed=arm(base),
        tight=arm(tight),
        intervals=(policy.detection.poll_interval, base.scrape_interval,
                   tight.scrape_interval),
    )
