"""repro.resilience — closed-loop remediation on the fault executor.

The paper's operational chapters describe humans closing the loop:
monitoring surfaces a dying cable or a failed OSS, an operator diagnoses
it, walks a runbook, and the system recovers minutes to hours later.
This package automates that loop on the discrete-event engine:

* :mod:`repro.resilience.detector` — the detection-latency model
  (poll grid, debounce, missed sweeps): MTTD has physics too;
* :mod:`repro.resilience.playbooks` — the runbook registry mapping every
  :class:`~repro.faults.events.FaultClass` to declarative steps, plus the
  retry/escalation and remediation policies;
* :mod:`repro.resilience.runner` — :class:`PlaybookRunner` executes
  detect → decide → act → verify as engine events and aggregates the
  MTTD/MTTR decomposition.  It applies each repair through the
  :class:`~repro.faults.executor.FaultExecutor`'s one repair path, so
  the flow network re-solves exactly as for a scripted repair;
* :mod:`repro.resilience.study` — the two same-plan, same-seed campaign
  studies: manual vs automated remediation with the standard-recovery
  ablation (A15), and analytic vs observed vs tightened-overlay
  detection (A16).

Typical use::

    from repro.core.spider import build_spider2
    from repro.faults import FaultCampaign, cable_failure_scenario
    from repro.resilience import RemediationPolicy

    system = build_spider2()
    plan = cable_failure_scenario(system)
    result = FaultCampaign(
        system, plan, remediation=RemediationPolicy(seed=7)).run()
    print(result.remediation.mean_mttr_seconds)
"""

from repro.resilience.detector import DetectionModel, Detector
from repro.resilience.playbooks import (
    PLAYBOOKS,
    Playbook,
    PlaybookStep,
    RemediationPolicy,
    RetryPolicy,
    playbook_for,
)
from repro.resilience.runner import (
    PlaybookRunner,
    RemediationOutcome,
    RemediationRecord,
)
from repro.resilience.study import (
    MttdStudyResult,
    PairedStudyResult,
    run_mttd_study,
    run_paired_study,
)

__all__ = [
    "DetectionModel",
    "Detector",
    "PlaybookStep",
    "Playbook",
    "RetryPolicy",
    "RemediationPolicy",
    "PLAYBOOKS",
    "playbook_for",
    "PlaybookRunner",
    "RemediationRecord",
    "RemediationOutcome",
    "PairedStudyResult",
    "MttdStudyResult",
    "run_paired_study",
    "run_mttd_study",
]
