"""repro.resilience: detection model, playbooks, closed-loop campaigns,
and the paired manual-vs-automated study."""

from __future__ import annotations

import math

import pytest

from repro.faults import FaultCampaign, FaultClass, FaultPlan, PlannedFault
from repro.faults.plan import cable_failure_scenario
from repro.obs.trace import Tracer, use_tracer
from repro.resilience import (
    PLAYBOOKS,
    DetectionModel,
    Detector,
    Playbook,
    PlaybookRunner,
    PlaybookStep,
    RemediationPolicy,
    RetryPolicy,
    playbook_for,
    run_paired_study,
)
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from tests.conftest import fresh_system


def run_cable(policy: RemediationPolicy | None):
    system = fresh_system()
    plan = cable_failure_scenario(system)
    return FaultCampaign(system, plan, remediation=policy).run()


class TestDetectionModel:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DetectionModel(poll_interval=0.0)
        with pytest.raises(ValueError):
            DetectionModel(debounce=-1.0)
        with pytest.raises(ValueError):
            DetectionModel(miss_probability=1.0)

    def test_no_misses_lands_on_next_sweep_plus_debounce(self):
        model = DetectionModel(poll_interval=30.0, debounce=10.0,
                               miss_probability=0.0)
        det = Detector(model, RngStreams(0).get("resilience.detect"))
        # Onset at t=7: next sweep at 30, so delay = 23 + debounce.
        assert det.detection_delay(7.0) == pytest.approx(33.0)
        # Onset exactly on the grid still waits a full interval.
        assert det.detection_delay(60.0) == pytest.approx(40.0)

    def test_misses_add_whole_poll_intervals(self):
        model = DetectionModel(poll_interval=30.0, debounce=0.0,
                               miss_probability=0.6)
        det = Detector(model, RngStreams(3).get("resilience.detect"))
        delay = det.detection_delay(0.0)
        # Whatever the draws, the delay is sweep-aligned: 30 * k.
        assert delay % 30.0 == pytest.approx(0.0)
        assert delay >= 30.0

    def test_same_seed_same_delays(self):
        model = DetectionModel(miss_probability=0.5)
        d1 = Detector(model, RngStreams(9).get("resilience.detect"))
        d2 = Detector(model, RngStreams(9).get("resilience.detect"))
        times = [0.0, 17.0, 1234.5, 86_000.0]
        assert [d1.detection_delay(t) for t in times] == \
            [d2.detection_delay(t) for t in times]


class TestPlaybooks:
    def test_every_fault_class_has_a_playbook(self):
        for cls in FaultClass:
            book = playbook_for(cls)
            assert book.fault_class is cls
            assert book.steps
        assert set(PLAYBOOKS) == set(FaultClass)

    def test_step_and_book_validation(self):
        with pytest.raises(ValueError):
            PlaybookStep("bad", duration=0.0)
        with pytest.raises(ValueError):
            PlaybookStep("bad", duration=1.0, failure_probability=1.0)
        with pytest.raises(ValueError):
            Playbook(name="empty", fault_class=FaultClass.DISK_FAIL,
                     steps=())

    def test_retry_backoff_doubles_and_caps(self):
        retry = RetryPolicy(max_attempts=5, backoff_base=10.0,
                            backoff_cap=25.0, jitter=0.0)
        assert retry.backoff_seconds(1, 0.0) == pytest.approx(10.0)
        assert retry.backoff_seconds(2, 0.0) == pytest.approx(20.0)
        assert retry.backoff_seconds(3, 0.0) == pytest.approx(25.0)
        jittered = RetryPolicy(jitter=0.5).backoff_seconds(1, 1.0)
        assert jittered == pytest.approx(RetryPolicy().backoff_base * 1.5)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RemediationPolicy(decide_latency=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestPlaybookRunner:
    def _run(self, playbook: Playbook, policy: RemediationPolicy):
        """Drive one fault through the runner on a bare engine."""
        engine = Engine()
        tokens = {0: True}
        fault = PlannedFault(time=0.0, fault=playbook.fault_class, target=0)
        runner = PlaybookRunner(
            policy, engine=engine,
            repair=lambda f: tokens.pop(0, None) is not None,
            n_clients=64, n_routers=4,
            playbooks={playbook.fault_class: playbook})
        runner.on_fault(fault, engine.now)
        engine.run(until=1e9)
        return runner.finalize()

    def test_happy_path_stage_decomposition(self):
        book = Playbook(
            name="one-step", fault_class=FaultClass.DISK_SLOW,
            steps=(PlaybookStep("fix", 40.0, failure_probability=0.0),))
        policy = RemediationPolicy(
            detection=DetectionModel(poll_interval=30.0, debounce=5.0,
                                     miss_probability=0.0),
            decide_latency=2.0, verify_latency=15.0, seed=1)
        outcome = self._run(book, policy)
        assert outcome.n_faults == 1 and outcome.n_applied == 1
        rec = outcome.records[0]
        assert rec.completed and not rec.escalated
        assert rec.detect_seconds == pytest.approx(35.0)
        assert rec.decide_seconds == pytest.approx(2.0)
        assert rec.act_seconds == pytest.approx(40.0)
        assert rec.verify_seconds == pytest.approx(15.0)
        assert rec.mttr_seconds == pytest.approx(92.0)

    def test_hopeless_step_escalates_to_operator(self):
        book = Playbook(
            name="stuck", fault_class=FaultClass.DISK_SLOW,
            steps=(PlaybookStep("hang", 40.0, timeout=10.0,
                                failure_probability=0.999999),))
        policy = RemediationPolicy(
            retry=RetryPolicy(max_attempts=2, backoff_base=5.0,
                              backoff_cap=5.0, jitter=0.0),
            operator_delay=100.0, seed=1)
        outcome = self._run(book, policy)
        rec = outcome.records[0]
        assert rec.escalated and rec.applied
        assert rec.attempts == 2
        assert outcome.n_escalated == 1
        # Act = 2 timeouts + 1 backoff + operator page + manual step.
        assert rec.act_seconds == pytest.approx(10 + 5 + 10 + 100 + 40)

    def test_failover_playbook_appends_recovery_tail(self):
        base = dict(fault_class=FaultClass.CONTROLLER_FAIL,
                    steps=(PlaybookStep("s", 10.0, failure_probability=0.0),))
        plain = self._run(Playbook(name="plain", **base),
                          RemediationPolicy(seed=4))
        failover = self._run(Playbook(name="fo", failover=True, **base),
                             RemediationPolicy(seed=4))
        assert failover.records[0].act_seconds > plain.records[0].act_seconds

    def test_rejects_nonpositive_clients(self):
        with pytest.raises(ValueError):
            PlaybookRunner(
                RemediationPolicy(), engine=Engine(), repair=lambda f: True,
                n_clients=0)


class TestRemediatedCampaign:
    def test_remediation_races_and_beats_the_scripted_repair(self):
        result = run_cable(RemediationPolicy(seed=11))
        outcome = result.remediation
        assert outcome is not None
        assert outcome.n_faults == result.n_injected
        assert outcome.n_applied == outcome.n_faults
        assert outcome.n_preempted == 0
        # Every fault repaired exactly once despite two racing paths.
        assert result.n_repaired == result.n_injected

    def test_detect_decide_act_verify_spans_traced(self):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            run_cable(RemediationPolicy(seed=11))
        names = [s.name for s in tracer.spans if s.cat == "resilience"]
        for stage in ("detect:", "decide:", "act:", "verify:"):
            assert any(n.startswith(stage) for n in names)

    def test_recovery_stats_consistent_with_worst_case(self):
        system = fresh_system()
        plan = FaultPlan.random(system, duration=40_000.0, n_faults=6,
                                seed=11)
        result = FaultCampaign(system, plan, duration=40_000.0).run()
        worst = dict(result.recovery_times)
        assert result.recovery_stats
        for cls, n, mean in result.recovery_stats:
            assert n >= 1
            assert mean <= worst[cls] + 1e-9
        # Backward-compatible shapes: (class, worst) and (class, n, mean).
        assert all(len(item) == 2 for item in result.recovery_times)
        assert set(worst) == {cls for cls, _n, _m in result.recovery_stats}
        assert result.total_blackout_seconds() == pytest.approx(
            sum(n * mean for _c, n, mean in result.recovery_stats))

    def test_unremediated_campaign_has_no_outcome(self):
        result = run_cable(None)
        assert result.remediation is None


class TestPairedStudy:
    def test_cable_automated_strictly_beats_manual_and_standard(self):
        result = run_paired_study(fresh_system, cable_failure_scenario,
                                  seed=11)
        assert result.automated.total_blackout_seconds() \
            < result.manual.total_blackout_seconds()
        assert result.availability_gain > 0
        # The §IV-D ablation: imperative recovery beats standard.
        assert result.automated.total_blackout_seconds() \
            < result.standard.total_blackout_seconds()
        assert result.automated.availability > result.standard.availability
        assert result.blackout_reduction_seconds > 0

    def test_random_plan_automated_strictly_beats_manual(self):
        def plan(system):
            return FaultPlan.random(system, duration=40_000.0, n_faults=6,
                                    seed=11)

        result = run_paired_study(fresh_system, plan, seed=11,
                                  duration=40_000.0)
        assert result.automated.total_blackout_seconds() \
            < result.manual.total_blackout_seconds()
        assert result.availability_gain > 0
        assert result.automated.total_blackout_seconds() \
            < result.standard.total_blackout_seconds()

    def test_rows_render(self):
        result = run_paired_study(fresh_system, cable_failure_scenario,
                                  seed=11)
        assert len(result.rows()) == 3
        assert all(len(row) == 4 for row in result.rows())
        assert result.automated.remediation is not None
        assert result.automated.remediation.class_rows()


def run_sched(policy: RemediationPolicy | None, seed: int = 3):
    """A faulted scheduler run: ``(SchedResult, remediation outcome)``."""
    from repro.sched.arrivals import JobMix, generate_jobs
    from repro.sched.scheduler import FacilityScheduler

    system = fresh_system(build_clients=False)
    jobs = generate_jobs(
        JobMix(), duration=20_000.0, seed=11,
        reference_bandwidth=system.aggregate_bandwidth(fs_level=True))
    plan = FaultPlan.random(system, duration=20_000.0, n_faults=3, seed=5)
    sched = FacilityScheduler(system, jobs, fault_plan=plan, seed=seed,
                              remediation=policy)
    return sched.run(), sched.remediation_outcome


class TestSchedulerRemediation:
    def test_outcome_recorded_and_deterministic(self):
        r1, o1 = run_sched(RemediationPolicy(seed=3))
        r2, o2 = run_sched(RemediationPolicy(seed=3))
        assert o1 is not None and o1.n_faults == 3
        assert r1 == r2
        assert o1 == o2

    def test_no_policy_no_outcome(self):
        _result, outcome = run_sched(None)
        assert outcome is None


class TestRemediationRecordMath:
    def test_censored_record_is_incomplete(self):
        # A fault injected just before the horizon leaves the pipeline
        # open; finalize must censor it instead of inventing timestamps.
        system = fresh_system()
        fault = PlannedFault(time=39_990.0, fault=FaultClass.DISK_SLOW,
                             target=0)
        plan = FaultPlan((fault,))
        result = FaultCampaign(system, plan, duration=40_000.0,
                               remediation=RemediationPolicy(seed=1)).run()
        rec = result.remediation.records[0]
        assert not rec.completed
        assert math.isinf(rec.verified_at)
        assert result.remediation.n_applied == 0
