"""One reproducibility check for every seeded campaign and paired study:
same seed ⇒ ``==``, telemetry on/off ⇒ ``==``, next seed ⇒ ``!=``."""

from __future__ import annotations

import pytest

from repro.faults.plan import cable_failure_scenario
from repro.metatier import MetaStudySpec, run_meta_study
from repro.resilience import (
    RemediationPolicy,
    run_mttd_study,
    run_paired_study,
)
from repro.units import MiB
from tests.conftest import assert_reproducible, fresh_system
from tests.test_faults import run_random
from tests.test_obs_overlay import run_cable_with_overlay
from tests.test_resilience import run_cable, run_sched
from tests.test_routing_storm import quick_study
from tests.test_sched import caps_pair


RUNS = {
    "random_campaign": lambda seed: run_random(seed=seed),
    "remediated_cable": lambda seed: run_cable(RemediationPolicy(seed=seed)),
    "overlay_campaign": lambda seed: run_cable_with_overlay(seed=seed),
    "paired_study": lambda seed: run_paired_study(
        fresh_system, cable_failure_scenario, seed=seed),
    "mttd_study": lambda seed: run_mttd_study(
        fresh_system, cable_failure_scenario, seed=seed),
    "meta_study": lambda seed: run_meta_study(MetaStudySpec(
        n_files=2_000, files_per_dir=200, n_epochs=1,
        segment_bytes=4 * MiB, seed=seed)),
    "storm_study": lambda seed: quick_study(seed=seed),
    "sched_caps_pair": caps_pair,
    "remediated_sched": lambda seed: run_sched(
        RemediationPolicy(seed=seed), seed=seed),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_is_reproducible(name):
    assert_reproducible(RUNS[name], seed=11)
