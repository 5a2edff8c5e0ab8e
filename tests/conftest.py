"""Shared fixtures: a miniature Spider deployment for fast tests, plus the
full paper-calibrated Spider II for integration checks."""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
import pytest

from repro.core.placement import PlacementSpec
from repro.core.spider import SPIDER2, SpiderSpec, SpiderSystem, build_spider2
from repro.hardware.controller import ControllerSpec
from repro.hardware.disk import DiskSpec
from repro.hardware.ssu import SsuSpec
from repro.lustre.oss import OssSpec
from repro.network.infiniband import FabricSpec
from repro.network.torus import TorusSpec
from repro.obs.instruments import Telemetry, use_telemetry
from repro.obs.trace import Tracer, use_tracer
from repro.units import GB, MB, TB


def mini_spec(**overrides) -> SpiderSpec:
    """A 4-SSU, 280-disk system that builds in milliseconds."""
    defaults = dict(
        name="mini",
        n_ssus=4,
        ssu=SsuSpec(
            n_enclosures=10,
            disks_per_enclosure=7,
            disk=DiskSpec(),
            controller=ControllerSpec(
                block_bw_cap=4.0 * GB,
                fs_bw_cap=2.4 * GB,
                upgraded_fs_bw_cap=3.8 * GB,
            ),
        ),
        n_namespaces=2,
        oss=OssSpec(node_bw_cap=5.0 * GB, n_osts=7),
        fabric=FabricSpec(n_leaf_switches=4, n_core_switches=2),
        torus=TorusSpec(dims=(5, 4, 6)),
        placement=PlacementSpec(n_modules=6, routers_per_module=4, n_leaves=4),
        n_compute_nodes=128,
    )
    defaults.update(overrides)
    return SpiderSpec(**defaults)


def fresh_system(**kw) -> SpiderSystem:
    """A new mini system; campaigns and fault plans mutate the system in
    place, so every run builds its own."""
    return SpiderSystem(mini_spec(), seed=7, **kw)


Run = Callable[[int], Any]


def assert_same_seed_equal(run: Run, seed: int) -> None:
    """``run(seed)`` equals itself."""
    assert run(seed) == run(seed)


def assert_telemetry_invariant(run: Run, seed: int) -> None:
    """``run(seed)`` equals itself with telemetry and tracing enabled."""
    plain = run(seed)
    with use_telemetry(Telemetry(enabled=True)), \
            use_tracer(Tracer(enabled=True)):
        assert run(seed) == plain


def assert_seed_sensitive(run: Run, seed: int) -> None:
    """``run(seed)`` differs at ``seed + 1``, so ``==`` is not vacuous."""
    assert run(seed + 1) != run(seed)


def assert_reproducible(run: Run, seed: int) -> None:
    """The contract every seeded run keeps: all three checks above."""
    assert_same_seed_equal(run, seed)
    assert_telemetry_invariant(run, seed)
    assert_seed_sensitive(run, seed)


@pytest.fixture
def mini_system() -> SpiderSystem:
    return fresh_system()


@pytest.fixture(scope="session")
def spider2_session() -> SpiderSystem:
    """One full Spider II shared by read-only integration tests."""
    return build_spider2(seed=2014)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(123)
