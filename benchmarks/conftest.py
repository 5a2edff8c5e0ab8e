"""Shared fixtures for the experiment benchmarks.

Each benchmark regenerates one figure or headline quantity from the paper
(see DESIGN.md §4 for the experiment index).  Rendered reports are printed
to the live terminal (past pytest's capture) and archived under
``benchmarks/results/`` so EXPERIMENTS.md can cite them.  The perf gates
also write ``BENCH_<name>.json`` records (docs/PERFORMANCE.md §4).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.spider import SpiderSystem, build_spider1, build_spider2

from perfgate import interleaved

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="session")
def spider2() -> SpiderSystem:
    """Spider II as deployed: pre-upgrade controllers, un-culled drives."""
    return build_spider2(seed=2014)


@pytest.fixture(scope="session")
def spider2_culled() -> SpiderSystem:
    """Spider II after the §V-A culling campaign (production state)."""
    from repro.ops.culling import CullingCampaign

    system = build_spider2(seed=2014)
    CullingCampaign(system).run_full_campaign()
    return system


@pytest.fixture(scope="session")
def spider1() -> SpiderSystem:
    return build_spider1(build_clients=False)


@pytest.fixture
def report(request, capsys):
    """Print an experiment report to the terminal and archive it."""

    def _report(exp_id: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        banner = f"\n===== {exp_id} ====="
        with capsys.disabled():
            print(banner)
            print(text)
        (RESULTS_DIR / f"{exp_id}.txt").write_text(text + "\n")

    return _report


@pytest.fixture
def record(report):
    """Write ``BENCH_<name>.json`` at the repo root (``payload`` under a
    ``"benchmark": "<name>_overhead"`` key) and report ``lines``."""

    def _record(name: str, payload: dict, lines: list[str]) -> None:
        payload = {"benchmark": f"{name}_overhead", **payload}
        path = REPO_ROOT / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        report(f"BENCH_{name}", "\n".join(lines))

    return _record


@pytest.fixture
def overhead_gate(record):
    """Gate arm ``on`` against its bare twin ``off`` (both arms as in
    :func:`perfgate.interleaved`): interleaved min-of-N per arm, recorded,
    then ``overhead < limit`` asserted.  Noise only inflates a wall
    clock, so the minimum estimates the intrinsic cost."""

    def _gate(name: str, workload: str, off, on, *, trials: int,
              limit: float = 0.10) -> None:
        off_samples, on_samples = interleaved([off, on], trials)
        best_off = min(wall for wall, _ in off_samples)
        best_on = min(wall for wall, _ in on_samples)
        overhead = best_on / best_off - 1.0
        record(name, {
            "workload": workload,
            "repeats": trials,
            "best_off_s": best_off,
            "best_on_s": best_on,
            "overhead_fraction": overhead,
            "limit_fraction": limit,
        }, [
            workload,
            f"off (best of {trials}): {best_off * 1e3:.2f} ms",
            f"on  (best of {trials}): {best_on * 1e3:.2f} ms",
            f"overhead: {overhead:+.1%} (limit {limit:.0%})",
        ])
        assert overhead < limit, (
            f"{name} overhead {overhead:.1%} exceeds {limit:.0%} "
            f"({best_on * 1e3:.2f} ms on vs {best_off * 1e3:.2f} ms off)")

    return _gate
