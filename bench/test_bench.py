"""Smoke test for the benchmark: every workload in-process at a tiny size.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py -q``.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from bench import harness
from bench.child import measure
from bench.layers import PER_LAYER_METRICS, LayerTracer
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())

#: workload sizes that run in about a second each
TINY = {
    "sched_qos": {"days": 0.1},
    "storm_row": {"clients": 4, "stripe": 4, "duration": 240.0},
    "fault_day": {"hours": 1.0, "n_faults": 4},
    "meta_250k": {"n_files": 2_000},
}
SEED = 7


def _run(**kwargs) -> tuple[int, str]:
    out = io.StringIO()
    status = harness.run(list(WORKLOADS), seed=SEED, seconds=0, sizes=TINY,
                         launch=measure, out=out, **kwargs)
    return status, out.getvalue()


def _patch_targets() -> list[tuple[type, str, object]]:
    tracer = LayerTracer()
    tracer.install()
    targets = list(tracer._restore)
    tracer.uninstall()
    return targets


@pytest.fixture(scope="module")
def traced_run():
    targets = _patch_targets()
    status, text = _run(trace="1", reference={})
    return targets, status, text


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == list(harness.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == list(PER_LAYER_METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert len(PER_LAYER_METRICS) <= 128


def test_untraced_run_prints_every_end_to_end_metric_with_unit():
    status, text = _run(reference={})
    assert status == 0, text
    result = _last_json(text)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for name in WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            entry = result["metrics"][f"{name}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0
    for metric in BENCHMARK["end_to_end"]:
        assert any(line.split()[:1] == [metric["name"]]
                   and metric["unit"] in line.split()
                   for line in text.splitlines())


def test_traced_run_prints_every_per_layer_metric_and_passes_checks(
        traced_run):
    _targets, status, text = traced_run
    assert status == 0, text
    result = _last_json(text)
    assert result["correct"]
    for name in WORKLOADS:
        for metric in BENCHMARK["per_layer"]:
            entry = result["metrics"][f"{name}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]


def test_traced_run_restores_every_patched_attribute(traced_run):
    targets, _status, _text = traced_run
    assert targets
    for cls, name, original in targets:
        assert cls.__dict__[name] is original, f"{cls.__name__}.{name}"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_outputs_compare_equal(name):
    request = {"workload": name, "seed": SEED, "sizes": TINY[name]}
    timed = measure({**request, "mode": "timed"})
    traced = measure({**request, "mode": "traced"})
    assert traced["outputs"] == timed["outputs"]
    acc = traced["accounting"]
    assert sum(acc["layer_s"].values()) + acc["unattributed_s"] \
        == pytest.approx(acc["wall_s"], rel=harness.ACCOUNTING_TOLERANCE)


def test_perturbed_reference_makes_run_exit_nonzero():
    name = "meta_250k"
    sizes = {name: TINY[name]}
    outputs = measure({"workload": name, "seed": SEED, "mode": "timed",
                       "sizes": TINY[name]})["outputs"]

    def run(reference):
        out = io.StringIO()
        status = harness.run([name], seed=SEED, seconds=0, sizes=sizes,
                             launch=measure, reference=reference, out=out)
        return status, out.getvalue()

    status, text = run({name: {str(SEED): outputs}})
    assert status == 0, text
    perturbed = dict(outputs, **{"per_file.mds_ops":
                                 outputs["per_file.mds_ops"] + 1})
    status, text = run({name: {str(SEED): perturbed}})
    assert status == 1
    assert "FAILED meta_250k: per_file.mds_ops" in text
    assert _last_json(text)["correct"] is False


def test_reference_holds_both_seeds_and_the_anchors():
    for name in WORKLOADS:
        assert set(REFERENCE[name]) == {"2014", "42"}
    sched = REFERENCE["sched_qos"]["2014"]
    assert (sched["off.finished"], sched["off.censored"]) == (16_740, 1_318)
    assert (sched["on.finished"], sched["on.censored"]) == (16_502, 1_556)
    storm = REFERENCE["storm_row"]["2014"]
    assert (storm["static.full_solves"], storm["flowlet.full_solves"],
            storm["flowlet.rehashes"]) == (3, 30, 300)
    fault = REFERENCE["fault_day"]["2014"]
    assert (fault["timeline_samples"], fault["unroutable"]) == (211, 0)
    meta = REFERENCE["meta_250k"]["2014"]
    assert (meta["per_file.mds_ops"], meta["aggregated.mds_ops"]) \
        == (1_562_750, 58_992)
