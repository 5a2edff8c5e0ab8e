"""``python -m bench run``: time the study workloads and check them.

One fresh child process per (workload, repeat), one child at a time (the
simulator is single-threaded and the reference machine has two cores).
Repeats go round-robin across the selected workloads, so machine drift
spreads evenly over them.  Each round runs, per workload, a set-up-only
child and a timed child (untraced mode) or a timed and a traced child
(``--trace``).  Rounds continue while the next one is predicted to end
within ``--seconds`` per workload; there is always at least one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics without ``--trace``, the per-layer metrics with it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench.layers import PER_LAYER_METRICS
from bench.workloads import WORKLOADS

__all__ = ["E2E_METRICS", "run", "main"]

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: the end-to-end metrics, with units (``work_per_s`` counts the
#: workload's own unit of work; see ``Workload.work_unit``)
E2E_METRICS = (("wall_s", "s"), ("work_per_s", "1/s"), ("setup_s", "s"),
               ("peak_rss_mb", "MB"))

#: a child that runs this long is hung, not slow (a round is ~10-30 s)
CHILD_TIMEOUT_S = 150

#: layer self times plus unattributed time must sum to the traced wall
#: time within this share
ACCOUNTING_TOLERANCE = 0.02

#: per-layer metric prefixes each workload bypasses entirely
BYPASSED = {
    "sched_qos": ("obs.overlay.", "metatier."),
    "meta_250k": ("core.flow.",),
}


class ChildFailed(RuntimeError):
    """A measurement child exited nonzero or printed no result."""


def launch_child(request: dict) -> dict:
    """Run one measurement in a fresh interpreter and return its result."""
    paths = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "_child", json.dumps(request)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{request['workload']} ({request['mode']}) child exited "
            f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# -- checks ------------------------------------------------------------------

def _same(expected, actual) -> bool:
    """Counts and labels exactly; floats within 1e-9 relative."""
    if isinstance(expected, float) or isinstance(actual, float):
        return (isinstance(actual, (int, float))
                and isinstance(expected, (int, float))
                and math.isclose(expected, actual, rel_tol=1e-9, abs_tol=0.0))
    return expected == actual


def _output_checks(name: str, seed: int, outputs: dict,
                   reference: dict) -> list[tuple[str, bool]]:
    checks = []
    expected = reference.get(name, {}).get(str(seed))
    if expected is not None:
        for key in sorted(set(expected) | set(outputs)):
            checks.append((f"{name}: {key} matches the seed-{seed} reference",
                           key in expected and key in outputs
                           and _same(expected[key], outputs[key])))
    for label, ok in WORKLOADS[name].invariants(outputs).items():
        checks.append((f"{name}: {label}", ok))
    return checks


def _trace_checks(name: str, traced: dict) -> list[tuple[str, bool]]:
    layers = traced["layers"]
    acc = traced["accounting"]
    total = sum(acc["layer_s"].values()) + acc["unattributed_s"]
    checks = [
        (f"{name}: layer self times + unattributed = traced wall "
         f"within {ACCOUNTING_TOLERANCE:.0%}",
         abs(total - acc["wall_s"]) <= ACCOUNTING_TOLERANCE * acc["wall_s"]),
        (f"{name}: resolve census sums to core.flow.solve.calls",
         sum(layers[f"core.flow.resolve.{path}"]
             for path in ("full", "delta", "shortcircuit", "cached"))
         == layers["core.flow.solve.calls"]),
    ]
    if name == "sched_qos":
        out = traced["outputs"]
        for metric, key in (("jobs_finished", "finished"),
                            ("jobs_censored", "censored")):
            checks.append((f"{name}: sched.{metric} matches SchedResult",
                           layers[f"sched.{metric}"]
                           == out[f"off.{key}"] + out[f"on.{key}"]))
    for prefix in BYPASSED.get(name, ()):
        checks.append((f"{name}: every {prefix}* metric is 0 (bypassed)",
                       all(v == 0 for k, v in layers.items()
                           if k.startswith(prefix))))
    return checks


# -- aggregation -------------------------------------------------------------

def _e2e(samples: dict) -> dict[str, float]:
    timed = samples["timed"]
    return {
        "wall_s": statistics.median(s["wall_s"] for s in timed),
        "work_per_s": statistics.median(s["work"] / s["wall_s"]
                                        for s in timed),
        "setup_s": statistics.median(samples["setup"]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
    }


def _per_layer(samples: dict) -> dict[str, float]:
    traced = samples["traced"]
    measured = {key: statistics.median(s["layers"][key] for s in traced)
                for key in traced[0]["layers"]}
    measured.update({
        "setup.build.self_s": statistics.median(
            s["setup_split"]["build"] for s in traced),
        "setup.inputs.self_s": statistics.median(
            s["setup_split"]["inputs"] for s in traced),
        "bench.trace_overhead_frac": (
            statistics.median(s["wall_s"] for s in traced)
            / statistics.median(s["wall_s"] for s in samples["timed"]) - 1.0),
        "bench.unattributed_frac": statistics.median(
            s["accounting"]["unattributed_s"] / s["accounting"]["wall_s"]
            for s in traced),
    })
    return {key: measured[key] for key, _unit in PER_LAYER_METRICS}


def _trace_file(trace: str, name: str) -> str | None:
    if trace in ("0", "1"):
        return None
    path = Path(trace)
    return str(path.with_name(f"{path.stem}.{name}{path.suffix}"))


# -- the run -----------------------------------------------------------------

def run(names: list[str], *, seed: int, seconds: float, trace: str = "0",
        json_out: str | None = None, reference: dict | None = None,
        sizes: dict | None = None, launch=launch_child,
        out=sys.stdout) -> int:
    """Measure ``names`` round-robin, check them, print the report.

    Returns the exit status: 0 when every check passed, 1 otherwise.
    ``sizes`` maps a workload name to keyword arguments of its
    ``prepare`` (tests only); ``launch`` runs one request (tests run
    requests in-process).
    """
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    traced = trace != "0"
    samples = {name: {"setup": [], "timed": [], "traced": []}
               for name in names}
    budget = seconds * len(names)
    start = time.perf_counter()
    rounds = 0
    while True:
        for name in names:
            request = {"workload": name, "seed": seed,
                       "sizes": (sizes or {}).get(name, {})}
            mine = samples[name]
            if not traced:
                mine["setup"].append(
                    launch({**request, "mode": "setup"})["setup_s"])
            timed = launch({**request, "mode": "timed"})
            mine["timed"].append(timed)
            mine["setup"].append(timed["setup_s"])
            if traced:
                mine["traced"].append(launch({
                    **request, "mode": "traced",
                    "trace_file": _trace_file(trace, name)}))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > budget:
            break

    checks: list[tuple[str, bool]] = []
    results: dict[str, dict] = {}
    for name in names:
        mine = samples[name]
        children = mine["timed"] + mine["traced"]
        first = children[0]["outputs"]
        for child in children:
            checks += _output_checks(name, seed, child["outputs"], reference)
        for child in children[1:]:
            checks.append((f"{name}: repeat outputs equal the first "
                           f"(same seed, fresh process)",
                           child["outputs"] == first))
        for child in mine["traced"]:
            checks += _trace_checks(name, child)
        results[name] = {
            "metrics": _e2e(mine),
            "per_layer": _per_layer(mine) if traced else None,
            "outputs": first,
            "samples": mine,
        }

    failed = [label for label, ok in checks if not ok]
    metrics: dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        res = results[name]
        n = len(samples[name]["timed"])
        print(f"== {name}  seed {seed}  {n} timed repeat(s)  "
              f"{'traced' if traced else 'untraced'}", file=out)
        rows = ([(k, u, res["per_layer"][k]) for k, u in PER_LAYER_METRICS]
                if traced else
                [(k, u, res["metrics"][k]) for k, u in E2E_METRICS])
        notes = {
            "wall_s": f"median of {n}",
            "work_per_s": f"{workload.work_unit} per second",
            "setup_s": f"median of {len(samples[name]['setup'])}",
            "peak_rss_mb": f"median of {n}",
        }
        for key, unit, value in rows:
            print(f"  {key:<34} {value:>16.6g} {unit:<8} "
                  f"{notes.get(key, '')}".rstrip(), file=out)
            metric = key if len(names) == 1 else f"{name}.{key}"
            metrics[metric] = {"value": value, "unit": unit}
    print(f"checks: {len(checks)} attempted, {len(failed)} failed, "
          f"check_fail_frac {len(failed) / max(1, len(checks)):.6g}",
          file=out)
    for label in failed:
        print(f"  FAILED {label}", file=out)
    if json_out is not None:
        Path(json_out).write_text(json.dumps({
            "seed": seed, "rounds": rounds, "traced": traced,
            "checks": checks, "workloads": results}, indent=1) + "\n")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}), file=out)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Time the simulator's study workloads end to end "
                    "(or per layer with --trace) and check their outputs.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload (default: all four)")
    p.add_argument("--seed", type=int, default=2014,
                   help="workload seed (default 2014)")
    p.add_argument("--seconds", type=float, default=45.0,
                   help="measurement budget per workload (default 45)")
    p.add_argument("--trace", default="0", metavar="0|1|FILE",
                   help="1: report per-layer metrics; FILE: also write a "
                        "Chrome trace per workload next to FILE")
    p.add_argument("--json", metavar="OUT",
                   help="write every sample, output and check to OUT")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no simulator source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        return run(names, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, json_out=args.json)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
