"""One measurement, run in a fresh process per (workload, repeat).

The harness launches ``python -m bench _child '<request json>'``; the
child sets up the workload, runs the timed call once, and prints one
JSON line with what it measured.  :func:`measure` is also callable
in-process, which is how the smoke test runs tiny workloads.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

from bench.workloads import WORKLOADS, Setup

__all__ = ["measure", "main"]

#: the checkout root: ``bench/`` sits directly under it
ROOT = Path(__file__).resolve().parent.parent

#: spans kept for a Chrome-trace file (24 bytes each in memory)
SPAN_CAP = 500_000


def _check_checkout() -> None:
    """Refuse to measure a ``repro`` that is not this checkout's."""
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(
            f"repro imported from {repro.__file__}, not from {src}")


def measure(request: dict) -> dict:
    """Run one request and return its measurements.

    ``request`` keys: ``workload``, ``seed``, ``mode`` (``setup`` stops
    after set-up; ``timed`` runs the study call; ``traced`` runs it under
    the layer tracer), optional ``trace_file`` and ``sizes`` (keyword
    arguments of the workload's ``prepare``; empty for the benchmark).
    """
    workload = WORKLOADS[request["workload"]]
    mode = request["mode"]
    setup = Setup()
    t0 = time.perf_counter()
    timed_call = workload.prepare(request["seed"], setup,
                                  **request.get("sizes", {}))
    setup_s = time.perf_counter() - t0
    _check_checkout()
    response = {"setup_s": setup_s, "setup_split": setup.seconds}
    if mode == "setup":
        return response

    gc.collect()
    tracer = None
    if mode == "traced":
        from bench.layers import LayerTracer

        tracer = LayerTracer(
            span_cap=SPAN_CAP if request.get("trace_file") else 0)
        tracer.install()
    try:
        if tracer is not None:
            tracer.start()
        t1 = time.perf_counter()
        result = timed_call()
        wall_s = time.perf_counter() - t1
        if tracer is not None:
            tracer.stop()
    finally:
        if tracer is not None:
            tracer.uninstall()

    outputs = workload.summarize(result)
    response.update(
        wall_s=wall_s,
        outputs=outputs,
        work=workload.work(outputs),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        per_layer, unattributed = tracer.layer_seconds()
        response["layers"] = tracer.metrics()
        response["accounting"] = {
            "wall_s": tracer.wall_s,
            "layer_s": per_layer,
            "unattributed_s": unattributed,
        }
        if request.get("trace_file"):
            tracer.write_chrome_trace(request["trace_file"], {
                "workload": workload.name, "seed": request["seed"]})
    return response


def main(argv: list[str]) -> int:
    """Child entry point: one request in ``argv[0]``, one JSON line out."""
    response = measure(json.loads(argv[0]))
    sys.stdout.write(json.dumps(response) + "\n")
    return 0
