"""Perf gate: the telemetry spine must stay cheap enough to leave on.

The disabled-path contract (one attribute read per instrument call) is the
reason every hot-path call site can be instrumented unconditionally.  This
bench times the same IOR solve with telemetry+tracing fully enabled vs
disabled and asserts the enabled run stays within 10% — min-of-N,
interleaved, so scheduler noise hits both sides equally.  Results land in
``BENCH_obs.json`` at the repo root.
"""

from __future__ import annotations

from repro.iobench.ior import IorRun
from repro.obs.instruments import Telemetry, use_telemetry
from repro.obs.trace import Tracer, use_tracer

from perfgate import timed

_REPEATS = 7


def test_obs_overhead_under_ten_percent(spider2, overhead_gate):
    def ior():
        return IorRun(spider2, n_processes=1008, placement="optimal").run()

    def on():
        telemetry, tracer = Telemetry(enabled=True), Tracer(enabled=True)
        with use_telemetry(telemetry), use_tracer(tracer):
            return timed(ior)

    overhead_gate("obs", "IorRun(n=1008, optimal) on spider2",
                  lambda: timed(ior), on, trials=_REPEATS)
