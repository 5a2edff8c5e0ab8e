"""Perf gate for the metatier (A18): telemetry stays cheap, packing stays fast.

Two assertions keep the small-file tier honest as it grows:

* the aggregated tier's full timeline (untar storm, training reads,
  audit sweeps, compaction, warm migration) with telemetry + tracing
  fully enabled stays within 10% of the disabled run — min-of-N,
  interleaved, GC parked during the timed window so collector pauses
  don't masquerade as instrument cost, and a failing round re-measured
  (a real regression fails every round; a multi-second host-noise burst
  does not survive three).  This scopes the gate to the *metatier's*
  emission sites; the per-file baseline arm is dominated by the MDS/OST
  instrumentation that ``BENCH_obs.json`` already gates;
* the aggregated tier sustains a floor of tiny-file operations per
  wall-clock second, so needle packing never silently regresses into a
  per-file-cost path.  Results land in ``BENCH_meta.json`` at the repo
  root, including the paired-study headline gain.
"""

from __future__ import annotations

import gc

from repro.lustre.ost import Ost, OstSpec
from repro.metatier import MetaStudySpec, run_meta_study
from repro.metatier.needles import SegmentSpec, SegmentStore
from repro.metatier.scenarios import (
    AggregatedTier,
    AuditSweep,
    TinyFileSizes,
    TrainingReads,
    UntarStorm,
)
from repro.metatier.shards import ShardedFilesystem
from repro.obs.instruments import Telemetry, use_telemetry
from repro.obs.trace import Tracer, use_tracer
from repro.sim.engine import Engine
from repro.units import DAY, HOUR, MiB, TB

from perfgate import interleaved, timed

_REPEATS = 7
_ROUNDS = 3
_OVERHEAD_LIMIT = 0.10
_N_FILES = 6_000
#: tiny-file logical ops the aggregated tier must clear per wall second.
#: Measured ~300-500k ops/s on the reference container; the floor leaves
#: ample headroom for slower CI hosts while catching order-of-magnitude
#: regressions (e.g. a per-needle MDS op sneaking back in).
_OPS_PER_SECOND_FLOOR = 30_000.0


def _run_timeline() -> AggregatedTier:
    """The aggregated arm's standard day, on a fresh tier each call."""
    osts = [Ost(i, OstSpec(capacity_bytes=4 * TB)) for i in range(8)]
    fs = ShardedFilesystem("bench", osts, n_shards=4,
                           default_stripe_count=1)
    seg_spec = SegmentSpec(segment_bytes=64 * MiB, compact_threshold=0.25)
    stores = [SegmentStore(fs, name=f"store{i}", spec=seg_spec)
              for i in range(2)]
    tier = AggregatedTier(fs, stores, cache_hit_rate=0.8,
                          migrate_age=12 * HOUR, seed=2014)
    engine = Engine()
    storm = UntarStorm(n_files=_N_FILES, duration=1 * HOUR,
                       sizes=TinyFileSizes(seed=2014))
    storm.install(engine, tier)
    TrainingReads(storm.manifest, n_epochs=2, epoch_duration=1 * HOUR,
                  start=2 * HOUR, seed=2014).install(engine, tier)
    AuditSweep(storm.manifest, max_age=1 * DAY,
               interval=6 * HOUR).install(engine, tier)
    engine.run(until=2 * DAY)
    return tier


def _run_off() -> tuple[float, AggregatedTier]:
    """:func:`timed` timeline, GC collected first and parked while it runs."""
    gc.collect()
    gc.disable()
    try:
        return timed(_run_timeline)
    finally:
        gc.enable()


def _run_on() -> tuple[float, AggregatedTier]:
    telemetry, tracer = Telemetry(enabled=True), Tracer(enabled=True)
    with use_telemetry(telemetry), use_tracer(tracer):
        return _run_off()


def test_meta_overhead_and_throughput_floor(record):
    rounds = []  # (overhead, best_off, best_on) per round
    for _ in range(_ROUNDS):
        off, on = interleaved([_run_off, _run_on], _REPEATS)
        best_off = min(wall for wall, _ in off)
        best_on = min(wall for wall, _ in on)
        rounds.append((best_on / best_off - 1.0, best_off, best_on))
        if rounds[-1][0] < _OVERHEAD_LIMIT:
            break
    overhead, best_off, best_on = min(rounds)

    tier = off[-1][1]
    logical_ops = (tier.logical_creates + tier.logical_reads
                   + tier.logical_deletes + tier.audit_examined)
    ops_per_second = logical_ops / best_off

    # The headline gain, measured once (untimed) on the paired study.
    result = run_meta_study(
        MetaStudySpec(n_files=_N_FILES, seed=2014, with_faults=False))

    record("meta", {
        "workload": f"aggregated-tier timeline, {_N_FILES} tiny files",
        "repeats": _REPEATS,
        "best_off_s": best_off,
        "best_on_s": best_on,
        "overhead_fraction": overhead,
        "limit_fraction": _OVERHEAD_LIMIT,
        "logical_ops": logical_ops,
        "ops_per_wall_second": ops_per_second,
        "ops_per_second_floor": _OPS_PER_SECOND_FLOOR,
        "paired_study_gain": result.throughput_gain,
    }, [
        f"telemetry off (best of {_REPEATS}): {best_off * 1e3:.2f} ms",
        f"telemetry on  (best of {_REPEATS}): {best_on * 1e3:.2f} ms",
        f"overhead: {overhead:+.1%} (limit {_OVERHEAD_LIMIT:.0%})",
        f"tiny-file ops: {ops_per_second:,.0f}/s "
        f"(floor {_OPS_PER_SECOND_FLOOR:,.0f}/s)",
        f"paired-study gain: {result.throughput_gain:,.1f}x",
    ])

    assert overhead < _OVERHEAD_LIMIT, (
        f"metatier telemetry overhead {overhead:.1%} exceeds "
        f"{_OVERHEAD_LIMIT:.0%} "
        f"({best_on * 1e3:.2f} ms on vs {best_off * 1e3:.2f} ms off)"
    )
    assert ops_per_second > _OPS_PER_SECOND_FLOOR, (
        f"aggregated tier sustained only {ops_per_second:,.0f} tiny-file "
        f"ops/s (floor {_OPS_PER_SECOND_FLOOR:,.0f}/s)"
    )
