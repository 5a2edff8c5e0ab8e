"""``spider-repro`` — command-line front end for the reproduction.

Subcommands map one-to-one onto the paper's activities::

    spider-repro inventory              # Figure 1 census + hero numbers
    spider-repro layers                 # Lesson 12 bottom-up profile
    spider-repro ior -n 6048 --ppn 16   # a Figure 3/4-style IOR run
    spider-repro scaling                # the full Figure 4 series
    spider-repro culling                # the §V-A culling campaign
    spider-repro incident --enclosures 5
    spider-repro placement              # the Figure 2 cabinet map
    spider-repro workload               # the §II characterization
    spider-repro interference           # the §II latency-contention study
    spider-repro sched                  # multi-tenant scheduler + QoS caps
    spider-repro recovery --imperative  # failover + router-failure recovery
    spider-repro suite --ssu 1          # the §III-B acceptance suite
    spider-repro reliability --years 20 # failure/rebuild exposure
    spider-repro chaos --faults 12      # a fault-injection campaign
    spider-repro chaos --remediate      # same campaign, closed-loop repairs
    spider-repro resilience             # manual vs automated paired study
    spider-repro monitor                # in-band monitoring overlay campaign
    spider-repro monitor --study        # analytic vs observed MTTD (A16)
    spider-repro meta --files 1000000   # small-file tier paired study (A18)
    spider-repro storm                  # hot-spot storm, static vs flowlet (A19)
    spider-repro ior --trace t.json     # same run, Chrome-trace recorded
    spider-repro report t.json          # Lesson-12 layer table from a trace
    spider-repro lint src/repro         # spider-lint invariant checker

Every subcommand prints the same rendered report its benchmark archives.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from repro.units import (
    DAY,
    GB,
    HOUR,
    KiB,
    MS,
    fmt_bandwidth,
    fmt_duration,
    fmt_size,
)

__all__ = ["main", "build_parser", "CliError"]

#: acceptance scale for `spider-repro meta`: the 10^6-file untar storm
_META_DEFAULT_FILES = 1_000_000


class CliError(Exception):
    """A user-facing command failure: printed to stderr, exit status 1,
    no traceback (bad paths, unreadable inputs)."""


@contextmanager
def _tracing(trace_path: str | None):
    """Enable the telemetry registry + sim-time tracer for the duration of
    a subcommand and write the Chrome-trace file on the way out.

    Yields ``(telemetry, tracer)`` — both enabled — when ``trace_path`` is
    set, or ``(None, None)`` (leaving the disabled defaults in place) when
    it is not, so command bodies stay branch-free.
    """
    if trace_path is None:
        yield None, None
        return
    from repro.obs.instruments import Telemetry, use_telemetry
    from repro.obs.trace import Tracer, use_tracer

    # Fail on an unwritable path now, not after the benchmark has run.
    try:
        with open(trace_path, "w"):
            pass
    except OSError as exc:
        raise CliError(f"cannot write trace file: {exc}") from exc
    telemetry = Telemetry(enabled=True)
    tracer = Tracer(enabled=True)
    with use_telemetry(telemetry), use_tracer(tracer):
        yield telemetry, tracer
    tracer.write_chrome_trace(trace_path, telemetry=telemetry)
    print(f"\ntrace written: {trace_path} "
          f"(open in Perfetto / chrome://tracing)")
    print(f"layer report : spider-repro report {trace_path}")


def _cmd_inventory(args) -> int:
    from repro.analysis.reporting import render_kv
    from repro.core.spider import build_spider1, build_spider2

    build = build_spider1 if args.system == "spider1" else build_spider2
    system = build(seed=args.seed, build_clients=False)
    inv = system.inventory()
    print(render_kv([
        ("system", inv["system"]),
        ("SSUs", inv["ssus"]),
        ("disks", inv["disks"]),
        ("OSTs", inv["osts"]),
        ("OSS nodes", inv["osses"]),
        ("I/O routers", inv["routers"]),
        ("namespaces", inv["namespaces"]),
        ("capacity", fmt_size(inv["capacity_bytes"])),
        ("block-level aggregate",
         fmt_bandwidth(system.aggregate_bandwidth(fs_level=False))),
        ("fs-level aggregate",
         fmt_bandwidth(system.aggregate_bandwidth(fs_level=True))),
    ], title=f"{inv['system']} inventory"))
    return 0


def _cmd_layers(args) -> int:
    from repro.analysis.layers import profile_layers
    from repro.analysis.reporting import render_table
    from repro.core.spider import build_spider2

    system = build_spider2(seed=args.seed, build_clients=False)
    profile = profile_layers(system, fs_level=not args.block)
    print(render_table(["layer", "ceiling", "loss vs below"],
                       profile.loss_table(),
                       title="Bottom-up layer profile (Lesson 12)"))
    return 0


def _cmd_ior(args) -> int:
    from repro.core.spider import build_spider2
    from repro.iobench.ior import IorRun

    if args.n_processes < 1:
        raise CliError("-n/--n-processes must be positive")
    if args.ppn < 1:
        raise CliError("--ppn must be positive")
    if args.transfer_size < 1:
        raise CliError("--transfer-size must be positive")
    system = build_spider2(seed=args.seed)
    if args.upgraded:
        system.upgrade_controllers()
    run = IorRun(system, n_processes=args.n_processes, ppn=args.ppn,
                 transfer_size=args.transfer_size * KiB,
                 placement=args.placement)
    with _tracing(args.trace) as (telemetry, tracer):
        engine = None
        if tracer is not None:
            from repro.obs.trace import instrument_engine
            from repro.sim.engine import Engine

            engine = Engine()
            instrument_engine(engine, telemetry=telemetry, tracer=tracer)
        result = run.run(engine)
        print(f"IOR write: {result.n_processes} processes, "
              f"{args.transfer_size} KiB transfers, "
              f"{result.placement} placement")
        print(f"  aggregate : {fmt_bandwidth(result.aggregate_bw)}")
        print(f"  per process: {fmt_bandwidth(result.per_process_bw)}")
        print(f"  data moved : {fmt_size(result.data_moved_bytes)} "
              f"in {result.stonewall_seconds:.0f} s (stonewall)")
    return 0


def _cmd_scaling(args) -> int:
    from repro.analysis.reporting import render_series
    from repro.core.spider import build_spider2
    from repro.iobench.ior import client_scaling

    if args.ppn < 1:
        raise CliError("--ppn must be positive")
    system = build_spider2(seed=args.seed)
    if args.upgraded:
        system.upgrade_controllers()
    with _tracing(args.trace) as (telemetry, tracer):
        engine = None
        if tracer is not None:
            from repro.obs.trace import instrument_engine
            from repro.sim.engine import Engine

            engine = Engine()
            instrument_engine(engine, telemetry=telemetry, tracer=tracer)
        results = client_scaling(system, ppn=args.ppn, engine=engine)
        print(render_series(
            "processes", "write GB/s",
            [(r.n_processes, r.aggregate_bw / GB) for r in results],
            title="IOR client scaling (cf. Figure 4)"))
    return 0


def _cmd_culling(args) -> int:
    from repro.analysis.reporting import render_table
    from repro.core.spider import build_spider2
    from repro.ops.culling import CullingCampaign

    if not 0 < args.threshold < 1:
        raise CliError("--threshold must be in (0, 1)")
    system = build_spider2(seed=args.seed, build_clients=False)
    campaign = CullingCampaign(system, threshold=args.threshold)
    result = campaign.run_full_campaign()
    rows = [
        (r.level, r.round_index, r.replaced,
         f"{r.metrics_after.worst_intra_ssu_spread:.1%}",
         f"{r.metrics_after.global_spread:.1%}")
        for r in result.rounds
    ]
    print(render_table(
        ["level", "round", "replaced", "intra-SSU after", "global after"],
        rows, title="Culling campaign (§V-A)"))
    print(f"\nblock-level: {result.replaced_at('block')} drives; "
          f"fs-level: {result.replaced_at('fs')} drives "
          f"(paper: ~1,500 + ~500)")
    return 0


def _cmd_incident(args) -> int:
    from repro.ops.incidents import replay_2010_incident

    outcome = replay_2010_incident(args.enclosures)
    print(f"2010 incident replay, {outcome.n_enclosures}-enclosure design:")
    print(f"  worst effective erasures : {outcome.max_effective_erasures}")
    if outcome.journal_replay_failed:
        print(f"  journal replay           : FAILED")
        print(f"  files lost               : {outcome.files_lost:,}")
        print(f"  recovered                : {outcome.recovery_rate:.0%} "
              f"over {outcome.recovery_days:.1f} days")
    else:
        print(f"  journal replay           : tolerated, no data loss")
    return 0


def _cmd_placement(args) -> int:
    from repro.core.placement import evenly_spaced_placement, render_cabinet_map

    print(render_cabinet_map(evenly_spaced_placement()))
    return 0


def _cmd_workload(args) -> int:
    from repro.analysis.reporting import render_table
    from repro.analysis.workload_stats import characterize
    from repro.workloads.mixed import spider_mixed_workload

    if args.hours <= 0:
        raise CliError("--hours must be positive")
    _wl, trace = spider_mixed_workload(duration=args.hours * HOUR,
                                       seed=args.seed)
    print(render_table(["metric", "value"], characterize(trace).rows(),
                       title="Center-wide mixed workload (§II)"))
    return 0


def _cmd_interference(args) -> int:
    from repro.analysis.interference import measure_interference
    from repro.analysis.reporting import render_table

    result = measure_interference(seed=args.seed)
    print(render_table(["metric", "value"], result.rows(),
                       title="Checkpoint-vs-analytics interference (§II)"))
    return 0


def _cmd_sched(args) -> int:
    from repro.analysis.reporting import render_kv, render_table
    from repro.core.spider import build_spider2
    from repro.faults import FaultPlan
    from repro.sched import FacilityScheduler, JobMix, QosPolicy, generate_jobs

    if args.duration <= 0:
        raise CliError("--duration must be positive")
    if args.rate_scale <= 0:
        raise CliError("--rate-scale must be positive")
    if args.faults < 0:
        raise CliError("--faults must be non-negative")

    def run(policy):
        # Fresh system per run: fault injectors mutate it in place.
        system = build_spider2(seed=args.seed, build_clients=False)
        backbone = system.aggregate_bandwidth(fs_level=True)
        jobs = generate_jobs(JobMix().scaled(args.rate_scale),
                             duration=args.duration, seed=args.seed,
                             reference_bandwidth=backbone)
        plan = None
        if args.faults:
            plan = FaultPlan.random(system, duration=args.duration,
                                    n_faults=args.faults, seed=args.seed)
        return FacilityScheduler(system, jobs, policy=policy,
                                 fault_plan=plan, seed=args.seed).run()

    with _tracing(args.trace):
        for title, result in (
            ("QoS caps disabled (as-deployed)", run(QosPolicy.disabled())),
            ("QoS caps enabled (Lesson 1 knob)", run(QosPolicy())),
        ):
            print(render_table(
                ["class", "jobs", "done", "slowdown", "p95", "stretch",
                 "bw sat", "fairness"],
                result.class_rows(),
                title=f"Per-class outcomes — {title}"))
            rows = [
                ("jobs generated / submitted",
                 f"{result.n_jobs} / {result.n_submitted}"),
                ("finished / censored",
                 f"{result.n_finished} / {result.n_censored}"),
                ("fault events", result.n_fault_events),
                ("makespan", fmt_duration(result.makespan)),
                ("overall fairness (Jain)",
                 f"{result.overall_fairness:.3f}"),
            ]
            lp = result.latency
            if lp is not None:
                rows += [
                    ("analytics read p99, alone",
                     f"{lp.alone_p99 / MS:.1f} ms"),
                    ("analytics read p99, shared",
                     f"{lp.shared_p99 / MS:.1f} ms"),
                    ("p99 inflation", f"{lp.p99_inflation:.1f}x"),
                ]
            print(render_kv(rows, title="Run summary"))
            print()
    return 0


def _cmd_recovery(args) -> int:
    from repro.analysis.reporting import render_table
    from repro.lustre.recovery import simulate_recovery, simulate_router_failure

    with _tracing(args.trace):
        outcome = simulate_recovery(imperative=args.imperative,
                                    hp_journaling=args.hp_journaling,
                                    seed=args.seed)
        print(render_table(["metric", "value"], outcome.rows(),
                           title="OSS failover recovery (§IV-D)"))
        router = simulate_router_failure(arn=args.imperative, seed=args.seed)
        print()
        print(render_table(["metric", "value"], router.rows(),
                           title="Router failure"))
    return 0


def _cmd_suite(args) -> int:
    from repro.analysis.reporting import render_table
    from repro.core.spider import SPIDER2, build_spider2
    from repro.iobench.suite import AcceptanceSuite

    if not 0 <= args.ssu < SPIDER2.n_ssus:
        raise CliError(f"--ssu must be in [0, {SPIDER2.n_ssus - 1}]")
    system = build_spider2(seed=args.seed, build_clients=False)
    with _tracing(args.trace):
        report = AcceptanceSuite(system).run_ssu(args.ssu)
        print(render_table(["metric", "value"], report.rows(),
                           title=f"Acceptance suite, SSU {args.ssu} (§III-B)"))
    return 0


def _cmd_report(args) -> int:
    from repro.obs.report import render_layer_report
    from repro.obs.trace import read_chrome_trace

    try:
        snapshot = read_chrome_trace(args.trace).get("telemetry")
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read trace: {exc}") from exc
    if not snapshot:
        raise CliError(
            f"no telemetry snapshot embedded in {args.trace}; "
            f"re-record with a --trace-enabled subcommand")
    print(render_layer_report(snapshot))
    return 0


def _fault_plan(args):
    """``(plan_factory, duration)`` for --scenario: the scripted cases run
    to their own horizon; the rest draw --faults over --duration.  Checks
    the campaign flags (--threshold too) before any system is built."""
    from repro.faults import (
        FaultPlan,
        cable_failure_scenario,
        incident_2010_scenario,
    )

    if args.faults < 0:
        raise CliError("--faults must be non-negative")
    if args.duration <= 0:
        raise CliError("--duration must be positive")
    if not 0 < args.threshold < 1:
        raise CliError("--threshold must be in (0, 1)")
    if args.scenario == "cable":
        return cable_failure_scenario, None
    if args.scenario == "incident2010":
        return incident_2010_scenario, None

    def plan_factory(system):
        return FaultPlan.random(system, duration=args.duration,
                                n_faults=args.faults, seed=args.seed)

    return plan_factory, args.duration


def _print_remediation(outcome, title: str) -> None:
    """The closed-loop summary plus its per-class MTTD/MTTR table."""
    from repro.analysis.reporting import render_kv, render_table

    print()
    print(render_kv(outcome.rows(), title=title))
    if outcome.by_class:
        print()
        print(render_table(
            ["fault class", "remediated", "mean MTTD", "mean MTTR"],
            outcome.class_rows(),
            title="MTTD/MTTR decomposition per fault class"))


def _cmd_chaos(args) -> int:
    from repro.analysis.reporting import render_kv, render_table
    from repro.core.spider import build_spider1, build_spider2
    from repro.faults import FaultCampaign

    plan_factory, duration = _fault_plan(args)
    # The 2010 incident needs the five-enclosure Spider I geometry to
    # reproduce the RAID-tolerance breach; the other scenarios run on
    # Spider II.
    build = build_spider1 if args.scenario == "incident2010" else build_spider2
    system = build(seed=args.seed)
    remediation = None
    if args.remediate:
        from repro.resilience import RemediationPolicy

        remediation = RemediationPolicy(seed=args.seed)
    with _tracing(args.trace):
        campaign = FaultCampaign(
            system, plan_factory(system),
            duration=duration,
            threshold=args.threshold,
            remediation=remediation)
        result = campaign.run()

        rows = [(f"{t:>10,.0f}", fmt_bandwidth(bw), label)
                for t, bw, label in result.timeline]
        print(render_table(
            ["t (s)", "delivered bw", "event"], rows,
            title=f"Bandwidth-degradation timeline ({args.scenario})"))
        print()
        print(render_kv([
            ("faults injected / repaired",
             f"{result.n_injected} / {result.n_repaired}"),
            ("baseline bandwidth", fmt_bandwidth(result.baseline_bw)),
            ("worst-case bandwidth", fmt_bandwidth(result.worst_bw)),
            ("availability", f"{result.availability:.2%}"),
            (f"time below {result.threshold:.0%} of baseline",
             f"{result.time_below_threshold:,.0f} s "
             f"({result.below_threshold_fraction():.1%})"),
            ("unroutable probe flows", result.unroutable_flows),
        ], title="Campaign metrics"))
        if result.recovery_stats:
            worst = dict(result.recovery_times)
            print()
            print(render_table(
                ["fault class", "events", "mean recovery", "worst recovery"],
                [(cls, str(n), f"{mean:,.0f} s", f"{worst[cls]:,.0f} s")
                 for cls, n, mean in result.recovery_stats],
                title="Recovery time per fault class"))
        if result.remediation is not None:
            _print_remediation(result.remediation,
                               "Closed-loop remediation")
        print()
        print(render_table(
            ["classification", "incidents"],
            list(result.incident_counts),
            title="Health-checker incident triage (§IV-A)"))
    return 0


def _cmd_resilience(args) -> int:
    from repro.analysis.reporting import render_kv, render_table
    from repro.core.spider import build_spider2
    from repro.resilience import run_paired_study

    seed = args.seed
    plan_factory, duration = _fault_plan(args)
    with _tracing(args.trace):
        result = run_paired_study(
            lambda: build_spider2(seed=seed),
            plan_factory,
            seed=seed,
            duration=duration,
            threshold=args.threshold)
        print(render_table(
            ["metric", "manual", "automated", "standard-recovery"],
            result.rows(),
            title=f"Manual vs closed-loop remediation ({args.scenario})"))
        print()
        print(render_kv([
            ("blackout reduction",
             f"{result.blackout_reduction_seconds:,.0f} s"),
            ("availability gain", f"{result.availability_gain:+.4%}"),
        ], title="Automated vs manual delta"))
        _print_remediation(result.automated.remediation,
                           "Closed-loop pipeline (automated arm)")
    return 0


def _cmd_monitor(args) -> int:
    from repro.analysis.reporting import render_kv, render_table
    from repro.core.spider import build_spider2
    from repro.faults import FaultCampaign
    from repro.obs.overlay import MonitoringOverlay, OverlayConfig
    from repro.resilience import RemediationPolicy, run_mttd_study

    plan_factory, duration = _fault_plan(args)
    try:
        config = OverlayConfig(
            scrape_interval=args.scrape_interval,
            hop_latency=args.hop_latency,
            fan_in=args.fan_in,
            loss_probability=args.loss,
            rollup_interval=args.rollup_interval,
            seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    seed = args.seed
    with _tracing(args.trace):
        if args.study:
            result = run_mttd_study(
                lambda: build_spider2(seed=seed),
                plan_factory,
                seed=seed,
                duration=duration,
                threshold=args.threshold,
                base=config)
            print(render_table(
                ["metric", "analytic", "observed", "tight"],
                result.rows(),
                title=f"Analytic vs observed detection ({args.scenario})"))
            print()
            print(render_kv([
                ("monitoring-pipeline MTTD penalty",
                 f"{result.observed_penalty_seconds:+,.1f} s"),
                ("cadence/fan-in tightening gain",
                 f"{result.tightening_gain_seconds:,.1f} s"),
            ], title="Observed vs analytic deltas"))
            return 0

        system = build_spider2(seed=seed)
        plan = plan_factory(system)
        monitor = MonitoringOverlay(system, config)
        result = FaultCampaign(
            system, plan,
            duration=duration,
            threshold=args.threshold,
            remediation=RemediationPolicy(seed=seed),
            monitor=monitor).run()
        overlay = result.overlay
        assert overlay is not None
        print(render_kv(overlay.rows(),
                        title="In-band monitoring overlay"))
        if overlay.alerts:
            print()
            print(render_table(
                ["fired at", "rule", "source", "value"],
                overlay.alert_rows(),
                title="Alerts (overlay view, never ground truth)"))
        if result.remediation is not None:
            print()
            print(render_kv(
                result.remediation.rows(),
                title="Closed-loop remediation (overlay-backed detector)"))
        print()
        print(render_kv([
            ("faults injected / repaired",
             f"{result.n_injected} / {result.n_repaired}"),
            ("availability", f"{result.availability:.2%}"),
            ("worst-case bandwidth", fmt_bandwidth(result.worst_bw)),
        ], title="Campaign metrics"))
    return 0


def _cmd_meta(args) -> int:
    from repro.analysis.reporting import render_kv, render_table
    from repro.metatier import MetaStudySpec, run_meta_study, tradeoff_rows

    if args.files < 1:
        raise CliError("--files must be positive")
    if args.shards < 1:
        raise CliError("--shards must be positive")
    if args.stores < 1:
        raise CliError("--stores must be positive")
    if not (0.0 <= args.cache_hit <= 1.0):
        raise CliError("--cache-hit must be in [0, 1]")
    spec = MetaStudySpec(
        n_files=args.files,
        seed=args.seed,
        n_shards=args.shards,
        n_stores=args.stores,
        cache_hit_rate=args.cache_hit,
        with_faults=not args.no_faults,
    )
    with _tracing(args.trace):
        result = run_meta_study(spec)
        print(render_table(
            ["metric", "per-file (1 MDS)", f"aggregated ({spec.n_shards} MDT)"],
            result.rows(),
            title=f"Small-file metadata tier, {spec.n_files:,} files (A18)"))
        print()
        print(render_kv(result.baseline.rows(),
                        title="Per-file baseline"))
        print()
        print(render_kv(result.aggregated.rows(),
                        title="Aggregated tier (needles + DNE shards)"))
        print()
        print(render_table(
            ["scheme", "raw capacity", "read bw", "rebuild"],
            tradeoff_rows(),
            title="Warm-tier encoding tradeoff (f4 vs RAID-6+replica)"))
        print()
        print(render_kv([
            ("metadata throughput gain",
             f"{result.throughput_gain:,.1f}x"),
            ("MDS makespan removed",
             f"{result.mds_seconds_removed:,.1f} s"),
        ], title="Headline"))
    return 0


def _cmd_storm(args) -> int:
    from dataclasses import replace

    from repro.analysis.reporting import render_kv, render_table
    from repro.core.spider import SPIDER2, build_spider2
    from repro.network.storm import run_storm_study

    if args.clients < 1 or args.stripe < 1:
        raise CliError("--clients and --stripe must be positive")
    if args.link_bw <= 0:
        raise CliError("--link-bw must be positive")
    if not 0 < args.shed <= 1:
        raise CliError("--shed must be in (0, 1]")
    # The storm regime is scarce row bandwidth: the default --link-bw
    # models the per-node share of a Gemini row under contention, which
    # is what makes an all-to-one burst a *network* problem rather than
    # a storage one.
    spec = replace(SPIDER2, torus=replace(SPIDER2.torus,
                                          link_bw=args.link_bw * GB))
    seed = args.seed
    with _tracing(args.trace):
        try:
            result = run_storm_study(
                lambda: build_spider2(seed=seed, build_clients=False,
                                      spec=spec),
                seed=seed,
                n_storm_clients=args.clients,
                stripe=args.stripe,
                duration=args.duration,
                shed_fraction=args.shed,
            )
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    print(render_table(
        ["metric", "static", "flowlet"],
        result.rows(),
        title="Hot-spot storm survival, static vs flowlet routing (A19)"))
    print()
    print(render_kv([
        ("storm window",
         f"{result.storm_start:,.0f}-{result.storm_end:,.0f} s of "
         f"{result.duration:,.0f} s"),
        ("storm clients on the row", str(result.n_storm_clients)),
        ("torus link bandwidth", fmt_bandwidth(args.link_bw * GB)),
        ("probe p99 recovery", f"{result.recovery_factor:,.1f}x"),
    ], title="A19 headline"))
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.lint import (
        LintUsageError,
        resolve_rules,
        run_lint,
        sarif_report,
    )

    def _ids(raw: str | None) -> list[str] | None:
        if raw is None:
            return None
        return [s.strip() for s in raw.split(",") if s.strip()]

    try:
        report = run_lint(args.paths, select=_ids(args.select),
                          ignore=_ids(args.ignore), deep=args.deep)
        rules = resolve_rules(_ids(args.select), _ids(args.ignore))
    except LintUsageError as exc:
        raise CliError(str(exc)) from exc
    findings = report.findings
    if args.format == "json":
        # The plain-array schema is frozen for the fast pass; --deep
        # wraps it in an object carrying the run's cache accounting.
        if report.deep:
            print(json.dumps({
                "findings": [f.to_dict() for f in findings],
                "files": report.files,
                "cache": {"hits": report.cache_hits,
                          "misses": report.cache_misses},
            }, indent=2))
        else:
            print(json.dumps([f.to_dict() for f in findings], indent=2))
    elif args.format == "sarif":
        print(json.dumps(sarif_report(findings, rules), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(f"{len(findings)} finding(s)" if findings
              else "clean: no findings")
    return 1 if findings else 0


def _cmd_reliability(args) -> int:
    from repro.analysis.reporting import render_table
    from repro.ops.reliability import ReliabilitySim

    if args.years <= 0:
        raise CliError("--years must be positive")
    sim = ReliabilitySim(declustered=args.declustered, seed=args.seed)
    report = sim.run(years=args.years)
    mode = "declustered" if args.declustered else "conventional"
    print(render_table(["metric", "value"], report.rows(),
                       title=f"Failure/rebuild exposure ({mode} rebuilds)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``spider-repro`` argument parser (one subparser per
    activity listed in the module docstring)."""
    parser = argparse.ArgumentParser(
        prog="spider-repro",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--seed", type=int, default=2014,
                        help="simulation seed (default 2014)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inventory", help="Figure 1 census + hero numbers")
    p.add_argument("--system", choices=("spider1", "spider2"),
                   default="spider2")
    p.set_defaults(fn=_cmd_inventory)

    p = sub.add_parser("layers", help="Lesson 12 bottom-up layer profile")
    p.add_argument("--block", action="store_true",
                   help="block-level profile (skip fs layers)")
    p.set_defaults(fn=_cmd_layers)

    p = sub.add_parser("ior", help="one IOR run")
    p.add_argument("-n", "--n-processes", type=int, default=1008)
    p.add_argument("--ppn", type=int, default=16)
    p.add_argument("--transfer-size", type=int, default=1024,
                   help="per-process transfer size in KiB (default 1024)")
    p.add_argument("--placement", choices=("random", "optimal"),
                   default="random")
    p.add_argument("--upgraded", action="store_true",
                   help="apply the 2014 controller upgrade first")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome-trace (Perfetto) file; the run "
                        "executes on a simulation engine")
    p.set_defaults(fn=_cmd_ior)

    p = sub.add_parser("scaling", help="the Figure 4 series")
    p.add_argument("--ppn", type=int, default=16)
    p.add_argument("--upgraded", action="store_true")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome-trace (Perfetto) file")
    p.set_defaults(fn=_cmd_scaling)

    p = sub.add_parser("culling", help="the §V-A culling campaign")
    p.add_argument("--threshold", type=float, default=0.05)
    p.set_defaults(fn=_cmd_culling)

    p = sub.add_parser("incident", help="the 2010 incident replay")
    p.add_argument("--enclosures", type=int, choices=(5, 10), default=5)
    p.set_defaults(fn=_cmd_incident)

    p = sub.add_parser("placement", help="the Figure 2 cabinet map")
    p.set_defaults(fn=_cmd_placement)

    p = sub.add_parser("workload", help="the §II characterization")
    p.add_argument("--hours", type=float, default=2.0)
    p.set_defaults(fn=_cmd_workload)

    p = sub.add_parser("interference", help="§II latency contention study")
    p.set_defaults(fn=_cmd_interference)

    p = sub.add_parser("sched",
                       help="center-wide multi-tenant scheduler + QoS caps")
    p.add_argument("--duration", type=float, default=DAY,
                   help="arrival window in seconds (default 1 day)")
    p.add_argument("--rate-scale", type=float, default=1.0,
                   help="multiply every class arrival rate (default 1.0)")
    p.add_argument("--faults", type=int, default=0,
                   help="inject a random fault campaign under load "
                        "(default 0: fault-free)")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome-trace (Perfetto) file")
    p.set_defaults(fn=_cmd_sched)

    p = sub.add_parser("recovery", help="failover + router-failure recovery")
    p.add_argument("--imperative", action="store_true",
                   help="imperative recovery / ARN enabled")
    p.add_argument("--hp-journaling", action="store_true")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome-trace (Perfetto) file with the "
                        "reconnect/replay/reroute spans")
    p.set_defaults(fn=_cmd_recovery)

    p = sub.add_parser("suite", help="the §III-B acceptance suite on one SSU")
    p.add_argument("--ssu", type=int, default=0)
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome-trace (Perfetto) file")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("report",
                       help="Lesson-12 layer table from a recorded trace")
    p.add_argument("trace", help="Chrome-trace file written by --trace")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("chaos", help="a fault-injection campaign")
    p.add_argument("--scenario", choices=("random", "cable", "incident2010"),
                   default="random",
                   help="random seeded campaign, the §IV-A cable case, or "
                        "the 2010 enclosure incident (default random)")
    p.add_argument("--faults", type=int, default=8,
                   help="fault count for the random scenario (default 8)")
    p.add_argument("--duration", type=float, default=DAY,
                   help="campaign window in seconds for the random "
                        "scenario (default 1 day)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="degradation threshold as a fraction of baseline "
                        "(default 0.5)")
    p.add_argument("--remediate", action="store_true",
                   help="close the loop: automated detection + playbook "
                        "repairs race the scripted plan")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome-trace (Perfetto) file")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("resilience",
                       help="manual vs closed-loop remediation paired study")
    p.add_argument("--scenario", choices=("cable", "week"), default="cable",
                   help="the §IV-A cable case or a random week-long plan "
                        "(default cable)")
    p.add_argument("--faults", type=int, default=10,
                   help="fault count for the week scenario (default 10)")
    p.add_argument("--duration", type=float, default=7 * DAY,
                   help="plan window in seconds for the week scenario "
                        "(default 7 days)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="degradation threshold as a fraction of baseline "
                        "(default 0.5)")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome-trace (Perfetto) file with the "
                        "detect/decide/act/verify spans")
    p.set_defaults(fn=_cmd_resilience)

    p = sub.add_parser("monitor",
                       help="in-band monitoring overlay (MELT-style)")
    p.add_argument("--scenario", choices=("cable", "random"), default="cable",
                   help="the §IV-A cable case or a random seeded campaign "
                        "(default cable)")
    p.add_argument("--faults", type=int, default=8,
                   help="fault count for the random scenario (default 8)")
    p.add_argument("--duration", type=float, default=DAY,
                   help="campaign window in seconds for the random "
                        "scenario (default 1 day)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="degradation threshold as a fraction of baseline "
                        "(default 0.5)")
    p.add_argument("--scrape-interval", type=float, default=30.0,
                   help="per-agent scrape cadence in seconds (default 30)")
    p.add_argument("--rollup-interval", type=float, default=60.0,
                   help="collector rollup window in seconds (default 60)")
    p.add_argument("--fan-in", type=int, default=8,
                   help="aggregation-tree fan-in bound (default 8)")
    p.add_argument("--hop-latency", type=float, default=1.0,
                   help="per-hop tree propagation latency in seconds "
                        "(default 1)")
    p.add_argument("--loss", type=float, default=0.02,
                   help="per-batch loss probability (default 0.02)")
    p.add_argument("--study", action="store_true",
                   help="run the A16 triple: analytic vs observed vs "
                        "tightened-overlay MTTD on the same plan")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome-trace (Perfetto) file with the "
                        "overlay-sweep spans")
    p.set_defaults(fn=_cmd_monitor)

    p = sub.add_parser("meta",
                       help="small-file/metadata tier paired study (A18)")
    p.add_argument("--files", type=int, default=_META_DEFAULT_FILES,
                   help="tiny files in the untar storm (default 1,000,000)")
    p.add_argument("--shards", type=int, default=4,
                   help="MDT shards in the aggregated arm (default 4)")
    p.add_argument("--stores", type=int, default=2,
                   help="segment stores in the aggregated arm (default 2)")
    p.add_argument("--cache-hit", type=float, default=0.8,
                   help="needle-cache hit rate (default 0.8, the Haystack "
                        "number)")
    p.add_argument("--no-faults", action="store_true",
                   help="skip the scripted MDS-overload / OST-fill faults")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome-trace (Perfetto) file with the "
                        "untar/training/arm spans")
    p.set_defaults(fn=_cmd_meta)

    p = sub.add_parser("storm",
                       help="hot-spot storm survival paired study (A19)")
    p.add_argument("--clients", type=int, default=24,
                   help="storm readers clustered on one torus row "
                        "(default 24)")
    p.add_argument("--stripe", type=int, default=12,
                   help="OSTs the shared dataset is striped over "
                        "(default 12)")
    p.add_argument("--duration", type=float, default=2 * HOUR,
                   help="timeline length in seconds (default 2 hours)")
    p.add_argument("--link-bw", type=float, default=0.5,
                   help="torus link bandwidth in GB/s — the scarce-row "
                        "regime that makes the storm a network problem "
                        "(default 0.5)")
    p.add_argument("--shed", type=float, default=0.05,
                   help="degraded-mode cap on the storm class as a "
                        "fraction of aggregate bandwidth (default 0.05)")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome-trace (Perfetto) file with the "
                        "overlay-sweep spans")
    p.set_defaults(fn=_cmd_storm)

    p = sub.add_parser("reliability", help="failure/rebuild exposure")
    p.add_argument("--years", type=float, default=10.0)
    p.add_argument("--declustered", action="store_true")
    p.set_defaults(fn=_cmd_reliability)

    p = sub.add_parser("lint", help="spider-lint invariant checker")
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or directories to lint (default src/repro)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text",
                   help="findings as file:line:col lines, a JSON array, "
                        "or a SARIF 2.1.0 log for code scanning")
    p.add_argument("--select", metavar="IDS",
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--ignore", metavar="IDS",
                   help="comma-separated rule ids to skip")
    p.add_argument("--deep", action="store_true",
                   help="run the whole-program dataflow pass "
                        "(epoch-safety, telemetry-taint, dirty-state, "
                        "cross-iter-order)")
    p.set_defaults(fn=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse ``argv``, run the subcommand, return its exit
    status (``CliError`` prints to stderr and exits 1, no traceback)."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"spider-repro: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
