"""The cross-layer telemetry spine: instruments, tracer, exporters,
engine hooks, per-layer flow telemetry, and the trace/report CLI surface —
plus the regression fixes that rode along (MetricsDb timestamp ties and
counter resets, Engine.every first-tick timing)."""

import json
import math

import pytest

from repro.monitoring.metricsdb import MetricsDb
from repro.obs.instruments import (
    Histogram,
    Telemetry,
    get_telemetry,
    use_telemetry,
)
from repro.obs.report import (
    PREFIX_TO_PROFILE,
    bottleneck_layer,
    layer_usage_from_snapshot,
    render_layer_report,
)
from repro.obs.trace import (
    Tracer,
    instrument_engine,
    read_chrome_trace,
    read_jsonl,
    use_tracer,
)
from repro.sim.engine import Engine


# ---------------------------------------------------------------- instruments


class TestCounterGauge:
    def test_counter_accumulates(self):
        t = Telemetry()
        t.counter("bytes", "ost0").add(10.0)
        t.counter("bytes", "ost0").add(5.0)
        assert t.counter("bytes", "ost0").value == 15.0

    def test_keyed_by_name_and_source(self):
        t = Telemetry()
        t.counter("bytes", "a").add(1.0)
        t.counter("bytes", "b").add(2.0)
        assert t.counter("bytes", "a").value == 1.0
        assert t.counter("bytes", "b").value == 2.0

    def test_gauge_last_value_wins(self):
        t = Telemetry()
        t.gauge("util").set(0.5)
        t.gauge("util").set(0.9)
        assert t.gauge("util").value == 0.9

    def test_disabled_registry_records_nothing(self):
        t = Telemetry(enabled=False)
        t.counter("c").add(10.0)
        t.gauge("g").set(1.0)
        t.histogram("h").observe(1.0)
        assert t.counter("c").value == 0.0
        assert t.gauge("g").value == 0.0
        assert t.histogram("h").count == 0


class TestHistogram:
    def test_bucket_boundaries(self):
        h = Telemetry().histogram("h", floor=1.0, growth=2.0)
        # bucket 0 is [0, floor]; bucket i is (floor*2^(i-1), floor*2^i]
        assert h._bucket_index(0.0) == 0
        assert h._bucket_index(1.0) == 0
        assert h._bucket_index(1.5) == 1
        assert h._bucket_index(2.0) == 1
        assert h._bucket_index(2.0000001) == 2
        assert h._bucket_index(4.0) == 2
        assert h.bucket_upper_bound(3) == 8.0

    def test_mean_and_extremes(self):
        h = Telemetry().histogram("h", floor=1.0)
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(4.0)
        assert h.min == 1.0
        assert h.max == 10.0

    def test_percentile_within_bucket_error(self):
        h = Telemetry().histogram("h", floor=1.0, growth=2.0)
        for v in range(1, 101):
            h.observe(float(v))
        # log-scale estimate: within one growth factor of the true value,
        # and never outside the observed range.
        for p, true in ((50, 50.0), (90, 90.0), (99, 99.0)):
            est = h.percentile(p)
            assert true / 2.0 <= est <= 2.0 * true
            assert h.min <= est <= h.max

    def test_percentile_single_value_clamps(self):
        h = Telemetry().histogram("h", floor=1.0)
        h.observe(5.0)
        # bucket upper bound is 8, but the clamp keeps it at the observation
        assert h.percentile(50) == 5.0
        assert h.percentile(99) == 5.0

    def test_percentile_empty_and_bounds(self):
        h = Telemetry().histogram("h")
        assert h.percentile(99) == 0.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_rejects_bad_observations(self):
        h = Telemetry().histogram("h")
        with pytest.raises(ValueError):
            h.observe(-1.0)
        with pytest.raises(ValueError):
            h.observe(float("nan"))


class TestTelemetryRegistry:
    def test_snapshot_round_trips_through_json(self):
        t = Telemetry()
        t.counter("c", "s").add(3.0)
        t.gauge("g").set(1.5)
        t.histogram("h").observe(0.01)
        snap = json.loads(json.dumps(t.snapshot()))
        assert snap["counters"] == [{"name": "c", "source": "s", "value": 3.0}]
        assert snap["gauges"][0]["value"] == 1.5
        assert snap["histograms"][0]["count"] == 1

    def test_use_telemetry_scopes_the_default(self):
        before = get_telemetry()
        mine = Telemetry()
        with use_telemetry(mine):
            assert get_telemetry() is mine
        assert get_telemetry() is before

    def test_publish_bridges_into_metricsdb(self):
        t = Telemetry()
        t.counter("ost.write_bytes", "ost:0").add(100.0)
        t.gauge("flow.layer.max_util", "ost").set(0.8)
        h = t.histogram("mds.service_seconds", "mds0")
        h.observe(0.002)
        db = MetricsDb()
        written = t.publish(db, now=30.0)
        assert written == 2 + 4
        assert db.latest("ost.write_bytes", "ost:0").value == 100.0
        assert db.latest("flow.layer.max_util", "ost").value == 0.8
        assert db.latest("mds.service_seconds.count", "mds0").value == 1.0
        assert db.latest("mds.service_seconds.p99", "mds0").value == \
            pytest.approx(0.002)


# --------------------------------------------------------------------- tracer


class TestTracer:
    def test_span_nesting_depth_and_parent(self):
        tr = Tracer()
        with tr.span("outer", "test"):
            with tr.span("inner", "test"):
                pass
        inner, outer = tr.spans  # inner closes first
        assert inner.name == "inner" and inner.depth == 1
        assert inner.parent == "outer"
        assert outer.name == "outer" and outer.depth == 0
        assert outer.parent is None

    def test_sim_clock_stamps_spans(self):
        eng = Engine()
        tr = Tracer()
        tr.attach_engine(eng)

        def _proc():
            h = tr.begin("work", "test")
            yield 5.0
            tr.end(h)

        eng.process(_proc())
        eng.run()
        (span,) = tr.spans
        assert span.t0_sim == 0.0
        assert span.t1_sim == 5.0
        assert span.sim_duration == 5.0
        assert span.wall_duration >= 0.0

    def test_unbalanced_end_closes_intervening_spans(self):
        tr = Tracer()
        outer = tr.begin("outer")
        tr.begin("inner")
        tr.end(outer)
        assert [s.name for s in tr.spans] == ["inner", "outer"]
        assert tr._stack == []

    def test_open_spans_may_overlap_arbitrarily(self):
        tr = Tracer()
        a = tr.open("a")
        b = tr.open("b")
        tr.end(a)  # a closes before b, no forced closure of b
        assert [s.name for s in tr.spans] == ["a"]
        tr.end(b)
        assert [s.name for s in tr.spans] == ["a", "b"]

    def test_disabled_tracer_is_inert(self):
        tr = Tracer(enabled=False)
        with tr.span("x"):
            tr.instant("y")
        assert tr.spans == [] and tr.instants == []

    def test_chrome_trace_round_trip(self, tmp_path):
        tr = Tracer()
        with tr.span("solve", "flow", n=3):
            tr.instant("saturated:ost:1", "flow")
        t = Telemetry()
        t.counter("ost.write_bytes", "ost:0").add(42.0)
        path = tmp_path / "trace.json"
        tr.write_chrome_trace(path, telemetry=t)

        data = read_chrome_trace(path)
        events = data["traceEvents"]
        x = [e for e in events if e["ph"] == "X"]
        i = [e for e in events if e["ph"] == "i"]
        c = [e for e in events if e["ph"] == "C"]
        assert x[0]["name"] == "solve" and x[0]["cat"] == "flow"
        assert x[0]["args"]["n"] == 3
        assert i[0]["name"] == "saturated:ost:1"
        assert c[0]["name"] == "ost.write_bytes"
        assert c[0]["cat"] == "ost"  # layer = metric-name prefix
        assert data["telemetry"]["counters"][0]["value"] == 42.0

    def test_read_chrome_trace_rejects_non_trace(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            read_chrome_trace(path)

    def test_jsonl_round_trip(self, tmp_path):
        tr = Tracer()
        with tr.span("a", "cat1", k="v"):
            pass
        path = tmp_path / "spans.jsonl"
        tr.write_jsonl(path)
        rows = read_jsonl(path)
        assert len(rows) == 1
        assert rows[0]["name"] == "a"
        assert rows[0]["cat"] == "cat1"
        assert rows[0]["args"] == {"k": "v"}


class TestEngineHooks:
    def test_event_and_process_counting(self):
        eng = Engine()
        t = Telemetry()
        instrument_engine(eng, telemetry=t)

        def _proc():
            yield 1.0
            yield 2.0

        eng.process(_proc(), name="p")
        eng.run()
        # three steps: start, after 1.0, after 2.0 (StopIteration)
        assert eng.process_event_counts["p"] == 3
        assert t.counter("engine.events").value == eng.events_processed

    def test_process_lifecycle_spans(self):
        eng = Engine()
        tr = Tracer()
        instrument_engine(eng, tracer=tr)

        def _proc():
            yield 4.0

        eng.process(_proc(), name="worker")
        eng.run()
        spans = [s for s in tr.spans if s.cat == "engine"]
        assert [s.name for s in spans] == ["process:worker"]
        assert spans[0].sim_duration == 4.0
        assert spans[0].args["steps"] == 2

    def test_hooks_do_not_perturb_the_run(self):
        def _workload(eng):
            order = []

            def _proc(tag, delay):
                yield delay
                order.append((tag, eng.now))
                yield delay

            eng.process(_proc("a", 1.0), name="a")
            eng.process(_proc("b", 0.5), name="b")
            eng.run()
            return order, eng.events_processed

        plain = _workload(Engine())
        hooked_eng = Engine()
        instrument_engine(hooked_eng, telemetry=Telemetry(), tracer=Tracer())
        hooked = _workload(hooked_eng)
        assert plain == hooked


# ------------------------------------------------------ regressions (bugfixes)


class TestMetricsDbRegressions:
    def test_equal_timestamps_accepted(self):
        db = MetricsDb()
        db.insert("m", "s", 5.0, 1.0)
        db.insert("m", "s", 5.0, 2.0)  # two pollers, same instant: legal
        assert db.latest("m", "s").value == 2.0

    def test_strictly_out_of_order_still_rejected(self):
        db = MetricsDb()
        db.insert("m", "s", 5.0, 1.0)
        with pytest.raises(ValueError):
            db.insert("m", "s", 4.999, 1.0)

    def test_rate_survives_counter_reset(self):
        db = MetricsDb()
        # counter climbs, resets (controller reboot), climbs again
        db.insert("bytes", "c", 0.0, 1000.0)
        db.insert("bytes", "c", 10.0, 2000.0)
        db.insert("bytes", "c", 20.0, 0.0)  # reset
        db.insert("bytes", "c", 30.0, 500.0)
        rate = db.rate("bytes", "c")
        assert rate >= 0.0
        # window restarts at the reset: 500 bytes over the last 10 s
        assert rate == pytest.approx(50.0)

    def test_rate_without_reset_unchanged(self):
        db = MetricsDb()
        db.insert("bytes", "c", 0.0, 0.0)
        db.insert("bytes", "c", 10.0, 1000.0)
        assert db.rate("bytes", "c") == pytest.approx(100.0)

    def test_rate_all_points_after_reset_coincident(self):
        db = MetricsDb()
        db.insert("bytes", "c", 10.0, 1000.0)
        db.insert("bytes", "c", 10.0, 0.0)  # reset at the same timestamp
        assert db.rate("bytes", "c") == 0.0


class TestEngineEveryRegression:
    def test_first_tick_at_requested_start(self):
        eng = Engine()
        ticks = []
        eng.every(10.0, lambda: ticks.append(eng.now), start=0.0)
        eng.run(until=35.0)
        assert ticks == [0.0, 10.0, 20.0, 30.0]

    def test_start_in_past_clamps_to_now(self):
        eng = Engine()
        eng.run(until=5.0)  # advance the clock
        ticks = []
        eng.every(10.0, lambda: ticks.append(eng.now), start=3.0)
        eng.run(until=40.0)
        assert ticks == [5.0, 15.0, 25.0, 35.0]

    def test_default_start_is_one_interval_out(self):
        eng = Engine()
        ticks = []
        eng.every(10.0, lambda: ticks.append(eng.now))
        eng.run(until=25.0)
        assert ticks == [10.0, 20.0]


# ------------------------------------------------- flow + end-to-end telemetry


def _ior_run(system, n=96, **kwargs):
    from repro.iobench.ior import IorRun

    return IorRun(system, n_processes=n, ppn=16, placement="optimal", **kwargs)


class TestFlowTelemetry:
    def test_flow_result_gains_rounds_and_saturation_order(self, mini_system):
        result = _ior_run(mini_system).run()
        assert result is not None
        # the solver metadata rides on FlowResult
        from repro.core.path import PathBuilder, Transfer

        builder = PathBuilder(mini_system)
        transfers = _ior_run(mini_system)._build_transfers()
        flow_result = builder.solve(transfers)
        assert flow_result.rounds >= 1
        assert isinstance(flow_result.saturation_order, tuple)

    def test_solver_records_layer_gauges(self, mini_system):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            _ior_run(mini_system).run()
        usages = layer_usage_from_snapshot(telemetry.snapshot())
        prefixes = {u.prefix for u in usages}
        assert {"client", "oss", "couplet", "ost"} <= prefixes
        for u in usages:
            assert 0.0 <= u.max_util <= 1.0 + 1e-9
            assert u.load <= u.capacity * (1 + 1e-9)
        assert telemetry.counter("flow.solves").value == 1.0

    def test_telemetry_on_off_runs_identical(self, mini_system):
        def _measure(traced):
            eng = Engine()
            run = _ior_run(mini_system)
            if not traced:
                result = run.run(eng)
                return (result.aggregate_bw, result.bottleneck_components,
                        eng.events_processed, dict(eng.process_event_counts))
            telemetry, tracer = Telemetry(), Tracer()
            with use_telemetry(telemetry), use_tracer(tracer):
                instrument_engine(eng, telemetry=telemetry, tracer=tracer)
                result = run.run(eng)
            return (result.aggregate_bw, result.bottleneck_components,
                    eng.events_processed, dict(eng.process_event_counts))

        assert _measure(False) == _measure(True)

    def test_disabled_telemetry_records_nothing_on_hot_path(self, mini_system):
        registry = get_telemetry()
        before = len(registry.counters())
        _ior_run(mini_system).run()
        assert len(registry.counters()) == before


class TestRaidRebuildSpans:
    def test_rebuild_start_stop_span(self):
        import numpy as np

        from repro.hardware.disk import DiskPopulation
        from repro.hardware.raid import RaidGeometry, RaidGroup
        from repro.sim.rng import RngStreams

        pop = DiskPopulation(40, rng=RngStreams(0), block_slow_fraction=0.0,
                             fs_slow_fraction=0.0, healthy_sigma=0.0)
        group = RaidGroup(RaidGeometry(), pop, list(range(10)))
        tracer, telemetry = Tracer(), Telemetry()
        with use_tracer(tracer), use_telemetry(telemetry):
            group.erase_member(3)
            group.restore_member(3)
            group.finish_rebuild(3)
        (span,) = [s for s in tracer.spans if s.cat == "raid"]
        assert span.name == f"rebuild:{group.name}[3]"
        assert span.args["position"] == 3
        assert telemetry.counter("raid.rebuilds_started", group.name).value == 1.0
        assert telemetry.counter("raid.rebuilds_finished", group.name).value == 1.0


class TestMdsTelemetry:
    def test_service_latency_histogram(self, mini_system):
        from repro.lustre.mds import OpMix

        fs = next(iter(mini_system.filesystems.values()))
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            t = fs.mds.service_time(OpMix(creates=100))
        h = telemetry.histogram("mds.service_seconds", fs.mds.name)
        assert h.count == 1
        assert h.mean == pytest.approx(t / 100)
        assert telemetry.counter("mds.ops", fs.mds.name).value == 100.0


# ------------------------------------------------------------ report + CLI


class TestReport:
    def test_bottleneck_prefers_saturated_aggregate_util(self):
        snapshot = {
            "gauges": [
                {"name": "flow.layer.load", "source": "router", "value": 26.0},
                {"name": "flow.layer.capacity", "source": "router", "value": 100.0},
                {"name": "flow.layer.max_util", "source": "router", "value": 1.0},
                {"name": "flow.layer.saturated", "source": "router", "value": 41.0},
                {"name": "flow.layer.load", "source": "couplet", "value": 50.0},
                {"name": "flow.layer.capacity", "source": "couplet", "value": 100.0},
                {"name": "flow.layer.max_util", "source": "couplet", "value": 1.0},
                {"name": "flow.layer.saturated", "source": "couplet", "value": 18.0},
            ],
        }
        usages = layer_usage_from_snapshot(snapshot)
        assert [u.prefix for u in usages] == ["router", "couplet"]  # path order
        assert bottleneck_layer(usages).prefix == "couplet"

    def test_bottleneck_demand_limited_falls_back_to_hottest(self):
        snapshot = {
            "gauges": [
                {"name": "flow.layer.load", "source": "client", "value": 10.0},
                {"name": "flow.layer.capacity", "source": "client", "value": 100.0},
                {"name": "flow.layer.max_util", "source": "client", "value": 0.9},
                {"name": "flow.layer.saturated", "source": "client", "value": 0.0},
                {"name": "flow.layer.load", "source": "ost", "value": 10.0},
                {"name": "flow.layer.capacity", "source": "ost", "value": 100.0},
                {"name": "flow.layer.max_util", "source": "ost", "value": 0.4},
                {"name": "flow.layer.saturated", "source": "ost", "value": 0.0},
            ],
        }
        bn = bottleneck_layer(layer_usage_from_snapshot(snapshot))
        assert bn.prefix == "client"

    def test_render_handles_empty_snapshot(self):
        assert "no flow-solver telemetry" in render_layer_report({})

    def test_render_full_report(self, mini_system):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            _ior_run(mini_system).run()
        text = render_layer_report(telemetry.snapshot())
        assert "bottleneck layer:" in text
        assert "Layer utilization" in text


class TestCliTraceReport:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("trace") / "t.json"
        rc = main(["ior", "-n", "6048", "--placement", "optimal",
                   "--trace", str(path)])
        assert rc == 0
        return path

    def test_trace_has_five_plus_layers(self, trace_path):
        data = read_chrome_trace(trace_path)
        cats = {e.get("cat") for e in data["traceEvents"]
                if e.get("ph") in ("X", "i", "C")}
        layer_cats = cats & {"engine", "flow", "mds", "iobench",
                             "lnet", "oss", "ost", "raid"}
        assert len(layer_cats) >= 5, sorted(cats)
        # sim-time spans landed at real simulated times
        write = [e for e in data["traceEvents"]
                 if e.get("ph") == "X" and e["name"] == "ior.write_phase"]
        assert write and write[0]["dur"] == pytest.approx(30.0 * 1e6)

    def test_report_agrees_with_layer_profile(self, trace_path, capsys):
        from repro.analysis.layers import profile_layers
        from repro.cli import main
        from repro.core.spider import build_spider2

        data = read_chrome_trace(trace_path)
        usages = layer_usage_from_snapshot(data["telemetry"])
        observed = bottleneck_layer(usages)
        analytical = profile_layers(
            build_spider2(seed=2014, build_clients=False)).bottleneck_layer()
        assert PREFIX_TO_PROFILE[observed.prefix] == analytical.name

        rc = main(["report", str(trace_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bottleneck layer:" in out

    def test_report_rejects_traceless_file(self, tmp_path, capsys):
        from repro.cli import main

        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"traceEvents": []}))
        assert main(["report", str(bare)]) == 1
