"""In-band monitoring overlay: tree packing, scraping, windowed rollups,
alerting, and the non-omniscient observed detector."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultCampaign
from repro.faults.events import FaultClass, PlannedFault
from repro.faults.plan import cable_failure_scenario
from repro.obs.instruments import Telemetry, use_telemetry
from repro.obs.overlay.collector import Rollup
from repro.obs.overlay import (
    AggregationTree,
    AlertEngine,
    Batch,
    BurnRateRule,
    CollectorSink,
    MonitoringOverlay,
    OverlayConfig,
    Probe,
    ProbeGroup,
    Sample,
    Scraper,
    ThresholdRule,
    probes_for_system,
)
from repro.obs.report import render_layer_report
from repro.resilience.detector import DetectionModel
from repro.resilience import RemediationPolicy, run_mttd_study
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.units import HOUR
from tests.conftest import fresh_system


class TestOverlayConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            OverlayConfig(scrape_interval=0.0)
        with pytest.raises(ValueError):
            OverlayConfig(fan_in=1)
        with pytest.raises(ValueError):
            OverlayConfig(loss_probability=1.0)
        with pytest.raises(ValueError):
            OverlayConfig(hop_latency=-1.0)

    def test_staleness_default_is_two_sweeps(self):
        overlay = MonitoringOverlay(fresh_system(),
                                    OverlayConfig(scrape_interval=20.0))
        assert overlay.collector.staleness_limit == pytest.approx(40.0)

    def test_tightened_scales_cadence_and_fan_in(self):
        base = OverlayConfig(scrape_interval=30.0, fan_in=8,
                             loss_probability=0.05, seed=3)
        tight = base.tightened()
        assert tight.scrape_interval == pytest.approx(10.0)
        assert tight.fan_in == 16
        assert (tight.seed, tight.loss_probability, tight.hop_latency,
                tight.rollup_interval) \
            == (base.seed, base.loss_probability, base.hop_latency,
                base.rollup_interval)


class TestAggregationTree:
    def test_agents_reach_root(self):
        tree = AggregationTree(
            [("a", 0), ("b", 0), ("c", 1)], n_leaves=2, n_cores=2, fan_in=4)
        for agent in tree.agents:
            assert tree.depth_of(agent) >= 2  # agent -> leaf -> ... -> root
        assert tree.depth_of("collector") == 0

    def test_fan_in_bound_holds_everywhere(self):
        agents = [(f"a{i:02d}", 0) for i in range(20)]
        tree = AggregationTree(agents, n_leaves=1, n_cores=1, fan_in=3)
        for node in tree.parent:
            assert len(tree.children_of(node)) <= 3

    def test_wider_fan_in_strictly_shallows_the_tree(self):
        agents = [(f"a{i:02d}", 0) for i in range(20)]
        depths = [
            AggregationTree(agents, n_leaves=1, n_cores=1,
                            fan_in=f).max_depth
            for f in (2, 4, 16)
        ]
        assert depths[0] > depths[1] > depths[2]

    def test_relays_only_when_needed(self):
        small = AggregationTree([("a", 0), ("b", 0)],
                                n_leaves=1, n_cores=1, fan_in=8)
        assert small.n_relays == 0
        packed = AggregationTree([(f"a{i}", 0) for i in range(9)],
                                 n_leaves=1, n_cores=1, fan_in=2)
        assert packed.n_relays > 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            AggregationTree([], n_leaves=1, n_cores=1, fan_in=2)
        with pytest.raises(ValueError):
            AggregationTree([("a", 5)], n_leaves=2, n_cores=1, fan_in=2)
        with pytest.raises(ValueError):
            AggregationTree([("a", 0), ("a", 0)],
                            n_leaves=1, n_cores=1, fan_in=2)
        with pytest.raises(ValueError):
            AggregationTree([("a", 0)], n_leaves=1, n_cores=1, fan_in=1)


class TestScraper:
    def test_probe_requires_mon_prefix(self):
        with pytest.raises(ValueError):
            Probe("cable_ok", "x", lambda: 1.0)

    def test_sweep_reads_live_ground_truth(self, mini_system):
        scrapers = probes_for_system(mini_system)
        ssu0 = next(s for s in scrapers if s.name == "ssu00")
        healthy = {(s.metric, s.source): s.value for s in ssu0.sweep(0.0)}
        oss = mini_system.osses[0].name
        assert healthy[("mon.cable_ok", oss)] == 1.0
        assert healthy[("mon.couplet_bw_frac", "ssu00")] \
            == pytest.approx(1.0)
        mini_system.fabric.fail_cable(oss)
        mini_system.ssus[0].couplet.fail_controller(0)
        hurt = {(s.metric, s.source): s.value for s in ssu0.sweep(30.0)}
        assert hurt[("mon.cable_ok", oss)] == 0.0
        assert hurt[("mon.couplet_bw_frac", "ssu00")] \
            == pytest.approx(0.5)

    def test_inventory_covers_every_layer(self, mini_system):
        scrapers = probes_for_system(mini_system)
        names = [s.name for s in scrapers]
        assert names == sorted(names)
        assert {"ssu00", "ssu01", "ssu02", "ssu03"} <= set(names)
        assert "rtr000" in names and "flowstats" in names
        assert any(n.endswith("-mds") for n in names)

    def test_probe_group_is_one_array_read_per_sweep(self):
        reads = []

        def read():
            reads.append(1)
            return np.array([0.5, 0.25])

        agent = Scraper("aux", 0, [
            ProbeGroup("mon.link_util", ("l1", "l2"), read),
            Probe("mon.a", "s", lambda: 2.0),
        ])
        first, second = agent.sweep(30.0), agent.sweep(60.0)
        assert len(reads) == 2
        assert first.keys is second.keys is agent.keys  # built once
        assert tuple(first) == (
            Sample("mon.a", "s", 2.0, 30.0),
            Sample("mon.link_util", "l1", 0.5, 30.0),
            Sample("mon.link_util", "l2", 0.25, 30.0),
        )
        with pytest.raises(ValueError):
            ProbeGroup("link_util", ("l1",), read)

    def test_mirror_rides_only_with_telemetry_enabled(self):
        agent = Scraper("flowstats", 0, [], mirror_telemetry=True)
        assert tuple(agent.sweep(0.0)) == ()
        telemetry = Telemetry(enabled=True)
        telemetry.gauge("flow.layer.load", "oss").set(5.0)
        telemetry.gauge("flow.layer.max_util", "oss").set(0.4)  # not mirrored
        with use_telemetry(telemetry):
            samples = agent.sweep(10.0)
        assert tuple(samples) == (Sample("flow.layer.load", "oss", 5.0, 10.0),)

    def test_mirror_keys_are_reused_while_the_gauge_set_holds(self):
        agent = Scraper("flowstats", 0, [], mirror_telemetry=True)
        telemetry = Telemetry(enabled=True)
        telemetry.gauge("flow.layer.load", "oss").set(5.0)
        with use_telemetry(telemetry):
            first = agent.sweep(10.0)
            telemetry.gauge("flow.layer.load", "oss").set(6.0)
            second = agent.sweep(20.0)
            telemetry.gauge("flow.layer.capacity", "oss").set(9.0)
            third = agent.sweep(30.0)
        assert second.keys is first.keys
        assert tuple(second) == (Sample("flow.layer.load", "oss", 6.0, 20.0),)
        assert third.keys == (("flow.layer.capacity", "oss"),
                              ("flow.layer.load", "oss"))
        assert third.values.tolist() == [9.0, 6.0]


def _batch(metric, source, value, at):
    """A one-batch delivery holding one row."""
    return (Batch(((metric, source),), np.array([value]), at),)


class TestCollectorSink:
    def test_ingest_order_independence(self):
        batches = [
            _batch("mon.x", "a", 1.0, 10.0),
            _batch("mon.x", "a", 3.0, 40.0),
            _batch("mon.x", "b", 2.0, 10.0),
            _batch("mon.y", "a", 7.0, 40.0),
        ]
        results = []
        for perm in itertools.permutations(batches):
            sink = CollectorSink(rollup_interval=60.0, staleness_limit=60.0)
            for batch in perm:
                sink.deliver(batch, 50.0)
            results.append(tuple(sink.close_window(60.0)))
        assert len(set(results)) == 1

    def test_rollup_uses_freshest_value_per_source(self):
        sink = CollectorSink(rollup_interval=60.0, staleness_limit=120.0)
        sink.deliver(_batch("mon.x", "a", 5.0, 10.0), 11.0)
        sink.deliver(_batch("mon.x", "a", 9.0, 40.0), 41.0)
        sink.deliver(_batch("mon.x", "b", 1.0, 40.0), 41.0)
        (rollup,) = sink.close_window(60.0)
        assert rollup.n_sources == 2 and rollup.n_samples == 3
        assert rollup.mean == pytest.approx(5.0)  # (9 + 1) / 2
        assert rollup.max == pytest.approx(9.0)
        assert rollup.p99 == pytest.approx(9.0)

    def test_staleness_tagging(self):
        sink = CollectorSink(rollup_interval=60.0, staleness_limit=30.0)
        sink.deliver(_batch("mon.x", "a", 1.0, 5.0), 6.0)    # stale by 60
        sink.deliver(_batch("mon.x", "b", 1.0, 55.0), 56.0)  # fresh
        (rollup,) = sink.close_window(60.0)
        assert rollup.n_stale == 1

    def test_counter_rate_across_windows_with_reset(self):
        sink = CollectorSink(rollup_interval=60.0, staleness_limit=120.0,
                             counter_metrics=frozenset({"mon.c"}))
        sink.deliver(_batch("mon.c", "a", 100.0, 50.0), 55.0)
        sink.close_window(60.0)
        sink.deliver(_batch("mon.c", "a", 700.0, 110.0), 115.0)
        (second,) = sink.close_window(120.0)
        assert second.rate == pytest.approx(10.0)  # (700-100)/60
        # A replaced cable resets its error counter: no negative rate,
        # the measurement window restarts.
        sink.deliver(_batch("mon.c", "a", 0.0, 170.0), 175.0)
        (third,) = sink.close_window(180.0)
        assert third.rate == 0.0

    def test_mirrored_metrics_never_enter_rollups(self):
        sink = CollectorSink(rollup_interval=60.0, staleness_limit=60.0)
        sink.deliver(_batch("flow.layer.load", "oss", 9.9, 10.0), 11.0)
        sink.deliver(_batch("mon.x", "a", 1.0, 10.0), 11.0)
        rollups = sink.close_window(60.0)
        assert [r.metric for r in rollups] == ["mon.x"]
        assert ("flow.layer.load", "oss") in sink._mirror

    def test_latest_rollups_is_the_last_window_even_when_empty(self):
        sink = CollectorSink(rollup_interval=60.0, staleness_limit=60.0)
        sink.deliver(_batch("mon.x", "a", 1.0, 10.0), 11.0)
        assert [r.metric for r in sink.close_window(60.0)] == ["mon.x"]
        assert sink.latest_rollups() == sink.rollups
        assert sink.close_window(120.0) == []
        assert sink.latest_rollups() == []

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: a counter's rate sums only the sources present in "
        "the window, so a lost batch reads as a reset and the next window "
        "spikes by the missing sources' whole cumulative count"))
    def test_counter_rate_survives_a_missing_source(self):
        sink = CollectorSink(rollup_interval=60.0, staleness_limit=120.0,
                             counter_metrics=frozenset({"mon.c"}))
        # Two constant counters: the true rate is 0 in every window, but
        # source b's batch is lost in the second one.
        for now, sources in ((60.0, "ab"), (120.0, "a"), (180.0, "ab")):
            for source in sources:
                sink.deliver(_batch("mon.c", source, 1000.0, now - 5.0),
                             now - 4.0)
            sink.close_window(now)
        assert [r.rate for r in sink.rollups] == [0.0, 0.0, 0.0]


class _OracleSink:
    """The row-by-row sort fold the columnar :class:`CollectorSink`
    replaced, kept as the reference its state must equal exactly."""

    def __init__(self, *, staleness_limit, counter_metrics):
        self.staleness_limit = staleness_limit
        self.counter_metrics = counter_metrics
        self.rollups = []
        self.n_samples = 0
        self.n_stale = 0
        self._buffer = []
        self._view = {}
        self._mirror = {}
        self._counter_last = {}

    def deliver(self, samples):
        self._buffer.extend(samples)

    def close_window(self, now):
        window = sorted(
            (s for s in self._buffer if s.metric.startswith("mon.")),
            key=lambda s: (s.metric, s.source, s.sampled_at, s.value))
        mirrored = sorted(
            (s for s in self._buffer if not s.metric.startswith("mon.")),
            key=lambda s: (s.metric, s.source, s.sampled_at, s.value))
        self._buffer.clear()
        for sample in window:
            self._view[(sample.metric, sample.source)] = (
                sample.value, sample.sampled_at)
        for sample in mirrored:
            self._mirror[(sample.metric, sample.source)] = (
                sample.value, sample.sampled_at)
        per_metric = {}
        for sample in window:
            per_metric.setdefault(sample.metric, []).append(sample)
        new_rollups = []
        for metric in sorted(per_metric):
            samples = per_metric[metric]
            n_stale = sum(1 for s in samples
                          if now - s.sampled_at > self.staleness_limit)
            fresh = {}
            for s in samples:
                fresh[s.source] = s.value
            values = sorted(fresh.values())
            rate = 0.0
            if metric in self.counter_metrics:
                total = sum(values)
                last = self._counter_last.get(metric)
                if last is not None:
                    t_last, v_last = last
                    dt = now - t_last
                    if dt > 0 and total >= v_last:
                        rate = (total - v_last) / dt
                self._counter_last[metric] = (now, total)
            new_rollups.append(Rollup(
                window_end=now, metric=metric, n_sources=len(values),
                n_samples=len(samples), n_stale=n_stale, rate=rate,
                mean=sum(values) / len(values), max=values[-1],
                p99=values[max(1, math.ceil(0.99 * len(values))) - 1]))
            self.n_samples += len(samples)
            self.n_stale += n_stale
        self.rollups.extend(new_rollups)
        return new_rollups


#: fixed agent key tuples: a key repeated across agents and within one
#: batch, a counter metric, mirrored ``flow.layer.*`` rows and one wide
#: metric
_AGENT_KEYS = (
    (("mon.x", "a"), ("mon.x", "b"), ("mon.c", "a")),
    (("mon.x", "a"), ("mon.y", "a")),
    (("mon.c", "b"), ("flow.layer.load", "oss"), ("mon.x", "c")),
    (("flow.layer.capacity", "oss"),),
    (("mon.x", "b"), ("mon.x", "b"), ("mon.c", "a")),
    # wide enough that numpy's pairwise sum would round differently
    tuple(("mon.w", f"s{i:02d}") for i in range(24)),
)
#: values with ties and with sums that depend on the summation order
_VALUES = (0.0, 0.1, 0.2, 0.3, 1 / 3, 1.0, 2.5, 1e6, 7.0)
#: sampled_at offsets before the window close: ties, exactly at the
#: staleness limit (30 s) and past it, and a late batch from an older
#: window
_AGES = (0.0, 1.0, 1.0, 30.0, 31.0, 90.0)

_batch_specs = st.tuples(
    st.integers(0, len(_AGENT_KEYS) - 1),
    st.sampled_from(_AGES),
    st.lists(st.sampled_from(_VALUES), min_size=24, max_size=24),
    st.booleans(),
)


class TestCollectorFoldOracle:
    @settings(max_examples=150, deadline=None)
    @given(windows=st.lists(st.lists(_batch_specs, max_size=8),
                            min_size=1, max_size=4),
           data=st.data())
    def test_fold_equals_row_by_row_sort(self, windows, data):
        counters = frozenset({"mon.c"})
        sink = CollectorSink(rollup_interval=60.0, staleness_limit=30.0,
                             counter_metrics=counters)
        oracle = _OracleSink(staleness_limit=30.0, counter_metrics=counters)
        for w, specs in enumerate(windows):
            now = 60.0 * (w + 1)
            batches = []
            for agent, age, values, split in specs:
                keys = _AGENT_KEYS[agent]
                batch = Batch(keys, np.array(values[:len(keys)]), now - age)
                oracle.deliver(tuple(batch))
                # A split sweep arrives as one-row batches with fresh key
                # tuples, so the collector's code cache misses on each.
                batches.append(
                    tuple(Batch((key,), np.array([value]), now - age)
                          for key, value in zip(keys, values))
                    if split else (batch,))
            for payload in data.draw(st.permutations(batches)):
                sink.deliver(payload, now)
            assert sink.close_window(now) == oracle.close_window(now)
            assert list(sink.view().items()) == list(oracle._view.items())
            assert list(sink._mirror.items()) \
                == list(oracle._mirror.items())
            assert (sink.n_samples, sink.n_stale) \
                == (oracle.n_samples, oracle.n_stale)
        assert sink.rollups == oracle.rollups


class TestAlertEngine:
    def _window(self, engine, now, value):
        view = {("mon.cable_ok", "oss1"): (value, now - 1.0)}
        return engine.observe_window(now, view, [])

    def test_threshold_latches_per_excursion(self):
        engine = AlertEngine([ThresholdRule("cable-down", "mon.cable_ok",
                                            below=0.5)])
        assert len(self._window(engine, 60.0, 0.0)) == 1
        assert len(self._window(engine, 120.0, 0.0)) == 0  # latched
        assert len(self._window(engine, 180.0, 1.0)) == 0  # recovers
        assert len(self._window(engine, 240.0, 0.0)) == 1  # re-fires

    def test_for_windows_debounce(self):
        engine = AlertEngine([ThresholdRule("slow", "mon.cable_ok",
                                            below=0.5, for_windows=2)])
        assert self._window(engine, 60.0, 0.0) == []
        assert len(self._window(engine, 120.0, 0.0)) == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ThresholdRule("bad", "mon.x")
        with pytest.raises(ValueError):
            ThresholdRule("bad", "mon.x", below=1.0, above=2.0)
        with pytest.raises(ValueError):
            BurnRateRule("bad", "mon.x", threshold_rate=1.0,
                         short_windows=5, long_windows=5)

    def test_burn_rate_needs_history_and_factor(self):
        from repro.obs.overlay.collector import Rollup

        def rollup(end, rate):
            return Rollup(window_end=end, metric="mon.c", n_sources=1,
                          n_samples=1, n_stale=0, rate=rate, mean=0.0,
                          max=0.0, p99=0.0)

        engine = AlertEngine(burn_rate_rules=[BurnRateRule(
            "burn", "mon.c", threshold_rate=1.0,
            short_windows=1, long_windows=5, factor=4.0)])
        fired = []
        for i, rate in enumerate([0.0, 0.0, 0.0, 0.0, 100.0]):
            fired = engine.observe_window(60.0 * (i + 1), {},
                                          [rollup(60.0 * (i + 1), rate)])
        assert len(fired) == 1 and fired[0].rule == "burn"


class TestMonitoringOverlay:
    def test_end_to_end_rollups_on_idle_system(self):
        overlay = MonitoringOverlay(fresh_system(), OverlayConfig(seed=3))
        engine = Engine()
        overlay.attach(engine)
        engine.run(until=HOUR)
        outcome = overlay.outcome()
        assert outcome.n_windows == 60
        assert outcome.n_batches == 120 * len(overlay.scrapers)
        assert outcome.n_lost > 0  # seeded loss actually bites
        assert outcome.alerts == ()
        latest = {r.metric: r for r in overlay.collector.latest_rollups()}
        assert latest["mon.cable_ok"].mean == pytest.approx(1.0)
        assert latest["mon.routers_online_frac"].n_sources == 6

    def test_rollups_bit_identical_with_telemetry_on_or_off(self):
        def run(telemetry):
            overlay = MonitoringOverlay(fresh_system(), OverlayConfig(seed=3))
            engine = Engine()
            overlay.attach(engine)
            with use_telemetry(telemetry):
                engine.run(until=HOUR)
            return overlay.outcome()

        assert run(Telemetry(enabled=False)) == run(Telemetry(enabled=True))

    def test_double_attach_rejected(self):
        overlay = MonitoringOverlay(fresh_system())
        overlay.attach(Engine())
        with pytest.raises(RuntimeError):
            overlay.attach(Engine())

    def test_alerts_fire_from_the_overlay_view(self):
        system = fresh_system()
        overlay = MonitoringOverlay(system, OverlayConfig(seed=3))
        engine = Engine()
        overlay.attach(engine)
        oss = system.osses[0].name
        engine.call_at(200.0, lambda: system.fabric.fail_cable(oss))
        engine.run(until=600.0)
        alerts = [a for a in overlay.alert_engine.alerts
                  if a.rule == "cable-down"]
        assert [a.source for a in alerts] == [oss]
        # Fault at 200: next sweep 210, delivered +depth hops, alerted at
        # the following window close — never before 240.
        assert alerts[0].time >= 240.0


class TestObservedDetector:
    def test_expected_delay_closed_form(self):
        system = fresh_system()
        config = OverlayConfig(scrape_interval=30.0, hop_latency=1.0,
                               loss_probability=0.0, seed=3)
        overlay = MonitoringOverlay(system, config)
        model = DetectionModel(debounce=10.0)
        detector = overlay.detector(model)
        oss = system.osses[0].name
        agent = detector.agent_for(oss)
        assert agent == "ssu00"
        depth = overlay.tree.depth_of(agent)
        assert detector.expected_delay(oss, 600.0) \
            == pytest.approx(30.0 + depth * 1.0 + 10.0)
        # Mid-grid onset waits only to the next tick.
        assert detector.expected_delay(oss, 615.0) \
            == pytest.approx(15.0 + depth * 1.0 + 10.0)
        # Loss-free delay_for matches the closed form exactly.
        fault = PlannedFault(600.0, FaultClass.CABLE_FAIL, oss)
        assert detector.delay_for(fault, 600.0) \
            == pytest.approx(detector.expected_delay(oss, 600.0))

    def test_host_resolution_fallbacks(self):
        system = fresh_system()
        overlay = MonitoringOverlay(system, OverlayConfig(seed=3))
        detector = overlay.detector(DetectionModel())
        assert detector.agent_for("ssu03.enc2") == "ssu03"
        assert detector.agent_for("rtr005.3") == "rtr005"
        assert detector.agent_for(system.osses[-1].name) == "ssu03"
        unknown = detector.agent_for("no-such-host")
        assert unknown in set(overlay.tree.agents)
        assert overlay.tree.depth_of(unknown) == overlay.tree.max_depth

    def test_tighter_cadence_strictly_reduces_delay(self):
        system = fresh_system()
        model = DetectionModel(debounce=10.0)
        delays = []
        for interval in (30.0, 10.0):
            config = OverlayConfig(scrape_interval=interval,
                                   loss_probability=0.0, seed=3)
            detector = MonitoringOverlay(system, config).detector(model)
            # The §IV-A cable-scenario onsets: both sit on the 30 s grid,
            # the worst case for the slow cadence.
            delays.append(sum(
                detector.expected_delay(system.osses[0].name, onset)
                for onset in (600.0, HOUR)))
        assert delays[1] < delays[0]

    def test_wider_fan_in_strictly_reduces_delay(self, spider2_session):
        model = DetectionModel(debounce=10.0)
        system = spider2_session
        delays = []
        for fan_in in (2, 8):
            config = OverlayConfig(fan_in=fan_in, loss_probability=0.0,
                                   seed=3)
            detector = MonitoringOverlay(system, config).detector(model)
            delays.append(detector.expected_delay(
                system.osses[0].name, 600.0))
        assert delays[1] < delays[0]

    def test_losses_add_whole_scrape_intervals(self):
        system = fresh_system()
        config = OverlayConfig(scrape_interval=30.0, loss_probability=0.9,
                               seed=3)
        overlay = MonitoringOverlay(system, config)
        detector = overlay.detector(DetectionModel(debounce=10.0))
        oss = system.osses[0].name
        fault = PlannedFault(600.0, FaultClass.CABLE_FAIL, oss)
        extra = detector.delay_for(fault, 600.0) \
            - detector.expected_delay(oss, 600.0)
        assert extra > 0
        assert extra / 30.0 == pytest.approx(round(extra / 30.0))


def run_cable_with_overlay(seed=11):
    system = fresh_system()
    plan = cable_failure_scenario(system)
    monitor = MonitoringOverlay(system, OverlayConfig(seed=3))
    policy = RemediationPolicy(imperative=True, hp_journaling=True, seed=seed)
    return FaultCampaign(system, plan, remediation=policy,
                         monitor=monitor).run()


class TestCampaignIntegration:
    def test_overlay_backed_remediation_end_to_end(self):
        result = run_cable_with_overlay()
        outcome = result.remediation
        assert outcome is not None and outcome.n_faults == 2
        assert all(r.completed for r in outcome.records)
        assert result.overlay is not None
        assert result.overlay.n_windows > 0
        assert any(a.rule == "cable-down" for a in result.overlay.alerts)

    def test_observed_mttd_matches_pipeline_physics(self):
        # With loss ruled out, each fault's detect latency must equal the
        # closed form: grid wait + tree hops + debounce.
        system = fresh_system()
        plan = cable_failure_scenario(system)
        config = OverlayConfig(loss_probability=0.0, seed=3)
        monitor = MonitoringOverlay(system, config)
        policy = RemediationPolicy(seed=11)
        detector = monitor.detector(policy.detection)
        expected = {
            fault.label: detector.expected_delay(str(fault.target),
                                                 fault.time)
            for fault in plan
        }
        result = FaultCampaign(system, plan, remediation=policy,
                               monitor=monitor).run()
        for record in result.remediation.records:
            assert record.detect_seconds \
                == pytest.approx(expected[record.fault_label])


class TestMttdStudy:
    def test_tightening_strictly_reduces_mttd(self):
        result = run_mttd_study(
            fresh_system, cable_failure_scenario, seed=11,
            base=OverlayConfig(loss_probability=0.0, seed=11))
        analytic, observed, tight = (
            arm.remediation.mean_mttd_seconds
            for arm in (result.analytic, result.observed, result.tight))
        assert tight < observed
        assert result.tightening_gain_seconds > 0
        # The overlay adds tree lag the analytic model does not know.
        assert observed > analytic
        assert result.analytic.overlay is None
        assert result.observed.overlay is not None
        _poll, observed_interval, tight_interval = result.intervals
        assert result.observed.overlay.tree_depth \
            > result.tight.overlay.tree_depth \
            or observed_interval > tight_interval


class TestReportMonitoringLag:
    def _snapshot(self, with_overlay):
        gauges = [
            {"name": "flow.layer.load", "source": "oss", "value": 10.0},
            {"name": "flow.layer.capacity", "source": "oss", "value": 20.0},
            {"name": "flow.layer.max_util", "source": "oss", "value": 0.5},
        ]
        if with_overlay:
            gauges += [
                {"name": "overlay.view.load", "source": "oss", "value": 6.0},
                {"name": "overlay.view.age_seconds", "source": "oss",
                 "value": 30.0},
            ]
        return {"gauges": gauges, "counters": [], "histograms": []}

    def test_lag_column_appears_with_overlay_view(self):
        report = render_layer_report(self._snapshot(True))
        assert "monitoring lag" in report
        assert "@30s" in report

    def test_lag_column_absent_without_overlay(self):
        report = render_layer_report(self._snapshot(False))
        assert "monitoring lag" not in report
