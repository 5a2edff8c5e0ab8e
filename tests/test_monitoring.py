"""Monitoring stack tests: metrics DB, checks/alerts, health correlation,
DDN tool, IB monitor."""

import numpy as np
import pytest

from repro.monitoring.checks import CheckScheduler, CheckState
from repro.monitoring.ddntool import DdnTool
from repro.monitoring.health import EventKind, HealthEvent, LustreHealthChecker
from repro.monitoring.ibmon import IbMonitor
from repro.monitoring.metricsdb import MetricsDb
from repro.sim.engine import Engine


class TestMetricsDb:
    def test_insert_and_latest(self):
        db = MetricsDb()
        db.insert("m", "s", 1.0, 10.0)
        db.insert("m", "s", 2.0, 20.0)
        assert db.latest("m", "s").value == 20.0

    def test_out_of_order_rejected(self):
        db = MetricsDb()
        db.insert("m", "s", 5.0, 1.0)
        with pytest.raises(ValueError):
            db.insert("m", "s", 4.0, 1.0)

    def test_range_query(self):
        db = MetricsDb()
        for t in range(10):
            db.insert("m", "s", float(t), float(t))
        points = db.range("m", "s", 2.0, 5.0)
        assert [p.time for p in points] == [2.0, 3.0, 4.0, 5.0]

    def test_rate_from_counters(self):
        db = MetricsDb()
        db.insert("bytes", "c", 0.0, 0.0)
        db.insert("bytes", "c", 10.0, 1000.0)
        assert db.rate("bytes", "c") == pytest.approx(100.0)

    def test_rate_needs_two_points(self):
        db = MetricsDb()
        db.insert("bytes", "c", 0.0, 5.0)
        assert db.rate("bytes", "c") == 0.0

    def test_aggregate_and_top(self):
        db = MetricsDb()
        db.insert("m", "a", 0.0, 1.0)
        db.insert("m", "b", 0.0, 5.0)
        assert db.aggregate_latest("m") == 6.0
        assert db.top_sources("m", 1) == [("b", 5.0)]

    def test_missing_series(self):
        with pytest.raises(KeyError):
            MetricsDb().latest("m", "s")


class TestCheckScheduler:
    def test_alert_after_confirmations(self):
        engine = Engine()
        sched = CheckScheduler(engine)
        state = {"bad": False}
        sched.register(
            "c",
            lambda: (CheckState.CRITICAL if state["bad"] else CheckState.OK, ""),
            interval=60.0, confirm_after=2,
        )
        engine.run(until=130.0)
        assert sched.active_alerts() == []
        state["bad"] = True
        engine.call_at(140.0, lambda: None)
        engine.run(until=400.0)
        alerts = sched.active_alerts()
        assert len(alerts) == 1
        # first bad poll at 180, confirmed on the second at 240
        assert alerts[0].raised_at == pytest.approx(240.0)

    def test_alert_clears_on_recovery(self):
        engine = Engine()
        sched = CheckScheduler(engine)
        state = {"bad": True}
        sched.register(
            "c",
            lambda: (CheckState.WARNING if state["bad"] else CheckState.OK, ""),
            interval=10.0, confirm_after=1,
        )
        engine.run(until=25.0)
        assert len(sched.active_alerts()) == 1
        state["bad"] = False
        engine.run(until=45.0)
        assert sched.active_alerts() == []
        assert sched.alerts[0].duration == pytest.approx(20.0)

    def test_crashing_check_reports_unknown(self):
        engine = Engine()
        sched = CheckScheduler(engine)

        def boom():
            raise RuntimeError("dead")

        sched.register("c", boom, interval=5.0, confirm_after=1)
        engine.run(until=6.0)
        assert sched.state_of("c") is CheckState.UNKNOWN
        assert len(sched.active_alerts()) == 1

    def test_detection_latency(self):
        engine = Engine()
        sched = CheckScheduler(engine)
        sched.register("c", lambda: (CheckState.CRITICAL, ""),
                       interval=30.0, confirm_after=1)
        engine.run(until=100.0)
        assert sched.detection_latency("c", fault_time=0.0) == pytest.approx(30.0)
        assert sched.detection_latency("c", fault_time=1000.0) is None

    def test_duplicate_check_rejected(self):
        sched = CheckScheduler(Engine())
        sched.register("c", lambda: (CheckState.OK, ""))
        with pytest.raises(ValueError):
            sched.register("c", lambda: (CheckState.OK, ""))


class TestHealthChecker:
    def test_correlates_hw_and_sw_on_same_chain(self):
        hc = LustreHealthChecker(window=120.0)
        hc.ingest(HealthEvent(0.0, EventKind.DISK_FAILURE, "oss01.ctrl"))
        hc.ingest(HealthEvent(30.0, EventKind.RPC_TIMEOUT, "oss01"))
        hc.ingest(HealthEvent(60.0, EventKind.CLIENT_EVICTION, "oss01"))
        incidents = hc.incidents()
        assert len(incidents) == 1
        assert incidents[0].classification == "hardware-rooted"

    def test_separate_hosts_separate_incidents(self):
        hc = LustreHealthChecker()
        hc.ingest(HealthEvent(0.0, EventKind.DISK_FAILURE, "oss01"))
        hc.ingest(HealthEvent(10.0, EventKind.LBUG, "oss07"))
        assert len(hc.incidents()) == 2

    def test_window_splits_incidents(self):
        hc = LustreHealthChecker(window=60.0)
        hc.ingest(HealthEvent(0.0, EventKind.RPC_TIMEOUT, "oss01"))
        hc.ingest(HealthEvent(1000.0, EventKind.RPC_TIMEOUT, "oss01"))
        assert len(hc.incidents()) == 2
        assert all(i.classification == "software" for i in hc.incidents())

    def test_classify_counts(self):
        hc = LustreHealthChecker()
        hc.ingest(HealthEvent(0.0, EventKind.CABLE_ERRORS, "rtr1"))
        hc.ingest(HealthEvent(500.0, EventKind.LBUG, "mds1"))
        counts = hc.classify_counts()
        assert counts["hardware"] == 1
        assert counts["software"] == 1

    def test_out_of_order_rejected(self):
        hc = LustreHealthChecker()
        hc.ingest(HealthEvent(10.0, EventKind.LBUG, "x"))
        with pytest.raises(ValueError):
            hc.ingest(HealthEvent(5.0, EventKind.LBUG, "x"))


class TestHealthCheckerBoundaries:
    """Merge-window edge cases: the correlation window is inclusive, the
    host-chain match is per-incident, and same-time ingest order must not
    change the partition."""

    @staticmethod
    def _partition(hc: LustreHealthChecker) -> set[frozenset]:
        return {
            frozenset((e.time, e.kind, e.host) for e in incident.events)
            for incident in hc.incidents()
        }

    def test_events_exactly_window_apart_merge(self):
        hc = LustreHealthChecker(window=120.0)
        hc.ingest(HealthEvent(0.0, EventKind.DISK_FAILURE, "oss01"))
        hc.ingest(HealthEvent(120.0, EventKind.RPC_TIMEOUT, "oss01"))
        incidents = hc.incidents()
        assert len(incidents) == 1
        assert incidents[0].classification == "hardware-rooted"

    def test_events_just_past_window_split(self):
        hc = LustreHealthChecker(window=120.0)
        hc.ingest(HealthEvent(0.0, EventKind.DISK_FAILURE, "oss01"))
        hc.ingest(HealthEvent(120.0 + 1e-9, EventKind.RPC_TIMEOUT, "oss01"))
        assert len(hc.incidents()) == 2

    def test_window_chains_from_last_event_not_first(self):
        # 0 → 100 → 200: each gap is inside the window even though the
        # ends are not, so the chain stays one incident.
        hc = LustreHealthChecker(window=120.0)
        for t in (0.0, 100.0, 200.0):
            hc.ingest(HealthEvent(t, EventKind.RPC_TIMEOUT, "oss01"))
        assert len(hc.incidents()) == 1

    def test_interleaved_hosts_do_not_cross_extend(self):
        # A and B alternate within each other's windows; each chain must
        # coalesce with itself only, and B's events must not keep A's
        # incident alive past its own window.
        hc = LustreHealthChecker(window=120.0)
        hc.ingest(HealthEvent(0.0, EventKind.DISK_FAILURE, "ossA.ctrl"))
        hc.ingest(HealthEvent(60.0, EventKind.CABLE_ERRORS, "ossB"))
        hc.ingest(HealthEvent(110.0, EventKind.RPC_TIMEOUT, "ossA"))
        hc.ingest(HealthEvent(170.0, EventKind.LBUG, "ossB.mgmt"))
        incidents = hc.incidents()
        assert len(incidents) == 2
        by_chain = {next(iter(i.hosts)).split(".")[0]: i for i in incidents}
        assert {e.time for e in by_chain["ossA"].events} == {0.0, 110.0}
        assert {e.time for e in by_chain["ossB"].events} == {60.0, 170.0}
        assert by_chain["ossA"].classification == "hardware-rooted"
        assert by_chain["ossB"].classification == "hardware-rooted"

    def test_same_time_ingest_order_does_not_change_partition(self):
        import itertools

        batch = [
            HealthEvent(100.0, EventKind.DISK_FAILURE, "oss01"),
            HealthEvent(100.0, EventKind.RPC_TIMEOUT, "oss02"),
            HealthEvent(100.0, EventKind.CABLE_ERRORS, "oss01.ctrl"),
        ]
        partitions = set()
        for perm in itertools.permutations(batch):
            hc = LustreHealthChecker(window=120.0)
            hc.ingest(HealthEvent(0.0, EventKind.JOURNAL_ERROR, "oss02"))
            for event in perm:
                hc.ingest(event)
            partitions.add(frozenset(self._partition(hc)))
        assert len(partitions) == 1

    def test_equal_time_ingest_accepted(self):
        hc = LustreHealthChecker()
        hc.ingest(HealthEvent(5.0, EventKind.LBUG, "x"))
        hc.ingest(HealthEvent(5.0, EventKind.LBUG, "x"))
        assert len(hc.events) == 2


class TestDdnTool:
    def test_polls_all_couplets(self, mini_system):
        db = MetricsDb()
        tool = DdnTool(mini_system, db)
        tool.poll_once(now=0.0)
        assert len(db.sources("ctrl.write_bytes")) == mini_system.spec.n_ssus

    def test_bandwidth_from_counters(self, mini_system):
        db = MetricsDb()
        tool = DdnTool(mini_system, db)
        tool.poll_once(now=0.0)
        couplet = mini_system.ssus[0].couplet
        couplet.record_io(600 * 10**9, write=True, request_size=1 << 20)
        tool.poll_once(now=60.0)
        bw = tool.write_bandwidth(couplet.name, 0.0, 60.0)
        assert bw == pytest.approx(10**10)

    def test_attach_polls_on_engine(self, mini_system):
        engine = Engine()
        db = MetricsDb()
        tool = DdnTool(mini_system, db, poll_interval=30.0)
        tool.attach(engine)
        engine.run(until=100.0)
        assert tool.polls == 3

    def test_busiest_couplets(self, mini_system):
        db = MetricsDb()
        tool = DdnTool(mini_system, db)
        mini_system.ssus[2].couplet.record_io(999, write=True, request_size=1)
        tool.poll_once(now=0.0)
        top = tool.busiest_couplets(1)
        assert top[0][0] == mini_system.ssus[2].couplet.name


class TestIbMonitor:
    def test_degraded_cable_alerting(self, mini_system):
        engine = Engine()
        db = MetricsDb()
        sched = CheckScheduler(engine)
        mon = IbMonitor(mini_system.fabric, db,
                        symbol_error_rate_threshold=0.5)
        host = mini_system.osses[0].name
        mon.register_checks(sched, interval=60.0)
        # Degrade a cable and let errors accrue each sample.
        def degrade():
            mini_system.fabric.degrade_cable(host, 0.7, symbol_errors=600)
        engine.every(60.0, degrade, start=30.0)
        engine.run(until=400.0)
        assert any(a.check == f"ib:{host}" for a in sched.alerts)

    def test_diagnose_cable_in_place(self, mini_system):
        db = MetricsDb()
        mon = IbMonitor(mini_system.fabric, db)
        host = mini_system.osses[1].name
        healthy = mon.diagnose_cable(host)
        assert not healthy["degraded"]
        mini_system.fabric.degrade_cable(host, 0.5)
        diag = mon.diagnose_cable(host)
        assert diag["degraded"]
        assert diag["ratio"] == pytest.approx(0.5, rel=0.05)
