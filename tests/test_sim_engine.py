"""Discrete-event engine tests: ordering, processes, composition."""

import gc
import math
import weakref

import pytest

from repro.sim.engine import Engine, Event, SimulationError


class TestScheduling:
    def test_call_at_runs_in_time_order(self):
        engine = Engine()
        log = []
        engine.call_at(5.0, lambda: log.append("b"))
        engine.call_at(1.0, lambda: log.append("a"))
        engine.call_at(9.0, lambda: log.append("c"))
        engine.run()
        assert log == ["a", "b", "c"]
        assert engine.now == 9.0

    def test_equal_timestamps_fifo(self):
        engine = Engine()
        log = []
        for i in range(5):
            engine.call_at(3.0, lambda i=i: log.append(i))
        engine.run()
        assert log == [0, 1, 2, 3, 4]

    def test_cannot_schedule_in_past(self):
        engine = Engine()
        engine.call_at(10.0, lambda: engine.call_at(5.0, lambda: None))
        with pytest.raises(SimulationError):
            engine.run()

    def test_run_until_bounds_time(self):
        engine = Engine()
        log = []
        engine.call_at(1.0, lambda: log.append(1))
        engine.call_at(100.0, lambda: log.append(100))
        engine.run(until=10.0)
        assert log == [1]
        assert engine.now == 10.0
        engine.run()
        assert log == [1, 100]

    def test_peek(self):
        engine = Engine()
        assert math.isinf(engine.peek())
        engine.call_at(4.0, lambda: None)
        assert engine.peek() == 4.0

    def test_close_drops_pending_events_and_frees_their_cycles(self):
        class Marker:
            pass

        def finished_engine(marker):
            engine = Engine()
            engine.every(1.0, lambda: (engine.now, marker))
            engine.run(until=3.5)
            return engine

        gc.disable()
        try:
            for close in (False, True):
                marker = Marker()
                alive = weakref.ref(marker)
                engine = finished_engine(marker)
                del marker
                if close:
                    engine.close()
                    assert math.isinf(engine.peek())
                del engine
                # the loop's closure refers to the engine: without close,
                # only the cyclic collector frees what it reaches
                assert (alive() is None) is close
        finally:
            gc.enable()

    def test_max_events_guard(self):
        engine = Engine()

        def respawn():
            engine.call_after(0.0, respawn)

        engine.call_after(0.0, respawn)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)


class TestEvents:
    def test_trigger_delivers_value(self):
        engine = Engine()
        ev = engine.event("x")
        got = []
        ev.on_trigger(lambda e: got.append(e.value))
        ev.trigger(42)
        assert got == [42]
        assert ev.time == 0.0

    def test_late_subscriber_fires_immediately(self):
        engine = Engine()
        ev = engine.event()
        ev.trigger("done")
        got = []
        ev.on_trigger(lambda e: got.append(e.value))
        assert got == ["done"]

    def test_double_trigger_rejected(self):
        engine = Engine()
        ev = engine.event()
        ev.trigger()
        with pytest.raises(SimulationError):
            ev.trigger()

    def test_timeout(self):
        engine = Engine()
        ev = engine.timeout(7.5, value="t")
        engine.run()
        assert ev.triggered and ev.value == "t" and ev.time == 7.5

    def test_all_of_collects_in_order(self):
        engine = Engine()
        evs = [engine.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
        combined = engine.all_of(evs)
        engine.run()
        assert combined.value == [3.0, 1.0, 2.0]
        assert combined.time == 3.0

    def test_all_of_empty_fires_now(self):
        engine = Engine()
        combined = engine.all_of([])
        assert combined.triggered and combined.value == []


class TestProcesses:
    def test_process_sleeps(self):
        engine = Engine()
        marks = []

        def proc():
            marks.append(engine.now)
            yield 2.5
            marks.append(engine.now)
            yield 2.5
            marks.append(engine.now)

        engine.process(proc())
        engine.run()
        assert marks == [0.0, 2.5, 5.0]

    def test_process_waits_on_event(self):
        engine = Engine()
        gate = engine.event("gate")
        got = []

        def waiter():
            value = yield gate
            got.append((engine.now, value))

        engine.process(waiter())
        engine.call_at(4.0, lambda: gate.trigger("open"))
        engine.run()
        assert got == [(4.0, "open")]

    def test_process_return_value_on_done(self):
        engine = Engine()

        def proc():
            yield 1.0
            return "result"

        p = engine.process(proc())
        engine.run()
        assert p.done.triggered and p.done.value == "result"

    def test_invalid_yield_raises(self):
        engine = Engine()

        def bad():
            yield "nope"

        engine.process(bad())
        with pytest.raises(SimulationError):
            engine.run()

    def test_negative_delay_raises(self):
        engine = Engine()

        def bad():
            yield -1.0

        engine.process(bad())
        with pytest.raises(SimulationError):
            engine.run()

    def test_every_periodic(self):
        engine = Engine()
        ticks = []
        engine.every(10.0, lambda: ticks.append(engine.now))
        engine.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_every_with_start(self):
        engine = Engine()
        ticks = []
        engine.every(10.0, lambda: ticks.append(engine.now), start=5.0)
        engine.run(until=26.0)
        assert ticks == [5.0, 15.0, 25.0]

    def test_every_rejects_nonpositive_interval(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.every(0.0, lambda: None)
