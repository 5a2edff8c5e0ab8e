"""A small deterministic discrete-event simulation engine.

Design notes
------------
* Events are ordered by ``(time, priority, sequence)``; the sequence number
  makes scheduling fully deterministic for equal timestamps, which the test
  suite relies on (seeded runs must be bit-reproducible).
* Processes are generator coroutines that ``yield`` delays (floats) or
  :class:`Event` handles to wait on.  This is the same coroutine style as
  SimPy, reimplemented minimally so the package has no runtime dependency
  beyond numpy.
* The engine never advances past ``horizon`` in :meth:`Engine.run`, so
  long-running periodic processes (monitoring checks, purge cycles) do not
  hang a simulation.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable, Generator, Iterable
from typing import Any

__all__ = ["Engine", "Event", "Process", "SimulationError"]

#: sentinel argument marking a no-arg callback scheduled via ``call_at`` —
#: the run loop calls ``fn()`` directly instead of paying a lambda frame
#: per event
_NO_ARG = object()


class SimulationError(RuntimeError):
    """Raised for illegal simulation operations (e.g. scheduling in the past)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* with an optional value; all waiting callbacks run
    at the trigger time in registration order.
    """

    __slots__ = ("engine", "name", "_callbacks", "triggered", "value", "time")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._callbacks: list[Callable[[Event], None]] = []
        self.triggered = False
        self.value: Any = None
        self.time: float | None = None

    def on_trigger(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event fires.

        If the event already fired, the callback runs immediately — late
        subscribers must not deadlock.
        """
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        self.time = self.engine.now
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


ProcessGenerator = Generator[Any, Any, Any]


class Process:
    """A coroutine driven by the engine.

    The generator may yield:

    * a non-negative float — sleep for that many simulated seconds;
    * an :class:`Event` — suspend until it triggers (receiving its value);
    * ``None`` — yield control and resume immediately (same timestamp).

    When the generator returns, :attr:`done` fires with its return value.
    """

    __slots__ = ("engine", "name", "_gen", "done", "steps")

    def __init__(self, engine: "Engine", gen: ProcessGenerator, name: str = "") -> None:
        self.engine = engine
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self.done = Event(engine, name=f"{self.name}.done")
        self.steps = 0
        engine._process_started(self)
        engine._schedule(engine.now, 0, self._step, None)

    def _step(self, send_value: Any) -> None:
        self.steps += 1
        counts = self.engine.process_event_counts
        counts[self.name] = counts.get(self.name, 0) + 1
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.done.trigger(stop.value)
            self.engine._process_ended(self)
            return
        if yielded is None:
            self.engine._schedule(self.engine.now, 0, self._step, None)
        elif isinstance(yielded, Event):
            yielded.on_trigger(lambda ev: self._step(ev.value))
        elif isinstance(yielded, (int, float)):
            delay = float(yielded)
            if delay < 0 or math.isnan(delay):
                raise SimulationError(
                    f"process {self.name!r} yielded invalid delay {yielded!r}"
                )
            self.engine._schedule(self.engine.now + delay, 0, self._step, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )


class Engine:
    """The event loop: a heap of ``(time, priority, seq, fn, arg)`` entries."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, int, Callable[[Any], None], Any]] = []
        self._seq = itertools.count()
        self.events_processed = 0
        #: cumulative process-step counts keyed by process name
        self.process_event_counts: dict[str, int] = {}
        #: observability hooks — purely observational: they must not (and,
        #: being called after the fact, cannot) change event ordering, so a
        #: hooked run is bit-identical to an unhooked one.
        self.on_event: Callable[[float], None] | None = None
        self.on_process_start: Callable[[Process], None] | None = None
        self.on_process_end: Callable[[Process], None] | None = None

    # -- lifecycle notifications (called by Process) -------------------------

    def _process_started(self, process: "Process") -> None:
        if self.on_process_start is not None:
            self.on_process_start(process)

    def _process_ended(self, process: "Process") -> None:
        if self.on_process_end is not None:
            self.on_process_end(process)

    # -- scheduling ---------------------------------------------------------

    def _schedule(
        self, time: float, priority: int, fn: Callable[[Any], None], arg: Any
    ) -> None:
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} (now={self.now})")
        heapq.heappush(self._heap, (time, priority, next(self._seq), fn, arg))

    def call_at(self, time: float, fn: Callable[[], None], *,
                priority: int = 0) -> None:
        """Run ``fn()`` at absolute simulated ``time``.

        Among events at the same instant, lower ``priority`` runs first
        (FIFO within a priority).  The non-default use is end-of-tick
        work: an :class:`~repro.core.flow.Epoch` flush schedules itself at
        ``priority=1`` so it observes every ordinary event of the tick.
        """
        self._schedule(time, priority, fn, _NO_ARG)

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.call_at(self.now + delay, fn)

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "timeout") -> Event:
        """An event that fires ``delay`` seconds from now with ``value``."""
        ev = Event(self, name)
        self.call_after(delay, lambda: ev.trigger(value))
        return ev

    def process(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Start a coroutine process; it begins at the current time."""
        return Process(self, gen, name)

    def every(
        self,
        interval: float,
        fn: Callable[[], None],
        *,
        start: float | None = None,
        name: str = "periodic",
    ) -> Process:
        """Run ``fn()`` every ``interval`` seconds, forever (bounded by the
        run horizon).  ``start`` defaults to one interval from now.

        The first tick fires *at* the requested ``start`` time (clamped to
        ``now`` when ``start`` lies in the past); it is not deferred behind
        an extra zero-delay hop, so a poller started with ``start=now``
        samples the current instant as its first tick.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")

        def _loop() -> ProcessGenerator:
            first = interval if start is None else max(0.0, start - self.now)
            if first > 0:
                yield first
            while True:
                fn()
                yield interval

        return self.process(_loop(), name=name)

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> Event:
        """An event that fires when every input event has fired.

        The composite value is the list of input values in input order.
        """
        events = list(events)
        combined = Event(self, name)
        remaining = len(events)
        if remaining == 0:
            combined.trigger([])
            return combined
        values: list[Any] = [None] * remaining
        state = {"left": remaining}

        def _make(i: int) -> Callable[[Event], None]:
            def _cb(ev: Event) -> None:
                values[i] = ev.value
                state["left"] -= 1
                if state["left"] == 0:
                    combined.trigger(list(values))

            return _cb

        for i, ev in enumerate(events):
            ev.on_trigger(_make(i))
        return combined

    # -- running ------------------------------------------------------------

    def run(self, until: float = math.inf, max_events: int = 50_000_000) -> float:
        """Process events until the heap drains or simulated ``until``.

        Returns the final simulation time.  ``max_events`` is a runaway
        guard; hitting it raises rather than spinning silently.
        """
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = pop(heap)
            time = entry[0]
            if time > until:
                heapq.heappush(heap, entry)
                break
            self.now = time
            fn = entry[3]
            arg = entry[4]
            if arg is _NO_ARG:
                fn()
            else:
                fn(arg)
            processed += 1
            self.events_processed += 1
            if self.on_event is not None:
                self.on_event(time)
            if processed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if until is not math.inf and math.isfinite(until):
            self.now = max(self.now, until)
        return self.now

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or ``inf`` if idle."""
        return self._heap[0][0] if self._heap else math.inf
