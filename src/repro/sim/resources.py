"""Shared-resource primitives for the event engine.

Two primitives cover everything the control-plane simulations need:

* :class:`Server` — an N-server FIFO queue with deterministic service times
  supplied per job (MDS request service, RAID rebuild workers, provisioning
  boot slots).
* :class:`TokenBucket` — a rate limiter for modelling polling budgets and
  bandwidth caps in event-level (non-flow-solver) simulations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.sim.engine import Engine, Event, SimulationError

__all__ = ["Server", "TokenBucket", "ServerStats"]


@dataclass
class ServerStats:
    """Aggregate queueing statistics maintained by :class:`Server`."""

    arrivals: int = 0
    completions: int = 0
    busy_time: float = 0.0
    total_wait: float = 0.0
    total_service: float = 0.0
    max_queue_len: int = 0

    @property
    def mean_wait(self) -> float:
        return self.total_wait / self.completions if self.completions else 0.0

    @property
    def mean_service(self) -> float:
        return self.total_service / self.completions if self.completions else 0.0


@dataclass
class _Job:
    service_time: float
    done: Event
    arrived_at: float
    value: object = None


class Server:
    """An ``n_servers``-way FIFO service station.

    ``submit`` returns an :class:`Event` that fires when the job completes;
    the event value is the job's ``value`` argument.  Utilization and wait
    statistics accumulate in :attr:`stats`.
    """

    def __init__(self, engine: Engine, n_servers: int = 1, name: str = "server") -> None:
        if n_servers < 1:
            raise SimulationError("n_servers must be >= 1")
        self.engine = engine
        self.name = name
        self.n_servers = n_servers
        self._queue: deque[_Job] = deque()
        self._busy = 0
        self.stats = ServerStats()

    @property
    def busy(self) -> int:
        return self._busy

    def submit(self, service_time: float, value: object = None) -> Event:
        if service_time < 0:
            raise SimulationError(f"negative service time {service_time}")
        self.stats.arrivals += 1
        job = _Job(
            service_time=service_time,
            done=self.engine.event(f"{self.name}.job"),
            arrived_at=self.engine.now,
            value=value,
        )
        self._queue.append(job)
        self.stats.max_queue_len = max(self.stats.max_queue_len, len(self._queue))
        self._dispatch()
        return job.done

    def _dispatch(self) -> None:
        while self._busy < self.n_servers and self._queue:
            job = self._queue.popleft()
            self._busy += 1
            self.stats.total_wait += self.engine.now - job.arrived_at
            self.engine.call_after(job.service_time, lambda j=job: self._finish(j))

    def _finish(self, job: _Job) -> None:
        self._busy -= 1
        self.stats.completions += 1
        self.stats.busy_time += job.service_time
        self.stats.total_service += job.service_time
        job.done.trigger(job.value)
        self._dispatch()

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of server-seconds spent busy over ``elapsed`` (default:
        engine time so far)."""
        elapsed = self.engine.now if elapsed is None else elapsed
        if elapsed <= 0:
            return 0.0
        return self.stats.busy_time / (elapsed * self.n_servers)


class TokenBucket:
    """A token-bucket rate limiter with continuous refill.

    ``acquire(n)`` returns an event that fires once ``n`` tokens are
    available; grants are strictly FIFO so a large request cannot be starved
    by a stream of small ones.
    """

    def __init__(
        self,
        engine: Engine,
        rate: float,
        capacity: float | None = None,
        name: str = "bucket",
    ) -> None:
        if rate <= 0:
            raise SimulationError(f"rate must be positive, got {rate}")
        self.engine = engine
        self.name = name
        self.rate = float(rate)
        self.capacity = float(capacity) if capacity is not None else float(rate)
        if self.capacity <= 0:
            raise SimulationError("capacity must be positive")
        self._tokens = self.capacity
        self._last_refill = engine.now
        self._waiters: deque[tuple[float, Event]] = deque()
        self._drain_scheduled = False

    def _refill(self) -> None:
        now = self.engine.now
        self._tokens = min(
            self.capacity, self._tokens + (now - self._last_refill) * self.rate
        )
        self._last_refill = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def acquire(self, n: float = 1.0) -> Event:
        if n < 0:
            raise SimulationError(f"cannot acquire {n} tokens")
        if n > self.capacity:
            raise SimulationError(
                f"request of {n} tokens exceeds bucket capacity {self.capacity}"
            )
        ev = self.engine.event(f"{self.name}.grant")
        self._waiters.append((n, ev))
        self._drain()
        return ev

    def _drain(self) -> None:
        self._refill()
        while self._waiters:
            need, ev = self._waiters[0]
            if need <= self._tokens + 1e-12:
                self._tokens -= need
                self._waiters.popleft()
                ev.trigger(need)
                continue
            if not self._drain_scheduled:
                wait = (need - self._tokens) / self.rate
                self._drain_scheduled = True

                def _retry() -> None:
                    self._drain_scheduled = False
                    self._drain()

                self.engine.call_after(wait, _retry)
            break
