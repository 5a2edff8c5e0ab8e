"""Lustre failover recovery: standard vs imperative (§IV-D).

"OLCF direct-funded development efforts through multiple providers to
produce features including asymmetric router notification,
high-performance Lustre journaling, and imperative recovery, all
benefiting the Lustre community at large."

When an OSS fails over, its OSTs cannot serve I/O until *recovery*
completes: every connected client must reconnect and replay its open
transactions.  Two regimes:

* **standard recovery** — clients only notice the failover when their
  in-flight RPCs time out (obd_timeout-scale delays), so reconnects
  straggle in over minutes; the window closes when every client has
  reconnected or the recovery timer expires (abandoning stragglers and
  evicting them).
* **imperative recovery** — the failover target proactively notifies
  clients through the MGS, collapsing discovery to seconds.

High-performance journaling (the same funding line) shortens the replay
phase once clients are back.

The simulation draws every client's reconnect time and reports the
I/O-blackout window — the number operators actually feel.  Reconnects
are independent, so the window is closed-form: every live client
reconnected by the recovery timer (a reconnect drawn past it is cut to
the timer), the last one at ``min(latest reconnect, timer)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.trace import get_tracer
from repro.sim.rng import RngStreams
from repro.units import MINUTE

__all__ = [
    "RecoverySpec",
    "DEFAULT_RECOVERY_SPEC",
    "RecoveryOutcome",
    "simulate_recovery",
    "RouterFailureOutcome",
    "simulate_router_failure",
]

# The one constant table for recovery timing.  Everything that needs an
# obd_timeout-scale number — the ``recovery`` CLI subcommand, the
# resilience playbooks, tests — reads these (directly or through
# ``DEFAULT_RECOVERY_SPEC``), so the values cannot drift apart.
#: obd_timeout: the standard-recovery discovery scale (seconds)
OBD_TIMEOUT = 100.0
#: hard cap on the reconnect window before stragglers are evicted
RECOVERY_WINDOW = 5 * MINUTE
#: imperative recovery: MGS IR notification latency (seconds)
MGS_NOTIFY_LATENCY = 2.0
#: connect + lock re-acquisition cost per client (seconds)
RECONNECT_COST = 1.5
#: transactions replayed per second (stock journaling)
REPLAY_RATE = 20_000.0
#: high-performance journaling replay speedup factor
JOURNAL_SPEEDUP = 3.0


@dataclass(frozen=True)
class RecoverySpec:
    """Timing parameters of the recovery machinery."""

    rpc_timeout: float = OBD_TIMEOUT  # standard discovery scale
    recovery_window: float = RECOVERY_WINDOW  # cap before evicting stragglers
    mgs_notify_latency: float = MGS_NOTIFY_LATENCY  # imperative MGS IR
    reconnect_cost: float = RECONNECT_COST  # per-client reconnect
    replay_rate: float = REPLAY_RATE  # transactions replayed per second
    journal_speedup: float = JOURNAL_SPEEDUP  # hp journaling factor

    def __post_init__(self) -> None:
        for value in (self.rpc_timeout, self.recovery_window,
                      self.mgs_notify_latency, self.reconnect_cost,
                      self.replay_rate, self.journal_speedup):
            if value <= 0:
                raise ValueError("all recovery parameters must be positive")


#: the shared default spec (the constant table above, as one object)
DEFAULT_RECOVERY_SPEC = RecoverySpec()


@dataclass(frozen=True)
class RecoveryOutcome:
    """What one failover cost."""

    imperative: bool
    n_clients: int
    reconnected: int
    evicted: int
    window_seconds: float  # failover to I/O resumption
    replay_seconds: float

    @property
    def blackout_seconds(self) -> float:
        return self.window_seconds + self.replay_seconds

    def rows(self) -> list[tuple[str, str]]:
        mode = "imperative" if self.imperative else "standard"
        return [
            ("mode", mode),
            ("clients", str(self.n_clients)),
            ("reconnected", str(self.reconnected)),
            ("evicted", str(self.evicted)),
            ("reconnect window", f"{self.window_seconds:.1f} s"),
            ("replay", f"{self.replay_seconds:.1f} s"),
            ("I/O blackout", f"{self.blackout_seconds:.1f} s"),
        ]


def simulate_recovery(
    n_clients: int = 18_688,
    *,
    imperative: bool = False,
    hp_journaling: bool = False,
    spec: RecoverySpec | None = None,
    open_transactions: int = 250_000,
    absent_fraction: float = 0.002,
    seed: int = 0,
) -> RecoveryOutcome:
    """One OSS failover with ``n_clients`` connected.

    ``absent_fraction`` of clients are dead (crashed nodes) and can never
    reconnect — they are what forces standard recovery to run out its full
    window, a detail operators of 18,688-client systems know well.
    """
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    if not (0 <= absent_fraction < 1):
        raise ValueError("absent_fraction must be in [0, 1)")
    spec = spec or RecoverySpec()
    rng = RngStreams(seed).get("recovery")

    n_absent = int(round(n_clients * absent_fraction))
    n_live = n_clients - n_absent

    if imperative:
        # MGS notification fan-out plus reconnect.
        discovery = rng.exponential(spec.mgs_notify_latency, size=n_live)
    else:
        # Clients notice on their next timed-out RPC: uniform phase within
        # the timeout, plus the timeout itself.
        discovery = spec.rpc_timeout * (1.0 + rng.random(n_live) * 0.5)
    reconnect_at = discovery + rng.exponential(spec.reconnect_cost,
                                               size=n_live)

    # A reconnect drawn past the timer lands on it, so every live client
    # counts as reconnected and the last one comes back at the earlier of
    # the latest draw and the timer.
    last = (float(min(reconnect_at.max(), spec.recovery_window))
            if n_live else 0.0)

    if n_absent > 0 and not imperative:
        # Stragglers hold the window open until the timer expires.
        window = spec.recovery_window
    else:
        # The window closes once every *live* client is back (with dead
        # clients, IR knows who was notified and version-based recovery
        # evicts them quickly).
        window = last

    replay = open_transactions / spec.replay_rate
    if hp_journaling:
        replay /= spec.journal_speedup

    tracer = get_tracer()
    if tracer.enabled:
        # Recovery times are relative to the failover; anchor its spans
        # at the caller's current sim time so traces compose.
        t0 = tracer.now()
        tracer.record(
            "recovery:reconnect-window", "recovery", t0, t0 + float(window),
            imperative=imperative, reconnected=n_live,
            evicted=n_absent)
        tracer.record(
            "recovery:replay", "recovery",
            t0 + float(window), t0 + float(window) + float(replay),
            transactions=open_transactions, hp_journaling=hp_journaling)

    return RecoveryOutcome(
        imperative=imperative,
        n_clients=n_clients,
        reconnected=n_live,
        evicted=n_absent,
        window_seconds=float(window),
        replay_seconds=float(replay),
    )


@dataclass(frozen=True)
class RouterFailureOutcome:
    """Cost of one LNET router failure to the clients routed through it.

    The third §IV-D funded feature — *asymmetric router notification*
    (ARN) — addresses exactly this: without it, a client discovers a dead
    router only by timing out RPCs in flight on it (and the notification
    is asymmetric because the servers, on the InfiniBand side, notice the
    router vanish long before the Gemini-side clients do).
    """

    arn: bool
    n_affected_clients: int
    mean_stall_seconds: float
    max_stall_seconds: float
    total_stall_client_seconds: float

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("notification", "ARN" if self.arn else "timeout-based"),
            ("affected clients", str(self.n_affected_clients)),
            ("mean I/O stall", f"{self.mean_stall_seconds:.1f} s"),
            ("max I/O stall", f"{self.max_stall_seconds:.1f} s"),
            ("total stall", f"{self.total_stall_client_seconds:,.0f} "
                            f"client-seconds"),
        ]


def simulate_router_failure(
    n_affected_clients: int = 500,
    *,
    arn: bool = False,
    spec: RecoverySpec | None = None,
    reroute_cost: float = 0.5,
    seed: int = 0,
) -> RouterFailureOutcome:
    """One router dies; its clients stall until they reroute.

    Without ARN each client stalls for its own RPC timeout (phase-shifted
    by where it was in its timeout window); with ARN the servers push the
    dead-router notice and clients reroute within seconds.
    """
    if n_affected_clients <= 0:
        raise ValueError("n_affected_clients must be positive")
    if reroute_cost <= 0:
        raise ValueError("reroute_cost must be positive")
    spec = spec or RecoverySpec()
    rng = RngStreams(seed).get("router-failure")
    if arn:
        discovery = rng.exponential(spec.mgs_notify_latency,
                                    size=n_affected_clients)
    else:
        discovery = spec.rpc_timeout * (1.0 + rng.random(n_affected_clients) * 0.5)
    stalls = discovery + reroute_cost
    tracer = get_tracer()
    if tracer.enabled:
        t0 = tracer.now()
        tracer.record(
            "recovery:reroute", "recovery", t0, t0 + float(stalls.max()),
            arn=arn, affected=n_affected_clients)
    return RouterFailureOutcome(
        arn=arn,
        n_affected_clients=n_affected_clients,
        mean_stall_seconds=float(stalls.mean()),
        max_stall_seconds=float(stalls.max()),
        total_stall_client_seconds=float(stalls.sum()),
    )
