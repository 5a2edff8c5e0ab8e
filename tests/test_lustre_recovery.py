"""Recovery simulation tests (§IV-D features)."""

import pytest

from repro.lustre.recovery import (
    RecoveryOutcome,
    RecoverySpec,
    simulate_recovery,
)
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecoverySpec(rpc_timeout=0)
        with pytest.raises(ValueError):
            RecoverySpec(journal_speedup=0)


class TestStandardRecovery:
    def test_discovery_is_timeout_scale(self):
        o = simulate_recovery(n_clients=1000, imperative=False,
                              absent_fraction=0.0, seed=1)
        spec = RecoverySpec()
        # All clients discover within [timeout, 1.5*timeout] + reconnect.
        assert o.window_seconds >= spec.rpc_timeout
        assert o.window_seconds <= spec.recovery_window

    def test_dead_clients_force_full_window(self):
        o = simulate_recovery(n_clients=1000, imperative=False,
                              absent_fraction=0.01, seed=1)
        assert o.window_seconds == pytest.approx(RecoverySpec().recovery_window)
        assert o.evicted == 10


class TestImperativeRecovery:
    def test_window_collapses_to_seconds(self):
        std = simulate_recovery(n_clients=5000, imperative=False, seed=2)
        imp = simulate_recovery(n_clients=5000, imperative=True, seed=2)
        assert imp.window_seconds < 0.2 * std.window_seconds

    def test_ir_handles_dead_clients_gracefully(self):
        o = simulate_recovery(n_clients=1000, imperative=True,
                              absent_fraction=0.01, seed=3)
        assert o.window_seconds < 60.0
        assert o.evicted == 10


class TestJournaling:
    def test_hp_journaling_divides_replay(self):
        stock = simulate_recovery(n_clients=100, hp_journaling=False, seed=4)
        hp = simulate_recovery(n_clients=100, hp_journaling=True, seed=4)
        assert hp.replay_seconds == pytest.approx(
            stock.replay_seconds / RecoverySpec().journal_speedup)
        assert hp.window_seconds == stock.window_seconds


class TestOutcome:
    def test_blackout_is_window_plus_replay(self):
        o = simulate_recovery(n_clients=100, seed=5)
        assert o.blackout_seconds == pytest.approx(
            o.window_seconds + o.replay_seconds)

    def test_all_live_clients_reconnect(self):
        o = simulate_recovery(n_clients=2000, absent_fraction=0.005, seed=6)
        assert o.reconnected == 2000 - o.evicted

    def test_rows_render(self):
        assert len(simulate_recovery(n_clients=10, seed=7).rows()) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_recovery(n_clients=0)
        with pytest.raises(ValueError):
            simulate_recovery(n_clients=10, absent_fraction=1.0)


def des_recovery(n_clients, *, imperative=False, hp_journaling=False,
                 spec=None, open_transactions=250_000,
                 absent_fraction=0.002, seed=0):
    """The event-driven recovery the closed form replaced: one engine
    event per live client's reconnect, run until the recovery timer."""
    spec = spec or RecoverySpec()
    rng = RngStreams(seed).get("recovery")
    engine = Engine()
    n_absent = int(round(n_clients * absent_fraction))
    n_live = n_clients - n_absent
    if imperative:
        discovery = rng.exponential(spec.mgs_notify_latency, size=n_live)
    else:
        discovery = spec.rpc_timeout * (1.0 + rng.random(n_live) * 0.5)
    reconnect_at = discovery + rng.exponential(spec.reconnect_cost,
                                               size=n_live)
    state = {"reconnected": 0, "last": 0.0}

    def _reconnect():
        state["reconnected"] += 1
        state["last"] = engine.now

    for t in reconnect_at:
        engine.call_at(float(min(t, spec.recovery_window)), _reconnect)
    engine.run(until=spec.recovery_window)
    if n_absent > 0 and not imperative:
        window = spec.recovery_window
    else:
        window = state["last"]
    replay = open_transactions / spec.replay_rate
    if hp_journaling:
        replay /= spec.journal_speedup
    return RecoveryOutcome(
        imperative=imperative, n_clients=n_clients,
        reconnected=state["reconnected"], evicted=n_absent,
        window_seconds=float(window), replay_seconds=float(replay))


class TestClosedFormOracle:
    """The closed-form window equals the event-driven one, field for
    field, including reconnects cut off by a short recovery timer."""

    @pytest.mark.parametrize("imperative", [False, True])
    @pytest.mark.parametrize("absent_fraction", [0.0, 0.002, 0.3])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_event_driven(self, imperative, absent_fraction, seed):
        for spec in (RecoverySpec(), RecoverySpec(recovery_window=120.0),
                     RecoverySpec(recovery_window=3.0)):
            kw = dict(imperative=imperative, spec=spec, seed=seed,
                      absent_fraction=absent_fraction, hp_journaling=seed > 0)
            assert simulate_recovery(2000, **kw) == des_recovery(2000, **kw)

    @pytest.mark.parametrize("imperative", [False, True])
    def test_no_live_client_edge(self, imperative):
        kw = dict(imperative=imperative, absent_fraction=0.6, seed=3)
        outcome = simulate_recovery(1, **kw)
        assert outcome == des_recovery(1, **kw)
        assert outcome.reconnected == 0
