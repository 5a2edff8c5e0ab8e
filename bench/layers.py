"""Per-layer attribution for the traced benchmark run.

:class:`LayerTracer` replaces a fixed set of public ``repro`` callables
with timing wrappers for the length of one timed call, then restores
them.  It also wraps every callable handed to ``Engine.call_at`` (which
``call_after`` and ``timeout`` go through), ``Engine.every`` and
``Engine.process``, plus the flush callable handed to
``core.flow.Epoch``, so each engine event is charged to the module that
defined its callback — that is how private scheduler, campaign and
overlay callbacks get a layer.

Attribution is by transitions: the tracer always knows which span is
current, and every enter or exit charges the time since the last
transition to that span's kind.  A kind's total is therefore its *self*
time (span time minus child spans), and the kinds' totals partition the
timed call exactly; time outside any wrapped boundary stays with the
root, which is reported as unattributed.

Three boundaries are deliberately not wrapped because they are called
millions of times: ``PathBuilder.link_utilization``, ``Namespace.*`` and
``FlowResult.utilization``.  Their cost lands in the caller's self time.

Spans are kept in memory (up to ``span_cap``) only when a Chrome-trace
file is requested; :meth:`LayerTracer.spans` gives each its id and
parent from the nesting of the intervals.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from types import MethodType

__all__ = ["LayerTracer", "LAYERS", "PER_LAYER_METRICS", "ROOT"]

#: the kind that owns time outside every wrapped boundary
ROOT = "bench.unattributed"

#: layer names; a kind belongs to the longest one its name starts with
LAYERS = ("sim.engine", "core.flow", "core.path", "network.torus",
          "network.lnet", "network.routing", "sched", "obs.overlay",
          "faults", "resilience", "metatier", "lustre")

#: callback module prefix → layer (first match wins)
_MODULE_LAYERS = (
    ("repro.sim", "sim.engine"),
    ("repro.core.flow", "core.flow"),
    ("repro.core.path", "core.path"),
    ("repro.network.torus", "network.torus"),
    ("repro.network.lnet", "network.lnet"),
    ("repro.network.routing", "network.routing"),
    ("repro.network.storm", "network.routing"),
    ("repro.sched", "sched"),
    ("repro.obs.overlay", "obs.overlay"),
    ("repro.faults", "faults"),
    ("repro.resilience", "resilience"),
    ("repro.metatier", "metatier"),
    ("repro.lustre", "lustre"),
)

_TIER_OPS = ("create", "read", "delete", "audit", "housekeep")
_FS_OPS = ("create_file", "mkdir", "append", "read_file", "unlink", "stat",
           "du", "scan_cost")

#: plainly timed boundaries: (module, class, methods, kind)
_BOUNDARIES = (
    ("repro.core.flow", "FlowNetwork",
     ("add_flow", "remove_flow", "set_capacity", "set_demand"),
     "core.flow.mutate"),
    ("repro.network.torus", "Torus3D", ("route_links_ordered",),
     "network.torus.route"),
    ("repro.network.lnet", "RoutingPolicy", ("select_router",),
     "network.lnet.select"),
    ("repro.network.lnet", "FineGrainedRouting", ("select_router",),
     "network.lnet.select"),
    ("repro.network.lnet", "RoundRobinRouting", ("select_router",),
     "network.lnet.select"),
    ("repro.network.routing", "FlowletRouting", ("select_router",),
     "network.lnet.select"),
    ("repro.network.routing", "BackpressureController", ("update",),
     "network.routing.update"),
    ("repro.network.routing", "LinkStatsFeed", ("ingest",),
     "network.routing.ingest"),
    ("repro.sched.qos", "BandwidthArbiter",
     ("allocate", "reallocate", "add", "remove"), "sched.arbiter"),
    ("repro.obs.overlay.scraper", "Scraper", ("sweep",),
     "obs.overlay.scrape"),
    ("repro.obs.overlay.collector", "CollectorSink", ("deliver",),
     "obs.overlay.deliver"),
    ("repro.obs.overlay.collector", "CollectorSink", ("close_window",),
     "obs.overlay.rollup"),
    ("repro.obs.overlay.alerts", "AlertEngine", ("observe_window",),
     "obs.overlay.alerts"),
    ("repro.faults.campaign", "FaultCampaign", ("run",), "faults.run"),
    ("repro.resilience.runner", "PlaybookRunner", ("on_fault",),
     "resilience.on_fault"),
    ("repro.metatier.needles", "SegmentStore", ("compact",),
     "metatier.compact"),
    ("repro.metatier.warmtier", "AgeMigrationPolicy", ("sweep",),
     "metatier.migrate"),
    ("repro.lustre.filesystem", "LustreFilesystem", _FS_OPS, "lustre.fs"),
    ("repro.metatier.shards", "ShardedFilesystem", _FS_OPS + ("rename",),
     "lustre.fs"),
    ("repro.lustre.mds", "MetadataServer", ("service_time",), "lustre.mds"),
)

_TIERS = (("PerFileTier", "per_file"), ("AggregatedTier", "aggregated"))


def _per_layer_metrics() -> tuple[tuple[str, str], ...]:
    metrics = [
        ("sim.engine.events", "count"), ("sim.engine.self_s", "s"),
        ("sim.engine.event_p50_us", "us"), ("sim.engine.event_p99_us", "us"),
        ("core.flow.solve.calls", "count"), ("core.flow.solve.self_s", "s"),
        ("core.flow.mutate.calls", "count"), ("core.flow.mutate.self_s", "s"),
        ("core.flow.resolve.full", "count"),
        ("core.flow.resolve.delta", "count"),
        ("core.flow.resolve.shortcircuit", "count"),
        ("core.flow.resolve.cached", "count"),
        ("core.flow.cached_frac", "fraction"),
        ("core.path.resolve.calls", "count"), ("core.path.resolve.self_s", "s"),
        ("core.path.build.calls", "count"), ("core.path.build.self_s", "s"),
        ("core.path.rebuild_frac", "fraction"),
        ("core.path.unroutable", "count"),
        ("network.torus.route.calls", "count"),
        ("network.torus.route.self_s", "s"),
        ("network.lnet.select.calls", "count"),
        ("network.lnet.select.self_s", "s"),
        ("network.routing.self_s", "s"), ("network.routing.rehashes", "count"),
        ("network.routing.stale_reads", "count"),
        ("sched.self_s", "s"), ("sched.arbiter.calls", "count"),
        ("sched.arbiter.self_s", "s"), ("sched.jobs_finished", "count"),
        ("sched.jobs_censored", "count"),
        ("obs.overlay.scrape.calls", "count"),
        ("obs.overlay.scrape.self_s", "s"),
        ("obs.overlay.deliver.self_s", "s"),
        ("obs.overlay.rollup.calls", "count"),
        ("obs.overlay.rollup.self_s", "s"), ("obs.overlay.alerts.self_s", "s"),
        ("obs.overlay.batches_lost_frac", "fraction"),
        ("obs.overlay.share", "fraction"),
        ("faults.self_s", "s"), ("faults.inject.calls", "count"),
        ("resilience.self_s", "s"),
    ]
    for _cls, arm in _TIERS:
        for op in _TIER_OPS:
            metrics += [(f"metatier.{arm}.{op}.calls", "count"),
                        (f"metatier.{arm}.{op}.self_s", "s")]
    metrics += [
        ("metatier.compact.calls", "count"), ("metatier.compact.self_s", "s"),
        ("metatier.migrate.self_s", "s"),
        ("metatier.per_file.mds_ops", "count"),
        ("metatier.aggregated.mds_ops", "count"),
        ("lustre.fs.calls", "count"), ("lustre.fs.self_s", "s"),
        ("lustre.mds.calls", "count"), ("lustre.mds.self_s", "s"),
        # measured by the harness around the tracer, not by it
        ("setup.build.self_s", "s"), ("setup.inputs.self_s", "s"),
        ("bench.trace_overhead_frac", "fraction"),
        ("bench.unattributed_frac", "fraction"),
    ]
    return tuple(metrics)


#: every per-layer metric the traced run reports, with its unit
PER_LAYER_METRICS = _per_layer_metrics()


_LONGEST_FIRST = sorted(LAYERS, key=len, reverse=True)


def _layer_of_kind(kind: str) -> str | None:
    for layer in _LONGEST_FIRST:
        if kind == layer or kind.startswith(layer + "."):
            return layer
    return None


def _invoke(callback):
    return callback()


def _percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


class LayerTracer:
    """Wraps the layer boundaries for one timed call.

    :meth:`install` patches, :meth:`start` and :meth:`stop` bracket the
    timed call, :meth:`uninstall` restores.  Patching happens at class
    level, so objects built before installation are covered too.
    """

    def __init__(self, *, span_cap: int = 0) -> None:
        self.kinds: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self._module_kinds: dict[str, int] = {}
        self._runners: dict[str, object] = {}
        self._spans = array("d") if span_cap > 0 else None
        self._span_floats = 3 * span_cap
        self.spans_dropped = 0
        self._origin = 0.0
        self.event_seconds = array("d")
        self.events = 0
        self.resolve = {"full": 0, "delta": 0, "shortcircuit": 0, "cached": 0}
        self.rebuilds = 0
        self.unroutable = 0
        self.jobs_finished = 0
        self.jobs_censored = 0
        self._overlays: dict[int, object] = {}
        self._flowlet_policies: dict[int, object] = {}
        self._tiers: dict[int, tuple[str, object]] = {}
        self._restore: list[tuple[type, str, object]] = []
        self.wall_s = 0.0
        self._kind(ROOT)
        self._bind, self._start, self._stop = self._make_binder()

    # -- kinds ----------------------------------------------------------------

    def _kind(self, name: str) -> int:
        k = self._kind_ids.get(name)
        if k is None:
            k = self._kind_ids[name] = len(self.kinds)
            self.kinds.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return k

    def _callback_kind(self, module: str | None) -> int:
        """The kind charged for a callback defined in ``module``."""
        k = self._module_kinds.get(module)
        if k is None:
            layer = next((lay for prefix, lay in _MODULE_LAYERS
                          if module == prefix
                          or (module or "").startswith(prefix + ".")), None)
            # Callbacks from modules outside every layer keep their module
            # name as kind and count as unattributed.
            name = f"{layer}.callbacks" if layer else f"other:{module}"
            k = self._module_kinds[module] = self._kind(name)
        return k

    def _callable_kind(self, fn) -> int:
        return self._callback_kind(getattr(fn, "__module__", None))

    # -- the wrapper ----------------------------------------------------------

    def _make_binder(self):
        """The one timing routine and its bracket.

        ``bind(k, fn, event)`` returns ``fn`` wrapped to run as a span of
        kind ``k`` — a plain function, so it also binds as a method when
        patched onto a class.  ``event`` marks an engine event, whose
        duration joins the per-event distribution unless it is nested
        inside another event.  The transition state lives in closure
        cells: a wrapper runs once per span, millions of times in a
        traced run.
        """
        self_s = self.self_s
        calls = self.calls
        perf = time.perf_counter
        spans = self._spans
        span_floats = self._span_floats
        event_seconds = self.event_seconds
        cur = 0      # the current span's kind
        last = 0.0   # the last transition time
        depth = 0    # engine-event nesting

        def bind(k, fn, event=False):
            def timed(*args, **kwargs):
                nonlocal cur, last, depth
                t0 = perf()
                prev = cur
                self_s[prev] += t0 - last
                calls[k] += 1
                cur = k
                last = t0
                if event:
                    depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    self_s[k] += t1 - last
                    cur = prev
                    last = t1
                    if event:
                        depth -= 1
                        if not depth:
                            event_seconds.append(t1 - t0)
                    if spans is not None:
                        if len(spans) < span_floats:
                            spans.extend((k, t0, t1))
                        else:
                            self.spans_dropped += 1
            return timed

        def start() -> float:
            nonlocal cur, last
            cur = 0
            last = perf()
            return last

        def stop() -> float:
            nonlocal last
            t = perf()
            self_s[cur] += t - last
            last = t
            return t

        return bind, start, stop

    def _event(self, callback):
        """``callback`` as a timed engine event, charged to the module
        that defined it.

        Events are wrapped one by one, hundreds of thousands per run, and
        every object allocated per event also makes the garbage collector
        walk the whole set-up heap more often.  So each module gets one
        timed runner, and an event is that runner bound to its callback as
        a method: one small object, not a new closure and its cells.
        """
        module = getattr(callback, "__module__", None)
        runner = self._runners.get(module)
        if runner is None:
            runner = self._runners[module] = self._bind(
                self._callback_kind(module), _invoke, True)
        return MethodType(runner, callback)

    def _steps(self, gen):
        """A process generator whose every step is a timed engine event,
        charged to the module that defined the generator function."""
        send = self._bind(
            self._callback_kind(gen.gi_frame.f_globals["__name__"]),
            gen.send, True)
        value = None
        while True:
            try:
                out = send(value)
            except StopIteration as stop:
                return stop.value
            value = yield out

    # -- installation ---------------------------------------------------------

    def _patch(self, cls: type, name: str, make) -> None:
        original = cls.__dict__[name]
        self._restore.append((cls, name, original))
        setattr(cls, name, functools.wraps(original)(make(original)))

    def _patch_timed(self, cls: type, name: str, kind: str) -> None:
        k = self._kind(kind)
        self._patch(cls, name, lambda fn: self._bind(k, fn))

    def install(self) -> None:
        """Replace every boundary with its timing wrapper."""
        from repro.core.flow import Epoch, FlowNetwork
        from repro.core.path import PathBuilder
        from repro.faults import injectors
        from repro.metatier import scenarios
        from repro.obs.overlay.runtime import MonitoringOverlay
        from repro.sched.scheduler import FacilityScheduler
        from repro.sim.engine import Engine
        from repro.network.routing import FlowletRouting

        for module, cls_name, methods, kind in _BOUNDARIES:
            cls = getattr(importlib.import_module(module), cls_name)
            for name in methods:
                self._patch_timed(cls, name, kind)
        for cls in sorted((c for c in vars(injectors).values()
                           if isinstance(c, type)
                           and issubclass(c, injectors.Injector)),
                          key=lambda c: c.__name__):
            for name in ("inject", "repair"):
                if name in cls.__dict__:
                    self._patch_timed(cls, name, f"faults.{name}")
        for cls_name, arm in _TIERS:
            cls = getattr(scenarios, cls_name)
            for op in _TIER_OPS[:-1]:
                self._patch_timed(cls, op, f"metatier.{arm}.{op}")
            # housekeep runs once per audit sweep: it also registers the
            # tier, whose MDS op count is read after the run
            register = self._registering(
                self._tiers, lambda tier, arm=arm: (arm, tier))
            housekeep_k = self._kind(f"metatier.{arm}.housekeep")
            self._patch(cls, "housekeep",
                        lambda fn, register=register, k=housekeep_k:
                        self._bind(k, register(fn)))

        # Engine: dispatch is the engine's own kind; every callback gets
        # the kind of the module that defined it.
        run_k = self._kind("sim.engine.run")

        def make_run(fn):
            timed = self._bind(run_k, fn)

            def run(engine, *args, **kwargs):
                before = engine.events_processed
                try:
                    return timed(engine, *args, **kwargs)
                finally:
                    self.events += engine.events_processed - before
            return run

        def make_call_at(fn):
            def call_at(engine, time_, callback, *, priority=0):
                return fn(engine, time_, self._event(callback),
                          priority=priority)
            return call_at

        def make_every(fn):
            def every(engine, interval, callback, *, start=None,
                      name="periodic"):
                return fn(engine, interval, self._bind(
                    self._callable_kind(callback), callback),
                    start=start, name=name)
            return every

        def make_process(fn):
            def process(engine, gen, name=""):
                return fn(engine, self._steps(gen),
                          name or getattr(gen, "__name__", "process"))
            return process

        def make_epoch_init(fn):
            def __init__(epoch, flush, **kwargs):
                fn(epoch, self._bind(self._callable_kind(flush), flush),
                   **kwargs)
            return __init__

        self._patch(Engine, "run", make_run)
        self._patch(Engine, "call_at", make_call_at)
        self._patch(Engine, "every", make_every)
        self._patch(Engine, "process", make_process)
        self._patch(Epoch, "__init__", make_epoch_init)

        # Flow: the solve census is read from solve_counts around each solve.
        solve_k = self._kind("core.flow.solve")

        def make_solve(fn):
            def solve(net, *args, **kwargs):
                before = dict(net.solve_counts)
                try:
                    return fn(net, *args, **kwargs)
                finally:
                    for path, count in net.solve_counts.items():
                        self.resolve[path] += count - before.get(path, 0)
            return self._bind(solve_k, solve)

        self._patch(FlowNetwork, "solve", make_solve)
        self._patch(FlowNetwork, "solve_rates", make_solve)

        resolve_k = self._kind("core.path.resolve")
        build_k = self._kind("core.path.build")

        def make_resolve(fn):
            def resolve(builder, *args, **kwargs):
                before = self.calls[build_k]
                try:
                    return fn(builder, *args, **kwargs)
                finally:
                    self.rebuilds += self.calls[build_k] - before
            return self._bind(resolve_k, resolve)

        def make_build(fn):
            def build(builder, *args, **kwargs):
                net = fn(builder, *args, **kwargs)
                self.unroutable += builder.unroutable_flows
                return net
            return self._bind(build_k, build)

        self._patch(PathBuilder, "resolve", make_resolve)
        self._patch(PathBuilder, "build", make_build)

        sched_run_k = self._kind("sched.run")

        def make_sched_run(fn):
            def run(scheduler, *args, **kwargs):
                result = fn(scheduler, *args, **kwargs)
                self.jobs_finished += result.n_finished
                self.jobs_censored += result.n_censored
                return result
            return self._bind(sched_run_k, run)

        self._patch(FacilityScheduler, "run", make_sched_run)
        refresh_k = self._kind("network.routing.refresh")
        self._patch(FlowletRouting, "refresh", lambda fn: self._bind(
            refresh_k, self._registering(self._flowlet_policies)(fn)))
        self._patch(MonitoringOverlay, "attach",
                    self._registering(self._overlays))

    @staticmethod
    def _registering(registry: dict, entry=lambda obj: obj):
        """A method decorator remembering each distinct ``self`` seen."""
        def make(fn):
            def method(obj, *args, **kwargs):
                registry.setdefault(id(obj), entry(obj))
                return fn(obj, *args, **kwargs)
            return method
        return make

    def uninstall(self) -> None:
        """Put every original callable back (idempotent)."""
        while self._restore:
            cls, name, original = self._restore.pop()
            setattr(cls, name, original)

    def start(self) -> None:
        """Begin attribution: from now on time belongs to the root."""
        self._origin = self._start()

    def stop(self) -> None:
        """End attribution and charge the tail to the current kind."""
        self.wall_s = self._stop() - self._origin

    # -- results --------------------------------------------------------------

    def layer_seconds(self) -> tuple[dict[str, float], float]:
        """Self time per layer, and the unattributed remainder."""
        per_layer = {layer: 0.0 for layer in LAYERS}
        unattributed = 0.0
        for kind, seconds in zip(self.kinds, self.self_s):
            layer = _layer_of_kind(kind)
            if layer is None:
                unattributed += seconds
            else:
                per_layer[layer] += seconds
        return per_layer, unattributed

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics this tracer measures (everything in
        :data:`PER_LAYER_METRICS` except the ``setup.*`` and ``bench.*``
        rows the harness adds)."""
        ids = self._kind_ids

        def s(kind: str) -> float:
            return self.self_s[ids[kind]] if kind in ids else 0.0

        def c(kind: str) -> int:
            return self.calls[ids[kind]] if kind in ids else 0

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        layer_s, _unattributed = self.layer_seconds()
        events = sorted(self.event_seconds)
        overlays = list(self._overlays.values())
        policies = list(self._flowlet_policies.values())
        m = {
            "sim.engine.events": self.events,
            "sim.engine.self_s": layer_s["sim.engine"],
            "sim.engine.event_p50_us": _percentile(events, 50) * 1e6,
            "sim.engine.event_p99_us": _percentile(events, 99) * 1e6,
            "core.flow.solve.calls": c("core.flow.solve"),
            "core.flow.solve.self_s": s("core.flow.solve"),
            "core.flow.mutate.calls": c("core.flow.mutate"),
            "core.flow.mutate.self_s": s("core.flow.mutate"),
            **{f"core.flow.resolve.{path}": n
               for path, n in self.resolve.items()},
            "core.flow.cached_frac": frac(self.resolve["cached"],
                                          c("core.flow.solve")),
            "core.path.resolve.calls": c("core.path.resolve"),
            "core.path.resolve.self_s": s("core.path.resolve"),
            "core.path.build.calls": c("core.path.build"),
            "core.path.build.self_s": s("core.path.build"),
            "core.path.rebuild_frac": frac(self.rebuilds,
                                           c("core.path.resolve")),
            "core.path.unroutable": self.unroutable,
            "network.torus.route.calls": c("network.torus.route"),
            "network.torus.route.self_s": s("network.torus.route"),
            "network.lnet.select.calls": c("network.lnet.select"),
            "network.lnet.select.self_s": s("network.lnet.select"),
            "network.routing.self_s": layer_s["network.routing"],
            "network.routing.rehashes": sum(p.rehashes for p in policies),
            "network.routing.stale_reads": sum(p.stale_reads
                                               for p in policies),
            "sched.self_s": layer_s["sched"],
            "sched.arbiter.calls": c("sched.arbiter"),
            "sched.arbiter.self_s": s("sched.arbiter"),
            "sched.jobs_finished": self.jobs_finished,
            "sched.jobs_censored": self.jobs_censored,
            "obs.overlay.scrape.calls": c("obs.overlay.scrape"),
            "obs.overlay.scrape.self_s": s("obs.overlay.scrape"),
            "obs.overlay.deliver.self_s": s("obs.overlay.deliver"),
            "obs.overlay.rollup.calls": c("obs.overlay.rollup"),
            "obs.overlay.rollup.self_s": s("obs.overlay.rollup"),
            "obs.overlay.alerts.self_s": s("obs.overlay.alerts"),
            "obs.overlay.batches_lost_frac": frac(
                sum(o.n_lost for o in overlays),
                sum(o.n_batches for o in overlays)),
            "obs.overlay.share": frac(layer_s["obs.overlay"], self.wall_s),
            "faults.self_s": layer_s["faults"],
            "faults.inject.calls": c("faults.inject"),
            "resilience.self_s": layer_s["resilience"],
        }
        for _cls, arm in _TIERS:
            for op in _TIER_OPS:
                m[f"metatier.{arm}.{op}.calls"] = c(f"metatier.{arm}.{op}")
                m[f"metatier.{arm}.{op}.self_s"] = s(f"metatier.{arm}.{op}")
            m[f"metatier.{arm}.mds_ops"] = sum(
                tier.metadata_ops() for name, tier in self._tiers.values()
                if name == arm)
        m.update({
            "metatier.compact.calls": c("metatier.compact"),
            "metatier.compact.self_s": s("metatier.compact"),
            "metatier.migrate.self_s": s("metatier.migrate"),
            "lustre.fs.calls": c("lustre.fs"),
            "lustre.fs.self_s": s("lustre.fs"),
            "lustre.mds.calls": c("lustre.mds"),
            "lustre.mds.self_s": s("lustre.mds"),
        })
        return m

    def spans(self) -> list[tuple[int, int, str, float, float]]:
        """The kept spans as ``(id, parent, kind, t0, t1)`` in start order.

        Spans are recorded as they close; ids and parents come from the
        nesting of their intervals (a parent id of 0 is the root)."""
        raw = self._spans if self._spans is not None else array("d")
        closed = sorted(
            ((raw[i + 1], raw[i + 2], int(raw[i])) for i in range(0, len(raw), 3)),
            key=lambda span: (span[0], -span[1]))
        out = []
        stack: list[tuple[int, float]] = []   # (id, t1) of open ancestors
        for sid, (t0, t1, k) in enumerate(closed, start=1):
            while stack and stack[-1][1] <= t0:
                stack.pop()
            out.append((sid, stack[-1][0] if stack else 0, self.kinds[k],
                        t0, t1))
            stack.append((sid, t1))
        return out

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the kept spans as Chrome-trace "complete" events
        (microseconds from the start of the timed call)."""
        origin = self._origin
        with open(path, "w") as f:
            f.write('{"displayTimeUnit": "ms", "otherData": ')
            json.dump({**metadata, "spans_dropped": self.spans_dropped}, f)
            f.write(', "traceEvents": [')
            sep = "\n"
            for sid, parent, kind, t0, t1 in self.spans():
                f.write(sep + json.dumps({
                    "name": kind, "cat": _layer_of_kind(kind) or ROOT,
                    "ph": "X", "pid": 1, "tid": 1,
                    "ts": round((t0 - origin) * 1e6, 3),
                    "dur": round((t1 - t0) * 1e6, 3),
                    "args": {"id": sid, "parent": parent},
                }))
                sep = ",\n"
            f.write("\n]}\n")
