"""Whole-program rules: the invariants PRs 4-7 prove dynamically.

Each rule here is the static form of a property the test suite
re-proves on every PR with equality assertions over whole runs:

* ``epoch-safety`` — FlowNetwork mutations reachable from DES event
  callbacks must batch through an :class:`Epoch` (PR 7's same-tick
  batching contract); direct ``solve()`` in a per-tick handler bypasses
  the batch and re-solves once per event instead of once per tick.
* ``telemetry-taint`` — values read back out of Telemetry/Tracer/
  MetricsDb must never flow into RNG draws, FlowNetwork mutations, or
  event scheduling, or disabling telemetry changes simulation results
  (the bit-identity invariant every subsystem test asserts).
* ``dirty-state`` — public methods of a ``_dirty``-tracked class that
  mutate tracked solver state must also touch the dirty set, or
  ``solve()`` serves stale cached results.
* ``cross-iter-order`` — set-typed values that cross a function or
  object boundary into a loop feeding flow mutations or RNG draws make
  results hash-order dependent (the whole-program extension of the
  per-file ``iter-order`` rule).

All four query the :class:`~repro.lint.project.ProjectContext` index
and the :class:`~repro.lint.dataflow.DataflowAnalysis` taint engine;
nothing here imports the code under analysis.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.dataflow import SET_LABEL, DataflowAnalysis
from repro.lint.findings import Finding
from repro.lint.project import FunctionInfo, ProjectContext, type_is
from repro.lint.registry import DeepRule, register

__all__ = [
    "EpochSafetyRule",
    "TelemetryTaintRule",
    "DirtyStateRule",
    "CrossIterOrderRule",
]

#: FlowNetwork state-changing methods (the delta ops of the incremental
#: solver) — the mutation set both epoch-safety and telemetry-taint key on
NETWORK_MUTATORS = frozenset(
    {"add_flow", "remove_flow", "set_capacity", "set_demand"})
NETWORK_SOLVERS = frozenset({"solve", "solve_rates"})

#: Engine registration methods whose function-valued arguments become
#: DES event callbacks
SCHEDULE_METHODS = frozenset({"call_at", "call_after", "every"})

#: numpy Generator draw methods — consuming entropy here must never
#: depend on telemetry or on set iteration order
RNG_DRAWS = frozenset({
    "random", "integers", "normal", "standard_normal", "lognormal",
    "exponential", "poisson", "uniform", "choice", "shuffle",
    "permutation", "gamma", "binomial", "geometric",
})

_TAINT = "telemetry"
_CROSS = "cross-boundary"

#: read surface of the observability plane: members whose value reflects
#: telemetry state (write members — add/set/observe/insert — are absent
#: on purpose: writing telemetry is the whole point)
_TELEM_READ_ATTRS = frozenset({"value"})
_TELEM_READ_CALLS = frozenset({
    "value", "mean", "percentile", "buckets", "snapshot",
    "counters", "gauges", "histograms",
    "latest", "range", "rate", "aggregate_latest", "top_sources",
    "sources", "metrics",
})
_TELEM_TYPES = ("Telemetry", "Tracer", "MetricsDb",
                "Counter", "Gauge", "Histogram", "LogHistogram")
_TELEM_GETTERS = frozenset({"get_telemetry", "get_tracer"})
_TELEM_NAMES = frozenset({"telemetry", "tracer", "_telemetry", "_tracer"})

_MUTATING_CALLS = frozenset({
    "append", "insert", "add", "discard", "remove", "pop", "popleft",
    "update", "extend", "clear", "setdefault", "appendleft",
})


def _terminal_name(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return ""


def _is_flow_network(project: ProjectContext, fn: FunctionInfo,
                     expr: ast.expr) -> bool:
    return type_is(project.expr_type(fn, expr), "FlowNetwork")


def _is_epoch(project: ProjectContext, fn: FunctionInfo,
              expr: ast.expr) -> bool:
    return type_is(project.expr_type(fn, expr), "Epoch")


def _is_engine(project: ProjectContext, fn: FunctionInfo,
               expr: ast.expr) -> bool:
    if type_is(project.expr_type(fn, expr), "Engine"):
        return True
    return _terminal_name(expr) in ("engine", "_engine")


def _is_rng(project: ProjectContext, fn: FunctionInfo,
            expr: ast.expr) -> bool:
    if type_is(project.expr_type(fn, expr), "Generator", "RandomState"):
        return True
    return "rng" in _terminal_name(expr).lower()


def _is_telemetry_receiver(project: ProjectContext, fn: FunctionInfo,
                           expr: ast.expr) -> bool:
    """Does ``expr`` evaluate to a telemetry-plane object?

    Type-first (class index / annotations / constructor assignments),
    then the conventional receiver names the per-file obs rules already
    key on, then one level through method-call chains so
    ``telemetry.counter("x")`` is recognized as an instrument.
    """
    if type_is(project.expr_type(fn, expr), *_TELEM_TYPES):
        return True
    if _terminal_name(expr) in _TELEM_NAMES:
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if _terminal_name(func) in _TELEM_GETTERS:
            return True
        if isinstance(func, ast.Attribute):
            return _is_telemetry_receiver(project, fn, func.value)
    return False


def _schedule_registrations(project: ProjectContext, fn: FunctionInfo
                            ) -> Iterator[tuple[ast.Call, list[str]]]:
    """Engine callback registrations made inside ``fn``: each yields the
    call node and the resolved functions its arguments designate."""
    for call in fn.calls():
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in SCHEDULE_METHODS):
            continue
        if not _is_engine(project, fn, func.value):
            continue
        targets: list[str] = []
        for arg in call.args:
            targets.extend(project.resolve_func_refs(fn, arg))
        if targets:
            yield call, targets


@register
class EpochSafetyRule(DeepRule):
    """Event callbacks must batch FlowNetwork work through an Epoch."""

    rule_id = "epoch-safety"
    summary = ("FlowNetwork mutations reachable from a DES event callback "
               "must be Epoch-batched, and per-tick handlers must not call "
               "solve() directly")
    invariant = ("every per-tick executor funnels same-tick re-solves "
                 "through one Epoch flush")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        mutators: dict[str, tuple[ast.Call, str]] = {}
        solvers: dict[str, tuple[ast.Call, str]] = {}
        epoch_users: set[str] = set()
        flush_funcs: set[str] = set()
        callbacks: dict[str, FunctionInfo] = {}

        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            for node in fn.own_nodes():
                if isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Attribute):
                        if (func.attr in NETWORK_MUTATORS
                                and _is_flow_network(project, fn, func.value)):
                            mutators.setdefault(qualname, (node, func.attr))
                        elif (func.attr in NETWORK_SOLVERS
                                and _is_flow_network(project, fn, func.value)):
                            solvers.setdefault(qualname, (node, func.attr))
                        elif (func.attr == "request"
                                and _is_epoch(project, fn, func.value)):
                            epoch_users.add(qualname)
                    dotted = fn.ctx.dotted_name(func)
                    if (dotted and type_is(dotted, "Epoch") and node.args):
                        flush_funcs.update(
                            project.resolve_func_refs(fn, node.args[0]))
            for _site, targets in _schedule_registrations(project, fn):
                for target in targets:
                    callbacks.setdefault(target, project.functions[target])

        for entry in sorted(callbacks):
            if entry in flush_funcs:
                continue  # the Epoch flush is *where* batched work runs
            fn = callbacks[entry]
            reach = project.reachable([entry])
            batched = any(g in epoch_users for g in reach)
            if not batched:
                hit = sorted(g for g in reach if g in mutators)
                if hit:
                    node, method = mutators[hit[0]]
                    via = "" if hit[0] == entry else f" via {hit[0]}()"
                    yield self.finding(
                        fn.ctx, fn.node,
                        f"event callback {fn.name}() reaches "
                        f"FlowNetwork.{method}(){via} with no Epoch on the "
                        f"path; batch the mutation with Epoch.request()")
            direct = sorted(g for g in reach if g in solvers)
            if direct:
                node, method = solvers[direct[0]]
                via = "" if direct[0] == entry else f" via {direct[0]}()"
                yield self.finding(
                    fn.ctx, fn.node,
                    f"event callback {fn.name}() calls "
                    f"FlowNetwork.{method}(){via}, bypassing Epoch batching; "
                    f"per-tick handlers must route re-solves through "
                    f"Epoch.request()")


class _TaintPass:
    """One dataflow run over every function, with one-level summaries.

    Round 1 computes which functions return tainted values and which
    parameters reach sinks; round 2 re-runs with those summaries active
    so taint crosses one call boundary in each direction.  The rounds
    iterate until the summary sets stop growing (bounded: the sets only
    grow, so at most a handful of rounds on this codebase).
    """

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.returns_taint: set[str] = set()
        self.sink_params: dict[str, set[int]] = {}
        self.analyses: dict[str, DataflowAnalysis] = {}
        for _ in range(4):
            if not self._run_round():
                break

    def _run_round(self) -> bool:
        grew = False
        for qualname in sorted(self.project.functions):
            fn = self.project.functions[qualname]
            analysis = DataflowAnalysis(
                fn.node,
                classify=lambda node, fn=fn: self._classify(fn, node),
                initial=self._param_env(fn))
            self.analyses[qualname] = analysis
            for node in fn.own_nodes():
                if isinstance(node, ast.Return) and node.value is not None:
                    if _TAINT in analysis.labels_of(node.value):
                        if qualname not in self.returns_taint:
                            self.returns_taint.add(qualname)
                            grew = True
            for call, positions in self._sink_args(fn, analysis):
                for pos, labels in positions:
                    for label in labels:
                        if label.startswith("param:"):
                            idx = int(label.split(":", 1)[1])
                            sinks = self.sink_params.setdefault(qualname, set())
                            if idx not in sinks:
                                sinks.add(idx)
                                grew = True
        return grew

    @staticmethod
    def _param_env(fn: FunctionInfo) -> dict[str, frozenset[str]]:
        args = fn.node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args)
                 if a.arg not in ("self", "cls")]
        return {name: frozenset({f"param:{i}"})
                for i, name in enumerate(names)}

    def _classify(self, fn: FunctionInfo, node: ast.AST) -> frozenset[str]:
        project = self.project
        if isinstance(node, ast.Attribute):
            if (node.attr in _TELEM_READ_ATTRS
                    and _is_telemetry_receiver(project, fn, node.value)):
                return frozenset({_TAINT})
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _TELEM_READ_CALLS
                    and _is_telemetry_receiver(project, fn, func.value)):
                return frozenset({_TAINT})
            target = project.resolve_call(fn, node)
            if target in self.returns_taint:
                return frozenset({_TAINT})
        return frozenset()

    def _sink_args(self, fn: FunctionInfo, analysis: DataflowAnalysis
                   ) -> Iterator[tuple[ast.Call,
                                       list[tuple[int, frozenset[str]]]]]:
        """Sink calls in ``fn`` with the labels of each sink argument."""
        project = self.project
        for call in fn.calls():
            func = call.func
            if isinstance(func, ast.Attribute):
                is_sink = (
                    (func.attr in RNG_DRAWS
                     and _is_rng(project, fn, func.value))
                    or (func.attr in NETWORK_MUTATORS
                        and _is_flow_network(project, fn, func.value))
                    or (func.attr in SCHEDULE_METHODS
                        and _is_engine(project, fn, func.value)))
                if is_sink:
                    yield call, [(i, analysis.labels_of(arg))
                                 for i, arg in enumerate(call.args)]
                    continue
            target = project.resolve_call(fn, call)
            if target and target in self.sink_params:
                positions = self.sink_params[target]
                yield call, [(i, analysis.labels_of(arg))
                             for i, arg in enumerate(call.args)
                             if i in positions]


@register
class TelemetryTaintRule(DeepRule):
    """Telemetry reads must never influence simulation behavior."""

    rule_id = "telemetry-taint"
    summary = ("values read from Telemetry/Tracer/MetricsDb must not flow "
               "into RNG draws, FlowNetwork mutations, or event scheduling")
    invariant = ("simulation results are bit-identical with telemetry "
                 "enabled or disabled")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        taint = _TaintPass(project)
        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            analysis = taint.analyses[qualname]
            for call, positions in taint._sink_args(fn, analysis):
                tainted = [i for i, labels in positions if _TAINT in labels]
                if not tainted:
                    continue
                desc = self._describe(project, fn, call)
                yield self.finding(
                    fn.ctx, call,
                    f"telemetry-derived value flows into {desc} in "
                    f"{fn.name}(); observability reads must stay on the "
                    f"reporting plane (bit-identity)")

    @staticmethod
    def _describe(project: ProjectContext, fn: FunctionInfo,
                  call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in RNG_DRAWS and _is_rng(project, fn, func.value):
                return f"RNG draw .{func.attr}()"
            if func.attr in NETWORK_MUTATORS:
                return f"FlowNetwork.{func.attr}()"
            if func.attr in SCHEDULE_METHODS:
                return f"event scheduling .{func.attr}()"
        target = project.resolve_call(fn, call)
        return f"sink-reaching call {target or 'call'}()"


@register
class DirtyStateRule(DeepRule):
    """Mutating tracked solver state obliges marking it dirty."""

    rule_id = "dirty-state"
    summary = ("public methods of a _dirty-tracked class that mutate "
               "tracked attributes must also touch the dirty set")
    invariant = ("solve() never serves a cached result over silently "
                 "mutated solver state")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for cls_qual in sorted(project.classes):
            cls = project.classes[cls_qual]
            if not cls.dirty_attrs:
                continue
            touches: dict[str, bool] = {}
            mutated_by: dict[str, list[str]] = {}
            for name in sorted(cls.methods):
                fn = project.functions[cls.methods[name]]
                touches[name] = self._touches_dirty(fn, cls.dirty_attrs)
                mutated_by[name] = sorted(self._mutated_attrs(fn))
            # Attributes tracked by the dirty protocol: mutated by some
            # method that also touches the dirty set (and not dirty
            # attributes themselves).
            tracked = sorted({
                attr
                for name, attrs in mutated_by.items() if touches[name]
                for attr in attrs if attr not in cls.dirty_attrs})
            if not tracked:
                continue
            for name in sorted(cls.methods):
                if name.startswith("_") or name == "__init__":
                    continue  # the protocol binds the public surface
                if touches[name]:
                    continue
                fn = project.functions[cls.methods[name]]
                if self._callee_touches(project, cls.methods, fn, touches):
                    continue
                hit = sorted(set(mutated_by[name]) & set(tracked))
                if hit:
                    yield self.finding(
                        fn.ctx, fn.node,
                        f"{cls.name}.{name}() mutates dirty-tracked "
                        f"attribute(s) {', '.join(hit)} without touching "
                        f"{cls.dirty_attrs[0]}; solve() may serve stale "
                        f"state")

    @staticmethod
    def _dirty_aliases(fn: FunctionInfo, dirty_attrs: list[str]) -> set[str]:
        aliases: set[str] = set()
        for node in fn.own_nodes():
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"
                    and node.value.attr in dirty_attrs):
                aliases.add(node.targets[0].id)
        return aliases

    @classmethod
    def _touches_dirty(cls, fn: FunctionInfo, dirty_attrs: list[str]) -> bool:
        aliases = cls._dirty_aliases(fn, dirty_attrs)
        for node in fn.own_nodes():
            if (isinstance(node, ast.Attribute)
                    and node.attr in dirty_attrs
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                return True
            if isinstance(node, ast.Name) and node.id in aliases:
                return True
        return False

    @staticmethod
    def _callee_touches(project: ProjectContext, methods: dict[str, str],
                        fn: FunctionInfo, touches: dict[str, bool]) -> bool:
        """One level: a direct call to a sibling method that touches the
        dirty set (add_component -> set_capacity) keeps the caller honest."""
        by_qual = {q: n for n, q in methods.items()}
        return any(touches.get(by_qual[t], False)
                   for t in project.callees(fn.qualname) if t in by_qual)

    @staticmethod
    def _mutated_attrs(fn: FunctionInfo) -> set[str]:
        """Self-attributes this method mutates in place.

        Counted: subscript stores/deletes/aug-assigns and mutating method
        calls, directly on ``self.X`` or through a local alias of it.
        Plain rebinding (``self.X = ...``) is not counted — rebinding is
        how caches are invalidated (``self._csr = None``), not how
        tracked state drifts.
        """
        aliases: dict[str, str] = {}
        for node in fn.own_nodes():
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"):
                aliases[node.targets[0].id] = node.value.attr

        def base_attr(expr: ast.expr) -> str | None:
            if (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"):
                return expr.attr
            if isinstance(expr, ast.Name):
                return aliases.get(expr.id)
            return None

        out: set[str] = set()
        for node in fn.own_nodes():
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if isinstance(target, ast.Subscript):
                    attr = base_attr(target.value)
                    if attr:
                        out.add(attr)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_CALLS):
                attr = base_attr(node.func.value)
                if attr:
                    out.add(attr)
        return out


class _SetPass:
    """Set-provenance dataflow for cross-iter-order.

    Labels every expression with :data:`SET_LABEL` (statically a set)
    plus :data:`_CROSS` when the set crossed a function or object
    boundary — an attribute, a set-typed parameter, or the result of a
    function summarized as returning a set.  ``sorted()`` strips
    SET_LABEL (the engine's launderers), so a sorted boundary-crossing
    set stops being reportable even though its provenance remains.
    """

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.returns_set: set[str] = set()
        self.analyses: dict[str, DataflowAnalysis] = {}
        for _ in range(4):
            if not self._run_round():
                break

    def _run_round(self) -> bool:
        grew = False
        for qualname in sorted(self.project.functions):
            fn = self.project.functions[qualname]
            set_params = self._set_params(fn)
            elem_aliases = self._elem_set_aliases(fn)
            analysis = DataflowAnalysis(
                fn.node,
                classify=lambda node, fn=fn, sp=set_params, ea=elem_aliases:
                    self._classify(fn, sp, ea, node))
            self.analyses[qualname] = analysis
            for node in fn.own_nodes():
                if (isinstance(node, ast.Return) and node.value is not None
                        and SET_LABEL in analysis.labels_of(node.value)
                        and qualname not in self.returns_set):
                    self.returns_set.add(qualname)
                    grew = True
            returns_ann = fn.node.returns
            if returns_ann is not None and qualname not in self.returns_set:
                from repro.lint.project import _annotation_is_set
                if _annotation_is_set(fn.ctx, returns_ann):
                    self.returns_set.add(qualname)
                    grew = True
        return grew

    @staticmethod
    def _set_params(fn: FunctionInfo) -> set[str]:
        from repro.lint.project import _annotation_is_set
        args = fn.node.args
        return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                if a.annotation is not None
                and _annotation_is_set(fn.ctx, a.annotation)}

    def _elem_set_aliases(self, fn: FunctionInfo) -> set[str]:
        """Locals aliasing a container-of-sets attribute
        (``comp_flows = self._comp_flows``)."""
        out: set[str] = set()
        for node in fn.own_nodes():
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and self._is_elem_set_attr(fn, node.value)):
                out.add(node.targets[0].id)
        return out

    def _is_elem_set_attr(self, fn: FunctionInfo, expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Attribute):
            return False
        cls = self.project.class_info(self.project.expr_type(fn, expr.value))
        return cls is not None and expr.attr in cls.elem_set_attrs

    def _classify(self, fn: FunctionInfo, set_params: set[str],
                  elem_aliases: set[str], node: ast.AST) -> frozenset[str]:
        project = self.project
        if isinstance(node, ast.Attribute):
            cls = project.class_info(project.expr_type(fn, node.value))
            if cls is not None and node.attr in cls.set_attrs:
                return frozenset({SET_LABEL, _CROSS})
        elif isinstance(node, ast.Name):
            if node.id in set_params:
                return frozenset({SET_LABEL, _CROSS})
        elif isinstance(node, ast.Subscript):
            base = node.value
            if self._is_elem_set_attr(fn, base) or (
                    isinstance(base, ast.Name) and base.id in elem_aliases):
                return frozenset({SET_LABEL, _CROSS})
        elif isinstance(node, ast.Call):
            target = project.resolve_call(fn, node)
            if target in self.returns_set:
                return frozenset({SET_LABEL, _CROSS})
        return frozenset()


@register
class CrossIterOrderRule(DeepRule):
    """Boundary-crossing sets must be sorted before order-bearing loops."""

    rule_id = "cross-iter-order"
    summary = ("iteration over a set that crossed a function or object "
               "boundary must be sorted when the loop feeds flow mutations, "
               "RNG draws, or event scheduling")
    invariant = ("no simulation-visible ordering ever derives from hash "
                 "iteration order")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        sets = _SetPass(project)
        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            analysis = sets.analyses[qualname]
            for node in fn.own_nodes():
                loops: list[tuple[ast.expr, list[ast.AST]]] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    loops.append((node.iter, node.body))
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp, ast.DictComp)):
                    body: list[ast.AST] = [node]
                    loops.extend((gen.iter, body) for gen in node.generators)
                for iter_expr, body in loops:
                    labels = analysis.labels_of(iter_expr)
                    if SET_LABEL not in labels or _CROSS not in labels:
                        continue
                    sink = self._body_sink(project, fn, body)
                    if sink is None:
                        continue
                    yield self.finding(
                        fn.ctx, node,
                        f"{fn.name}() iterates a set that crossed a "
                        f"function/object boundary and the loop feeds "
                        f"{sink}; wrap the iterable in sorted() to pin "
                        f"the order")

    @staticmethod
    def _body_sink(project: ProjectContext, fn: FunctionInfo,
                   body: list[ast.AST]) -> str | None:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if (func.attr in NETWORK_MUTATORS
                        and _is_flow_network(project, fn, func.value)):
                    return f"FlowNetwork.{func.attr}()"
                if (func.attr in NETWORK_SOLVERS
                        and _is_flow_network(project, fn, func.value)):
                    return f"FlowNetwork.{func.attr}()"
                if func.attr in RNG_DRAWS and _is_rng(project, fn, func.value):
                    return f"RNG draw .{func.attr}()"
                if (func.attr in SCHEDULE_METHODS
                        and _is_engine(project, fn, func.value)):
                    return f"event scheduling .{func.attr}()"
                if func.attr == "request" and _is_epoch(project, fn,
                                                        func.value):
                    return "Epoch.request()"
        return None
