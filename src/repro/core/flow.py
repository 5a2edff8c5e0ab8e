"""Max-min fair flow allocation over a capacitated component DAG.

Why flow-level, not packet-level
--------------------------------
The paper's tuning methodology (Lesson 12) reasons about the I/O path as a
stack of capacitated layers — disks, RAID groups, controller couplets,
OSSes, InfiniBand links, LNET routers, Gemini links, client NICs — and asks
at each layer "what bandwidth should survive to here?".  Steady-state
bandwidth under that world-view is exactly a *bandwidth-sharing* problem:
every I/O stream (flow) crosses a sequence of components, each component has
a capacity shared by the flows crossing it, and TCP-like transports plus
Lustre's request schedulers drive the share toward max-min fairness.
Packet-level detail would add runtime, not insight, at the scale of 18,688
clients.

Algorithm
---------
Progressive filling (the textbook max-min construction):

1. every unfrozen flow's rate grows uniformly;
2. the first component to saturate freezes the flows crossing it at their
   current rate (flows with finite *demand* freeze when they reach it);
3. repeat on the residual network until all flows are frozen.

Two kernels implement the same filling: a vectorized one over a CSR-style
incidence structure (component -> member flows, O(nnz) numpy per round) for
large problems, and a plain-scalar one whose python-loop constants beat
numpy call overhead on subproblems under :data:`_SCALAR_NNZ_MAX`
incidences.

Incremental re-solves
---------------------
The network is a persistent solver state: delta operations
(:meth:`FlowNetwork.add_flow` / :meth:`~FlowNetwork.remove_flow` /
:meth:`~FlowNetwork.set_capacity` / :meth:`~FlowNetwork.set_demand` /
:meth:`~FlowNetwork.set_path`) mark only the touched components dirty,
and :meth:`FlowNetwork.solve` re-solves
only the *connected dirty region*: the closure of the dirty components
under the comp<->flow incidence relation.  By construction no flow outside
the closure crosses a component inside it, so the closure is an independent
subproblem of the global max-min allocation (which is unique and decomposes
over disconnected regions) — frozen rates elsewhere are reused verbatim.
A dirty component crossed by every flow (a shared backbone) makes the
closure the whole network, so such a delta re-fills everything.  The three
resolve paths (``full``, ``delta``, ``cached``) are counted in
:attr:`FlowNetwork.solve_counts` and, when telemetry is enabled, in the
:data:`RESOLVE_COUNTERS` telemetry counters.  The cost model for each path
is documented in ``docs/PERFORMANCE.md``.

Same-tick change batching is provided by :class:`Epoch`: executors route
their re-solve triggers through ``epoch.request(label)`` and a burst of
simultaneous changes costs one flush (one solve) at the end of the tick.

Properties (enforced by the property-based tests):

* feasibility: per-component load ≤ capacity (+ float slack);
* demand-boundedness: rate ≤ demand for every flow;
* max-min/Pareto: every flow is limited by a *saturated* component on its
  path or by its own demand — no rate can be raised without lowering a
  smaller rate;
* delta/scratch equivalence: any sequence of delta operations followed by a
  solve yields the same rates (within 1e-9 relative) as a from-scratch
  solve of the final network.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable

import numpy as np

from repro.obs.instruments import get_telemetry
from repro.obs.trace import get_tracer

__all__ = ["FlowNetwork", "FlowResult", "Epoch", "RESOLVE_COUNTERS"]

_EPS = 1e-9

#: subproblems with at most this many (flow, component) incidences run on
#: the scalar kernel, whose python-loop constants beat numpy call overhead
#: by roughly an order of magnitude at this size
_SCALAR_NNZ_MAX = 1024

#: telemetry counter emitted per solve, keyed by the resolve path taken
#: (``full`` = from-scratch fill, ``delta`` = dirty-closure re-fill,
#: ``cached`` = no dirty state, the previous result is returned); the
#: suffixes are the keys of :attr:`FlowNetwork.solve_counts`
RESOLVE_COUNTERS = (
    "flow.resolve.full",
    "flow.resolve.delta",
    "flow.resolve.cached",
)


class FlowResult:
    """Outcome of a :meth:`FlowNetwork.solve` call.

    ``rates`` is a per-flow allocated rate array (bytes/s) aligned with
    ``flow_names``.  The per-component views (``component_load``,
    ``component_capacity``) are snapshots taken at solve time but
    materialized into dicts lazily — large networks solved in a loop never
    pay for dicts nobody reads.  ``bottlenecks`` maps each saturated
    component to its capacity; on an incremental solve it carries the
    merged view (components saturated by earlier solves and still binding,
    plus the ones the re-filled region saturated), and ``rounds`` /
    ``saturation_order`` describe the *last* fill only (a cached solve
    reports the previous fill's).
    """

    __slots__ = (
        "rates", "flow_names", "bottlenecks", "rounds", "saturation_order",
        "_comp_names", "_comp_id", "_n_comp", "_load_arr", "_cap_arr",
        "_load_dict", "_cap_dict",
    )

    def __init__(
        self,
        rates: np.ndarray,
        flow_names: list[str],
        comp_names: list[str],
        comp_id: dict[str, int],
        load_arr: np.ndarray,
        cap_arr: np.ndarray,
        bottlenecks: dict[str, float],
        rounds: int,
        saturation_order: tuple[str, ...],
    ) -> None:
        self.rates = rates
        self.flow_names = flow_names
        self.bottlenecks = bottlenecks
        #: number of progressive-filling rounds the solve took
        self.rounds = rounds
        #: saturated components in the order they saturated (first = the
        #: binding bottleneck the filling hit first)
        self.saturation_order = saturation_order
        self._comp_names = comp_names
        self._comp_id = comp_id
        self._n_comp = len(comp_names)
        self._load_arr = load_arr
        self._cap_arr = cap_arr
        self._load_dict: dict[str, float] | None = None
        self._cap_dict: dict[str, float] | None = None

    @property
    def component_load(self) -> dict[str, float]:
        """Per-component load (bytes/s), materialized on first access."""
        if self._load_dict is None:
            self._load_dict = dict(
                zip(self._comp_names[:self._n_comp],
                    self._load_arr.tolist()))
        return self._load_dict

    @property
    def component_capacity(self) -> dict[str, float]:
        """Per-component capacity (bytes/s), materialized on first access."""
        if self._cap_dict is None:
            self._cap_dict = dict(
                zip(self._comp_names[:self._n_comp],
                    self._cap_arr.tolist()))
        return self._cap_dict

    @property
    def total(self) -> float:
        """Aggregate allocated rate over all flows."""
        return float(self.rates.sum())

    def rate_of(self, name: str) -> float:
        """The allocated rate of flow ``name``."""
        return float(self.rates[self.flow_names.index(name)])

    def saturated_components(self, tol: float = 1e-6) -> list[str]:
        """Components whose load is within ``tol`` (relative) of capacity."""
        cap = self._cap_arr
        load = self._load_arr
        hit = np.isfinite(cap) & (load >= cap * (1 - tol) - _EPS)
        names = self._comp_names
        return [names[i] for i in np.flatnonzero(hit).tolist()]

    def utilization(self, component: str) -> float:
        """Load / capacity of ``component`` (0.0 for infinite capacity)."""
        cap = self.component_capacity[component]
        if cap == 0:
            return 1.0 if self.component_load[component] > 0 else 0.0
        if math.isinf(cap):
            return 0.0
        return self.component_load[component] / cap

    def component_ids(self, names) -> np.ndarray:
        """Index of each of ``names`` in this result's component arrays
        (-1 where unknown), for :meth:`utilizations`.  Every result of
        one network shares the network's name index, so the ids stay
        valid for that network's later results."""
        comp_id = self._comp_id
        return np.array([comp_id.get(name, -1) for name in names],
                        dtype=np.intp)

    def utilizations(self, ids: np.ndarray) -> np.ndarray:
        """:meth:`utilization` of many components at once, as one array.

        ``ids`` come from :meth:`component_ids` on a result of the same
        network; an id of -1 (unknown) or past this snapshot reads 0.0.
        Element for element the same float as :meth:`utilization`.
        """
        ids = np.asarray(ids, dtype=np.intp)
        out = np.zeros(ids.shape[0])
        known = (ids >= 0) & (ids < self._n_comp)
        cap = self._cap_arr[ids[known]]
        load = self._load_arr[ids[known]]
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(cap == 0, (load > 0).astype(float), load / cap)
        util[np.isinf(cap)] = 0.0
        out[known] = util
        return out


class _FlowRec:
    """Per-flow bookkeeping (slot index + unique component path)."""

    __slots__ = ("idx", "path")

    def __init__(self, idx: int, path: tuple[int, ...]) -> None:
        self.idx = idx
        self.path = path


def _grown(buf: np.ndarray, n: int) -> np.ndarray:
    """Return ``buf`` or an amortized-doubled copy with room for slot ``n``."""
    if n < buf.shape[0]:
        return buf
    out = np.empty(max(16, 2 * buf.shape[0]))
    out[:buf.shape[0]] = buf
    return out


def _csr(
    paths: list[tuple[int, ...]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR incidence of ``paths`` (flow -> component ids) for
    :func:`_fill_vector`: ``(indptr, indices, flow_of_entry)``."""
    n = len(paths)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices: list[int] = []
    for i, path in enumerate(paths):
        indices.extend(path)
        indptr[i + 1] = len(indices)
    flow_of_entry = np.repeat(np.arange(n), np.diff(indptr))
    return indptr, np.array(indices, dtype=np.int64), flow_of_entry


def _edge_level(demand: float) -> float:
    """The eps-slackened fill level at which a flow with demand above
    :data:`_EPS` freezes (infinite for unbounded demand)."""
    if not math.isfinite(demand):
        return math.inf
    return demand - _EPS * (demand if demand > 1.0 else 1.0)


def _check_capacity(name: str, capacity: float) -> None:
    """Reject a NaN or negative capacity for component ``name``."""
    if math.isnan(capacity):
        raise ValueError(f"NaN capacity for component {name!r}")
    if capacity < 0:
        raise ValueError(f"negative capacity for {name!r}")


def _check_demand(name: str, demand: float) -> None:
    """Reject a NaN or negative demand for flow ``name``."""
    if math.isnan(demand):
        raise ValueError(f"NaN demand for flow {name!r}")
    if demand < 0:
        raise ValueError(f"negative demand for flow {name!r}")


def _component_load(
    rates: np.ndarray,
    n_comp: int,
    indices: np.ndarray,
    flow_of_entry: np.ndarray,
) -> np.ndarray:
    """Per-component load of ``rates`` over a :func:`_csr` incidence:
    every finite rate added to each component on its path, in entry
    order (flow index, then path), infinite rates left out."""
    load = np.zeros(n_comp)
    fin_entry = np.isfinite(rates)[flow_of_entry]
    np.add.at(load, indices[fin_entry], rates[flow_of_entry[fin_entry]])
    return load


def _fill_scalar(
    caps: list[float],
    paths: list[tuple[int, ...]],
    demands: list[float],
    order: list[int],
    pre: tuple[list[float], list[float]] | None = None,
    comp_n: list[int] | None = None,
    prefix_ok: bool = False,
) -> tuple[list[float], list[int], int]:
    """Progressive filling on plain scalars (small subproblems).

    Semantically identical to :func:`_fill_vector` — same freeze
    tolerances, same round structure — with python-loop constants that
    beat numpy call overhead below :data:`_SCALAR_NNZ_MAX` incidences.
    ``order`` carries the flow indices sorted ascending by demand (any
    order among ties), which turns the per-round demand-fill minimum
    into one pointer read.  ``pre`` optionally carries the persistent
    solver's precomputed ``(comp_act, edge_level)`` setup — valid only
    when every flow has a non-empty path and demand above :data:`_EPS`;
    ``comp_act`` is copied before mutation, the level list is read-only.
    ``comp_n`` optionally carries per-component member counts; a
    saturating component crossed by *every* flow (a shared backbone)
    then freezes all remaining active flows directly, skipping the
    member walk.  ``prefix_ok`` (only meaningful with ``pre``; derived
    locally otherwise) asserts that every demand exceeds 1.0, making the
    freeze levels monotone in the sort order so demand freezes form an
    exact prefix — the per-round freeze walk then stops at its first
    miss.
    Returns ``(rates, saturation order as local comp ids, rounds)``;
    per-component load is left to the caller (computable from the rates,
    and skipped entirely on un-observed hot-loop solves).
    """
    inf = math.inf
    n = len(demands)
    m = len(caps)
    rates = [0.0] * n
    frozen = [False] * n
    residual = list(caps)
    n_active = n

    # Every flow starts filling at level 0, so an active flow always sits
    # at ``rate = level`` where ``level`` is the cumulative fill.  That
    # collapses the per-round work: a flow reaches its demand at level
    # ``demand``, component residuals drain by ``step * comp_act`` (no
    # inner path loop), and rates materialize only at freeze time.
    if pre is not None:
        comp_act0, edge_level = pre
        comp_act = list(comp_act0)
    else:
        comp_act = [0.0] * m  # active members per component
        for path in paths:
            for c in path:
                comp_act[c] += 1.0
        edge_level = [inf] * n  # eps-slackened level at which it freezes
        prefix_ok = True
        for i in range(n):
            d = demands[i]
            if d <= _EPS:
                frozen[i] = True
                n_active -= 1
                for c in paths[i]:
                    comp_act[c] -= 1.0
            elif not paths[i]:
                rates[i] = d
                frozen[i] = True
                n_active -= 1
            elif d < inf:
                if d <= 1.0:
                    prefix_ok = False
                edge_level[i] = _edge_level(d)
    sat_order: list[int] = []
    sat_seen = [False] * m
    rounds = 0
    max_rounds = m + n + 2
    level = 0.0
    head = 0
    while n_active:
        rounds += 1
        if rounds > max_rounds:  # pragma: no cover - defensive
            raise RuntimeError("progressive filling failed to converge")
        # Fill level at which the first component saturates or the first
        # active flow reaches its demand (the head of the sorted order).
        step = inf
        for c in range(m):
            a = comp_act[c]
            if a > _EPS:
                r = residual[c]
                fill = r / a if r > _EPS else 0.0
                if fill < step:
                    step = fill
        while head < n and frozen[order[head]]:
            head += 1
        if head < n:
            fill = demands[order[head]] - level
            if fill < step:
                step = fill
        if step == inf:
            # Active flows cross only infinite-capacity components and
            # have infinite demand: leave them unbounded (inf rates).
            for k in range(head, n):
                i = order[k]
                if not frozen[i]:
                    rates[i] = inf
            break
        if step < 0.0:
            step = 0.0
        level += step
        # Advance: each component drains by ``step`` per active member;
        # detect saturation in the same pass.
        newly_sat = []
        for c in range(m):
            a = comp_act[c]
            if a > _EPS:
                r = residual[c] - step * a
                residual[c] = r
                cap = caps[c]
                if cap < inf and r <= _EPS + 1e-12 * cap:
                    newly_sat.append(c)
        if newly_sat:
            for c in newly_sat:
                if not sat_seen[c]:
                    sat_seen[c] = True
                    sat_order.append(c)
            if comp_n is not None and any(comp_n[c] == n for c in newly_sat):
                # A saturated component crossed by every flow: all
                # remaining active flows freeze at this level.
                for k in range(head, n):
                    i = order[k]
                    if not frozen[i]:
                        frozen[i] = True
                        rates[i] = level
                break
        # Snapshot semantics: demand-satisfied flows and the members of
        # newly saturated components freeze together in one walk, judged
        # against the round-start member counts (``comp_act``
        # decrements land after saturation was detected, so order inside
        # the batch is free).  With monotone freeze levels
        # (``prefix_ok``) and no saturation to match, the eligible flows
        # are a prefix of the active tail and the walk stops at its
        # first miss instead of scanning every remaining flow.
        for k in range(head, n):
            i = order[k]
            if frozen[i]:
                continue
            path = paths[i]
            if edge_level[i] <= level:
                freeze = True
            else:
                freeze = False
                for c in newly_sat:
                    if c in path:
                        freeze = True
                        break
            if freeze:
                frozen[i] = True
                n_active -= 1
                rates[i] = level
                for c in path:
                    comp_act[c] -= 1.0
            elif prefix_ok and not newly_sat:
                break
    return rates, sat_order, rounds


def _fill_vector(
    capacity: np.ndarray,
    demand: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    flow_of_entry: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[int], int]:
    """Vectorized progressive filling over a CSR incidence structure.

    Each round is O(nnz) in numpy; the number of rounds is bounded by the
    number of distinct bottlenecks.  Returns ``(rates, load, saturation
    order as local comp ids, rounds)``.
    """
    n_flows = demand.shape[0]
    n_comp = capacity.shape[0]
    rates = np.zeros(n_flows)
    frozen = np.zeros(n_flows, dtype=bool)
    residual = capacity.astype(float, copy=True)
    sat_order: list[int] = []
    sat_seen = np.zeros(n_comp, dtype=bool)

    # Flows with zero demand (or empty paths and zero demand) freeze at 0.
    frozen |= demand <= _EPS
    # Flows with no components are limited only by their demand.
    empty_path = np.diff(indptr) == 0
    sel = empty_path & ~frozen
    rates[sel] = demand[sel]
    frozen |= empty_path

    finite_demand = np.isfinite(demand)
    demand_edge = np.where(
        finite_demand,
        demand - _EPS * np.maximum(np.where(finite_demand, demand, 0.0), 1.0),
        np.inf,
    )
    finite_cap = np.isfinite(capacity)
    sat_slack = _EPS + 1e-12 * np.where(finite_cap, capacity, 0.0)

    max_rounds = n_comp + n_flows + 2
    rounds_used = 0
    for _round in range(max_rounds):
        if frozen.all():
            break
        rounds_used += 1
        active_entry = ~frozen[flow_of_entry]
        # Active flow count per component.
        comp_active = np.bincount(indices[active_entry], minlength=n_comp)
        # Fill level at which each component saturates.
        with np.errstate(divide="ignore", invalid="ignore"):
            comp_fill = np.where(comp_active > 0,
                                 residual / comp_active, np.inf)
        comp_fill = np.where(
            residual <= _EPS,
            np.where(comp_active > 0, 0.0, np.inf), comp_fill)
        # Fill level at which each active flow reaches its demand.
        active = ~frozen
        demand_fill = np.where(active, demand - rates, np.inf)
        min_comp_fill = comp_fill.min() if n_comp else math.inf
        min_demand_fill = demand_fill.min() if n_flows else math.inf
        step = min(min_comp_fill, min_demand_fill)
        if not math.isfinite(step):
            # Active flows cross only infinite-capacity components and
            # have infinite demand: leave them unbounded (inf rates).
            rates[active] = math.inf
            break
        step = max(step, 0.0)

        # Advance all active flows by step.
        delta = step * active
        rates += delta
        np.subtract.at(residual, indices[active_entry],
                       delta[flow_of_entry[active_entry]])
        residual = np.maximum(residual, 0.0)

        # Freeze demand-satisfied flows (infinite demand never satisfies).
        frozen |= active & (rates >= demand_edge)

        # Freeze flows crossing saturated components (only components
        # with finite capacity can saturate).
        saturated = finite_cap & (residual <= sat_slack) & (comp_active > 0)
        if saturated.any():
            new_ids = np.flatnonzero(saturated & ~sat_seen)
            sat_seen[new_ids] = True
            sat_order.extend(new_ids.tolist())
            sat_entry = saturated[indices] & active_entry
            frozen[flow_of_entry[sat_entry]] = True
    else:  # pragma: no cover - defensive
        raise RuntimeError("progressive filling failed to converge")

    load = _component_load(rates, n_comp, indices, flow_of_entry)
    return rates, load, sat_order, rounds_used


class FlowNetwork:
    """A persistent set of capacitated components plus flows crossing them.

    The network doubles as the solver state: :meth:`solve` reuses the
    previous allocation and re-fills only the connected dirty region the
    delta operations touched (see the module docstring for the cost
    model).  Solves are deterministic — the same operation sequence always
    yields the same result, bit for bit.

    >>> net = FlowNetwork()
    >>> net.add_component("link", 10.0)
    >>> net.add_flow("a", ["link"])
    >>> net.add_flow("b", ["link"])
    >>> res = net.solve()
    >>> res.rates.tolist()
    [5.0, 5.0]
    """

    def __init__(self) -> None:
        # components (append-only; capacities mutable)
        self._comp_id: dict[str, int] = {}
        self._comp_names: list[str] = []
        self._caps = np.empty(16)
        self._caps_list: list[float] = []
        self._load = np.empty(16)
        self._comp_flows: list[set[str]] = []
        # flows (dict order == slot order of the parallel buffers).  The
        # python-list mirrors of demands/paths feed the scalar kernel
        # without per-solve tolist conversions; the numpy buffers feed
        # the vector kernel and the result snapshots.
        self._flows: dict[str, _FlowRec] = {}
        self._demands = np.empty(16)
        self._rates = np.empty(16)
        self._demands_list: list[float] = []
        self._paths_list: list[tuple[int, ...]] = []
        self._nnz = 0
        # precomputed scalar-kernel setup, maintained by the delta
        # operations: per-component counts of regular member flows and
        # per-flow freeze levels (valid whenever ``_n_irregular`` is 0)
        self._comp_act: list[float] = []
        self._edge_lvl: list[float] = []
        #: flows the precomputed setup cannot describe (zero demand or
        #: an empty path) — their presence falls back to the generic
        #: kernel setup
        self._n_irregular = 0
        #: finite-demand flows with demand ≤ 1.0 — while zero, demand
        #: freeze levels are monotone in the demand sort and the scalar
        #: kernel's freeze walk can stop at its first miss
        self._n_small = 0
        # flow slots sorted ascending by demand, maintained by the delta
        # operations so entire solves skip the per-solve argsort; ties
        # order by operation history, which the filling is insensitive
        # to beyond float round-off
        self._order: list[int] = []
        #: per-component member count (mirrors ``len(_comp_flows[c])``
        #: without per-solve list building)
        self._comp_nf: list[int] = []
        #: whether ``_load`` currently reflects ``_rates`` — scalar-kernel
        #: solves defer the per-component load sum to result-build time
        self._load_valid = True
        # solver state
        self._dirty: set[int] = set()
        self._has_solution = False
        self._bottlenecks: dict[str, float] = {}
        self._last_rounds = 0
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._result_cache: FlowResult | None = None
        #: cumulative count of solves by resolve path (the
        #: :data:`RESOLVE_COUNTERS` suffixes ``full`` / ``delta`` /
        #: ``cached``), independent of telemetry — the benchmark
        #: regression gate reads this
        self.solve_counts: dict[str, int] = dict.fromkeys(
            (counter.rpartition(".")[2] for counter in RESOLVE_COUNTERS), 0)

    # -- construction and delta operations ----------------------------------------

    def add_component(self, name: str, capacity: float) -> None:
        """Register a component; re-adding is a :meth:`set_capacity` (used
        by what-if analyses such as controller upgrades), which dirties
        the dependent solver state instead of silently keeping stale
        bookkeeping."""
        _check_capacity(name, capacity)
        i = self._comp_id.get(name)
        if i is not None:
            self.set_capacity(name, capacity)
            return
        i = len(self._comp_names)
        self._comp_id[name] = i
        self._comp_names.append(name)
        self._caps = _grown(self._caps, i)
        self._load = _grown(self._load, i)
        self._caps[i] = float(capacity)
        self._caps_list.append(float(capacity))
        self._load[i] = 0.0
        self._comp_flows.append(set())
        self._comp_act.append(0.0)
        self._comp_nf.append(0)
        self._result_cache = None

    def set_capacity(self, name: str, capacity: float) -> None:
        """Change a component's capacity, dirtying the flows crossing it.

        A no-op (nothing dirtied) when the capacity is unchanged.
        """
        _check_capacity(name, capacity)
        i = self._comp_id[name]
        capacity = float(capacity)
        if self._caps_list[i] == capacity:
            return
        self._caps[i] = capacity
        self._caps_list[i] = capacity
        self._dirty.add(i)
        self._result_cache = None

    def has_component(self, name: str) -> bool:
        """Whether ``name`` is a registered component."""
        return name in self._comp_id

    def capacity_of(self, name: str) -> float:
        """The capacity of component ``name``."""
        return float(self._caps[self._comp_id[name]])

    def add_flow(
        self,
        name: str,
        path: list[str],
        demand: float = math.inf,
    ) -> None:
        """Add a flow crossing ``path`` (component names, any order/repeats
        collapse to unique membership), wanting at most ``demand`` bytes/s.
        """
        if name in self._flows:
            raise ValueError(f"duplicate flow name {name!r}")
        _check_demand(name, demand)
        path_ids = self._path_ids(name, path, demand)
        i = len(self._flows)
        self._demands = _grown(self._demands, i)
        self._rates = _grown(self._rates, i)
        demand = float(demand)
        self._demands[i] = demand
        # An empty-path flow is limited only by its demand; flows with
        # components get their rate from the next solve.
        self._rates[i] = demand if not path_ids else 0.0
        self._flows[name] = _FlowRec(i, path_ids)
        self._demands_list.append(demand)
        self._paths_list.append(path_ids)
        # Precomputed kernel setup (matches _fill_scalar's generic setup
        # arithmetic operation for operation).
        if demand <= _EPS or not path_ids:
            self._n_irregular += 1
            edge = math.inf
        else:
            if demand <= 1.0:
                self._n_small += 1
            edge = _edge_level(demand)
            comp_act = self._comp_act
            for c in path_ids:
                comp_act[c] += 1.0
        self._edge_lvl.append(edge)
        self._order.insert(bisect_right(
            self._order, demand, key=self._demands_list.__getitem__), i)
        self._nnz += len(path_ids)
        comp_nf = self._comp_nf
        for c in path_ids:
            self._comp_flows[c].add(name)
            comp_nf[c] += 1
        self._dirty.update(path_ids)
        self._csr = None
        self._result_cache = None

    def remove_flow(self, name: str) -> None:
        """Remove a flow, dirtying the components it crossed."""
        rec = self._flows.pop(name)
        i = rec.idx
        n = len(self._flows)
        demand = self._demands_list[i]
        # Compact the parallel slot buffers and renumber the survivors.
        self._demands[i:n] = self._demands[i + 1:n + 1]
        self._rates[i:n] = self._rates[i + 1:n + 1]
        for other in self._flows.values():
            if other.idx > i:
                other.idx -= 1
        del self._demands_list[i]
        del self._paths_list[i]
        del self._edge_lvl[i]
        # Retract the flow's precomputed-setup contribution (symmetric to
        # add_flow's).
        if demand <= _EPS or not rec.path:
            self._n_irregular -= 1
        else:
            if demand <= 1.0:
                self._n_small -= 1
            comp_act = self._comp_act
            for c in rec.path:
                comp_act[c] -= 1.0
        order = self._order
        order.remove(i)
        for k, v in enumerate(order):
            if v > i:
                order[k] = v - 1
        self._nnz -= len(rec.path)
        comp_nf = self._comp_nf
        for c in rec.path:
            self._comp_flows[c].discard(name)
            comp_nf[c] -= 1
        self._dirty.update(rec.path)
        self._csr = None
        self._result_cache = None

    def set_demand(self, name: str, demand: float) -> None:
        """Change a flow's demand, dirtying the components it crosses.

        A no-op (nothing dirtied) when the demand is unchanged.
        """
        _check_demand(name, demand)
        rec = self._flows[name]
        if not rec.path and math.isinf(demand):
            raise ValueError(
                f"flow {name!r} has no components and unbounded demand"
            )
        i = rec.idx
        old = self._demands_list[i]
        demand = float(demand)
        if old == demand:
            return
        self._demands[i] = demand
        self._demands_list[i] = demand
        # Refresh the precomputed kernel setup: the demand may cross the
        # regular/irregular boundary (changing the flow's ``comp_act``
        # contribution) and its freeze level changes either way.
        old_regular = old > _EPS and bool(rec.path)
        new_regular = demand > _EPS and bool(rec.path)
        self._n_small += ((new_regular and demand <= 1.0)
                          - (old_regular and old <= 1.0))
        if old_regular != new_regular:
            comp_act = self._comp_act
            if new_regular:
                self._n_irregular -= 1
                for c in rec.path:
                    comp_act[c] += 1.0
            else:
                self._n_irregular += 1
                for c in rec.path:
                    comp_act[c] -= 1.0
        self._edge_lvl[i] = _edge_level(demand) if new_regular else math.inf
        # Reposition the flow in the maintained demand sort.
        order = self._order
        order.remove(i)
        order.insert(bisect_right(
            order, demand, key=self._demands_list.__getitem__), i)
        self._dirty.update(rec.path)
        if not rec.path:
            self._rates[i] = demand
        self._result_cache = None

    def set_path(self, name: str, path: list[str]) -> None:
        """Re-route a flow over ``path``, dirtying its old and new components.

        The flow keeps its slot (its position in :meth:`flow_names` and
        in every result's rates) and its demand, so a re-route is a delta
        operation like the others.  A no-op (nothing dirtied) when the
        deduplicated path is unchanged.
        """
        rec = self._flows[name]
        i = rec.idx
        demand = self._demands_list[i]
        new = self._path_ids(name, path, demand)
        old = rec.path
        if new == old:
            return
        # Move the flow's precomputed-setup contribution from the old
        # path to the new one; an empty path is irregular (add_flow's
        # classification).
        old_regular = demand > _EPS and bool(old)
        new_regular = demand > _EPS and bool(new)
        self._n_irregular += old_regular - new_regular
        if demand <= 1.0:
            self._n_small += new_regular - old_regular
        comp_act = self._comp_act
        comp_nf = self._comp_nf
        comp_flows = self._comp_flows
        for c in old:
            if old_regular:
                comp_act[c] -= 1.0
            comp_flows[c].discard(name)
            comp_nf[c] -= 1
        for c in new:
            if new_regular:
                comp_act[c] += 1.0
            comp_flows[c].add(name)
            comp_nf[c] += 1
        self._edge_lvl[i] = _edge_level(demand) if new_regular else math.inf
        self._nnz += len(new) - len(old)
        rec.path = new
        self._paths_list[i] = new
        if not new:
            self._rates[i] = demand
        self._dirty.update(old)
        self._dirty.update(new)
        self._csr = None
        self._result_cache = None

    def invalidate(self) -> None:
        """Drop the current allocation: the next solve is a from-scratch
        fill, counted as ``full`` — the solve a freshly built network in
        the same state would run, to the last bit of every rate."""
        self._has_solution = False
        self._result_cache = None

    def _path_ids(self, name: str, path: list[str],
                  demand: float) -> tuple[int, ...]:
        """Flow ``name``'s unique component ids along ``path``, validated
        for :meth:`add_flow` and :meth:`set_path`."""
        comp_id = self._comp_id
        # Paths are a handful of components, so a list membership test
        # beats building a set for the dedup.
        path_ids: list[int] = []
        for comp in path:
            c = comp_id.get(comp)
            if c is None:
                raise KeyError(f"unknown component {comp!r} in flow {name!r}")
            if c not in path_ids:
                path_ids.append(c)
        if not path_ids and math.isinf(demand):
            raise ValueError(
                f"flow {name!r} has no components and unbounded demand"
            )
        return tuple(path_ids)

    def component_ids(self, names) -> np.ndarray:
        """Index of each of ``names`` in the network's component arrays
        (ids are stable: components are append-only)."""
        comp_id = self._comp_id
        return np.array([comp_id[name] for name in names], dtype=np.intp)

    def capacities(self, ids: np.ndarray) -> np.ndarray:
        """The current capacities of the components ``ids``, as one array."""
        return self._caps[ids]

    def component_names(self) -> list[str]:
        """Registered component names, in registration order."""
        return list(self._comp_names)

    def flow_names(self) -> list[str]:
        """Current flow names, in insertion order (minus removals)."""
        return list(self._flows)

    def flow_spec(self, name: str) -> tuple[list[str], float]:
        """The ``(path, demand)`` flow ``name`` was added with.

        The path comes back as component names in the flow's (deduped)
        traversal order — enough to recreate the flow in another network,
        which is how the equivalence tests rebuild scratch references.
        """
        rec = self._flows[name]
        names = self._comp_names
        return [names[c] for c in rec.path], self._demands_list[rec.idx]

    @property
    def n_flows(self) -> int:
        """Number of flows currently in the network."""
        return len(self._flows)

    @property
    def n_components(self) -> int:
        """Number of registered components."""
        return len(self._comp_names)

    # -- solving ----------------------------------------------------------------

    def solve(self) -> FlowResult:
        """Max-min allocation by (incremental) progressive filling.

        Dispatches on the solver state: ``full`` when no previous solution
        exists, ``cached`` when nothing changed since the last solve, and
        ``delta`` otherwise — a re-fill of the connected dirty region,
        which is the whole network when a dirty component is crossed by
        every flow.
        """
        path = self._resolve()
        result = self._result_cache
        if result is None:
            result = self._result_cache = self._build_result()
        self._record_telemetry(result, path)
        return result

    def solve_rates(self) -> np.ndarray:
        """Re-solve and return only the per-flow rate array.

        The rates are aligned with flow insertion order (the order
        :meth:`add_flow` calls happened, minus removals) — identical to
        :attr:`FlowResult.rates` from :meth:`solve`, with the same
        dispatch, determinism, and :attr:`solve_counts` accounting.  With
        telemetry disabled this skips building the :class:`FlowResult`
        snapshot entirely (the hot-loop path for per-tick re-solvers such
        as the bandwidth arbiter); with telemetry enabled it delegates to
        :meth:`solve` so the observability record stays complete.
        """
        if get_telemetry().enabled:
            return self.solve().rates
        self._resolve()
        return self._rates[:len(self._flows)].copy()

    def _resolve(self) -> str:
        """Bring the rates up to date; counts and returns the path taken."""
        if not self._has_solution:
            path = "full"
            self._last_rounds = self._solve_entire()
        elif self._dirty:
            path = "delta"
            self._last_rounds = self._solve_delta()
        else:
            path = "cached"
        self._dirty.clear()
        self._has_solution = True
        self.solve_counts[path] += 1
        return path

    def _fill(
        self,
        flows: slice | np.ndarray,
        comps: slice | np.ndarray,
        nnz: int,
        scalar_args: tuple,
        csr: Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> tuple[list[int], int]:
        """Fill one subproblem on the kernel its ``nnz`` selects.

        ``flows``/``comps`` select its solver-buffer slots (slices for the
        whole network, index arrays for a region); ``scalar_args`` are the
        :func:`_fill_scalar` arguments, and ``csr`` builds the vector
        kernel's incidence only when that kernel runs.  Writes the rates
        (and vector-kernel loads) back; returns ``(saturation order as
        local comp ids, rounds)``.
        """
        if nnz <= _SCALAR_NNZ_MAX:
            rates, sat, rounds = _fill_scalar(*scalar_args)
            self._load_valid = False
        else:
            rates, load, sat, rounds = _fill_vector(
                self._caps[comps], self._demands[flows], *csr())
            self._load[comps] = load
        self._rates[flows] = rates
        return sat, rounds

    def _solve_entire(self) -> int:
        """From-scratch fill over every component and flow; returns rounds."""
        pre = ((self._comp_act, self._edge_lvl)
               if self._n_irregular == 0 else None)
        # The vector kernel rewrites every load; the scalar one defers.
        self._load_valid = True
        sat, rounds = self._fill(
            slice(0, len(self._flows)), slice(0, len(self._comp_names)),
            self._nnz,
            (self._caps_list, self._paths_list, self._demands_list,
             self._order, pre, self._comp_nf, self._n_small == 0),
            self._csr_incidence)
        names = self._comp_names
        caps = self._caps_list
        self._bottlenecks = {names[c]: caps[c] for c in sat}
        return rounds

    def _csr_incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR incidence of the whole network, cached across solves."""
        if self._csr is None:
            self._csr = _csr(self._paths_list)
        return self._csr

    def _closure(self) -> tuple[set[int], set[str], bool]:
        """The connected dirty region: the closure of the dirty components
        under the comp<->flow incidence relation.

        Returns ``(components, flow names, entire)``; ``entire`` short-cuts
        the common case where the closure swallows every flow (a shared
        backbone component went dirty), in which case the component set is
        left incomplete and the caller re-fills the whole network.
        """
        n_flows = len(self._flows)
        comps = set(self._dirty)
        flows: set[str] = set()
        flow_recs = self._flows
        comp_flows = self._comp_flows
        stack = list(self._dirty)
        while stack:
            c = stack.pop()
            for fname in comp_flows[c]:
                if fname not in flows:
                    flows.add(fname)
                    if len(flows) == n_flows:
                        return comps, flows, True
                    for fc in flow_recs[fname].path:
                        if fc not in comps:
                            comps.add(fc)
                            stack.append(fc)
        return comps, flows, False

    def _solve_delta(self) -> int:
        """Re-solve only the connected dirty region; returns rounds.

        Correctness: by closure construction no flow outside the region
        crosses a component inside it, so the region is an independent
        subproblem of the (unique) global max-min allocation — re-filling
        it from scratch and keeping every other rate frozen reproduces the
        global solution.
        """
        # A dirty component crossed by every flow (a shared backbone)
        # makes the closure the whole network — skip the BFS outright.
        n_flows = len(self._flows)
        comp_nf = self._comp_nf
        for c in self._dirty:
            if comp_nf[c] == n_flows:
                return self._solve_entire()
        comps, flow_names, entire = self._closure()
        if entire:
            return self._solve_entire()
        # Restricted re-fill over the closure, at full capacities (no flow
        # outside the closure consumes them).
        flows = self._flows
        slots = sorted(flows[fname].idx for fname in flow_names)
        comp_list = sorted(comps)
        local = {c: k for k, c in enumerate(comp_list)}
        paths = [tuple(local[c] for c in self._paths_list[i]) for i in slots]
        idx = np.array(slots, dtype=np.int64)
        comp_idx = np.array(comp_list, dtype=np.int64)
        demands = self._demands[idx]
        order = np.argsort(demands, kind="stable").tolist()
        sat, rounds = self._fill(
            idx, comp_idx, sum(map(len, paths)),
            (self._caps[comp_idx].tolist(), paths, demands.tolist(), order),
            lambda: _csr(paths))
        names = self._comp_names
        for c in comp_list:
            self._bottlenecks.pop(names[c], None)
        for k in sat:
            c = comp_list[k]
            self._bottlenecks[names[c]] = self._caps_list[c]
        return rounds

    def _build_result(self) -> FlowResult:
        """Snapshot the solver state into an immutable :class:`FlowResult`."""
        n = len(self._flows)
        m = len(self._comp_names)
        if not self._load_valid:
            # Scalar-kernel solves defer the per-component load sum;
            # recompute it from the authoritative rates in one unbuffered
            # add over the cached incidence (the vector kernel's summation
            # order: flow index, then path).
            _indptr, indices, flow_of_entry = self._csr_incidence()
            self._load[:m] = _component_load(
                self._rates[:n], m, indices, flow_of_entry)
            self._load_valid = True
        return FlowResult(
            rates=self._rates[:n].copy(),
            flow_names=list(self._flows),
            comp_names=self._comp_names,
            comp_id=self._comp_id,
            load_arr=self._load[:m].copy(),
            cap_arr=self._caps[:m].copy(),
            bottlenecks=dict(self._bottlenecks),
            rounds=self._last_rounds,
            saturation_order=tuple(self._bottlenecks),
        )

    # -- observability -----------------------------------------------------------

    def _record_telemetry(self, result: FlowResult, path: str) -> None:
        """Record the solve into the telemetry registry (Lesson 12 data).

        Per solve: the resolve-path counter (:data:`RESOLVE_COUNTERS`), a
        filling-round histogram, the saturation order, and per-*layer*
        load/capacity/utilization where a layer is a component-name prefix
        (``client``, ``router``, ``oss``, ``couplet``, ``ost``, ...).
        Guarded on the registry's enabled flag so un-traced solves pay one
        attribute check; the aggregation runs on the solver's own arrays
        so an instrumented solve stays a few vector ops, not a
        per-component Python walk.
        """
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return
        telemetry.counter(f"flow.resolve.{path}").add(1.0)
        telemetry.counter("flow.solves").add(1.0)
        telemetry.counter("flow.flows").add(float(len(result.flow_names)))
        telemetry.histogram("flow.rounds", floor=1.0).observe(
            float(result.rounds))
        telemetry.counter("flow.saturated_components").add(
            float(len(result.saturation_order)))

        tracer = get_tracer()
        for order, comp in enumerate(result.saturation_order):
            tracer.instant(f"saturated:{comp}", "flow", order=order)

        capacity = result._cap_arr
        load = result._load_arr
        comp_names = self._comp_names
        finite = np.flatnonzero(np.isfinite(capacity))
        if finite.size == 0:
            return
        # Map each component to a small integer layer id (one pass of
        # string work), then aggregate with bincount/maximum.at — numpy
        # string comparisons are far slower than this.
        prefix_ids = np.empty(finite.size, dtype=np.intp)
        prefix_index: dict[str, int] = {}
        prefixes: list[str] = []
        for k, i in enumerate(finite.tolist()):
            p = comp_names[i].partition(":")[0]
            j = prefix_index.get(p)
            if j is None:
                j = prefix_index[p] = len(prefixes)
                prefixes.append(p)
            prefix_ids[k] = j
        n_layers = len(prefixes)
        cap_f = capacity[finite]
        load_f = load[finite]
        with np.errstate(divide="ignore", invalid="ignore"):
            util_f = np.where(cap_f > 0, load_f / cap_f,
                              (load_f > 0).astype(float))
        layer_load = np.bincount(prefix_ids, weights=load_f, minlength=n_layers)
        layer_cap = np.bincount(prefix_ids, weights=cap_f, minlength=n_layers)
        layer_util = np.zeros(n_layers)
        np.maximum.at(layer_util, prefix_ids, util_f)
        saturated_count: dict[str, int] = {}
        for comp in result.bottlenecks:
            p = comp.partition(":")[0]
            saturated_count[p] = saturated_count.get(p, 0) + 1
        for j, prefix in enumerate(prefixes):
            telemetry.gauge("flow.layer.load", prefix).set(float(layer_load[j]))
            telemetry.gauge("flow.layer.capacity", prefix).set(float(layer_cap[j]))
            telemetry.gauge("flow.layer.max_util", prefix).set(float(layer_util[j]))
            telemetry.gauge("flow.layer.saturated", prefix).set(
                saturated_count.get(prefix, 0))


class Epoch:
    """Batches same-tick re-solve requests into one flush.

    Executors that own an incrementally-solved network (the bandwidth
    arbiter, the fault campaign, the remediation runner) route their
    re-solve triggers through :meth:`request` instead of solving inline.
    The first request since the last flush schedules the next one on
    ``engine`` at the current sim time at priority 1 (after every
    ordinary same-tick event), so a burst of simultaneous changes — a
    fault cascade, a batch of repairs, several job transitions at one
    instant — costs one solve.
    The flush callback receives the batched labels joined with ``"+"``
    (first occurrence order, deduplicated).
    """

    def __init__(self, flush: Callable[[str], None], *, engine) -> None:
        self._flush = flush
        self._engine = engine
        #: labels requested since the last flush; non-empty exactly while
        #: a flush is scheduled
        self._labels: list[str] = []
        #: number of flushes fired (diagnostic; each flush = one solve)
        self.flushes = 0

    def request(self, label: str) -> None:
        """Ask for a flush, carrying ``label`` into the batched flush label."""
        if not self._labels:
            self._engine.call_at(self._engine.now, self._fire, priority=1)
        self._labels.append(label)

    def _fire(self) -> None:
        """Run the flush with the batched label (engine event target)."""
        labels, self._labels = self._labels, []
        label = "+".join(dict.fromkeys(labels))
        self.flushes += 1
        tracer = get_tracer()
        if not tracer.enabled:
            self._flush(label)
            return
        span = tracer.open(f"epoch:{label}", "flow", merged=len(labels))
        try:
            self._flush(label)
        finally:
            tracer.end(span)
