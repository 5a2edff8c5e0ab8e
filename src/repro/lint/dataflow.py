"""Intraprocedural reaching-definitions / taint engine for deep rules.

The deep rules (:mod:`repro.lint.rules_deep`) need to know *where a
value came from*: does the argument of this RNG draw originate in a
telemetry read, does this loop iterate something that is statically a
set?  :class:`DataflowAnalysis` answers both with one abstract
interpretation over a function body.

The domain is deliberately small and honest about its limits:

* every expression evaluates to a frozenset of string **labels**;
* a rule supplies a ``classify`` callback that seeds labels at source
  expressions (a telemetry read, a set constructor, a tainted
  parameter);
* assignments, tuple unpacking, augmented assignment, loop targets,
  ``with ... as`` bindings, and arithmetic/boolean/comparison/subscript
  expressions propagate the union of their operands' labels;
* calls to *unknown* callees propagate the union of their argument
  labels into the result (conservative: a helper may pass a tainted
  value through), while ``sorted(...)`` / ``min(...)`` / ``max(...)``
  launder the :data:`SET_LABEL` only — ordering is fixed, provenance is
  not;
* loop bodies are interpreted twice so labels assigned late in a body
  reach uses at its top (two passes reach the fixpoint for a
  single-level environment, which is all a per-name domain needs).

The analysis is flow-*ordered* but branch-insensitive: both arms of an
``if`` contribute to the environment, which errs on the side of
reporting (a value tainted on either branch is tainted after the join).
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable

__all__ = ["DataflowAnalysis", "SET_LABEL"]

#: the label :class:`DataflowAnalysis` uses for "statically a set" —
#: shared between the engine's built-in set classification and the
#: cross-iter-order rule
SET_LABEL = "unordered-set"

#: callables whose result is order-stable regardless of input order —
#: they consume an unordered value and emit an ordered (or scalar) one
_ORDER_LAUNDERERS = frozenset({"sorted", "min", "max", "len", "sum"})

_EMPTY: frozenset[str] = frozenset()


class DataflowAnalysis:
    """Labels every expression of one function body with its origins.

    Args:
        fn: the analyzed ``FunctionDef`` (or ``Lambda``) node.
        classify: callback mapping an expression node to the labels it
            *originates* (beyond what propagates into it); return an
            empty iterable for "nothing new".  Called once per
            expression visit, innermost first.
        initial: starting environment, e.g. ``{"param": {"taint"}}``
            for parameter-taint summaries.

    After construction, :meth:`labels_of` returns the computed labels
    for any expression node in the body (expressions never visited —
    dead code in untaken branches does not exist in ``ast`` — report
    the empty set).
    """

    def __init__(
        self,
        fn: ast.AST,
        classify: Callable[[ast.AST], Iterable[str]],
        initial: dict[str, frozenset[str]] | None = None,
    ) -> None:
        self._classify = classify
        self._env: dict[str, frozenset[str]] = dict(initial or {})
        self._labels: dict[int, frozenset[str]] = {}
        body = fn.body if isinstance(fn.body, list) else [ast.Return(fn.body)]
        # Two passes over the whole body: pass one seeds assignments,
        # pass two lets labels defined textually late (or around a loop
        # back-edge) reach earlier uses.  The per-name powerset domain
        # is monotone, so two passes suffice for a stable environment.
        for _ in (0, 1):
            self._exec_block(body)

    # -- public -----------------------------------------------------------

    def labels_of(self, node: ast.AST) -> frozenset[str]:
        """Labels computed for ``node`` (empty if never reached)."""
        return self._labels.get(id(node), _EMPTY)

    # -- statements --------------------------------------------------------

    def _exec_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            labels = self._eval(value) if value is not None else _EMPTY
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                if isinstance(stmt, ast.AugAssign):
                    labels = labels | self._eval(target)
                self._bind(target, labels)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_labels = self._eval(stmt.iter)
            # Iterating an unordered collection yields *elements*, which
            # are not themselves sets; every other provenance label
            # rides through to the loop variable.
            self._bind(stmt.target, iter_labels - {SET_LABEL})
            for _ in (0, 1):  # loop-carried labels reach the body top
                self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            for _ in (0, 1):
                self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, labels)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass  # nested scopes are analyzed as their own functions
        elif isinstance(stmt, (ast.Assert, ast.Raise, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
        # Pass/Break/Continue/Import/Global/Nonlocal: nothing flows.

    # -- expressions -------------------------------------------------------

    def _bind(self, target: ast.expr, labels: frozenset[str]) -> None:
        if isinstance(target, ast.Name):
            self._env[target.id] = labels
            self._labels[id(target)] = labels
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Unpacking: each element may hold any of the source labels
            # (minus setness, which describes the container).
            for elt in target.elts:
                self._bind(elt, labels - {SET_LABEL})
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._eval(target.value)
            self._labels[id(target)] = labels
        elif isinstance(target, ast.Starred):
            self._bind(target.value, labels)

    def _eval(self, node: ast.expr) -> frozenset[str]:
        labels = self._propagate(node) | frozenset(self._classify(node))
        self._labels[id(node)] = labels
        return labels

    def _propagate(self, node: ast.expr) -> frozenset[str]:
        if isinstance(node, ast.Name):
            return self._env.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            return self._eval(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            arg_labels = _EMPTY
            for arg in node.args:
                arg_labels |= self._eval(arg)
            for kw in node.keywords:
                arg_labels |= self._eval(kw.value)
            if isinstance(func, ast.Name) and func.id in _ORDER_LAUNDERERS:
                return arg_labels - {SET_LABEL}
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return arg_labels | {SET_LABEL}
            if isinstance(func, ast.Name) and func.id in ("list", "tuple"):
                # list(a_set) fixes nothing about the order — setness
                # (the order hazard) survives the conversion.
                return arg_labels
            # Receiver labels ride through method-call results: a read
            # chained off a tainted object stays tainted.  Eval the
            # func expression for its own classification side effects.
            return arg_labels | self._eval(func)
        if isinstance(node, ast.Set):
            for elt in node.elts:
                self._eval(elt)
            return frozenset({SET_LABEL})
        if isinstance(node, ast.SetComp):
            self._eval_comprehension(node)
            return frozenset({SET_LABEL})
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._eval_comprehension(node)
        if isinstance(node, ast.DictComp):
            self._eval_comprehension(node)
            return _EMPTY
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out = _EMPTY
            for value in node.values:
                out |= self._eval(value)
            return out
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comp in node.comparators:
                self._eval(comp)
            return _EMPTY  # a bool carries no provenance worth tracking
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value)
            if isinstance(node.slice, ast.expr):
                self._eval(node.slice)
            return base
        if isinstance(node, (ast.Tuple, ast.List)):
            out = _EMPTY
            for elt in node.elts:
                out |= self._eval(elt)
            return out
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key)
            for value in node.values:
                self._eval(value)
            return _EMPTY
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child)
            return _EMPTY  # rendering to text is not a data flow
        if isinstance(node, ast.Lambda):
            return _EMPTY
        if isinstance(node, ast.NamedExpr):
            labels = self._eval(node.value)
            self._bind(node.target, labels)
            return labels
        return _EMPTY  # constants and anything unmodeled

    def _eval_comprehension(self, node: ast.expr) -> frozenset[str]:
        out = _EMPTY
        for gen in node.generators:
            iter_labels = self._eval(gen.iter)
            self._bind(gen.target, iter_labels - {SET_LABEL})
            out |= iter_labels
            for cond in gen.ifs:
                self._eval(cond)
        if isinstance(node, ast.DictComp):
            self._eval(node.key)
            out |= self._eval(node.value)
        else:
            out |= self._eval(node.elt)
        return out
