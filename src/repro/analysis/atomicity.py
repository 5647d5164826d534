"""Yield-gap rules: SIM003 and SIM004.

Both rules reason about *yield gaps* — spans of a process body across
which another process can run.  A gap is a bare ``yield`` (or
``await``), or a ``yield from`` into a helper that the may-yield call
graph (:mod:`repro.analysis.callgraph`) says can suspend; a ``yield
from`` the graph cannot resolve counts as a gap.  So ``yield from
self._helper()`` is a gap exactly when ``_helper`` (or anything it
transitively delegates to) can actually suspend, and a check or
capture spanning a call into a yielding helper is visible at all.

- **SIM003 — a stale capture across a gap.**  A local bound from shared
  state before a gap and relied on after it: a cache ``probe`` /
  ``stale_entry`` result, a well-known stateful attribute (``entries``,
  ``zone``, ``state``...) on any receiver, or a private ``self``
  attribute or an element of one.  The fix is re-reading after
  resuming.
- **SIM004 — check-then-act across a gap.**  A ``None`` check or
  membership test on a ``self``-rooted attribute, followed by a gap,
  followed by an act that relies on the check (dereference, subscript,
  ``pop``/``remove``) without re-validation.  Truthiness guards
  (``while self._leases:``) are deliberately *not* tracked: they guard
  loop continuation, not a specific dereference, and the write path's
  correct sweeper idiom re-reads under exactly such a guard.
"""

from __future__ import annotations

import ast
import typing

from repro.analysis.callgraph import CallGraph, _iter_defs
from repro.analysis.core import (
    Finding,
    ModuleSource,
    Rule,
    _tagged_units,
    _target_names,
    attribute_chain,
    is_generator_function,
)

FunctionNode = typing.Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Attribute names whose reads snapshot shared mutable state, on any
#: receiver.
_STATEFUL_ATTRS = {
    "entries",
    "_entries",
    "records",
    "zone",
    "zones",
    "journal",
    "table",
    "bindings",
    "state",
}

#: Method calls whose results snapshot cache state the same way.
_SNAPSHOT_METHODS = {"probe", "stale_entry"}


def _walk(roots: typing.Iterable[ast.AST]) -> typing.Iterator[ast.AST]:
    """Walk expression/statement roots without entering nested scopes."""
    stack: typing.List[ast.AST] = [r for r in roots if r is not None]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _self_path(node: ast.AST) -> typing.Optional[str]:
    """``self.a.b`` -> ``"self.a.b"``; None for anything else."""
    chain = attribute_chain(node)
    if chain and chain[0] == "self" and len(chain) >= 2:
        return ".".join(chain)
    return None


def _iter_generators_with_class(
    tree: ast.Module,
) -> typing.Iterator[typing.Tuple[typing.Optional[str], FunctionNode]]:
    for cls, node in _iter_defs(tree.body, None):
        if is_generator_function(node):
            yield cls, node


def _suspends(
    graph: CallGraph,
    path: str,
    cls: typing.Optional[str],
    nodes: typing.Sequence[ast.AST],
) -> bool:
    """Can this unit of a process body (in ``path``, class ``cls``)
    suspend the process?"""
    for node in _walk(nodes):
        if isinstance(node, (ast.Yield, ast.Await)):
            return True
        if isinstance(node, ast.YieldFrom) and graph.delegation_may_suspend(
            path, cls, node.value
        ):
            return True
    return False


class Sim003StaleReadAcrossYield(Rule):
    """Shared-state snapshot taken before a may-yield gap, used after it."""

    code = "SIM003"
    name = "stale-read-across-yield"
    rationale = (
        "Every yield is a scheduling point, and so is a yield from into "
        "a helper that can suspend: cache entries can expire, be evicted "
        "or be rewritten, and any private self attribute (or the element "
        "it aliased) rebound, by another process before the generator "
        "resumes.  A snapshot captured before a gap must be re-validated "
        "(or re-read) before being relied on after it."
    )

    def check(self, module: ModuleSource, graph: CallGraph) -> typing.Iterator[Finding]:
        for cls, func in _iter_generators_with_class(module.tree):
            yield from self._check_function(module, graph, cls, func)

    def _check_function(
        self,
        module: ModuleSource,
        graph: CallGraph,
        cls: typing.Optional[str],
        func: FunctionNode,
    ) -> typing.Iterator[Finding]:
        #: var -> (line bound, captured source); cleared on re-bind.
        tainted: typing.Dict[str, typing.Tuple[int, str]] = {}
        crossed: typing.Set[str] = set()
        reported: typing.Set[str] = set()

        for _tag, nodes in _tagged_units(func.body):
            # Loads first: uses in the suspending statement itself are
            # evaluated before the suspension takes effect.  A use in a
            # nested lambda or comprehension counts too.
            for node in (n for root in nodes for n in ast.walk(root)):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in crossed
                    and node.id not in reported
                ):
                    line, source = tainted[node.id]
                    reported.add(node.id)
                    yield module.finding(
                        self,
                        node,
                        f"{node.id!r} snapshots {source} at line {line} and "
                        "is relied on after a may-yield call without "
                        f"re-validation; re-read {source} after resuming",
                    )
            for node in _walk(nodes):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    source = self._capture_source(node.value)
                    for position, name in enumerate(_target_names(targets)):
                        tainted.pop(name, None)
                        crossed.discard(name)
                        # For tuple unpacking of probe() only the first
                        # element (the entry) is the hazardous snapshot.
                        if source is not None and position == 0:
                            tainted[name] = (node.lineno, source)
            if tainted and _suspends(graph, module.path, cls, nodes):
                crossed.update(tainted)

    @staticmethod
    def _capture_source(
        value: typing.Optional[ast.AST],
    ) -> typing.Optional[str]:
        """The description of the shared state ``value`` snapshots, if any."""
        # ``x = yield from cache.probe(key)``: the delegated call's result
        # is the snapshot.
        if isinstance(value, (ast.Yield, ast.YieldFrom)):
            value = value.value if isinstance(value.value, ast.Call) else None
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute) and func.attr in _SNAPSHOT_METHODS:
                chain = attribute_chain(func)
                base = ".".join(chain[:-1]) if chain else "<cache>"
                return f"{base}.{func.attr}(...)"
            return None
        if isinstance(value, ast.Attribute) and value.attr in _STATEFUL_ATTRS:
            chain = attribute_chain(value)
            return ".".join(chain) if chain else value.attr
        suffix = ""
        if isinstance(value, ast.Subscript):
            value, suffix = value.value, "[...]"
        path = _self_path(value) if value is not None else None
        if path is not None and path.rsplit(".", 1)[1].startswith("_"):
            return path + suffix
        return None


#: ``pop``/``remove`` on a membership-guarded container act on the
#: tested key; ``discard`` and ``pop(key, default)`` are the race-safe
#: spellings and deliberately excluded.
_MEMBER_ACT_METHODS = {"pop", "remove", "popitem"}


class Sim004CheckThenActAcrossGap(Rule):
    """A check invalidated by a may-yield gap before the act it guards."""

    code = "SIM004"
    name = "check-then-act-across-gap"
    rationale = (
        "A None check or membership test on shared state is only as "
        "fresh as the last scheduling point: every yield — including a "
        "yield from into a helper that can suspend — lets another "
        "process rebind the attribute or remove the key.  Acting on a "
        "pre-gap check without re-validating is the check-shaped twin "
        "of SIM003's stale capture, and the dominant bug shape in the "
        "update/lease/NOTIFY write path."
    )

    def check(self, module: ModuleSource, graph: CallGraph) -> typing.Iterator[Finding]:
        for cls, func in _iter_generators_with_class(module.tree):
            yield from self._check_function(module, graph, cls, func)

    def _check_function(
        self,
        module: ModuleSource,
        graph: CallGraph,
        cls: typing.Optional[str],
        func: FunctionNode,
    ) -> typing.Iterator[Finding]:
        #: guarded path -> (kind, guard line); kind "none" or "member"
        guards: typing.Dict[str, typing.Tuple[str, int]] = {}
        crossed: typing.Set[str] = set()
        reported: typing.Set[str] = set()

        for tag, nodes in _tagged_units(func.body):
            # Acts are evaluated against the pre-unit state: a deref in
            # the same unit as the re-check still races (the check
            # happens first only by luck of evaluation order, and the
            # deref is what the finding points at).
            for path, node in self._acts(nodes, guards):
                if path in crossed and path not in reported:
                    kind, line = guards[path]
                    reported.add(path)
                    check_desc = (
                        "was None-checked"
                        if kind == "none"
                        else "had a membership test"
                    )
                    yield module.finding(
                        self,
                        node,
                        f"check-then-act: {path} {check_desc} at line "
                        f"{line}, but a may-yield call intervenes before "
                        "this access; another process can run at every "
                        "yield — re-validate after resuming",
                    )
            if tag == "test":
                for kind, path, line in self._guards(nodes):
                    guards[path] = (kind, line)
                    crossed.discard(path)
            else:
                # Rebinding the attribute itself (``self._batch = ...``)
                # supersedes the stale check.
                for node in _walk(nodes):
                    if isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, (ast.Store, ast.Del)
                    ):
                        path = _self_path(node)
                        if path is not None:
                            guards.pop(path, None)
                            crossed.discard(path)
            if guards and _suspends(graph, module.path, cls, nodes):
                crossed.update(guards)

    @staticmethod
    def _guards(
        nodes: typing.Sequence[ast.AST],
    ) -> typing.Iterator[typing.Tuple[str, str, int]]:
        """(kind, path, line) for every recognised check in a test expr.

        Polarity-insensitive: ``is None`` and ``is not None`` both
        register a check (branch flattening already discards which arm
        runs), as do ``in`` and ``not in``.
        """
        for node in _walk(nodes):
            if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
                continue
            op = node.ops[0]
            left, right = node.left, node.comparators[0]
            if isinstance(op, (ast.Is, ast.IsNot)):
                if isinstance(right, ast.Constant) and right.value is None:
                    chain_side: typing.Optional[ast.AST] = left
                elif isinstance(left, ast.Constant) and left.value is None:
                    chain_side = right
                else:
                    continue
                path = _self_path(chain_side)
                if path is not None:
                    yield "none", path, node.lineno
            elif isinstance(op, (ast.In, ast.NotIn)):
                path = _self_path(right)
                if path is not None:
                    yield "member", path, node.lineno

    @staticmethod
    def _acts(
        nodes: typing.Sequence[ast.AST],
        guards: typing.Mapping[str, typing.Tuple[str, int]],
    ) -> typing.Iterator[typing.Tuple[str, ast.AST]]:
        """(guarded path, node) for every act that relies on its check."""
        if not guards:
            return
        for node in _walk(nodes):
            if isinstance(node, ast.Subscript):
                # d[k] after "k in d" or after "d is not None".
                base = _self_path(node.value)
                if base in guards:
                    yield base, node
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                base = _self_path(node.func.value)
                if (
                    base in guards
                    and guards[base][0] == "member"
                    and node.func.attr in _MEMBER_ACT_METHODS
                    and not (node.func.attr == "pop" and len(node.args) >= 2)
                ):
                    yield base, node
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                # obj.field after "obj is not None": a dereference.
                base = _self_path(node.value)
                if base in guards and guards[base][0] == "none":
                    # The membership-guard equivalent (d.items() after
                    # "k in d") is not an act: it does not rely on the
                    # tested key still being present.
                    yield base, node
