"""Interprocedural atomicity rules: SIM004 and SIM005.

Both rules reason about *yield gaps* — spans of a process body across
which another process can run.  SIM003 (:mod:`repro.analysis.rules_sim`)
treats every syntactic ``yield`` as a gap; the rules here consult the
may-yield call graph (:mod:`repro.analysis.callgraph`) so that
``yield from self._helper()`` is a gap exactly when ``_helper`` (or
anything it transitively delegates to) can actually suspend — and so
that the dominant PR 6 write-path bug shape, a check or capture
spanning a call into a yielding helper, is visible at all.

- **SIM004 — check-then-act across a may-yield gap.**  A ``None``
  check or membership test on a ``self``-rooted attribute, followed by
  a gap, followed by an act that relies on the check (dereference,
  subscript, ``pop``/``remove``) without re-validation.  Truthiness
  guards (``while self._leases:``) are deliberately *not* tracked:
  they guard loop continuation, not a specific dereference, and the
  write path's correct sweeper idiom re-reads under exactly such a
  guard.
- **SIM005 — the await-gap capture.**  A local bound from a private
  ``self`` attribute (or an element of one) before a gap and relied on
  after it.  The attribute itself can be rebound by another process at
  every gap; the fix is re-reading ``self._attr`` after resuming.

Construct the rules with a project-wide :class:`CallGraph` for
interprocedural precision (``lint_paths(interprocedural=True)`` does);
without one, each rule builds a single-module graph on the fly, which
is exactly as strong on self-contained fixtures.
"""

from __future__ import annotations

import ast
import typing

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.core import (
    Finding,
    ModuleSource,
    Rule,
    _tagged_units,
    _target_names,
    attribute_chain,
    is_generator_function,
)
from repro.analysis.rules_sim import _STATEFUL_ATTRS

FunctionNode = typing.Union[ast.FunctionDef, ast.AsyncFunctionDef]


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
    from repro.analysis.callgraph import _iter_defs

    for cls, node in _iter_defs(tree.body, None):
        if is_generator_function(node):
            yield cls, node


class _GapRule(Rule):
    """Shared machinery: a rule that needs may-yield gap classification."""

    def __init__(self, graph: typing.Optional[CallGraph] = None):
        self._graph = graph

    def _graph_for(self, module: ModuleSource) -> CallGraph:
        if self._graph is not None:
            return self._graph
        return build_callgraph([module])

    @staticmethod
    def _unit_suspends(
        graph: CallGraph,
        path: str,
        cls: typing.Optional[str],
        nodes: typing.Sequence[ast.AST],
    ) -> bool:
        for node in _walk(nodes):
            if isinstance(node, (ast.Yield, ast.Await)):
                return True
            if isinstance(node, ast.YieldFrom) and graph.delegation_may_suspend(
                path, cls, node.value
            ):
                return True
        return False


#: ``pop``/``remove`` on a membership-guarded container act on the
#: tested key; ``discard`` and ``pop(key, default)`` are the race-safe
#: spellings and deliberately excluded.
_MEMBER_ACT_METHODS = {"pop", "remove", "popitem"}


class Sim004CheckThenActAcrossGap(_GapRule):
    """A check invalidated by a may-yield gap before the act it guards."""

    code = "SIM004"
    name = "check-then-act-across-gap"
    rationale = (
        "A None check or membership test on shared state is only as "
        "fresh as the last scheduling point: every yield — including a "
        "yield from into a helper that can suspend — lets another "
        "process rebind the attribute or remove the key.  Acting on a "
        "pre-gap check without re-validating is the interprocedural "
        "generalization of SIM003, and the dominant bug shape in the "
        "update/lease/NOTIFY write path."
    )

    def check(self, module: ModuleSource) -> typing.Iterator[Finding]:
        graph = self._graph_for(module)
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
            if guards and self._unit_suspends(graph, module.path, cls, nodes):
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


class Sim005AwaitGapCapture(_GapRule):
    """A pre-gap capture of private shared state, relied on post-gap."""

    code = "SIM005"
    name = "await-gap-capture"
    rationale = (
        "A local bound from self._attr is a snapshot: after any "
        "may-yield call — a yield, or a yield from into a suspending "
        "helper — the attribute (or the element it aliased) can have "
        "been rebound by another process.  Using the stale capture "
        "instead of re-reading is the classic await-gap bug; SIM003 "
        "covers the well-known stateful names, this rule covers every "
        "private self attribute the call graph can see a gap across."
    )

    def check(self, module: ModuleSource) -> typing.Iterator[Finding]:
        graph = self._graph_for(module)
        for cls, func in _iter_generators_with_class(module.tree):
            yield from self._check_function(module, graph, cls, func)

    def _check_function(
        self,
        module: ModuleSource,
        graph: CallGraph,
        cls: typing.Optional[str],
        func: FunctionNode,
    ) -> typing.Iterator[Finding]:
        #: var -> (line bound, captured source)
        tainted: typing.Dict[str, typing.Tuple[int, str]] = {}
        crossed: typing.Set[str] = set()
        reported: typing.Set[str] = set()

        for _tag, nodes in _tagged_units(func.body):
            # Loads first: uses in the suspending statement itself are
            # evaluated before the suspension takes effect.
            for node in _walk(nodes):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in tainted
                    and node.id in crossed
                    and node.id not in reported
                ):
                    line, source = tainted[node.id]
                    reported.add(node.id)
                    yield module.finding(
                        self,
                        node,
                        f"{node.id!r} captures {source} at line {line} "
                        "before a may-yield call and is used after it "
                        "without re-validation (await-gap); re-read "
                        f"{source} after resuming",
                    )
            for node in _walk(nodes):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    names = _target_names(targets)
                    source = self._capture_source(node.value)
                    for position, name in enumerate(names):
                        tainted.pop(name, None)
                        crossed.discard(name)
                        if source is not None and position == 0:
                            tainted[name] = (node.lineno, source)
            if tainted and self._unit_suspends(
                graph, module.path, cls, nodes
            ):
                crossed.update(tainted)

    @staticmethod
    def _capture_source(
        value: typing.Optional[ast.AST],
    ) -> typing.Optional[str]:
        """The description of the shared state ``value`` snapshots, if any.

        Private ``self`` attributes only, minus the SIM003 stateful
        names — the two rules partition the namespace instead of
        double-reporting.
        """
        if value is None:
            return None
        if isinstance(value, ast.Subscript):
            chain = attribute_chain(value.value)
            suffix = "[...]"
        else:
            chain = attribute_chain(value)
            suffix = ""
        if not chain or chain[0] != "self" or len(chain) < 2:
            return None
        attr = chain[-1]
        if not attr.startswith("_") or attr in _STATEFUL_ATTRS:
            return None
        return ".".join(chain) + suffix


def interprocedural_rules(
    graph: typing.Optional[CallGraph] = None,
) -> typing.List[Rule]:
    """The rules that join the default set under ``--interprocedural``."""
    return [Sim004CheckThenActAcrossGap(graph), Sim005AwaitGapCapture(graph)]


ATOMICITY_RULES: typing.Tuple[typing.Type[Rule], ...] = (
    Sim004CheckThenActAcrossGap,
    Sim005AwaitGapCapture,
)
