"""The interprocedural generator call graph: *may-yield* summaries.

A syntactic ``yield`` is a scheduling point.  But the write path
routinely factors the yielding half into helpers — ``yield from
self._flush(batch)`` — and whether *that* statement can suspend the
calling process depends on what ``_flush`` does.  This module answers exactly that question for
every function and method in the linted tree:

- a function whose own body contains a bare ``yield`` (or ``await``)
  **may yield**;
- ``yield from f(...)`` may suspend iff ``f`` may yield, resolved
  through a project-wide index of definitions;
- a plain function that ends in ``return g(...)`` hands its caller
  whatever ``g`` made, so it may yield iff a *resolved* ``g`` does
  (``one()`` in ``harness/report.py`` returns ``import_binding``'s
  generator this way); a returned call that resolves to nothing is
  ignored, since most plain functions return no generator at all;
- a ``yield from`` whose target cannot be resolved (a builtin, a
  callable stored in a dispatch table, an arbitrary iterable
  expression) is **conservatively assumed to suspend**;
- the summary is the least fixpoint over the delegation edges, so
  mutually delegating generators converge, and a delegation cycle with
  no bare ``yield`` anywhere in it stays non-suspending.

Resolution is name-based and deliberately conservative, matching the
rest of hnslint: ``self.m(...)`` prefers methods named ``m`` on any
class with the enclosing class's name, then any indexed function named
``m``; a bare ``m(...)`` prefers same-module functions; when several
candidates remain (dynamic dispatch the AST cannot narrow), *any*
suspending candidate makes the call suspending.
"""

from __future__ import annotations

import ast
import dataclasses
import typing

from repro.analysis.core import ModuleSource, _walk_own_body

FunctionNode = typing.Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Receiver classification for a ``yield from <call>`` target.
_SELF = "self"
_BARE = "bare"
_OTHER = "other"


@dataclasses.dataclass(frozen=True)
class Delegation:
    """One ``yield from <target>(...)`` site inside a function body."""

    receiver: str  #: _SELF, _BARE, or _OTHER
    name: typing.Optional[str]  #: callee simple name; None = unanalysable
    line: int
    #: a plain function's ``return <target>(...)`` rather than a
    #: ``yield from``: followed when it resolves, ignored when not
    returned: bool = False


@dataclasses.dataclass
class FunctionInfo:
    """Everything the fixpoint needs to know about one definition."""

    path: str
    cls: typing.Optional[str]
    name: str
    node: FunctionNode
    is_generator: bool
    has_bare_yield: bool
    delegations: typing.List[Delegation]
    may_yield: bool = False


def _iter_defs(
    body: typing.Sequence[ast.stmt],
    cls: typing.Optional[str],
) -> typing.Iterator[typing.Tuple[typing.Optional[str], FunctionNode]]:
    """Every def in ``body`` with its enclosing class name (or None).

    Nested defs inside a function lose the class context — ``self`` in
    a closure is not the method's receiver unless captured, which is
    beyond a lint-grade resolver.
    """
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield cls, stmt
            yield from _iter_defs(stmt.body, None)
        elif isinstance(stmt, ast.ClassDef):
            yield from _iter_defs(stmt.body, stmt.name)
        elif isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor)):
            yield from _iter_defs(stmt.body, cls)
            yield from _iter_defs(stmt.orelse, cls)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from _iter_defs(stmt.body, cls)
        elif isinstance(stmt, ast.Try):
            yield from _iter_defs(stmt.body, cls)
            for handler in stmt.handlers:
                yield from _iter_defs(handler.body, cls)
            yield from _iter_defs(stmt.orelse, cls)
            yield from _iter_defs(stmt.finalbody, cls)


def _classify_delegation(value: ast.expr) -> Delegation:
    """What does ``yield from <value>`` delegate to?"""
    line = getattr(value, "lineno", 0)
    if not isinstance(value, ast.Call):
        # ``yield from some_iterable`` — could be anything, including a
        # generator object constructed elsewhere.  Unanalysable.
        return Delegation(receiver=_OTHER, name=None, line=line)
    func = value.func
    if isinstance(func, ast.Name):
        return Delegation(receiver=_BARE, name=func.id, line=line)
    if isinstance(func, ast.Attribute):
        receiver = (
            _SELF
            if isinstance(func.value, ast.Name) and func.value.id == "self"
            else _OTHER
        )
        return Delegation(receiver=receiver, name=func.attr, line=line)
    return Delegation(receiver=_OTHER, name=None, line=line)


class CallGraph:
    """The project-wide may-yield summary over a set of modules."""

    def __init__(self, modules: typing.Sequence[ModuleSource]):
        self.functions: typing.List[FunctionInfo] = []
        #: simple name -> every indexed def with that name
        self._by_name: typing.Dict[str, typing.List[FunctionInfo]] = {}
        #: (class name, method name) -> defs (class names merged across
        #: modules — conservative under name collisions)
        self._methods: typing.Dict[
            typing.Tuple[str, str], typing.List[FunctionInfo]
        ] = {}
        #: (module path, name) -> same-module defs
        self._local: typing.Dict[
            typing.Tuple[str, str], typing.List[FunctionInfo]
        ] = {}
        #: delegation sites that resolved to nothing (diagnostics)
        self.unresolved_delegations = 0
        self._edges = 0
        for module in modules:
            self._index_module(module)
        self._fixpoint()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index_module(self, module: ModuleSource) -> None:
        for cls, node in _iter_defs(module.tree.body, None):
            has_bare = False
            delegations: typing.List[Delegation] = []
            returned: typing.List[Delegation] = []
            is_gen = False
            for child in _walk_own_body(node):
                if isinstance(child, ast.Yield):
                    has_bare = True
                    is_gen = True
                elif isinstance(child, ast.Await):
                    has_bare = True
                elif isinstance(child, ast.YieldFrom):
                    is_gen = True
                    delegations.append(_classify_delegation(child.value))
                elif isinstance(child, ast.Return) and isinstance(
                    child.value, ast.Call
                ):
                    returned.append(
                        dataclasses.replace(
                            _classify_delegation(child.value), returned=True
                        )
                    )
            if not is_gen:
                delegations = returned
            info = FunctionInfo(
                path=module.path,
                cls=cls,
                name=node.name,
                node=node,
                is_generator=is_gen,
                has_bare_yield=has_bare,
                delegations=delegations,
            )
            self.functions.append(info)
            self._by_name.setdefault(node.name, []).append(info)
            if cls is not None:
                self._methods.setdefault((cls, node.name), []).append(info)
            else:
                self._local.setdefault((module.path, node.name), []).append(info)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(
        self,
        path: str,
        cls: typing.Optional[str],
        delegation: Delegation,
    ) -> typing.Optional[typing.List[FunctionInfo]]:
        """Candidate definitions for a delegation, or None if unresolved.

        ``path``/``cls`` are the *calling* context: the module and
        enclosing class of the function containing the ``yield from``.
        """
        name = delegation.name
        if name is None:
            return None
        if delegation.receiver == _SELF and cls is not None:
            candidates = self._methods.get((cls, name))
            if candidates:
                return candidates
            # Inherited or mixin method: fall back to any def by name.
            return self._by_name.get(name)
        if delegation.receiver == _BARE:
            candidates = self._local.get((path, name))
            if candidates:
                return candidates
            return self._by_name.get(name)
        return self._by_name.get(name)

    # ------------------------------------------------------------------
    # The fixpoint
    # ------------------------------------------------------------------
    def _fixpoint(self) -> None:
        # Pre-resolve every delegation once; None marks conservative
        # may-yield seeds.
        resolved: typing.List[
            typing.List[typing.Optional[typing.List[FunctionInfo]]]
        ] = []
        for info in self.functions:
            row: typing.List[typing.Optional[typing.List[FunctionInfo]]] = []
            for delegation in info.delegations:
                candidates = self.resolve(info.path, info.cls, delegation)
                if candidates is None:
                    if delegation.returned:
                        continue
                    self.unresolved_delegations += 1
                else:
                    self._edges += len(candidates)
                row.append(candidates)
            resolved.append(row)
            info.may_yield = info.has_bare_yield or any(
                candidates is None for candidates in row
            )
        changed = True
        while changed:
            changed = False
            for info, row in zip(self.functions, resolved):
                if info.may_yield:
                    continue
                for candidates in row:
                    if candidates and any(c.may_yield for c in candidates):
                        info.may_yield = True
                        changed = True
                        break

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def delegation_may_suspend(
        self,
        path: str,
        cls: typing.Optional[str],
        value: ast.expr,
    ) -> bool:
        """Can ``yield from <value>`` (in module ``path``, class ``cls``)
        suspend the calling process?"""
        delegation = _classify_delegation(value)
        candidates = self.resolve(path, cls, delegation)
        if candidates is None:
            return True
        return any(c.may_yield for c in candidates)

    def lookup(
        self, path: str, cls: typing.Optional[str], name: str
    ) -> typing.Optional[FunctionInfo]:
        """The indexed definition at exactly (path, cls, name), if any."""
        for info in self._by_name.get(name, ()):
            if info.path == path and info.cls == cls:
                return info
        return None

    def summary(self) -> typing.Dict[str, int]:
        """Graph-shape counters for the machine-readable report."""
        return {
            "functions": len(self.functions),
            "generators": sum(1 for f in self.functions if f.is_generator),
            "may_yield": sum(1 for f in self.functions if f.may_yield),
            "delegation_edges": self._edges,
            "unresolved_delegations": self.unresolved_delegations,
        }
