"""Simulation-kernel rules: SIM001, SIM002, SIM003.

The event kernel replays a run exactly from ``Environment(seed=...)``:
virtual time comes from ``env.now``, randomness from named
``env.rng.stream(...)`` streams.  Anything that reaches outside that
sandbox — the host's clock, the process RNG, a real socket — makes the
benchmark trajectories (``BENCH_*.json``) unreproducible in a way no
test notices until the numbers drift.  These rules catch the escape
hatches at review time.
"""

from __future__ import annotations

import ast
import typing

from repro.analysis.core import (
    Finding,
    ImportMap,
    ModuleSource,
    Rule,
    attribute_chain,
    iter_generator_functions,
    _tagged_units,
    _target_names,
    _walk_own_body,
)

#: (module, attr prefix) call targets that read the host's clock or
#: ambient randomness.  Matched against :meth:`ImportMap.resolve_call`.
_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
    ("datetime", "datetime.now"),
    ("datetime", "datetime.utcnow"),
    ("datetime", "datetime.today"),
    ("datetime", "date.today"),
}

_AMBIENT_RANDOM_MODULES = {"secrets"}
_AMBIENT_RANDOM = {
    ("os", "urandom"),
    ("os", "getrandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
}

#: Calls that block the host thread or touch real I/O devices; inside a
#: simulated process these freeze every other process in the run.
_BLOCKING = {
    ("time", "sleep"),
    ("socket", "socket"),
    ("socket", "create_connection"),
    ("socket", "create_server"),
    ("select", "select"),
    ("subprocess", "run"),
    ("subprocess", "Popen"),
    ("subprocess", "check_output"),
    ("subprocess", "check_call"),
    ("subprocess", "call"),
    ("urllib.request", "urlopen"),
}
_BLOCKING_MODULES = {"requests", "http.client"}
_BLOCKING_BUILTINS = {"open", "input"}


class Sim001AmbientNondeterminism(Rule):
    """No wall-clock time or ambient randomness inside ``src/repro``."""

    code = "SIM001"
    name = "ambient-nondeterminism"
    rationale = (
        "Simulated components must take time from env.now and randomness "
        "from env.rng.stream(name); host clocks and the process RNG make "
        "same-seed runs diverge and corrupt benchmark trajectories."
    )

    def check(self, module: ModuleSource) -> typing.Iterator[Finding]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve_call(node.func)
            if target is None:
                continue
            mod, attr = target
            if (mod, attr) in _WALL_CLOCK:
                yield module.finding(
                    self, node,
                    f"wall-clock read {mod}.{attr}(); use env.now "
                    "(simulated milliseconds)",
                )
            elif (mod, attr) in _AMBIENT_RANDOM or mod in _AMBIENT_RANDOM_MODULES:
                yield module.finding(
                    self, node,
                    f"ambient randomness {mod}.{attr}(); draw from a named "
                    "env.rng.stream(...) so runs replay",
                )
            elif mod == "random":
                # Both module-level helpers (random.random(), shared
                # global state) and direct random.Random(...)
                # construction — every stream must be handed out by the
                # RngRegistry so seeds stay centralised.
                yield module.finding(
                    self, node,
                    f"direct random.{attr}(); use env.rng.stream(name) "
                    "(RngRegistry owns every seed)",
                )


class Sim002BlockingCall(Rule):
    """No blocking calls inside generator processes."""

    code = "SIM002"
    name = "blocking-call-in-process"
    rationale = (
        "A simulated process is a cooperative generator; time.sleep, real "
        "sockets, or file I/O block the single kernel thread and stall "
        "every process in the run instead of advancing the virtual clock."
    )

    def check(self, module: ModuleSource) -> typing.Iterator[Finding]:
        imports = ImportMap(module.tree)
        for func in iter_generator_functions(module.tree):
            for node in _walk_own_body(func):
                if not isinstance(node, ast.Call):
                    continue
                target = imports.resolve_call(node.func)
                if target is not None:
                    mod, attr = target
                    if (mod, attr) in _BLOCKING or mod in _BLOCKING_MODULES:
                        yield module.finding(
                            self, node,
                            f"blocking call {mod}.{attr}() inside process "
                            f"generator {func.name!r}; yield a simulated "
                            "event (env.timeout / transport / disk) instead",
                        )
                        continue
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _BLOCKING_BUILTINS
                ):
                    yield module.finding(
                        self, node,
                        f"blocking builtin {node.func.id}() inside process "
                        f"generator {func.name!r}; real I/O does not "
                        "advance simulated time",
                    )


#: Attribute names whose reads snapshot shared mutable state.  A local
#: bound from one of these and used after a later ``yield`` may be stale
#: by the time it is read — another process can run at every yield.
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


class Sim003StaleReadAcrossYield(Rule):
    """Shared-state snapshot taken before a ``yield``, used after it."""

    code = "SIM003"
    name = "stale-read-across-yield"
    rationale = (
        "Every yield is a scheduling point: cache entries can expire, be "
        "evicted, or be rewritten by another process before the generator "
        "resumes.  A snapshot captured before a yield must be re-validated "
        "(or re-bound) before being relied on after it."
    )

    def check(self, module: ModuleSource) -> typing.Iterator[Finding]:
        for func in iter_generator_functions(module.tree):
            yield from self._check_function(module, func)

    def _check_function(
        self,
        module: ModuleSource,
        func: typing.Union[ast.FunctionDef, ast.AsyncFunctionDef],
    ) -> typing.Iterator[Finding]:
        #: var -> (line bound, attr description); cleared on re-bind.
        tainted: typing.Dict[str, typing.Tuple[int, str]] = {}
        crossed: typing.Set[str] = set()
        reported: typing.Set[str] = set()

        for _tag, unit in _tagged_units(func.body):
            has_yield = any(
                isinstance(n, (ast.Yield, ast.YieldFrom))
                for root in unit
                for n in ast.walk(root)
                if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            )
            # Uses are evaluated before the suspension takes effect for
            # this statement, so check loads first.
            for node in self._walk_unit(unit):
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
                        self, node,
                        f"{node.id!r} snapshots {source} at line {line} and "
                        "is relied on after a yield without re-validation; "
                        "re-probe or re-bind it after resuming",
                    )
            # Rebinding clears the taint; new snapshot binds create it.
            for node in self._walk_unit(unit):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    names = _target_names(targets)
                    source = self._snapshot_source(node.value) if node.value else None
                    for position, name in enumerate(names):
                        tainted.pop(name, None)
                        crossed.discard(name)
                        # For tuple unpacking of probe() only the first
                        # element (the entry) is the hazardous snapshot.
                        if source is not None and position == 0:
                            tainted[name] = (node.lineno, source)
            if has_yield:
                crossed.update(tainted)

    @staticmethod
    def _snapshot_source(
        value: typing.Optional[ast.AST],
    ) -> typing.Optional[str]:
        """The description of the state snapshotted, or None."""
        if value is None:
            return None
        # yield from cache.probe(key) — the send-value, not a snapshot.
        if isinstance(value, (ast.Yield, ast.YieldFrom)):
            inner = value.value
            if isinstance(inner, ast.Call):
                value = inner
            else:
                return None
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            if value.func.attr in _SNAPSHOT_METHODS:
                chain = attribute_chain(value.func)
                base = ".".join(chain[:-1]) if chain else "<cache>"
                return f"{base}.{value.func.attr}(...)"
            return None
        if isinstance(value, ast.Attribute):
            if value.attr in _STATEFUL_ATTRS:
                chain = attribute_chain(value)
                return ".".join(chain) if chain else value.attr
        return None

    @staticmethod
    def _walk_unit(unit: typing.Sequence[ast.AST]) -> typing.Iterator[ast.AST]:
        for root in unit:
            yield from ast.walk(root)


SIM_RULES: typing.Tuple[typing.Type[Rule], ...] = (
    Sim001AmbientNondeterminism,
    Sim002BlockingCall,
    Sim003StaleReadAcrossYield,
)
