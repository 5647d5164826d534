"""Simulation-kernel rules: SIM001, SIM002.

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
    iter_generator_functions,
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

    def check(self, module: ModuleSource, graph: CallGraph) -> typing.Iterator[Finding]:
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

    def check(self, module: ModuleSource, graph: CallGraph) -> typing.Iterator[Finding]:
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


if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.callgraph import CallGraph
