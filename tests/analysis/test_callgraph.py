"""The may-yield call graph: resolution, fixpoint, conservatism."""

import textwrap

from repro.analysis.callgraph import CallGraph
from repro.analysis.core import ModuleSource


def _graph(**sources):
    modules = [
        ModuleSource(f"{name}.py", textwrap.dedent(text))
        for name, text in sources.items()
    ]
    return CallGraph(modules)


def _info(graph, path, cls, name):
    info = graph.lookup(path, cls, name)
    assert info is not None, f"{path}:{cls}.{name} not indexed"
    return info


def test_direct_yield_is_may_yield():
    graph = _graph(
        m="""
        def ticker(env):
            yield env.timeout(1.0)
        """
    )
    assert _info(graph, "m.py", None, "ticker").may_yield


def test_transitive_delegation_propagates():
    graph = _graph(
        m="""
        def leaf(env):
            yield env.timeout(1.0)

        def middle(env):
            yield from leaf(env)

        def top(env):
            yield from middle(env)
        """
    )
    assert _info(graph, "m.py", None, "middle").may_yield
    assert _info(graph, "m.py", None, "top").may_yield


def test_pure_generator_chain_without_yield_stays_clean():
    # yield from over a resolved non-suspending callee: the delegation
    # produces values but never suspends on a kernel event... except a
    # generator always yields *something* if the leaf yields; here the
    # leaf has no yield at all, so nothing in the chain may suspend.
    graph = _graph(
        m="""
        def compute(x):
            return x + 1

        def runner(x):
            value = compute(x)
            return value
        """
    )
    assert not _info(graph, "m.py", None, "compute").may_yield
    assert not _info(graph, "m.py", None, "runner").may_yield


def test_self_method_resolution():
    graph = _graph(
        m="""
        class Server:
            def _flush(self, batch):
                yield self.env.timeout(1.0)

            def submit(self, batch):
                yield from self._flush(batch)

            def render(self):
                return "ok"
        """
    )
    assert _info(graph, "m.py", "Server", "submit").may_yield
    assert not _info(graph, "m.py", "Server", "render").may_yield


def test_cross_module_bare_call_falls_back_by_name():
    graph = _graph(
        a="""
        def helper(env):
            yield env.timeout(1.0)
        """,
        b="""
        def caller(env):
            yield from helper(env)
        """,
    )
    assert _info(graph, "b.py", None, "caller").may_yield


def test_same_module_definition_shadows_cross_module():
    # b.py defines its own non-yielding helper; the cross-module
    # yielding one must not leak into b's resolution.
    graph = _graph(
        a="""
        def helper(env):
            yield env.timeout(1.0)
        """,
        b="""
        def helper(items):
            yield from items

        def caller(items):
            yield from helper(items)
        """,
    )
    # b.helper delegates to an arbitrary iterable: conservative.
    assert _info(graph, "b.py", None, "caller").may_yield
    graph2 = _graph(
        a="""
        def helper(env):
            yield env.timeout(1.0)
        """,
        c="""
        def helper(x):
            return x

        def caller(x):
            yield from helper(x)
        """,
    )
    assert not _info(graph2, "c.py", None, "caller").may_yield


def test_unresolved_delegation_is_conservative():
    graph = _graph(
        m="""
        def caller(handlers, key):
            yield from handlers[key]()
        """
    )
    assert _info(graph, "m.py", None, "caller").may_yield
    assert graph.summary()["unresolved_delegations"] == 1


def test_plain_function_returning_a_generator_is_followed():
    # ``CPU.compute`` after PR 18: no ``yield`` of its own, but what it
    # returns is ``use()``'s generator, so ``yield from cpu.compute()``
    # suspends exactly as before.
    graph = _graph(
        m="""
        class Unit:
            def use(self, env, ms):
                yield env.timeout(ms)

            def compute(self, env, ms):
                return self.use(env, ms / 2.0)

        def caller(unit, env):
            yield from unit.compute(env, 1.0)
        """
    )
    assert not _info(graph, "m.py", "Unit", "compute").is_generator
    assert _info(graph, "m.py", "Unit", "compute").may_yield
    assert _info(graph, "m.py", None, "caller").may_yield


def test_plain_function_returning_an_unknown_call_is_not_a_seed():
    # Unlike an unresolved ``yield from``, an unresolved ``return f()``
    # is ignored: nearly every plain function returns a non-generator.
    graph = _graph(
        m="""
        def label(name):
            return name.lower()

        def caller(name):
            yield from label(name)
        """
    )
    assert not _info(graph, "m.py", None, "label").may_yield
    assert not _info(graph, "m.py", None, "caller").may_yield
    assert graph.summary()["unresolved_delegations"] == 0


def test_delegation_cycle_without_yield_converges_clean():
    graph = _graph(
        m="""
        def ping(n):
            if n:
                yield from pong(n - 1)

        def pong(n):
            if n:
                yield from ping(n - 1)
        """
    )
    assert not _info(graph, "m.py", None, "ping").may_yield
    assert not _info(graph, "m.py", None, "pong").may_yield


def test_delegation_cycle_with_yield_converges_tainted():
    graph = _graph(
        m="""
        def ping(env, n):
            if n:
                yield from pong(env, n - 1)

        def pong(env, n):
            yield env.timeout(1.0)
            if n:
                yield from ping(env, n - 1)
        """
    )
    assert _info(graph, "m.py", None, "ping").may_yield
    assert _info(graph, "m.py", None, "pong").may_yield


def test_multi_candidate_dispatch_any_suspending_wins():
    # Two classes define .handle(); self.handle() from a third class
    # with no own definition falls back to by-name candidates — any
    # suspending one makes the call suspending.
    graph = _graph(
        m="""
        class Fast:
            def handle(self):
                return 1

        class Slow:
            def handle(self):
                yield self.env.timeout(1.0)

        class Front:
            def serve(self):
                yield from self.handle()
        """
    )
    assert _info(graph, "m.py", "Front", "serve").may_yield


def test_await_counts_as_bare_yield():
    graph = _graph(
        m="""
        async def fetch(client):
            return await client.get()
        """
    )
    assert _info(graph, "m.py", None, "fetch").may_yield


def test_summary_counters():
    graph = _graph(
        m="""
        def leaf(env):
            yield env.timeout(1.0)

        def top(env):
            yield from leaf(env)
        """
    )
    summary = graph.summary()
    assert summary["functions"] == 2
    assert summary["generators"] == 2
    assert summary["may_yield"] == 2
    assert summary["delegation_edges"] == 1
    assert summary["unresolved_delegations"] == 0
