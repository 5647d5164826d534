"""A reply's wire bytes are produced once, by the server that sends it.

The receiving resolver prices its demarshal against the bytes that rode
with the reply (``reply.wire``); it never encodes a message it received.
"""

import sys

import pytest

from repro.bind import BindResolver, CacheFormat, ResolverCache
from repro.core import Arrangement, HNSName
from repro.serial import GeneratedMarshaller, HandcodedMarshaller
from repro.workloads import build_stack, build_testbed

RESPONSES = ("QueryResponse", "BatchQueryResponse")


@pytest.fixture
def calls(monkeypatch):
    """Every marshaller entry-point call: (op, struct name, caller, bytes)."""
    log = []

    def spy(cls, op):
        original = getattr(cls, op)

        def wrapper(self, arg):
            result = original(self, arg)
            log.append((
                op,
                self.idl_type.struct_name,
                sys._getframe(1).f_code.co_name,
                result[0] if op == "encode" else arg,
            ))
            return result

        monkeypatch.setattr(cls, op, wrapper)

    for cls in (HandcodedMarshaller, GeneratedMarshaller):
        for op in ("encode", "decode"):
            spy(cls, op)
    return log


def test_cold_import_encodes_each_reply_exactly_once(calls):
    testbed = build_testbed(seed=7)
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    stack.flush_all_caches()
    testbed.env.run(until=testbed.env.process(
        stack.importer.import_binding(
            "DesiredService", HNSName("BIND-cs", "fiji.cs.washington.edu")
        )
    ))
    encodes = [c for c in calls if c[0] == "encode"]
    assert not [c for c in encodes if c[2] in ("_fetch", "_fetch_batch")]
    sent = [c for c in encodes if c[1] in RESPONSES]
    received = [c for c in calls if c[0] == "decode" and c[1] in RESPONSES]
    assert sent and {c[2] for c in sent} == {"_encode_reply"}
    assert {c[2] for c in received} <= {"_fetch", "_fetch_batch"}
    # one encode per reply, and the receiver decodes those very bytes
    assert [c[3] for c in sent] == [c[3] for c in received]
    assert all(a[3] is b[3] for a, b in zip(sent, received))


def test_marshalled_cache_hit_decodes_the_stored_bytes_in_client_style(
    deployment, calls
):
    env, net, transport, client, server, endpoint = deployment
    cache = ResolverCache(env, fmt=CacheFormat.MARSHALLED)
    resolver = BindResolver(
        client, transport, endpoint, marshalling="generated", cache=cache
    )

    def run(gen):
        return env.run(until=env.process(gen))

    first = run(resolver.lookup("gateway.gw.net"))
    (sent,) = [c for c in calls if c[0] == "encode" and c[2] == "_encode_reply"]
    del calls[:]
    started = env.now
    assert run(resolver.lookup("gateway.gw.net")) == first
    (hit,) = calls
    assert hit[:3] == ("decode", "QueryResponse", "_read_entry")
    assert hit[3] == sent[3]  # the cache holds what the server sent
    # six records through the generated routines: Table 3.2's 24.95 ms
    assert env.now - started > 24.95
