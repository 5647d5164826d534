"""Meta-naming store: mappings, registration, field encoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bind import RRType
from repro.bind.resolver import cache_key
from repro.core import ContextNotFound, HNSName, NsmNotFound, NsmRecord
from repro.core.metastore import MetaStore, decode_fields, encode_fields
from repro.resolution import DEFAULT_RESOLUTION_POLICY, FastPathPolicy, PolicySet
from repro.workloads.scenarios import BIND_NS, CH_NS

from tests.core.conftest import run


# ----------------------------------------------------------------------
# Field encoding
# ----------------------------------------------------------------------
def test_encode_decode_fields_roundtrip():
    data = encode_fields(ns="BIND-cs", port=53, host="a.b.c")
    assert decode_fields(data) == {"ns": "BIND-cs", "port": "53", "host": "a.b.c"}


def test_encode_fields_rejects_reserved_chars():
    with pytest.raises(ValueError):
        encode_fields(bad="a;b")
    with pytest.raises(ValueError):
        encode_fields(bad="a=b")


def test_decode_fields_rejects_garbage():
    with pytest.raises(ValueError):
        decode_fields(b"no-equals-sign")
    assert decode_fields(b"") == {}


fields_strategy = st.dictionaries(
    st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True),
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters="=;"),
        min_size=1,
        max_size=20,
    ),
    min_size=1,
    max_size=6,
)


@given(fields_strategy)
@settings(max_examples=50, deadline=None)
def test_fields_roundtrip_property(fields):
    assert decode_fields(encode_fields(**fields)) == fields


# ----------------------------------------------------------------------
# Mappings against the registered testbed
# ----------------------------------------------------------------------
def test_context_to_name_service(testbed):
    ms = testbed.make_metastore(testbed.client)
    assert run(testbed.env, ms.context_to_name_service("BIND-cs")) == BIND_NS
    assert run(testbed.env, ms.context_to_name_service("CH-hcs")) == CH_NS


def test_unknown_context_raises(testbed):
    ms = testbed.make_metastore(testbed.client)

    def scenario():
        with pytest.raises(ContextNotFound):
            yield from ms.context_to_name_service("Mars")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_nsm_name_and_record(testbed):
    ms = testbed.make_metastore(testbed.client)
    nsm_name = run(testbed.env, ms.nsm_name_for(BIND_NS, "HRPCBinding"))
    assert nsm_name == f"HRPCBinding-{BIND_NS}"
    record = run(testbed.env, ms.nsm_record(nsm_name))
    assert record.query_class == "HRPCBinding"
    assert record.name_service == BIND_NS
    assert record.program == f"nsm.{nsm_name}"
    assert record.port > 0


def test_unknown_query_mapping_raises(testbed):
    ms = testbed.make_metastore(testbed.client)

    def scenario():
        with pytest.raises(NsmNotFound):
            yield from ms.nsm_name_for(BIND_NS, "MailboxLocation2")
        with pytest.raises(NsmNotFound):
            yield from ms.nsm_record("ghost-nsm")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_nsm_host_address(testbed):
    """A batched FindNSM reads its NSM host's address from the meta
    zone's ``addr`` record, not through mappings 4-6."""
    env = testbed.env
    hns = testbed.make_hns(
        testbed.client,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, fast_path=FastPathPolicy()),
    )
    binding = run(
        env, hns.find_nsm(HNSName("BIND-cs", "fiji.cs.washington.edu"), "HRPCBinding")
    )
    assert binding.endpoint.address == testbed.nsm_host.address
    assert "hns.fast_path.addr_fallbacks" not in env.stats.counters()
    owner = f"{MetaStore.host_label('nsmhost.cs.washington.edu')}.addr.hns"
    (record,) = dict(hns.metastore.cache.entries())[cache_key(owner, RRType.UNSPEC)].payload
    assert decode_fields(record.data) == {
        "host": "nsmhost.cs.washington.edu",
        "addr": str(testbed.nsm_host.address),
    }


def test_mapping_results_are_cached(testbed):
    ms = testbed.make_metastore(testbed.client)
    env = testbed.env
    run(env, ms.context_to_name_service("BIND-cs"))
    before = env.now
    run(env, ms.context_to_name_service("BIND-cs"))
    assert env.now - before < 2.0  # demarshalled hit, not a remote call
    assert ms.cache.hits == 1


def test_registration_invalidates_cache(testbed):
    """A re-registered context is visible immediately through the same store."""
    ms = testbed.make_metastore(testbed.client)
    env = testbed.env
    assert run(env, ms.context_to_name_service("BIND-cs")) == BIND_NS
    run(env, ms.register_context("BIND-cs", "OtherNS"))
    assert run(env, ms.context_to_name_service("BIND-cs")) == "OtherNS"
    run(env, ms.register_context("BIND-cs", BIND_NS))  # restore


def test_unregister_context(testbed):
    ms = testbed.make_metastore(testbed.client)
    env = testbed.env
    run(env, ms.register_context("Temp", BIND_NS))
    assert run(env, ms.context_to_name_service("Temp")) == BIND_NS
    run(env, ms.unregister("temp.ctx.hns"))

    def scenario():
        with pytest.raises(ContextNotFound):
            yield from ms.context_to_name_service("Temp")
        return "done"

    assert run(env, scenario()) == "done"


def test_nsm_record_roundtrip():
    record = NsmRecord(
        name="HRPCBinding-X",
        query_class="HRPCBinding",
        name_service="X",
        host_name="h.dom",
        host_context="ctx",
        program="nsm.HRPCBinding-X",
        suite="courier",
        port=7100,
    )
    assert NsmRecord.from_fields("HRPCBinding-X", record.to_fields()) == record


def test_nsm_record_rejects_unknown_suite():
    with pytest.raises(KeyError):
        NsmRecord.from_fields(
            "x",
            b"qc=HRPCBinding;ns=X;host=h;hostctx=c;prog=p;suite=warp;port=1",
        )


def test_preload_fills_cache(testbed):
    ms = testbed.make_metastore(testbed.client)
    env = testbed.env
    count = run(env, ms.preload())
    assert count > 10
    # Post-preload lookups are hits (no remote traffic).
    before = env.stats.counters().get(f"bind.meta@{testbed.client.name}.remote_lookups", 0)
    run(env, ms.context_to_name_service("BIND-cs"))
    after = env.stats.counters().get(f"bind.meta@{testbed.client.name}.remote_lookups", 0)
    assert before == after


def test_meta_zone_is_about_2kb(testbed):
    """'the relatively small amount of information (currently about 2KB)'."""
    from repro.bind import DomainName

    zone = testbed.meta_server.zone_named(DomainName("hns"))
    assert 1000 < zone.wire_size() < 4000
