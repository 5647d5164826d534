"""The hit path's memos are invisible: same answers, same errors, same stats.

Each value the warm path derives from immutable input is remembered in a
bounded memo keyed by the input's *value* (:mod:`repro.memo`).  That is
safe only if what comes out cannot be changed by one caller under
another, an error is never remembered, new input is never answered from
old, and the stats a digest sees do not depend on when a counter object
was looked up.
"""

import dataclasses
import pickle

import pytest

from repro.bind import DomainName, ResolverCache, RRType
from repro.bind.names import _parse
from repro.bind.resolver import cache_key
from repro.core import HNSName, NsmRecord
from repro.core.hns import remote_binding
from repro.core.metastore import MetaStore, decode_fields, encode_fields
from repro.hrpc import HRPCBinding
from repro.memo import MEMO_SIZE, first_use
from repro.net import Endpoint, NetworkAddress
from repro.resolution import DEFAULT_RESOLUTION_POLICY, FastPathPolicy, PolicySet
from repro.net.addresses import _octets
from repro.sim import Environment

from tests.core.conftest import run

NSM_FIELDS = dict(
    qc="HRPCBinding", ns="BIND-cs", host="june.cs.washington.edu",
    hostctx="BIND-cs", prog="nsm", suite="sunrpc", port=7100,
)


def test_decoded_fields_are_read_only_and_equal_the_plain_dict():
    fields = decode_fields(encode_fields(ns="BIND-cs", port=53))
    assert fields == {"ns": "BIND-cs", "port": "53"}
    assert dict(fields) == {"ns": "BIND-cs", "port": "53"}
    with pytest.raises(TypeError):
        fields["ns"] = "elsewhere"
    with pytest.raises(TypeError):
        del fields["port"]
    # ... so the next reader of the same bytes sees what the first one saw
    assert decode_fields(encode_fields(ns="BIND-cs", port=53))["ns"] == "BIND-cs"


@pytest.mark.parametrize(
    "derive, error",
    [
        pytest.param(lambda: decode_fields(b"no-equals-sign"), ValueError, id="malformed-record"),
        pytest.param(
            lambda: NsmRecord.from_fields(
                "n", encode_fields(**dict(NSM_FIELDS, suite="carrier-pigeon"))
            ),
            KeyError,
            id="unknown-suite-in-record",
        ),
        pytest.param(
            lambda: NsmRecord.from_fields("n", encode_fields(ns="BIND-cs")),
            KeyError,
            id="record-missing-fields",
        ),
        pytest.param(
            lambda: HRPCBinding(
                Endpoint(NetworkAddress("10.0.0.1"), 9), "p", suite="carrier-pigeon"
            ),
            KeyError,
            id="unknown-suite-in-binding",
        ),
        pytest.param(lambda: NetworkAddress("1.2.3.999"), ValueError, id="bad-address"),
        pytest.param(lambda: DomainName("a..b"), ValueError, id="bad-domain-name"),
        pytest.param(lambda: cache_key("a..b", RRType.A), ValueError, id="bad-owner"),
    ],
)
def test_an_error_is_raised_on_every_call(derive, error):
    for _ in range(3):
        with pytest.raises(error):
            derive()


def test_same_bytes_under_two_nsm_names_are_two_records():
    data = encode_fields(**NSM_FIELDS)
    first = NsmRecord.from_fields("nsm-a", data)
    second = NsmRecord.from_fields("nsm-b", data)
    assert (first.name, second.name) == ("nsm-a", "nsm-b")
    assert first != second
    assert NsmRecord.from_fields("nsm-a", data) == first
    assert first.to_fields() == data


def test_a_reregistered_record_is_read_back_new(testbed):
    # The memos are keyed by the record's bytes: new bytes are a new key,
    # so there is nothing to invalidate and nothing stale to serve.
    store = testbed.make_metastore(testbed.client)
    for version in ("v1", "v2", "v1"):
        run(testbed.env, store.register_context("memo-ctx", version))
        for _ in range(2):  # a miss, then a warm hit
            assert run(testbed.env, store.context_to_name_service("memo-ctx")) == version


# ----------------------------------------------------------------------
# FindNSM's answer: one binding per (address, record, NSM, name service)
# ----------------------------------------------------------------------
FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")
NSM_HOST = "nsmhost.cs.washington.edu"
#: batched lookups: the NSM host's address is its meta ``addr`` record
FAST = PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, fast_path=FastPathPolicy())


def test_two_warm_find_nsms_return_the_same_binding(testbed):
    hns = testbed.make_hns(testbed.client)
    cold = run(testbed.env, hns.find_nsm(FIJI, "HRPCBinding"))
    first = run(testbed.env, hns.find_nsm(FIJI, "HRPCBinding"))
    second = run(testbed.env, hns.find_nsm(FIJI, "HRPCBinding"))
    assert first is second
    assert first == cold
    assert first.endpoint.address == testbed.nsm_host.address


def test_a_shared_binding_refuses_assignment(testbed):
    hns = testbed.make_hns(testbed.client)
    binding = run(testbed.env, hns.find_nsm(FIJI, "HRPCBinding"))
    with pytest.raises(TypeError):
        binding.metadata["nsm"] = "elsewhere"
    with pytest.raises(TypeError):
        del binding.metadata["name_service"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        binding.metadata = {}
    # ... so the next FindNSM hands out what the first one saw
    again = run(testbed.env, hns.find_nsm(FIJI, "HRPCBinding"))
    assert again.metadata == {"nsm": "HRPCBinding-BIND-cs", "name_service": "BIND-cs"}
    # a binding built by hand is read-only as well, and equal to its dict
    made = HRPCBinding(Endpoint(NetworkAddress("10.0.0.1"), 9), "p", metadata={"k": "v"})
    assert made.metadata == {"k": "v"}
    with pytest.raises(TypeError):
        made.metadata["k"] = "w"


def test_a_reregistered_address_yields_a_new_binding(testbed):
    env = testbed.env
    hns = testbed.make_hns(testbed.client, policies=FAST)
    old = run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    # Registering through the FindNSM's own store drops its cached record.
    run(env, hns.metastore.register_nsm_host_address(NSM_HOST, "128.95.1.99"))
    moved = run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    assert moved is not old
    assert moved.endpoint == Endpoint(NetworkAddress("128.95.1.99"), old.endpoint.port)
    assert run(env, hns.find_nsm(FIJI, "HRPCBinding")) is moved
    run(env, hns.metastore.register_nsm_host_address(NSM_HOST, str(old.endpoint.address)))
    assert run(env, hns.find_nsm(FIJI, "HRPCBinding")) == old


def test_an_invalid_address_raises_on_every_find_nsm_and_is_never_remembered(testbed):
    env = testbed.env
    hns = testbed.make_hns(testbed.client, policies=FAST)
    good = run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    run(env, hns.metastore.register_nsm_host_address(NSM_HOST, "128.95.1.999"))

    def attempt():
        try:
            yield from hns.find_nsm(FIJI, "HRPCBinding")
        except ValueError as err:
            return err

    before = remote_binding.cache_info()
    for _ in range(3):  # a miss that fetches the record, then two hits
        assert "128.95.1.999" in str(run(env, attempt()))
    after = remote_binding.cache_info()
    assert after.misses - before.misses == 3
    assert after.hits == before.hits
    run(env, hns.metastore.register_nsm_host_address(NSM_HOST, str(good.endpoint.address)))
    assert run(env, hns.find_nsm(FIJI, "HRPCBinding")) == good


def test_every_memo_has_the_one_shared_size():
    memos = [
        _parse,
        _octets,
        cache_key,
        decode_fields,
        NsmRecord.from_fields,
        MetaStore.host_label,
        remote_binding,
    ]
    assert [memo.cache_info().maxsize for memo in memos] == [MEMO_SIZE] * len(memos)


def test_cache_key_is_the_canonical_owner_and_wire_type():
    assert cache_key("Fiji.CS.Washington.EDU.", RRType.A) == (
        "fiji.cs.washington.edu", RRType.A.value,
    )
    assert cache_key(DomainName("fiji.cs"), RRType.UNSPEC) == (
        "fiji.cs", RRType.UNSPEC.value,
    )
    assert cache_key(".", RRType.A)[0] == str(DomainName("."))


def test_an_rrtype_hashes_by_identity_and_still_hits_the_memo():
    # Members are singletons, so identity is the hash equality needs —
    # and it is computed in C, not in a frame per memoised call.
    assert RRType.__hash__ is object.__hash__
    for rtype in RRType:
        assert pickle.loads(pickle.dumps(rtype)) is rtype
        assert RRType(rtype.value) is rtype is RRType[rtype.name]
        assert rtype == rtype and rtype != rtype.value
        assert {rtype: "x"}[RRType(rtype.value)] == "x"
    assert RRType.A != RRType.CNAME
    before = cache_key.cache_info().hits
    first = cache_key("memo-rrtype.example", RRType.UNSPEC)
    assert cache_key("memo-rrtype.example", RRType.UNSPEC) is first
    assert cache_key.cache_info().hits == before + 1


# ----------------------------------------------------------------------
# Counters bind on first use: digest neutrality
# ----------------------------------------------------------------------
def test_a_first_use_value_is_derived_once_per_instance():
    derived = []

    class Owner:
        def __init__(self, name):
            self.name = name

        @first_use
        def stat(self):
            derived.append(self.name)
            return f"stat.{self.name}"

    first, second = Owner("a"), Owner("b")
    assert isinstance(Owner.stat, first_use)
    assert [first.stat, first.stat, second.stat, first.stat] == [
        "stat.a", "stat.a", "stat.b", "stat.a",
    ]
    assert derived == ["a", "b"]
    assert first.stat is vars(first)["stat"]


def test_a_cache_counter_first_appears_at_its_first_increment():
    env = Environment(seed=1)
    cache = ResolverCache(env, name="memo-test")
    assert not [n for n in env.stats.counters() if n.startswith("cache.memo-test.")]
    cache.probe("absent")
    assert env.stats.counters()["cache.memo-test.misses"] == 1
    assert "cache.memo-test.hits" not in env.stats.counters()
    cache.insert("present", ["payload"], 1, 1000.0)
    cache.probe("present")
    cache.probe("present")
    counters = env.stats.counters()
    assert counters["cache.memo-test.hits"] == 2 == cache.hits
    assert counters["cache.memo-test.misses"] == 1 == cache.misses


def test_path_counters_first_appear_when_first_counted(testbed):
    env = testbed.env
    before = env.stats.counters()
    hns = testbed.make_hns(testbed.client)
    resolver = hns.metastore.resolver.name
    nsm = hns._host_address_nsms["BIND-cs"].name
    # Building the stack names no counter.
    assert env.stats.counters() == before
    assert "hns.find_nsm" not in before
    name = HNSName("BIND-cs", "fiji.cs.washington.edu")
    run(env, hns.find_nsm(name, "HRPCBinding"))  # cold: every mapping misses
    counters = env.stats.counters()
    assert counters["hns.find_nsm"] == 1
    assert f"bind.{resolver}.cache_hits" not in counters
    assert f"nsm.{nsm}.cache_hits" not in counters
    run(env, hns.find_nsm(name, "HRPCBinding"))  # warm: every mapping hits
    counters = env.stats.counters()
    assert counters["hns.find_nsm"] == 2
    assert counters[f"bind.{resolver}.cache_hits"] == 5
    assert counters[f"nsm.{nsm}.cache_hits"] == 1
