"""HNS001/HNS002/HNS003: one true positive and one clean pass each."""

import textwrap

from repro.analysis import lint_source
from repro.analysis.rules_hns import (
    Hns001CacheInsertTtl,
    Hns002WireMessageIdl,
    Hns003StatNameConvention,
    Hns004WireMessageFieldTypes,
)


def _lint(source, rule_cls, path="<string>"):
    return lint_source(textwrap.dedent(source), path=path, rules=[rule_cls()])


# ----------------------------------------------------------------------
# HNS001: cache inserts carry a TTL
# ----------------------------------------------------------------------
def test_hns001_flags_insert_without_ttl():
    findings = _lint(
        """
        def store(self, key, payload):
            self.cache.insert(key, payload, 1)
        """,
        Hns001CacheInsertTtl,
    )
    assert [f.rule for f in findings] == ["HNS001"]
    assert "ttl_ms" in findings[0].message


def test_hns001_flags_literal_non_positive_ttl():
    findings = _lint(
        """
        def store(self, key, payload):
            self.resolver_cache.insert(key, payload, 1, ttl_ms=0)
        """,
        Hns001CacheInsertTtl,
    )
    assert [f.rule for f in findings] == ["HNS001"]
    assert "non-positive" in findings[0].message


def test_hns001_clean_with_keyword_ttl():
    findings = _lint(
        """
        def store(self, key, payload, record):
            self.cache.insert(key, payload, 1, ttl_ms=record.ttl_ms)
        """,
        Hns001CacheInsertTtl,
    )
    assert findings == []


def test_hns001_clean_with_positional_ttl():
    # ResolverCache.insert(key, payload, record_count, ttl_ms)
    findings = _lint(
        """
        def store(self, key, payload):
            self.cache.insert(key, payload, 1, 30_000)
        """,
        Hns001CacheInsertTtl,
    )
    assert findings == []


def test_hns001_ignores_non_cache_receivers():
    findings = _lint(
        """
        def store(self, row):
            self.table.insert(0, row)
        """,
        Hns001CacheInsertTtl,
    )
    assert findings == []


# ----------------------------------------------------------------------
# HNS002: wire messages registered with the serializer
# ----------------------------------------------------------------------
_BAD_MESSAGE = """
    import dataclasses

    @dataclasses.dataclass
    class LookupRequest:
        name: str
"""

_GOOD_MESSAGE = """
    import dataclasses

    @dataclasses.dataclass
    class LookupRequest:
        name: str
        idl_type = "placeholder"
"""


def test_hns002_flags_unregistered_wire_message():
    findings = _lint(
        _BAD_MESSAGE, Hns002WireMessageIdl, path="src/repro/x/messages.py"
    )
    assert [f.rule for f in findings] == ["HNS002"]
    assert "'LookupRequest'" in findings[0].message


def test_hns002_clean_with_idl_type():
    findings = _lint(
        _GOOD_MESSAGE, Hns002WireMessageIdl, path="src/repro/x/messages.py"
    )
    assert findings == []


def test_hns002_only_applies_to_messages_modules():
    findings = _lint(_BAD_MESSAGE, Hns002WireMessageIdl, path="src/repro/x/other.py")
    assert findings == []


def test_hns002_ignores_non_wire_and_non_dataclass_classes():
    findings = _lint(
        """
        import dataclasses

        @dataclasses.dataclass
        class CacheEntry:
            payload: object

        class PlainRequest:
            pass
        """,
        Hns002WireMessageIdl,
        path="src/repro/x/messages.py",
    )
    assert findings == []


# ----------------------------------------------------------------------
# HNS003: dotted stats names
# ----------------------------------------------------------------------
def test_hns003_flags_unknown_subsystem_prefix():
    findings = _lint(
        """
        def record(self):
            self.env.stats.counter("fs.reads").increment()
        """,
        Hns003StatNameConvention,
    )
    assert [f.rule for f in findings] == ["HNS003"]
    assert "'fs'" in findings[0].message


def test_hns003_flags_missing_subsystem_prefix():
    findings = _lint(
        """
        def record(self):
            self.env.stats.counter("hits").increment()
        """,
        Hns003StatNameConvention,
    )
    assert [f.rule for f in findings] == ["HNS003"]
    assert "no subsystem prefix" in findings[0].message


def test_hns003_flags_mixed_case_segment():
    findings = _lint(
        """
        def record(self):
            self.env.stats.counter("cache.Hits").increment()
        """,
        Hns003StatNameConvention,
    )
    assert [f.rule for f in findings] == ["HNS003"]


def test_hns003_clean_literal_and_fstring_names():
    findings = _lint(
        """
        def record(self, host):
            self.env.stats.counter("cache.hits").increment()
            self.env.stats.counter(f"bind.replica.{host}.sent").increment()
            self.env.stats.timer("hrpc.call")
        """,
        Hns003StatNameConvention,
    )
    assert findings == []


def test_hns003_accepts_the_sim_kernel_families():
    # The kernel publishes its event counts under sim.kernel.*
    # (publish_kernel_stats), and the million-client scenario records
    # under sim.mclient.*.
    findings = _lint(
        """
        def publish(self):
            self.env.stats.counter("sim.kernel.events_scheduled").increment()
            self.env.stats.counter("sim.kernel.events_processed").increment()
            self.env.stats.counter("sim.mclient.cache_hits").increment()
            self.env.stats.timer("sim.mclient.latency", streaming=True)
        """,
        Hns003StatNameConvention,
    )
    assert findings == []


def test_hns003_accepts_the_bind_update_prefix():
    # The write pipeline keeps its cross-server stats under
    # bind.update.* (batches, lease grants/expirations, notifies).
    findings = _lint(
        """
        def grant(self):
            self.env.stats.counter("bind.update.lease_grants").increment()
        """,
        Hns003StatNameConvention,
    )
    assert findings == []


def test_hns003_accepts_the_nsm_lease_prefix():
    # Client-side lease renewal counts under nsm.lease.*.
    findings = _lint(
        """
        def renewed(self):
            self.env.stats.counter("nsm.lease.renewals").increment()
        """,
        Hns003StatNameConvention,
    )
    assert findings == []


def test_hns003_accepts_the_obs_prefix():
    # The observability pipeline registers histograms per span name;
    # "obs" is a known subsystem (PR 5).
    findings = _lint(
        """
        def record(self, span_name, bounds):
            self.env.stats.histogram(f"obs.span.{span_name}", bounds)
        """,
        Hns003StatNameConvention,
    )
    assert findings == []


def test_hns003_accepts_the_harness_prefix():
    # Ablation-grid runners count their own workload events under
    # harness.<grid>.* (e.g. harness.fast_path.finds).
    findings = _lint(
        """
        def finish(self, env, count):
            env.stats.counter("harness.fast_path.finds").increment(count)
        """,
        Hns003StatNameConvention,
    )
    assert findings == []


def test_hns003_allows_hyphenated_server_names_in_bind_families():
    # bind.<server name>.<counter>: the server-name segment follows
    # host-naming rules, so "meta-bind" is legal there (and only there).
    findings = _lint(
        """
        def record(self):
            self.env.stats.counter("bind.meta-bind.queries").increment()
        """,
        Hns003StatNameConvention,
    )
    assert findings == []


def test_hns003_hyphen_outside_the_server_segment_still_flagged():
    findings = _lint(
        """
        def record(self):
            self.env.stats.counter("cache.hit-rate").increment()
            self.env.stats.counter("bind.primary.slow-queries").increment()
        """,
        Hns003StatNameConvention,
    )
    assert [f.rule for f in findings] == ["HNS003", "HNS003"]


def test_hns003_skips_dynamic_names_and_other_receivers():
    findings = _lint(
        """
        def record(self, name, registry):
            self.env.stats.counter(name).increment()
            registry.counter("Whatever.Goes")
        """,
        Hns003StatNameConvention,
    )
    assert findings == []


# ----------------------------------------------------------------------
# HNS004: wire-message field types
# ----------------------------------------------------------------------
def test_hns004_flags_unregistered_field_type():
    findings = _lint(
        """
        import dataclasses

        @dataclasses.dataclass
        class TransferRequest:
            zone: str
            payload: object
            idl_type = "placeholder"
        """,
        Hns004WireMessageFieldTypes,
        path="src/repro/bind/messages.py",
    )
    assert [f.rule for f in findings] == ["HNS004"]
    assert "TransferRequest.payload" in findings[0].message
    assert "unregistered type" in findings[0].message
    assert findings[0].subject == "payload"


def test_hns004_flags_server_side_class_in_container():
    findings = _lint(
        """
        import dataclasses

        @dataclasses.dataclass
        class SweepResponse:
            expired: typing.List[LeaseRecord]
            idl_type = "placeholder"
        """,
        Hns004WireMessageFieldTypes,
        path="src/repro/bind/messages.py",
    )
    assert [f.rule for f in findings] == ["HNS004"]
    assert findings[0].subject == "expired"


def test_hns004_clean_registered_and_nested_types():
    # Primitives, IDL record types, containers of those, other wire
    # messages from the same module, string annotations, and unions
    # are all registered shapes; idl_type / ClassVar / _-prefixed
    # attributes are not wire fields at all.
    findings = _lint(
        """
        import dataclasses
        import typing

        @dataclasses.dataclass
        class TransferQuestion:
            zone: DomainName
            serial: int
            idl_type = "placeholder"

        @dataclasses.dataclass
        class TransferResponse:
            question: TransferQuestion
            records: typing.List[ResourceRecord]
            deltas: "typing.Dict[str, ZoneDelta]"
            window: typing.Optional[float]
            flags: typing.Tuple[bool, bytes]
            retry_ms: "int | None"
            kind: typing.ClassVar[str] = "ixfr"
            _cached_size: object = None
            idl_type = "placeholder"
        """,
        Hns004WireMessageFieldTypes,
        path="src/repro/bind/messages.py",
    )
    assert findings == []


def test_hns004_only_applies_to_messages_modules():
    findings = _lint(
        """
        import dataclasses

        @dataclasses.dataclass
        class TransferRequest:
            payload: object
            idl_type = "placeholder"
        """,
        Hns004WireMessageFieldTypes,
        path="src/repro/bind/server.py",
    )
    assert findings == []


def test_hns004_ignores_non_wire_classes():
    # A module-internal helper dataclass without a wire suffix or an
    # idl_type is not a wire message; its fields are unconstrained.
    findings = _lint(
        """
        import dataclasses

        @dataclasses.dataclass
        class CacheSlot:
            payload: object
        """,
        Hns004WireMessageFieldTypes,
        path="src/repro/bind/messages.py",
    )
    assert findings == []


# ----------------------------------------------------------------------
# The broadcast/discovery tier: wire suffixes and stat families
# ----------------------------------------------------------------------
def test_hns002_covers_query_answer_and_beacon_suffixes():
    # The broadcast locator (NameQuery/NameAnswer) and the beacon tier
    # (PresenceBeacon) speak on the wire; HNS002 must see their naming
    # suffixes so unregistered messages in those modules are flagged.
    findings = _lint(
        """
        import dataclasses

        @dataclasses.dataclass
        class NameQuery:
            name: str

        @dataclasses.dataclass
        class NameAnswer:
            name: str

        @dataclasses.dataclass
        class PresenceBeacon:
            owner: str
        """,
        Hns002WireMessageIdl,
        path="src/repro/discovery/messages.py",
    )
    assert [f.rule for f in findings] == ["HNS002"] * 3


def test_hns004_covers_beacon_suffix_fields():
    findings = _lint(
        """
        import dataclasses

        @dataclasses.dataclass
        class PresenceBeacon:
            names: dict
            idl_type = "placeholder"
        """,
        Hns004WireMessageFieldTypes,
        path="src/repro/discovery/messages.py",
    )
    assert [f.rule for f in findings] == ["HNS004"]
    assert findings[0].subject == "names"


def test_hns003_accepts_broadcast_and_discovery_families():
    # broadcast.* mirrors the locator's examined/answered tallies as
    # env stats; discovery.* covers beacons, the passive view, watchdog
    # and TTL evictions (discovery.evict.<reason>), and the ad-hoc NSM.
    findings = _lint(
        """
        def record(self):
            self.env.stats.counter("broadcast.examined").increment()
            self.env.stats.counter("broadcast.answered").increment()
            self.env.stats.counter("discovery.beacons_sent").increment()
            self.env.stats.counter("discovery.evict.watchdog").increment()
            self.env.stats.counter("discovery.nsm_invalidations").increment()
        """,
        Hns003StatNameConvention,
    )
    assert findings == []
