"""HNS001/HNS003: one true positive and one clean pass each."""

import textwrap

from repro.analysis import lint_source
from repro.analysis.rules_hns import (
    Hns001CacheInsertTtl,
    Hns003StatNameConvention,
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
            self.env.stats.histogram("hrpc.call", (1.0,))
        """,
        Hns003StatNameConvention,
    )
    assert findings == []


def test_hns003_accepts_the_sim_kernel_families():
    # The kernel names its event counts sim.kernel.*
    # (kernel_counters), and the million-client scenario records
    # under sim.mclient.*.
    findings = _lint(
        """
        def publish(self):
            self.env.stats.counter("sim.kernel.events_scheduled").increment()
            self.env.stats.counter("sim.kernel.events_processed").increment()
            self.env.stats.counter("sim.mclient.cache_hits").increment()
            self.env.stats.histogram("sim.mclient.latency", (1.0,))
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
# The broadcast/discovery tier: stat families
# ----------------------------------------------------------------------
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
