"""No lease outlives its holder: ``mass_renumbering`` at rest.

The registered scenario rewrites four hosts' ``.addr`` records under a
lease, renews them for a while, then stops renewing.  Its own check is
that some lease lapsed.  Here the same run goes on past one more
``lease_ms`` (nothing renews by then), and the meta primary must hold
no lease and none of the four records: a sweep that retracted only
some of the batch leaves the rest served for good.
"""

import pytest

from repro.bind import NameNotFound, RRType
from repro.core.metastore import META_ORIGIN, MetaStore
from repro.workloads import scenarios


def test_every_leased_address_is_retracted_once_renewal_stops(monkeypatch):
    built, original = [], scenarios.build_testbed

    def build_testbed(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(scenarios, "build_testbed", build_testbed)
    env = scenarios.SCENARIOS["mass_renumbering"](0)
    (testbed,) = built
    primary = testbed.meta_server
    env.run(until=env.now + primary.update_policy.lease_ms)

    assert primary._leases == {}
    zone = primary.zones[0]
    for host in (testbed.fiji, testbed.june, testbed.nsm_host, testbed.hns_host):
        owner = f"{MetaStore.host_label(f'{host.name}.cs.washington.edu')}.addr.{META_ORIGIN}"
        with pytest.raises(NameNotFound):
            zone.lookup(owner, RRType.UNSPEC)
