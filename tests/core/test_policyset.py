"""The unified PolicySet bundle."""

import pytest

from repro.core.hns import HNS
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    FastPathPolicy,
    PolicySet,
    ReplicaPolicy,
    ResolutionPolicy,
    UpdatePolicy,
)


# ----------------------------------------------------------------------
# The bundle itself
# ----------------------------------------------------------------------
def test_default_matches_the_historical_kwarg_defaults():
    policies = PolicySet.default()
    assert policies.resolution == DEFAULT_RESOLUTION_POLICY
    assert policies.fast_path is None
    assert policies.replica is None
    assert policies.update is None


def test_paper_prototype_disables_every_mechanism():
    policies = PolicySet.paper_prototype()
    assert policies.resolution == ResolutionPolicy.disabled()
    assert policies.fast_path == FastPathPolicy.disabled()
    assert policies.replica == ReplicaPolicy.disabled()
    assert policies.update == UpdatePolicy.disabled()
    assert not policies.update.active


def test_update_policy_validation():
    with pytest.raises(ValueError):
        UpdatePolicy(invalidation="carrier-pigeon")
    with pytest.raises(ValueError):
        UpdatePolicy(max_batch_ops=0)
    with pytest.raises(ValueError):
        UpdatePolicy(lease_ms=0.0)
    with pytest.raises(ValueError):
        UpdatePolicy(lease_renew_fraction=1.0)
    disabled = UpdatePolicy.disabled()
    assert not disabled.active
    assert UpdatePolicy(invalidation="lease").leases
    assert UpdatePolicy(invalidation="notify").notify


# ----------------------------------------------------------------------
# Threading one PolicySet through the stack
# ----------------------------------------------------------------------
def test_policyset_round_trips_through_metastore_and_hns(testbed):
    policies = PolicySet(
        resolution=ResolutionPolicy(attempts=2),
        fast_path=FastPathPolicy(),
        replica=ReplicaPolicy(),
        update=UpdatePolicy(invalidation="lease"),
    )
    store = testbed.make_metastore(testbed.client, policies=policies)
    assert store.policies == policies
    assert store.policy == policies.resolution
    assert store.fast_path == policies.fast_path
    assert store.replica_policy == policies.replica
    assert store.update_policy == policies.update
    assert store.resolver.policies == policies

    hns = HNS(store, calibration=testbed.calibration)
    assert hns.policies == policies  # inherited from the metastore
    assert hns.policy == policies.resolution
    assert hns.fast_path == policies.fast_path
    assert hns.replica_policy == policies.replica


def test_hns_policyset_overrides_the_metastore_bundle(testbed):
    store = testbed.make_metastore(testbed.client)
    override = PolicySet.paper_prototype()
    hns = HNS(store, calibration=testbed.calibration, policies=override)
    assert hns.policies == override
    assert store.policies != override  # the metastore keeps its own


def test_none_uniformly_means_disabled_everywhere(testbed):
    store = testbed.make_metastore(testbed.client, policies=PolicySet())
    assert store.policy is None
    assert store.fast_path is None
    assert store.replica_policy is None
    assert store.update_policy is None
    hns = HNS(store, calibration=testbed.calibration)
    # The old per-field fallback rules gave ``policy`` a default of its
    # own while the others inherited; now all four resolve in one place.
    assert hns.policy is None
    assert hns.fast_path is None
    assert hns.replica_policy is None
