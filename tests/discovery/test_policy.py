"""DiscoveryPolicy validation and derived values."""

import dataclasses

import pytest

from repro.resolution import DEFAULT_DISCOVERY_POLICY, DiscoveryPolicy


def test_defaults_are_live():
    policy = DEFAULT_DISCOVERY_POLICY
    assert policy.liveness
    assert policy.watchdog_deadline_ms() == (
        policy.beacon_period_ms * policy.watchdog_multiplier
    )


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_DISCOVERY_POLICY.beacon_period_ms = 1.0  # type: ignore[misc]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beacon_period_ms": 0.0},
        {"entry_ttl_ms": 0.0},
        {"watchdog_multiplier": -1.0},
        {"broadcast_wait_ms": 0.0},
    ],
)
def test_validation_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        DiscoveryPolicy(**kwargs)


def test_zero_multiplier_disables_liveness_only():
    ttl_only = DiscoveryPolicy(watchdog_multiplier=0.0)
    assert not ttl_only.liveness
    assert ttl_only.watchdog_deadline_ms() == 0.0
