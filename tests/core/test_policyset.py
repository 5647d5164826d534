"""The unified PolicySet bundle."""

import ast
import dataclasses
import pathlib

import pytest

import repro
from repro.analysis.determinism import run_digest
from repro.core import Arrangement, HNSName
from repro.core.hns import HNS
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    FastPathPolicy,
    PolicySet,
    ReplicaPolicy,
    ResolutionPolicy,
    UpdatePolicy,
)
from repro.workloads import build_stack, build_testbed
from repro.workloads.scenarios import BIND_CONTEXT, TARGET_SERVICE

EVERY_SLOT_DISABLED = PolicySet(
    resolution=ResolutionPolicy.disabled(),
    fast_path=FastPathPolicy.disabled(),
    replica=ReplicaPolicy.disabled(),
    update=UpdatePolicy.disabled(),
)


# ----------------------------------------------------------------------
# The bundle itself
# ----------------------------------------------------------------------
def test_default_matches_the_historical_kwarg_defaults():
    policies = PolicySet.default()
    assert policies.resolution == DEFAULT_RESOLUTION_POLICY
    assert policies == dataclasses.replace(
        EVERY_SLOT_DISABLED, resolution=DEFAULT_RESOLUTION_POLICY
    )


def test_paper_prototype_disables_every_mechanism():
    # Off has one spelling: the bare bundle *is* the paper's prototype.
    assert PolicySet() == EVERY_SLOT_DISABLED
    assert not PolicySet().update.active
    assert not PolicySet().replica.enabled


@pytest.mark.parametrize(
    "slot", [field.name for field in dataclasses.fields(PolicySet)]
)
def test_none_in_a_slot_is_rejected_at_construction(slot):
    # The retired spelling fails here, not with an AttributeError inside
    # a resolver process; the message names the slot and what to pass.
    with pytest.raises(TypeError) as rejected:
        PolicySet(**{slot: None})
    policy_class = type(getattr(EVERY_SLOT_DISABLED, slot)).__name__
    assert f"PolicySet.{slot}" in str(rejected.value)
    assert f"{policy_class}.disabled()" in str(rejected.value)


def test_update_policy_validation():
    with pytest.raises(ValueError):
        UpdatePolicy(invalidation="carrier-pigeon")
    with pytest.raises(ValueError):
        UpdatePolicy(lease_ms=0.0)
    disabled = UpdatePolicy.disabled()
    assert not disabled.active
    assert UpdatePolicy(invalidation="lease").leases
    assert UpdatePolicy(invalidation="notify").notify


def test_no_policy_parameter_is_optional():
    """A policy slot or parameter always holds a policy: nothing under
    ``src/repro`` is annotated ``Optional[...Policy]``."""
    offenders = []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Subscript)
                and ast.unparse(node.value).endswith("Optional")
                and ast.unparse(node.slice).strip("'\"").endswith("Policy")
            ):
                offenders.append(f"{path}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, "\n".join(offenders)


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
    assert store.resolver.policies == policies

    hns = HNS(store, calibration=testbed.calibration)
    assert hns.policies == policies  # inherited from the metastore


# ----------------------------------------------------------------------
# The prototype contract
# ----------------------------------------------------------------------
#: arrangement -> (trace digest, run digest [trace + every counter +
#: clock], simulated ms) of a cold-then-warm Import at seed 5 under the
#: all-``None`` ``PolicySet()`` of the last commit that had that
#: spelling.  ``PolicySet.paper_prototype()`` gave the same there.
#: Never re-record: this is what "switched off" has to keep meaning.
PROTOTYPE_PINS = {
    Arrangement.ALL_LOCAL: (
        "97b38b78fa9d716888dacb4015305627bed3a7c3afacc2ecdaa1d7f40628806e",
        "2c055353f525a6f12ded9a2d1ab384f81f2467fe6f9f09f4ff34735ed31cf51d",
        813.8570000000005,
    ),
    Arrangement.AGENT: (
        "aafd305e7e0e3531b8e54101633701b5537a5952c98f560c1a3310a4b2ab4b0f",
        "7235de14e5268da1ce2ebe0f2263f5efb5170437e72521ed966f61e0218b6c4b",
        900.1946000000005,
    ),
    Arrangement.REMOTE_HNS: (
        "c9cdebeff805552011a80dac2cc63a0ff15ebf6466c8b74b9ae2b3fb341a0426",
        "e1b89cb77566b57c7f04ea5e11638db940c7d79aa9b4303a4d4bc1544f2ddb1d",
        900.1722000000005,
    ),
    Arrangement.REMOTE_NSMS: (
        "6712c7440b311efd0d5accc2bd3f90c98f30bee37109af6c0a4fce18d330a8c4",
        "8fe8179043555cd04b88bc6d0230dd72cd19284ad68dc978dfbcd280bc07083a",
        900.2746000000005,
    ),
    Arrangement.ALL_REMOTE: (
        "7bccadf9c1e5f14a1ae4df4613e85ed435ea44347dd8abba70bfce7d9e91a3e2",
        "e95be58890577746a19fcf33fc0593f26fee374a7198f5647ecc09350db95363",
        986.5898000000005,
    ),
}


@pytest.mark.parametrize("arrangement", list(Arrangement), ids=lambda a: a.name)
def test_the_bare_bundle_reproduces_the_prototype(arrangement):
    testbed = build_testbed(seed=5)
    stack = build_stack(testbed, arrangement, policies=PolicySet())
    env = testbed.env
    env.trace.enabled = True
    name = HNSName(BIND_CONTEXT, "fiji.cs.washington.edu")
    for _cold_then_warm in range(2):
        env.run(
            until=env.process(
                stack.importer.import_binding(TARGET_SERVICE, name)
            )
        )
    assert (env.trace.digest(), run_digest(env), env.now) == PROTOTYPE_PINS[
        arrangement
    ]
