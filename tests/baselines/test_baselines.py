"""Baseline binding schemes: costs and failure modes."""

import pytest

from repro.baselines import LocalFileBinder, ReregistrationBinder
from repro.bind import BindResolver
from repro.clearinghouse import ClearinghouseClient
from repro.localfiles import BindingFileEntry, LocalBindingFile, Replicator
from repro.workloads import build_testbed
from repro.workloads.scenarios import CREDENTIALS


def run(env, gen):
    return env.run(until=env.process(gen))


@pytest.fixture
def testbed():
    return build_testbed(seed=13)


def make_files(testbed, hosts=None):
    hosts = hosts or [testbed.client, testbed.fiji, testbed.nsm_host]
    files = [LocalBindingFile(h, testbed.calibration) for h in hosts]
    replicator = Replicator(testbed.internet, testbed.udp, files)
    return files, replicator


ENTRY = BindingFileEntry(
    service="DesiredService",
    host_name="fiji.cs.washington.edu",
    address="",  # filled per-testbed below
    port=9999,
)


def entry_for(testbed):
    return BindingFileEntry(
        service="DesiredService",
        host_name="fiji.cs.washington.edu",
        address=str(testbed.fiji.address),
        port=9999,
    )


# ----------------------------------------------------------------------
# Local-file baseline
# ----------------------------------------------------------------------
def test_localfile_binding_costs_200ms(testbed):
    """'Binding using this scheme took 200 msec.'"""
    env = testbed.env
    files, replicator = make_files(testbed)
    run(env, replicator.publish(testbed.client, entry_for(testbed)))
    binder = LocalFileBinder(testbed.client, files[0], testbed.calibration)
    start = env.now
    binding = run(
        env, binder.import_binding("DesiredService", "fiji.cs.washington.edu")
    )
    assert env.now - start == pytest.approx(200.0, rel=0.02)
    assert binding.endpoint.port == 9999


def test_localfile_unknown_service(testbed):
    files, _ = make_files(testbed)
    binder = LocalFileBinder(testbed.client, files[0])

    def scenario():
        with pytest.raises(KeyError):
            yield from binder.import_binding("Ghost", "fiji.cs.washington.edu")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_localfile_replication_updates_all_replicas(testbed):
    env = testbed.env
    files, replicator = make_files(testbed)
    updated = run(env, replicator.publish(testbed.client, entry_for(testbed)))
    assert updated == 3
    assert all(f.version == 1 for f in files)


def test_localfile_stale_replica_on_down_host(testbed):
    """The consistency problem: a down host misses the update."""
    env = testbed.env
    files, replicator = make_files(testbed)
    testbed.nsm_host.crash()
    updated = run(env, replicator.publish(testbed.client, entry_for(testbed)))
    assert updated == 2
    stale = [f for f in files if f.host is testbed.nsm_host][0]
    assert stale.version == 0  # permanently stale until re-pushed
    testbed.nsm_host.restart()
    assert stale.version == 0


def test_localfile_replication_cost_scales_with_hosts(testbed):
    """The reregistration cost 'continues without end' and grows with
    the system: publishing to 2x the replicas costs ~2x."""
    env = testbed.env
    extra = [testbed.internet.add_host(f"wk{i}") for i in range(6)]
    small_files, small_rep = make_files(testbed, [testbed.client, extra[0]])
    big_files, big_rep = make_files(testbed, [testbed.client] + extra)
    start = env.now
    run(env, small_rep.publish(testbed.client, entry_for(testbed)))
    small_cost = env.now - start
    start = env.now
    run(env, big_rep.publish(testbed.client, entry_for(testbed)))
    big_cost = env.now - start
    assert big_cost > 3 * small_cost


def test_binder_requires_local_replica(testbed):
    files, _ = make_files(testbed)
    with pytest.raises(ValueError):
        LocalFileBinder(testbed.client, files[1])


# ----------------------------------------------------------------------
# Reregistration baseline
# ----------------------------------------------------------------------
def ch_binder(testbed):
    client = ClearinghouseClient(
        testbed.client, testbed.tcp, testbed.ch_endpoint, CREDENTIALS
    )
    return ReregistrationBinder(
        testbed.client, client, "bindings", testbed.calibration
    )


def test_ch_reregistration_binding_costs_166ms(testbed):
    """'binding took 166 msec' on the Clearinghouse-based scheme."""
    env = testbed.env
    binder = ch_binder(testbed)
    run(
        env,
        binder.reregister(
            "DesiredService",
            "fiji.cs.washington.edu",
            str(testbed.fiji.address),
            9999,
        ),
    )
    start = env.now
    binding = run(
        env, binder.import_binding("DesiredService", "fiji.cs.washington.edu")
    )
    assert env.now - start == pytest.approx(166.0, rel=0.02)
    assert binding.endpoint.port == 9999


def test_bind_backed_reregistration_faster(testbed):
    """The hypothetical 'use BIND instead' variant beats the CH one."""
    env = testbed.env
    resolver = BindResolver(
        testbed.client,
        testbed.udp,
        testbed.meta_endpoint,
        calibration=testbed.calibration,
    )
    binder = ReregistrationBinder(testbed.client, resolver, "hns")
    run(
        env,
        binder.reregister(
            "DesiredService",
            "fiji.cs.washington.edu",
            str(testbed.fiji.address),
            9999,
            suite="sunrpc",
        ),
    )
    start = env.now
    binding = run(
        env, binder.import_binding("DesiredService", "fiji.cs.washington.edu")
    )
    bind_cost = env.now - start
    assert binding.endpoint.port == 9999
    assert bind_cost < 80  # far cheaper than the 166 ms CH variant


def test_rereg_unknown_binding(testbed):
    binder = ch_binder(testbed)

    def scenario():
        with pytest.raises(KeyError):
            yield from binder.import_binding("Ghost", "fiji.cs.washington.edu")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_rereg_staleness_until_repush(testbed):
    """After a native change, the reregistered copy stays wrong until
    someone reregisters — the consistency cost of the design."""
    env = testbed.env
    binder = ch_binder(testbed)
    run(
        env,
        binder.reregister(
            "DesiredService", "fiji.cs.washington.edu", "10.0.0.1", 1111
        ),
    )
    # The service actually moves (native truth changes)...
    real_address = str(testbed.fiji.address)
    binding = run(
        env, binder.import_binding("DesiredService", "fiji.cs.washington.edu")
    )
    assert str(binding.endpoint.address) == "10.0.0.1"  # stale!
    # ...and only a re-push fixes it.
    run(
        env,
        binder.reregister(
            "DesiredService", "fiji.cs.washington.edu", real_address, 9999
        ),
    )
    binding = run(
        env, binder.import_binding("DesiredService", "fiji.cs.washington.edu")
    )
    assert str(binding.endpoint.address) == real_address
