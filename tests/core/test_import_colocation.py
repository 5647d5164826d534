"""Import + colocation: Table 3.1's machinery end-to-end."""

import pytest

from repro.core import Arrangement, HNSName, HnsError, HrpcImporter
from repro.harness.report import PAPER_TABLE_3_1, measure_table_3_1_row
from repro.hrpc import HRPCBinding, HrpcRuntime
from repro.workloads import build_stack, build_testbed

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")
DLION = HNSName("CH-hcs", "dlion:hcs:uw")

def run(env, gen):
    return env.run(until=env.process(gen))


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_import_works_in_every_arrangement(arrangement):
    testbed = build_testbed(seed=3)
    stack = build_stack(testbed, arrangement)
    binding = run(
        testbed.env, stack.importer.import_binding("DesiredService", FIJI)
    )
    assert isinstance(binding, HRPCBinding)
    assert binding.endpoint.address == testbed.fiji.address
    assert binding.endpoint.port == 9999
    assert binding.suite == "sunrpc"


@pytest.mark.parametrize("arrangement", list(Arrangement))
def test_table_3_1_cells_within_8_percent(arrangement):
    """Every measured cell lands within 8% of the paper's Table 3.1."""
    measured = measure_table_3_1_row(arrangement)
    assert measured == pytest.approx(PAPER_TABLE_3_1[arrangement], rel=0.08)


def test_table_3_1_row_1_exact():
    """Row 1 (everything colocated) is the calibration anchor: exact."""
    measured = measure_table_3_1_row(Arrangement.ALL_LOCAL)
    assert measured == pytest.approx(
        PAPER_TABLE_3_1[Arrangement.ALL_LOCAL], rel=0.005
    )


def test_column_ordering_always_holds():
    """Miss > HNS-hit > both-hit, in every arrangement (the table's shape)."""
    for arrangement in Arrangement:
        a, b, c = measure_table_3_1_row(arrangement)
        assert a > b > c, arrangement


def test_colocation_saves_less_than_caching():
    """'the potential benefit of caching far exceeds that obtainable
    solely by colocation' — compare row5->row1 (colocation) with
    colA->colC (caching)."""
    cells = {}
    for arrangement in (Arrangement.ALL_LOCAL, Arrangement.ALL_REMOTE):
        cells[arrangement] = measure_table_3_1_row(arrangement)
    colocation_gain = cells[Arrangement.ALL_REMOTE][0] - cells[Arrangement.ALL_LOCAL][0]
    caching_gain = cells[Arrangement.ALL_REMOTE][0] - cells[Arrangement.ALL_REMOTE][2]
    assert caching_gain > 3 * colocation_gain


def test_import_of_clearinghouse_service():
    """Binding through the *other* name service: same client code path."""
    testbed = build_testbed(seed=4)
    stack = build_stack(testbed, Arrangement.ALL_LOCAL, name_service="CH-hcs")
    binding = run(
        testbed.env, stack.importer.import_binding("PrintService", DLION)
    )
    assert binding.suite == "courier"
    assert binding.endpoint.port == 6001


def test_imported_binding_is_callable():
    """The returned Binding works: call the target service through HRPC."""
    testbed = build_testbed(seed=5)
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    env = testbed.env
    binding = run(env, stack.importer.import_binding("DesiredService", FIJI))
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    result = run(env, runtime.call(binding, "ping", "hello"))
    assert result == ("pong", "hello")


def test_import_requires_service_name():
    testbed = build_testbed(seed=3)
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)

    def scenario():
        with pytest.raises(ValueError):
            yield from stack.importer.import_binding("", FIJI)
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_importer_must_be_wired_via_classmethods():
    """The bare constructor carries no mode; unwired importers refuse."""
    testbed = build_testbed(seed=3)
    importer = HrpcImporter(testbed.client)  # neither .direct nor .via_agent

    def scenario():
        with pytest.raises(HnsError):
            yield from importer.import_binding("DesiredService", FIJI)
        return "done"

    assert run(testbed.env, scenario()) == "done"
    # The old dual-mode keyword constructor is gone for good.
    with pytest.raises(TypeError):
        HrpcImporter(testbed.client, finder=None, nsm_stub=None)


def test_arrangement_metadata():
    for arrangement in Arrangement:
        assert "[" in arrangement.label


def test_import_records_latency_stats():
    testbed = build_testbed(seed=3)
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    start = testbed.env.now
    run(testbed.env, stack.importer.import_binding("DesiredService", FIJI))
    assert testbed.env.stats.counter("hrpc.imports").value == 1
    assert testbed.env.now - start > 100
