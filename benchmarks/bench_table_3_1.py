"""Table 3.1: HRPC binding performance across colocation arrangements.

Regenerates the paper's 5 (colocation arrangements) x 3 (cache states)
grid of HRPC import latencies for Sun RPC servers, in simulated msec.
"""

import pytest

from repro.core import Arrangement
from repro.harness import ComparisonTable
from repro.harness.report import PAPER_TABLE_3_1, measure_table_3_1_row

COLUMNS = ("A. cache miss", "B. HNS cache hit", "C. HNS and NSM cache hit")


def full_grid():
    return {arr: measure_table_3_1_row(arr) for arr in Arrangement}


@pytest.mark.benchmark(group="table-3.1")
def test_table_3_1_grid(benchmark):
    grid = benchmark(full_grid)
    table = ComparisonTable("Table 3.1: HRPC binding by colocation (msec)")
    for arrangement, cells in grid.items():
        for column, paper, measured in zip(
            COLUMNS, PAPER_TABLE_3_1[arrangement], cells
        ):
            table.add(f"{arrangement.label} / {column}", paper, measured)
            benchmark.extra_info[f"{arrangement.name}/{column}"] = round(measured, 1)
    print()
    print(table.render())
    # Shape checks: row/column orderings the paper's analysis rests on.
    for arrangement, (a, b, c) in grid.items():
        assert a > b > c
    assert grid[Arrangement.ALL_REMOTE][0] > grid[Arrangement.ALL_LOCAL][0]
    assert grid[Arrangement.ALL_LOCAL] == pytest.approx(
        PAPER_TABLE_3_1[Arrangement.ALL_LOCAL], rel=0.005
    )
    table.check(tolerance_pct=8.0)


@pytest.mark.benchmark(group="table-3.1")
def test_caching_beats_colocation(benchmark):
    """'the potential benefit of caching far exceeds that obtainable
    solely by colocation' — the table's major lesson."""

    def gains():
        local = measure_table_3_1_row(Arrangement.ALL_LOCAL)
        remote = measure_table_3_1_row(Arrangement.ALL_REMOTE)
        colocation_gain = remote[0] - local[0]  # move everything local
        caching_gain = remote[0] - remote[2]  # warm every cache
        return colocation_gain, caching_gain

    colocation_gain, caching_gain = benchmark(gains)
    print(
        f"\ncolocation saves {colocation_gain:.0f} ms; "
        f"caching saves {caching_gain:.0f} ms "
        f"({caching_gain / colocation_gain:.1f}x)"
    )
    benchmark.extra_info["colocation_gain_ms"] = round(colocation_gain, 1)
    benchmark.extra_info["caching_gain_ms"] = round(caching_gain, 1)
    assert caching_gain > 3 * colocation_gain
