"""What the host pays per round of every probe, pinned in one table.

The paper prices a stub by its procedure calls, indirect calls and
allocations (Table 3.2); this repository prices its own code in Python
frames entered or resumed and heap entries (``tests/cost.py``).  A row
of ``COSTS`` is one probe: per round of a window, its docstring saying
why, or (``ledger/*``) per op of the ledger's profiled repetition, so a
perf change reads its attribution as a diff of this table.  Every figure
is exact at ``COUNTS``' rounding; a change meant to move one pastes the
measured table the failure prints over ``COSTS``.
"""

import pprint

import pytest

import tests.core.test_warm_path_budget  # noqa: F401 - registers its probes
import tests.discovery.test_beacon_budget  # noqa: F401
import tests.net.test_event_budget  # noqa: F401
import tests.obs.test_span_budget  # noqa: F401
import tests.sim.test_kernel_budget  # noqa: F401
import tests.test_ledger_counts  # noqa: F401
from tests.cost import PROBES
from tests.test_ledger_counts import _pin

#: probe id -> its figures per round (per op for ``ledger/*``)
COSTS = {'beacon/11-targets': {'heap_entries': 13.0, 'python_calls': 149.0},
 'beacon/loop': {'heap_entries': 3.97, 'python_calls': 32.785},
 'beacon/per-listener': {'heap_entries': 1.0, 'python_calls': 12.0},
 'beacon/sweep-1': {'heap_entries': 0.0, 'python_calls': 2.0},
 'beacon/sweep-11': {'heap_entries': 0.0, 'python_calls': 2.0},
 'cold-import/bind-cs': {'heap_entries': 80.0, 'python_calls': 1076.0},
 'cold-import/ch-hcs': {'heap_entries': 81.0, 'python_calls': 1085.6},
 'exchange/tcp': {'heap_entries': 4.0, 'python_calls': 37.0},
 'exchange/udp': {'heap_entries': 3.0, 'python_calls': 26.39},
 'kernel/call-later': {'heap_entries': 1.0, 'python_calls': 5.0},
 'kernel/clock-reads': {'heap_entries': 1.0, 'python_calls': 4.0},
 'kernel/contended-charge': {'heap_entries': 2.0, 'python_calls': 11.0},
 'kernel/open-loop-client': {'heap_entries': 4.0, 'python_calls': 11.0},
 'kernel/process-start-to-exit': {'heap_entries': 3.0, 'python_calls': 10.0},
 'kernel/standing-arm': {'heap_entries': 2.0, 'python_calls': 5.0},
 'kernel/timeout-round-trip': {'heap_entries': 1.0, 'python_calls': 4.0},
 'kernel/uncontended-charge': {'heap_entries': 1.0, 'python_calls': 4.0},
 'ledger/adhoc_churn': {'python_calls': 92.61111111},
 'ledger/cold_import': {'python_calls': 1161.0},
 'ledger/mclient_zipf': {'python_calls': 10.04982206},
 'ledger/traced_import': {'python_calls': 1321.888889},
 'ledger/update_storm': {'python_calls': 23.41755319},
 'ledger/warm_zipf': {'python_calls': 86.66666667},
 'span/off': {'heap_entries': 0.0, 'python_calls': 2.0},
 'span/on': {'heap_entries': 0.0, 'python_calls': 7.0},
 'warm/fast-path': {'heap_entries': 9.0, 'python_calls': 79.36},
 'warm/lookup-hit': {'heap_entries': 2.0, 'python_calls': 17.0},
 'warm/six-mappings': {'heap_entries': 13.0, 'python_calls': 148.52}}


def measured(row):
    cost = PROBES[row]()
    figures = {"python_calls": cost.python_calls, "heap_entries": cost.heap_entries}
    return {column: _pin(value) for column, value in figures.items() if value is not None}


def _cell(row, column):
    # a memo keeps a probe's Python calls down, never its heap entries
    memo = column == "python_calls" and row in PROBES and PROBES[row].memo
    return pytest.param(
        row, column, marks=[pytest.mark.memo] if memo else [], id=f"{row}:{column}"
    )


def test_the_table_covers_every_probe():
    assert sorted(COSTS) == sorted(PROBES)


@pytest.mark.parametrize(
    "row, column", [_cell(row, column) for row in COSTS for column in COSTS[row]]
)
def test_costs(row, column):
    figure = measured(row)[column]
    if figure != COSTS[row][column]:
        table = {name: measured(name) for name in sorted(PROBES)}
        pytest.fail(
            f"{row} {column} reads {figure}, pinned {COSTS[row][column]}; measured:\n"
            f"COSTS = {pprint.pformat(table)}",
            pytrace=False,
        )
