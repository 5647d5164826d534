"""The ablation engine itself: parallel fan-out speedup.

The full cartesian fast-path grid (20 specs in smoke shape) fanned
over every core vs executed serially, the two executions compared
byte for byte once wall-clock fields are stripped (the engine seeds
each run from its spec identity and merges results in expansion order,
never completion order; ``tests/harness/test_ablation.py`` pins that
with a two-worker pool on every ``pytest`` run).  The >=2.5x bar is
asserted on hosts with >=4 cores (CI runners); the measured ratio and
core count land in ``benchmark.extra_info`` either way.
"""

import os

import pytest

from repro.harness.ablation import (
    AblationStudy,
    dump_payload,
    now_wall,
    strip_wall_clock,
    study_payload,
)
from repro.harness.grids import FAST_PATH_GRID

#: Speedup bar for the parallel fan-out, asserted only where the host
#: has enough cores for the bar to be physical.
MIN_PARALLEL_SPEEDUP = 2.5
MIN_CORES_FOR_BAR = 4


def canonical(study, results, jobs):
    """The equality view of a study: canonical JSON, wall clock stripped."""
    payload = study_payload(study, results, jobs=jobs, wall_s=0.0)
    return dump_payload(strip_wall_clock(payload))


@pytest.mark.benchmark(group="harness")
def test_parallel_speedup(benchmark):
    """Fanning the full cartesian grid over every core vs serial.

    The simulator is single-threaded and deterministic, so the grid is
    embarrassingly parallel; on a multi-core host the fan-out must buy
    at least :data:`MIN_PARALLEL_SPEEDUP`.  Single-core hosts record
    the measured ratio without asserting the bar."""
    study = AblationStudy(FAST_PATH_GRID, smoke=True)
    specs = study.expand(full_grid=True)
    assert len(specs) >= 8
    cpus = os.cpu_count() or 1
    jobs = min(cpus, len(specs))

    def measure():
        t0 = now_wall()
        serial = study.execute(specs, jobs=1)
        t1 = now_wall()
        fanned = study.execute(specs, jobs=jobs)
        t2 = now_wall()
        return serial, fanned, t1 - t0, t2 - t1

    serial, fanned, serial_s, fanned_s = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    assert all(r.ok for r in serial), [r.spec.key for r in serial if not r.ok]
    assert canonical(study, serial, 1) == canonical(study, fanned, jobs)
    speedup = serial_s / fanned_s if fanned_s > 0 else float("inf")
    benchmark.extra_info.update(
        specs=len(specs),
        fanned_jobs=jobs,
        host_cpus=cpus,
        serial_seconds=round(serial_s, 3),
        fanned_seconds=round(fanned_s, 3),
        speedup=round(speedup, 2),
        bar=MIN_PARALLEL_SPEEDUP,
        bar_asserted=cpus >= MIN_CORES_FOR_BAR,
    )
    print(
        f"\nparallel fan-out: {len(specs)} specs, serial {serial_s:.2f} s, "
        f"jobs={jobs} {fanned_s:.2f} s -> {speedup:.2f}x on {cpus} cores"
    )
    if cpus >= MIN_CORES_FOR_BAR:
        assert speedup >= MIN_PARALLEL_SPEEDUP, (speedup, cpus, jobs)
