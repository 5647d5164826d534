"""Scenario trajectories, pinned across commits.

The scenario pass compares runs within one checkout; this
compares every registered scenario's seed-0 ``run_digest`` with the one
recorded in ``scenario_digests.json``.  A refactor must leave the file
alone; a change that means to move a trajectory regenerates the entry
and says why in its PR.
"""

import json
import pathlib

import pytest

from repro.analysis.determinism import run_digest
from repro.workloads.scenarios import SCENARIOS

PINNED = json.loads(
    pathlib.Path(__file__).with_name("scenario_digests.json").read_text()
)


@pytest.mark.parametrize("name", sorted(set(SCENARIOS) | set(PINNED)))
def test_scenario_digest_is_the_pinned_one(name):
    assert name in SCENARIOS, f"{name!r} is pinned but no longer registered"
    digest = run_digest(SCENARIOS[name](0))
    assert digest == PINNED.get(name), (
        f"scenario {name!r} took a different trajectory at seed 0 than the "
        "one pinned in tests/workloads/scenario_digests.json"
    )
