"""The ``examples/*.py`` scripts print what they printed when their
digests were recorded: each one's stdout hashes to its entry in
``example_digests.json``.

An example's output is a walk through the stack with its simulated
timings, so a change that moves any of them shows here.  A deliberate
change re-records the entry (``sha256`` of the example's stdout run with
``PYTHONPATH=src``) and says why.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
DIGESTS = json.loads(pathlib.Path(__file__).with_name("example_digests.json").read_text())
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))


def test_every_example_has_a_digest():
    assert EXAMPLES == sorted(DIGESTS)


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_output_is_unchanged(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / example)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
    )
    assert hashlib.sha256(completed.stdout).hexdigest() == DIGESTS[example]
