"""A failing property test reports its falsifying example under the
repo's own pytest configuration.

Deprecation warnings are errors there, and hypothesis reports a failure
through libcst, whose import of ``mypy_extensions.TypedDict`` warns; unless
that one message is filtered, the session ends in ``INTERNALERROR`` and
the example is never printed.  Run in a subprocess on a deliberately
failing temporary test, so the check sees what a developer would.
"""

import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING = textwrap.dedent(
    """
    from hypothesis import given, strategies as st

    @given(st.integers())
    def test_every_integer_is_small(value):
        assert value < 10
    """
)


def test_a_failing_given_test_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider",
            "test_failing_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_every_integer_is_small(" in output
    assert "1 failed" in output
