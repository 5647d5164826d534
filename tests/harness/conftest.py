"""The reproduction report, generated once per session.

The report re-measures every paper table 28 times for its calibration
matrix, so the tests that read the matrix or the whole report share one
run of each.
"""

import pathlib

import pytest

from repro.harness import report

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def calibration_matrix():
    """``report.calibration_matrix()``: every paper row, and per
    calibration field the rows it moves."""
    return report.calibration_matrix()


@pytest.fixture(scope="session")
def generated_report(calibration_matrix):
    """``report.generate_report`` over the committed artifacts, its
    matrix the session's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "calibration_matrix", lambda: calibration_matrix)
        return report.generate_report(str(ROOT))
