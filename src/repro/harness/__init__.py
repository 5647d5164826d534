"""Benchmark harness: calibration, tables, and the parallel ablation engine."""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "calibration": ("Calibration", "DEFAULT_CALIBRATION"),
    "tables": ("ComparisonTable", "format_table"),
    "ablation": (
        "AblationStudy", "GridDef", "Knob", "RunResult", "RunSpec", "SCHEMA_VERSION",
        "strip_wall_clock", "study_payload",
    ),
})
