"""Benchmark harness: calibration, tables, and the ablation engine."""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "calibration": ("Calibration", "DEFAULT_CALIBRATION"),
    "tables": ("ComparisonTable", "format_table"),
    "ablation": (
        "AblationStudy", "GridDef", "Knob", "RunResult", "RunSpec", "SCHEMA_VERSION",
        "study_payload",
    ),
})
