"""Analysis utilities: validation, calibration, tables and ASCII figures."""

from .calibration import (
    CalibrationCheck,
    cross_validate,
    fit_icap_handshake,
    fit_vendor_api,
)
from .plotting import ascii_plot, series_to_csv, write_csv
from .reliability import (
    FaultSweepPoint,
    availability,
    effective_speedup_under_faults,
    find_crossover,
    mean_time_to_repair,
    sweep_fault_hit_grid,
    trace_with_hit_ratio,
)
from .report import generate_report
from .tables import format_value, render_comparison, render_table
from .validate import (
    ValidationReport,
    expected_prtr_pipeline_total,
    relative_error,
    validate_frtr,
    validate_prtr,
)

__all__ = [
    "CalibrationCheck",
    "FaultSweepPoint",
    "ValidationReport",
    "ascii_plot",
    "availability",
    "cross_validate",
    "effective_speedup_under_faults",
    "expected_prtr_pipeline_total",
    "find_crossover",
    "fit_icap_handshake",
    "fit_vendor_api",
    "format_value",
    "generate_report",
    "mean_time_to_repair",
    "relative_error",
    "render_comparison",
    "render_table",
    "series_to_csv",
    "sweep_fault_hit_grid",
    "trace_with_hit_ratio",
    "validate_frtr",
    "validate_prtr",
    "write_csv",
]
