"""Benchmark harness: experiment drivers and paper-style reporting.

Every figure and table of the paper's evaluation (Section 4) has a driver
here and a regenerating benchmark under ``benchmarks/``:

* :mod:`repro.bench.scaling` — strong scaling (Fig. 5), weak scaling
  (Fig. 6), and the 50-billion-edge extrapolation (Section 4.5);
* :mod:`repro.bench.reporting` — fixed-width tables and log-log series in
  the shape the paper reports.
"""

from repro.bench.reporting import format_series, format_table
from repro.bench.scaling import (
    ScalingPoint,
    extrapolate_large_network,
    strong_scaling,
    weak_scaling,
)

__all__ = [
    "ScalingPoint",
    "extrapolate_large_network",
    "format_series",
    "format_table",
    "strong_scaling",
    "weak_scaling",
]
