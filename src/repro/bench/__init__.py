"""Benchmark harness.

:mod:`repro.bench.harness` holds the measurement plumbing (method runners,
ASCII table/series rendering, paper-vs-measured records);
:mod:`repro.bench.experiments` defines one entry point per table/figure of
the paper, each returning a structured result that the ``benchmarks/``
pytest modules print and assert shape properties on.
"""

from repro.bench.harness import (
    MethodRun,
    render_table,
    render_series,
    run_method,
    run_nc_method,
    run_lp_method,
    NC_MODELS,
    LP_MODELS,
)
from repro.bench import experiments

__all__ = [
    "MethodRun",
    "render_table",
    "render_series",
    "run_method",
    "run_nc_method",
    "run_lp_method",
    "NC_MODELS",
    "LP_MODELS",
    "experiments",
]
