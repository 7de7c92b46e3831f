"""Analysis utilities: statistics and report rendering."""

from repro.analysis.stats import ecdf, mean, percentile, stddev, summarize
from repro.analysis.report import render_series, render_table, render_timeseries

__all__ = [
    "ecdf",
    "mean",
    "percentile",
    "stddev",
    "summarize",
    "render_series",
    "render_table",
    "render_timeseries",
]
