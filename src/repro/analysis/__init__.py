"""Experiment drivers, statistics, paper data, and table rendering.

One driver per paper table/figure (:mod:`repro.analysis.experiments`),
the paper's published numbers for comparison
(:mod:`repro.analysis.paper_data`), the paper-shape targets checked
against them (:mod:`repro.analysis.targets`), small-sample statistics
for the repetition-based experiments (:mod:`repro.analysis.stats`), and ASCII
table rendering in the paper's layouts (:mod:`repro.analysis.tables`).
"""

from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import Table, format_ratio
from repro.analysis.charts import line_plot
from repro.analysis.sweeps import SweepDriver
from repro.analysis.tracestats import TraceStatistics, analyze_trace
from repro.analysis import paper_data
from repro.analysis.experiments import (
    Table33Row,
    Table35Row,
    Table41Row,
    build_table_3_4,
    run_table_3_3,
    run_table_3_5,
    run_table_4_1,
)

__all__ = [
    "Summary",
    "SweepDriver",
    "Table",
    "Table33Row",
    "Table35Row",
    "Table41Row",
    "TraceStatistics",
    "analyze_trace",
    "line_plot",
    "build_table_3_4",
    "format_ratio",
    "paper_data",
    "run_table_3_3",
    "run_table_3_5",
    "run_table_4_1",
    "summarize",
]
