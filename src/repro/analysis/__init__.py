"""Analysis utilities: structured results, reports, and comparisons.

Turns :class:`~repro.rtc.metrics.SessionMetrics` into serializable
result records, renders human-readable reports, and diffs runs — the
layer a downstream user builds dashboards and regression checks on.
"""

from repro.analysis.cache import ResultCache, code_version, trace_fingerprint
from repro.analysis.results import (
    RunResult,
    canonical_metrics_json,
    load_results,
    metrics_from_dict,
    metrics_to_dict,
    save_results,
)
from repro.analysis.report import compare_runs
from repro.analysis.aggregate import (
    MetricSummary,
    PairedComparison,
    aggregate,
    paired_compare,
    render_aggregate,
)

__all__ = [
    "RunResult",
    "ResultCache",
    "canonical_metrics_json",
    "code_version",
    "metrics_to_dict",
    "metrics_from_dict",
    "trace_fingerprint",
    "save_results",
    "load_results",
    "compare_runs",
    "MetricSummary",
    "PairedComparison",
    "aggregate",
    "paired_compare",
    "render_aggregate",
]
