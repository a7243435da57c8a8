"""`repro.bench`: the deterministic perf-trajectory harness.

`repro bench run` measures the repo's hot paths (runtime iteration
time, DES throughput, plan compile+verify, fuzz schedule throughput,
sanitizer and tracer overhead ratios) into a schema-versioned
``BENCH_<rev>.json``; `repro bench compare` gates a candidate payload
against the committed baseline; `repro bench report` renders either.
See DESIGN.md §11 for the methodology and regression policy.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SCHEMA_VERSION",
    "METRICS",
    "BenchContext",
    "MetricResult",
    "MetricSpec",
    "CompareReport",
    "MetricComparison",
    "bench_filename",
    "calibrate",
    "compare_payloads",
    "current_rev",
    "latest_baseline",
    "load_payload",
    "metric_names",
    "render_comparison",
    "render_payload",
    "render_trajectory",
    "run_bench",
    "strip_timing",
    "write_payload",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CompareReport": "compare",
        "MetricComparison": "compare",
        "compare_payloads": "compare",
        "SCHEMA_VERSION": "harness",
        "bench_filename": "harness",
        "current_rev": "harness",
        "latest_baseline": "harness",
        "load_payload": "harness",
        "run_bench": "harness",
        "strip_timing": "harness",
        "write_payload": "harness",
        "METRICS": "metrics",
        "BenchContext": "metrics",
        "MetricResult": "metrics",
        "MetricSpec": "metrics",
        "calibrate": "metrics",
        "metric_names": "metrics",
        "render_comparison": "report",
        "render_payload": "report",
        "render_trajectory": "report",
    },
)
