"""Static analysis suite over the plan IR (no interpreter, no DES).

Modules:

- :mod:`repro.analyze.diagnostics` — the unified ``PLAN0xx``/``SYNC00x``
  diagnostic model (JSON + SARIF) shared with the verifier and the sync
  lint.
- :mod:`repro.analyze.contention` — per-link contention profile and the
  α-β critical-path lower bound that prunes the autotuner.
- :mod:`repro.analyze.core` — :func:`analyze_plan`, the one-call
  aggregate the ``repro analyze`` CLI surfaces.

Ordering and deadlock freedom are proved by
:func:`repro.plan.verifier.verify_plan`; this package reports them.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "RULES",
    "rule_slug",
    "severity_of",
    "to_sarif",
    "AnalysisReport",
    "analyze_plan",
    "ContentionReport",
    "analyze_contention",
    "static_lower_bound",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Diagnostic": "diagnostics",
        "DiagnosticReport": "diagnostics",
        "RULES": "diagnostics",
        "rule_slug": "diagnostics",
        "severity_of": "diagnostics",
        "to_sarif": "diagnostics",
        "AnalysisReport": "core",
        "analyze_plan": "core",
        "ContentionReport": "contention",
        "analyze_contention": "contention",
        "static_lower_bound": "contention",
    },
)
