"""Regression comparison between two BENCH payloads.

Semantics (pinned by the hypothesis property tests):

- each gated metric's *goodness* is its value when higher is better
  and its reciprocal otherwise, so "bigger goodness = better" always;
- ``speedup = goodness(candidate) / goodness(baseline)``;
- a metric **regressed** iff ``speedup < 1 - threshold``;
- a metric **improved** iff ``speedup > 1 / (1 - threshold)``.

The asymmetric-looking improvement bound is what makes ``compare``
*symmetric*: swapping base and candidate reciprocates every speedup,
mapping regressions onto improvements exactly.  Both verdict sets
shrink monotonically as the threshold grows (threshold-monotonicity).

Exactly so in floating point: the speedup is a quotient ``num / den``
of two per-side products, and swapping the payloads swaps ``num`` and
``den`` bit for bit.  The verdicts compare those products by
multiplication alone (``num < (1 - threshold) * den`` regressed,
``(1 - threshold) * num > den`` improved), never the rounded quotient,
so the reverse comparison evaluates the very same expressions.

With ``normalize=True``, time- and rate-unit candidate values are
scaled by the calibration ratio of the two machines before comparing,
so a baseline committed from one machine can gate CI runs on another.
Ratio-unit metrics are machine-normalized by construction and are
never rescaled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BenchError

__all__ = ["MetricComparison", "CompareReport", "compare_payloads"]


@dataclass(frozen=True)
class MetricComparison:
    """One gated metric's verdict.

    Attributes:
        name: metric name.
        unit: metric unit (from the baseline entry).
        base_value: baseline measurement.
        cand_value: candidate measurement *after* any normalization.
        speedup: goodness ratio candidate/baseline (>1 is better).
        regressed / improved: threshold verdicts (see module docstring).
    """

    name: str
    unit: str
    base_value: float
    cand_value: float
    speedup: float
    regressed: bool
    improved: bool


@dataclass
class CompareReport:
    """Full comparison outcome.

    Attributes:
        threshold: the regression threshold used (fraction, e.g. 0.15).
        normalized: whether calibration normalization was applied.
        comparisons: per-metric verdicts, in baseline metric order.
        only_in_base / only_in_candidate: gated metric names present on
            one side only (recorded, never a failure by themselves).
    """

    threshold: float
    normalized: bool
    comparisons: list[MetricComparison] = field(default_factory=list)
    only_in_base: list[str] = field(default_factory=list)
    only_in_candidate: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricComparison]:
        return [c for c in self.comparisons if c.regressed]

    @property
    def improvements(self) -> list[MetricComparison]:
        return [c for c in self.comparisons if c.improved]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _gated(payload: dict) -> dict[str, dict]:
    return {
        name: entry
        for name, entry in payload.get("metrics", {}).items()
        if isinstance(entry, dict) and entry.get("gate")
    }


def compare_payloads(
    base: dict,
    candidate: dict,
    *,
    threshold: float = 0.15,
    normalize: bool = False,
) -> CompareReport:
    """Compare two loaded BENCH payloads (see module docstring).

    Raises:
        BenchError: schema-version mismatch between the payloads, a
            threshold outside ``[0, 1)``, or a non-positive measurement.
    """
    if not 0.0 <= threshold < 1.0:
        raise BenchError(f"threshold must be in [0, 1), got {threshold}")
    if base.get("schema_version") != candidate.get("schema_version"):
        raise BenchError(
            f"schema mismatch: baseline v{base.get('schema_version')!r} "
            f"vs candidate v{candidate.get('schema_version')!r}"
        )
    if base.get("profile") != candidate.get("profile"):
        # Workload sizes differ per profile, so cross-profile values
        # are not comparable (a full run would "regress" against a
        # smoke baseline by construction).
        raise BenchError(
            f"profile mismatch: baseline {base.get('profile')!r} vs "
            f"candidate {candidate.get('profile')!r}"
        )
    base_cal = cand_cal = 1.0
    if normalize:
        base_cal = base.get("calibration")
        cand_cal = candidate.get("calibration")
        if not base_cal or not cand_cal:
            raise BenchError(
                "normalize=True needs a calibration field in both payloads"
            )
    scale = cand_cal / base_cal
    keep = 1.0 - threshold

    base_metrics = _gated(base)
    cand_metrics = _gated(candidate)
    report = CompareReport(threshold=threshold, normalized=normalize)
    report.only_in_base = [n for n in base_metrics if n not in cand_metrics]
    report.only_in_candidate = [
        n for n in cand_metrics if n not in base_metrics
    ]

    for name, base_entry in base_metrics.items():
        cand_entry = cand_metrics.get(name)
        if cand_entry is None:
            continue
        unit = base_entry.get("unit", "")
        higher = bool(base_entry.get("higher_is_better"))
        base_value = base_entry.get("value")
        cand_value = cand_entry.get("value")
        if (
            not isinstance(base_value, (int, float))
            or not isinstance(cand_value, (int, float))
            or base_value <= 0
            or cand_value <= 0
        ):
            raise BenchError(
                f"metric {name!r}: values must be positive numbers "
                f"(base={base_value!r}, candidate={cand_value!r})"
            )
        # Compare in baseline-machine terms: a slower candidate machine
        # (scale > 1) legitimately takes longer per op and moves fewer
        # ops per second.  Ratios are machine-free and never rescaled.
        cal_base, cal_cand = (
            (1.0, 1.0) if unit == "ratio" else (base_cal, cand_cal)
        )
        if higher:
            num, den = cand_value * cal_cand, base_value * cal_base
        else:
            num, den = base_value * cal_cand, cand_value * cal_base
        if unit != "ratio":
            cand_value = cand_value * scale if higher else cand_value / scale
        report.comparisons.append(
            MetricComparison(
                name=name,
                unit=unit,
                base_value=float(base_value),
                cand_value=float(cand_value),
                speedup=num / den,
                regressed=num < keep * den,
                improved=keep * num > den,
            )
        )
    return report
