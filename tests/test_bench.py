"""Properties of the bench harness: determinism and compare semantics.

The hypothesis tests pin the comparator's algebra — symmetry (swapping
base and candidate maps regressions onto improvements exactly) and
threshold-monotonicity (raising the threshold never adds a verdict) —
over synthetic payloads, and the determinism tests pin that two runs of
the real harness with the same seed and code differ only in timing
fields.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import (
    SCHEMA_VERSION,
    compare_payloads,
    load_payload,
    metric_names,
    run_bench,
    strip_timing,
    write_payload,
)
from repro.errors import BenchError

#: Cheap, thread-free metric subset used when the tests actually run
#: the harness (the full set spawns kernel threads and takes seconds).
CHEAP_METRICS = ["chunk_reduce", "sim_events", "plan_compile"]

METRIC_POOL = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
]

values = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)
thresholds = st.floats(min_value=0.0, max_value=0.9, exclude_max=True)


@st.composite
def payload_pairs(draw):
    """Two synthetic BENCH payloads over a shared metric subset."""
    names = draw(
        st.lists(
            st.sampled_from(METRIC_POOL), min_size=1, max_size=4,
            unique=True,
        )
    )
    base, cand = {}, {}
    for name in names:
        higher = draw(st.booleans())
        for side in (base, cand):
            side[name] = {
                "unit": "events/s" if higher else "s/op",
                "higher_is_better": higher,
                "gate": True,
                "ops": 1,
                "value": draw(values),
            }
    def wrap(metrics, cal):
        return {
            "schema_version": SCHEMA_VERSION,
            "calibration": cal,
            "metrics": metrics,
        }
    return (
        wrap(base, draw(values)),
        wrap(cand, draw(values)),
    )


def _one_metric_pair(base_value, base_cal, cand_value, cand_cal):
    def wrap(value, cal):
        return {
            "schema_version": SCHEMA_VERSION,
            "calibration": cal,
            "metrics": {
                "alpha": {
                    "unit": "events/s", "higher_is_better": True,
                    "gate": True, "ops": 1, "value": value,
                },
            },
        }
    return wrap(base_value, base_cal), wrap(cand_value, cand_cal)


class TestCompareProperties:
    @given(pair=payload_pairs(), threshold=thresholds,
           normalize=st.booleans())
    # Each value equal to the other side's calibration: the two
    # normalized quotients once rounded to 1.0000000000000002 one way
    # and 1.0 the other, a verdict at threshold 0 with no mirror.
    @example(
        pair=_one_metric_pair(3.0, 190.03125, 190.03125, 3.0),
        threshold=0.0,
        normalize=True,
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, pair, threshold, normalize):
        base, cand = pair
        fwd = compare_payloads(
            base, cand, threshold=threshold, normalize=normalize
        )
        rev = compare_payloads(
            cand, base, threshold=threshold, normalize=normalize
        )
        fwd_by_name = {c.name: c for c in fwd.comparisons}
        rev_by_name = {c.name: c for c in rev.comparisons}
        assert set(fwd_by_name) == set(rev_by_name)
        for name, f in fwd_by_name.items():
            r = rev_by_name[name]
            assert f.speedup * r.speedup == pytest.approx(1.0)
            assert f.regressed == r.improved
            assert f.improved == r.regressed

    @given(pair=payload_pairs(), t=thresholds, dt=thresholds,
           normalize=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_threshold_monotone(self, pair, t, dt, normalize):
        base, cand = pair
        lo, hi = t, min(t + dt, 0.899999)
        strict = compare_payloads(
            base, cand, threshold=lo, normalize=normalize
        )
        loose = compare_payloads(
            base, cand, threshold=hi, normalize=normalize
        )
        strict_reg = {c.name for c in strict.regressions}
        loose_reg = {c.name for c in loose.regressions}
        strict_imp = {c.name for c in strict.improvements}
        loose_imp = {c.name for c in loose.improvements}
        assert loose_reg <= strict_reg
        assert loose_imp <= strict_imp

    @given(pair=payload_pairs())
    @settings(max_examples=30, deadline=None)
    def test_self_compare_is_clean(self, pair):
        base, _ = pair
        report = compare_payloads(base, base, threshold=0.15)
        assert report.ok
        assert not report.improvements

    def test_schema_mismatch_raises(self):
        base = {"schema_version": SCHEMA_VERSION, "metrics": {}}
        cand = {"schema_version": SCHEMA_VERSION + 1, "metrics": {}}
        with pytest.raises(BenchError, match="schema mismatch"):
            compare_payloads(base, cand)

    def test_profile_mismatch_raises(self):
        base = {"schema_version": SCHEMA_VERSION, "profile": "smoke",
                "metrics": {}}
        cand = {"schema_version": SCHEMA_VERSION, "profile": "full",
                "metrics": {}}
        with pytest.raises(BenchError, match="profile mismatch"):
            compare_payloads(base, cand)

    def test_bad_threshold_raises(self):
        base = {"schema_version": SCHEMA_VERSION, "metrics": {}}
        with pytest.raises(BenchError, match="threshold"):
            compare_payloads(base, base, threshold=1.0)

    def test_nonpositive_value_raises(self):
        entry = {
            "unit": "s/op", "higher_is_better": False, "gate": True,
            "value": 0.0,
        }
        payload = {
            "schema_version": SCHEMA_VERSION, "metrics": {"m": entry},
        }
        with pytest.raises(BenchError, match="positive"):
            compare_payloads(payload, payload)

    def test_normalize_requires_calibration(self):
        payload = {"schema_version": SCHEMA_VERSION, "metrics": {}}
        with pytest.raises(BenchError, match="calibration"):
            compare_payloads(payload, payload, normalize=True)

    def test_one_sided_metrics_are_recorded_not_fatal(self):
        def payload(names):
            return {
                "schema_version": SCHEMA_VERSION,
                "metrics": {
                    n: {
                        "unit": "s/op", "higher_is_better": False,
                        "gate": True, "value": 1.0,
                    }
                    for n in names
                },
            }
        report = compare_payloads(payload(["a", "b"]), payload(["b", "c"]))
        assert report.only_in_base == ["a"]
        assert report.only_in_candidate == ["c"]
        assert report.ok


class TestDeterminism:
    def test_same_seed_same_payload_modulo_timing(self):
        one = run_bench(
            profile="smoke", seed=7, metrics=CHEAP_METRICS, rev="r"
        )
        two = run_bench(
            profile="smoke", seed=7, metrics=CHEAP_METRICS, rev="r"
        )
        assert strip_timing(one) == strip_timing(two)
        for name in CHEAP_METRICS:
            assert one["metrics"][name]["ops"] == two["metrics"][name]["ops"]

    def test_strip_timing_removes_exactly_timing_fields(self):
        payload = run_bench(
            profile="smoke", seed=7, metrics=["sim_events"], rev="r"
        )
        stripped = strip_timing(payload)
        entry = stripped["metrics"]["sim_events"]
        for gone in ("value", "timing", "before", "speedup_vs_before"):
            assert gone not in entry
        for kept in ("unit", "higher_is_better", "gate", "ops",
                     "warmup", "iters"):
            assert kept in entry
        for gone in ("created", "rev", "calibration"):
            assert gone not in stripped
        # strip_timing must not mutate its argument.
        assert "value" in payload["metrics"]["sim_events"]
        assert strip_timing(stripped) == stripped

    def test_ops_counts_are_static_across_profiles_seed(self):
        a = run_bench(profile="smoke", seed=1, metrics=["sim_events"],
                      rev="r")
        b = run_bench(profile="smoke", seed=2, metrics=["sim_events"],
                      rev="r")
        assert (a["metrics"]["sim_events"]["ops"]
                == b["metrics"]["sim_events"]["ops"])


class TestHarnessValidation:
    def test_unknown_metric_raises(self):
        with pytest.raises(BenchError, match="unknown metric"):
            run_bench(metrics=["nope"])

    def test_unknown_profile_raises(self):
        with pytest.raises(BenchError, match="profile"):
            run_bench(profile="turbo")

    def test_metric_names_cover_issue_floor(self):
        # The tentpole promises >= 5 gated metrics in the first payload.
        assert len(metric_names()) >= 5

    def test_payload_round_trip(self, tmp_path):
        payload = run_bench(
            profile="smoke", seed=7, metrics=["sim_events"], rev="r"
        )
        path = write_payload(payload, tmp_path / "BENCH_r.json")
        assert load_payload(path) == payload

    def test_measured_speedups_meet_acceptance_floor(self):
        # Acceptance criterion: >= 2 hot paths with measured >= 1.3x
        # improvement over their preserved reference implementations.
        payload = run_bench(
            profile="smoke", seed=2026,
            metrics=["chunk_reduce", "sim_events"], rev="r",
        )
        fast_enough = [
            name
            for name, entry in payload["metrics"].items()
            if entry.get("speedup_vs_before", 0) >= 1.3
        ]
        assert len(fast_enough) >= 2, payload["metrics"]


class TestPlanSynthesizeMetric:
    def test_registered_and_gated(self):
        from repro.bench.metrics import METRICS

        spec = METRICS["plan_synthesize"]
        assert spec.gate
        assert spec.unit == "s/op"
        assert not spec.higher_is_better

    def test_smoke_run_measures_one_topology(self):
        payload = run_bench(
            profile="smoke", seed=3, metrics=["plan_synthesize"], rev="r"
        )
        entry = payload["metrics"]["plan_synthesize"]
        assert entry["ops"] == 1  # DGX-1 only under smoke
        assert entry["value"] > 0
