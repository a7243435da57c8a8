"""The experiment registry: every experiment and every paper claim, once.

Each :class:`Experiment` names one experiment, its default ``run``, its
``format_table`` and the :class:`Claim` rows its default run must
satisfy; an experiment that claims nothing has no place here.  Every
reader iterates :data:`EXPERIMENTS`:

- :mod:`repro.experiments.runner` prints each experiment's table;
- :mod:`repro.experiments.export` writes each run to ``<name>.csv``;
- :mod:`repro.experiments.certify` checks every claim and prints the
  certificate that EXPERIMENTS.md carries verbatim;
- ``benchmarks/test_claims.py`` runs each experiment once under
  pytest-benchmark and asserts its claims.

A claim with a ``cause`` is one this reproduction does *not* reproduce:
its declared verdict is "not reproduced", so the check passing is as
much a change as a reproduced claim failing.

This module imports every experiment, so the package ``__init__`` does
not import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import ModuleType
from typing import Any, Callable, Sequence

from repro.experiments import (
    ablations,
    ext_algorithms,
    ext_dgx2,
    ext_faults,
    ext_hierarchical,
    ext_plans,
    ext_recovery,
    ext_sensitivity,
    ext_synth,
    ext_tree_search,
    ext_workloads,
    fig01_allreduce_ratio,
    fig02_overlap_comparison,
    fig03_invocation,
    fig04_model_ratio,
    fig05_walkthrough,
    fig12_comm_perf,
    fig13_overall,
    fig14_scaleout,
    fig15_detour,
    fig16_patterns,
    fig17_resnet_layers,
)
from repro.runtime.elastic import REEMBED, RESTART

__all__ = ["PASS", "FAIL", "NOT_REPRODUCED", "Claim", "Experiment",
           "EXPERIMENTS"]

PASS = "PASS"
FAIL = "FAIL"
NOT_REPRODUCED = "not reproduced"

_MB = 1024 * 1024

Rows = Sequence[Any]
Check = Callable[[Rows], tuple[str, bool]]


@dataclass(frozen=True)
class Claim:
    """One checkable claim about an experiment's default run.

    Attributes:
        source: where the paper makes the claim ("Extension" for the
            claims this repo adds beyond the paper).
        statement: the claim, paraphrased.
        band: the paper's band, in words.
        check: rows -> (what this reproduction measured, whether the
            claim holds).
        cause: empty for a reproduced claim; otherwise why this
            reproduction does not reproduce it.
    """

    source: str
    statement: str
    band: str
    check: Check
    cause: str = ""

    @property
    def expected(self) -> str:
        """The declared verdict."""
        return NOT_REPRODUCED if self.cause else PASS


@dataclass(frozen=True)
class Experiment:
    """One experiment: how to run it, how to print it, what it claims."""

    name: str
    run: Callable[[], Rows]
    format_table: Callable[[Rows], str]
    claims: tuple[Claim, ...]


def _span(
    value: str | Callable[[Any], float],
    ok: Callable[[Any], bool],
    *,
    where: Callable[[Any], bool] = lambda r: True,
    peak: bool = False,
    fmt: str = "{:.2f}x",
) -> Check:
    """``ok`` holds for the ``value`` of every row ``where`` selects
    (or, with ``peak``, for the largest); measures their range.  A
    selection with no rows raises: no claim holds vacuously."""
    get = attrgetter(value) if isinstance(value, str) else value

    def check(rows: Rows) -> tuple[str, bool]:
        values = [get(r) for r in rows if where(r)]
        if not values:
            raise ValueError("claim selects no rows")
        low, high = fmt.format(min(values)), fmt.format(max(values))
        if peak:
            return f"max {high}", ok(max(values))
        text = low if low == high else f"{low}..{high}"
        if len(values) > 1:
            text += f" over {len(values)} rows"
        return text, all(ok(v) for v in values)

    return check


# -- paper figures -------------------------------------------------------------


def _fig01_worst(rows: Rows) -> tuple[str, bool]:
    worst = max(rows, key=lambda r: r.allreduce_fraction)
    return (
        f"{worst.workload} {worst.allreduce_fraction:.1%}",
        0.5 < worst.allreduce_fraction < 0.65
        and worst.workload == "single_stage_detector",
    )


def _fig01_least(rows: Rows) -> tuple[str, bool]:
    least = min(rows, key=lambda r: r.allreduce_fraction)
    return (f"{least.workload} {least.allreduce_fraction:.1%}",
            0.08 < least.allreduce_fraction < 0.15)


def _fig04_tree_small(rows: Rows) -> tuple[str, bool]:
    ratios = rows[0].ratios
    return (f"16KB ratios {ratios[0]:.2f}..{ratios[-1]:.2f}",
            all(r > 1.0 for r in ratios))


def _fig04_ring_large(rows: Rows) -> tuple[str, bool]:
    ratio = rows[-1].ratios[0]
    return f"256MB at P=8: ratio {ratio:.2f}", 0.8 < ratio < 1.0


def _fig05_steps(rows: Rows) -> tuple[str, bool]:
    steps = {r.algorithm: r.total_steps for r in rows}
    tree = steps["tree (Fig. 5a)"]
    overlapped = steps["overlapped tree (Fig. 5c)"]
    return (f"{tree:.0f} vs {overlapped:.0f} steps",
            tree == 10.0 and overlapped == 7.0)


def _fig13_stat(key: str, threshold: float) -> Check:
    def check(rows: Rows) -> tuple[str, bool]:
        value = fig13_overall.summarize(rows)[key]
        return f"{key} {value:.3f}", value > threshold

    return check


def _fig13_cc_vs_r_outside_zfnet16(rows: Rows) -> tuple[str, bool]:
    outside = [r for r in rows if (r.network, r.batch) != ("zfnet", 16)]
    holds = sum(r.normalized["CC"] >= r.normalized["R"] - 1e-9
                for r in outside)
    return f"CC >= R in {holds}/{len(outside)} cells", holds == len(outside)


def _fig13_zfnet_exception(rows: Rows) -> tuple[str, bool]:
    exceptions = [r for r in rows
                  if r.normalized["CC"] < r.normalized["R"] - 1e-9]
    zfnet16 = ", ".join(
        f"{r.normalized['CC']:.3f} vs {r.normalized['R']:.3f} "
        f"({r.bandwidth})"
        for r in rows if (r.network, r.batch) == ("zfnet", 16)
    )
    return (
        f"CC < R in {len(exceptions)} cells; zfnet/16 CC vs R: {zfnet16}",
        bool(exceptions)
        and all((r.network, r.batch) == ("zfnet", 16) for r in exceptions),
    )


def _fig13_c2_above_c1(rows: Rows) -> tuple[str, bool]:
    diffs = [(r.normalized["C2"] - r.normalized["C1"],
              f"{r.network}/{r.batch}/{r.bandwidth}") for r in rows]
    ties = sum(abs(d) <= 1e-9 for d, _ in diffs)
    below = [(d, cell) for d, cell in diffs if d < -1e-9]
    text = f"C2 = C1 in {ties}/{len(rows)} cells"
    if below:
        worst, cell = min(below)
        text += f", C2 < C1 in {len(below)} ({cell}: {worst:+.3f})"
    return text, all(d > 1e-9 for d, _ in diffs)


def _fig13_r_over_c1(rows: Rows) -> tuple[str, bool]:
    gains = [r.normalized["R"] / r.normalized["C1"] for r in rows]
    wins = sum(g > 1.0 for g in gains)
    return (f"R > C1 in {wins}/{len(rows)} cells, up to {max(gains) - 1:.1%}",
            wins == len(rows))


def _fig13_monotone(rows: Rows) -> tuple[str, bool]:
    """Each strategy's efficiency rises from every cell to the next
    batch and from low to high bandwidth."""
    cells = {(r.network, r.batch, r.bandwidth): r.normalized for r in rows}
    batches = sorted({r.batch for r in rows})
    rises = []
    for (network, batch, bandwidth), perf in cells.items():
        steps = [(network, b, bandwidth) for b in batches if b > batch][:1]
        if bandwidth == "low":
            steps.append((network, batch, "high"))
        rises += [cells[key][s] > perf[s] for key in steps for s in perf]
    return (f"rises in {sum(rises)}/{len(rises)} steps over "
            f"{len(rows[0].normalized)} strategies", all(rises))


def _fig16_case(field: str, factor: float, other: str) -> Check:
    """Case ``other``'s ``field`` exceeds ``factor`` times case 1's."""

    def check(rows: Rows) -> tuple[str, bool]:
        case = {r.case: getattr(r, field) for r in rows}
        return (f"{case[other]:.2f} vs {case['case1']:.2f} ms",
                case[other] > factor * case["case1"])

    return check


def _fig17_trend(what: str, grows: bool) -> Check:
    """Late-half mean of ``what`` above 3x the early half's, or below
    the early half's."""

    def check(rows: Rows) -> tuple[str, bool]:
        stats = fig17_resnet_layers.trend_summary(rows)
        early, late = stats[f"early mean {what}"], stats[f"late mean {what}"]
        return (f"{early:.2f} -> {late:.2f} {what.split()[-1]}",
                late > 3 * early if grows else early > late)

    return check


# -- ablations and extensions --------------------------------------------------


def _chunk_optimum(rows: Rows) -> tuple[str, bool]:
    best = min(rows, key=lambda r: r.time_ms)
    flagged = next(r for r in rows if r.is_analytical_optimum)
    return (f"Eq. 4 K={flagged.nchunks}, simulated K={best.nchunks}",
            0.5 <= flagged.nchunks / best.nchunks <= 2.0)


def _chunk_cost(rows: Rows) -> tuple[str, bool]:
    best = min(rows, key=lambda r: r.time_ms)
    flagged = next(r for r in rows if r.is_analytical_optimum)
    return (f"+{flagged.time_ms / best.time_ms - 1:.1%}",
            flagged.time_ms <= best.time_ms * 1.10)


def _algo_small(rows: Rows) -> tuple[str, bool]:
    smallest = min(r.nbytes for r in rows)
    time = {r.algorithm: r.time_ms for r in rows if r.nbytes == smallest}
    return (f"{time['halving-doubling']:.4f} vs {time['ring']:.4f} ms",
            time["halving-doubling"] < time["ring"])


def _algo_in_order(rows: Rows) -> tuple[str, bool]:
    ordered = sorted({r.algorithm for r in rows if r.in_order})
    return ("in order: " + ", ".join(ordered),
            all(r.in_order == ("tree" in r.algorithm) for r in rows))


def _search_matches_hand(rows: Rows) -> tuple[str, bool]:
    by_key = {(r.topology, r.source): r for r in rows}
    hand = by_key[("dgx1", "hand-crafted")]
    found = by_key[("dgx1", "search")]
    return (
        f"conflicts {found.conflicts} vs {hand.conflicts}, detours "
        f"{found.detours} vs {hand.detours}, {found.ccube_comm_ms:.3f} vs "
        f"{hand.ccube_comm_ms:.3f} ms",
        found.conflicts <= hand.conflicts
        and found.detours <= hand.detours
        and found.ccube_comm_ms <= hand.ccube_comm_ms * 1.01,
    )


def _workloads_cc_over_b(rows: Rows) -> tuple[str, bool]:
    measured, holds = _span("ccube_speedup_over_baseline",
                            lambda v: v >= 1.0)(rows)
    return measured, holds and all(
        r.normalized["CC"] >= r.normalized["B"] - 1e-12 for r in rows
    )


_C2_CAUSE = (
    "chaining is modeled, not measured: C2's first-layer ready time "
    "coincides with C1's total communication time (Fig. 13 note)"
)


#: ``ext_synth``'s topologies by claim.  Stock: machines as built.
#: Degraded: a stock DGX-1 minus failed hardware (a link, four GPUs).
_SYNTH_STOCK = ("dgx1", "dgx2(16)", "switch(r4)")
_SYNTH_DEGRADED = ("dgx1-nolink37", "dgx1-quad-dead")


def _quad_dead_64k(row: Any) -> bool:
    return (row.topology, row.nbytes) == ("dgx1-quad-dead", 64e3)


_SYNTH_CAUSE = (
    "GPU 0 keeps no NVLink to the other three survivors, so the "
    "hypercube does not embed and synth.tune ranks no synthesized "
    "halving-doubling; at latency-bound 64 KB the builder's "
    "route-legalized halving-doubling (32 ops) beats the best "
    "synthesized candidate, a 4-chunk double tree (104 ops)"
)


def _recovery_policy(rows: Rows) -> tuple[str, bool]:
    """Every row's policy picks re-embed at half the crossover and
    restart at twice it, fresh and stale."""
    expected = (REEMBED, RESTART)
    picks = [p for r in rows for p in (r.decisions, r.decisions_stale)]
    if not picks:
        raise ValueError("claim selects no rows")
    held = sum(p == expected for p in picks)
    return (f"{', '.join(expected)} in {held}/{len(picks)} "
            "(size, checkpoint) cases", held == len(picks))


def _ext(statement: str, check: Check,
         band: str = "beyond the paper") -> Claim:
    return Claim("Extension", statement, band, check)


def _of(name: str, module: ModuleType, *claims: Claim) -> Experiment:
    """The experiment ``module.run`` / ``module.format_table``."""
    return Experiment(name, module.run, module.format_table, claims)


def _experiments() -> tuple[Experiment, ...]:
    return (
        _of("fig01", fig01_allreduce_ratio,
            Claim("Fig. 1", "AllReduce takes up to ~60% of execution time, "
                  "most in SSD", "~60%, SSD worst", _fig01_worst),
            Claim("Fig. 1", "even NCF pays ~10%", "~10%", _fig01_least)),
        _of("fig02", fig02_overlap_comparison,
            Claim("Fig. 2", "backward overlap (2b) beats no overlap",
                  "qualitative", _span(
                      lambda r: r.backward_overlap_norm / r.no_overlap_norm,
                      lambda v: v > 1.0)),
            Claim("Fig. 2", "C-Cube's forward overlap (2c) beats no "
                  "overlap", "qualitative", _span(
                      lambda r: r.ccube_norm / r.no_overlap_norm,
                      lambda v: v > 1.0))),
        _of("fig03", fig03_invocation,
            Claim("Fig. 3", "layer-wise loses ~2x vs one-shot", "~2x",
                  _span("slowdown_vs_one_shot", lambda v: 1.5 < v < 3.0,
                        where=lambda r: r.scheme == "layer-wise")),
            Claim("Fig. 3", "slicing loses over 4x", "> 4x",
                  _span("slowdown_vs_one_shot", lambda v: v > 4.0,
                        where=lambda r: r.scheme == "slicing"))),
        _of("fig04", fig04_model_ratio,
            Claim("Fig. 4", "tree wins small messages at every node count",
                  "ratio > 1", _fig04_tree_small),
            Claim("Fig. 4", "ring wins large messages on small systems",
                  "by up to ~14%", _fig04_ring_large)),
        _of("fig05", fig05_walkthrough,
            Claim("Fig. 5", "4-node example: tree takes 10 steps, "
                  "overlapped tree 7", "exactly 10 and 7", _fig05_steps)),
        _of("fig12", fig12_comm_perf,
            Claim("Fig. 12a", "C1 beats B at 64MB and larger", "75-80%+",
                  _span("simulated_speedup", lambda v: 1.6 < v < 2.0,
                        where=lambda r: r.nbytes >= 64 * _MB)),
            Claim("Fig. 12b", "the model matches the simulation at every "
                  "size", "closely", _span(
                      lambda r: abs(r.simulated_speedup - r.modeled_speedup)
                      / r.modeled_speedup,
                      lambda v: v < 0.1, fmt="{:.1%}"))),
        _of("fig13", fig13_overall,
            Claim("Fig. 13", "C1 improves on B on average", "~10% average",
                  _fig13_stat("C1/B mean", 1.03)),
            Claim("Fig. 13", "CC improves on B on average", "~32% average",
                  _fig13_stat("CC/B mean", 1.10)),
            Claim("Fig. 13", "CC improves on B by up to 61%", "up to 61%",
                  _fig13_stat("CC/B max", 1.4)),
            Claim("Fig. 13", "chaining efficiency reaches 98%", "up to 98%",
                  _fig13_stat("CC best efficiency", 0.97)),
            Claim("Fig. 13", "R beats C1 on this small system",
                  "R up to 27% better", _fig13_r_over_c1),
            Claim("Fig. 13", "CC >= R outside zfnet/16", "CC beats R",
                  _fig13_cc_vs_r_outside_zfnet16),
            Claim("Fig. 13", "R beats CC for ZFNet at small batch",
                  "the one exception", _fig13_zfnet_exception,
                  cause=_C2_CAUSE),
            Claim("Fig. 13", "C2 is slightly above C1", "slightly higher",
                  _fig13_c2_above_c1, cause=_C2_CAUSE),
            Claim("Fig. 13", "efficiency rises with batch and with "
                  "bandwidth", "every strategy", _fig13_monotone)),
        _of("fig14", fig14_scaleout,
            Claim("Fig. 14a", "C1 beats the ring everywhere in scale-out",
                  "C1 increasingly better",
                  _span("c1_over_ring", lambda v: v > 1.0)),
            Claim("Fig. 14a", "C1 beats the ring most for small messages "
                  "at scale", "up to 20x",
                  _span("c1_over_ring", lambda v: v > 10.0, peak=True,
                        where=lambda r: r.nbytes <= 16 * 1024,
                        fmt="{:.1f}x")),
            Claim("Fig. 14b", "one chunk gives no turnaround benefit", "1x",
                  _span("turnaround_speedup", lambda v: abs(v - 1.0) < 0.05,
                        where=lambda r: r.nchunks == 1)),
            Claim("Fig. 14b", "turnaround improves by tens of x at 256 "
                  "chunks", "avg 29x, up to 69x",
                  _span("turnaround_speedup", lambda v: v > 25.0, peak=True,
                        where=lambda r: r.nchunks == 256, fmt="{:.0f}x"))),
        _of("fig15", fig15_detour,
            Claim("Fig. 15", "the detour node (GPU0) loses only 3-4%",
                  "3-4%", _span("normalized_performance",
                                lambda v: 0.95 < v < 0.98,
                                where=lambda r: r.gpu == 0, fmt="{:.4f}")),
            Claim("Fig. 15", "GPUs that forward nothing are unaffected",
                  "no loss", _span(
                      "normalized_performance", lambda v: v > 0.999,
                      where=lambda r: r.forwarding_kernels == 0,
                      fmt="{:.4f}"))),
        _of("fig16", fig16_patterns,
            Claim("Fig. 16", "Case 2 (compute grows with depth) creates "
                  "bubbles", "bubbles appear",
                  _fig16_case("bubble_ms", 1.0, "case2")),
            Claim("Fig. 16", "Case 3 (front-loaded comm) pushes the first "
                  "forward back", "turnaround later",
                  _fig16_case("first_fwd_start_ms", 2.0, "case3"))),
        _of("fig17", fig17_resnet_layers,
            Claim("Fig. 17", "ResNet-50 parameters grow with depth", "grow",
                  _fig17_trend("param MB", grows=True)),
            Claim("Fig. 17", "ResNet-50 compute shrinks with depth",
                  "shrinks", _fig17_trend("fwd ms", grows=False))),
        Experiment("ablation_detour", ablations.run_detour_ablation,
                   ablations.format_detour_ablation, (
            Claim("Sec. IV-A", "detour routes beat host PCIe for GPU2-GPU4",
                  "why detours exist",
                  _span("detour_speedup", lambda v: v > 1.5)),
        )),
        Experiment("ablation_conflict", ablations.run_conflict_ablation,
                   ablations.format_conflict_ablation, (
            Claim("Obs. 4", "without the duplicated NVLinks the two trees "
                  "contend", "why the extra links matter",
                  _span("contention_slowdown", lambda v: v > 1.3)),
        )),
        Experiment("ablation_chunks", ablations.run_chunk_sweep,
                   ablations.format_chunk_sweep, (
            Claim("Eq. 4", "Eq. 4's K is within 2x of the simulated "
                  "optimum", "K_opt", _chunk_optimum),
            Claim("Eq. 4", "Eq. 4's K costs at most 10% more than the "
                  "simulated optimum", "K_opt", _chunk_cost),
        )),
        _of("ext_algorithms", ext_algorithms,
            _ext("halving-doubling beats the ring on the smallest message",
                 _algo_small),
            _ext("only the trees keep chunks in order", _algo_in_order)),
        _of("ext_dgx2", ext_dgx2,
            _ext("an NVSwitch crossbar needs no detours",
                 _span("detour_transfers", lambda v: v == 0, fmt="{}",
                       where=lambda r: r.system == "dgx2")),
            _ext("the overlap speedup holds on DGX-1 and DGX-2",
                 _span("overlap_speedup", lambda v: v > 1.5))),
        _of("ext_faults", ext_faults,
            _ext("every rerouted AllReduce verifies",
                 _span("verified", lambda v: v, fmt="{}")),
            _ext("a failed link never speeds the AllReduce up",
                 _span("slowdown_pct", lambda v: v >= 0.0, fmt="{:.1f}%")),
            _ext("detour failover adds detours",
                 _span("extra_detours", lambda v: v > 0, fmt="{}",
                       where=lambda r: r.mode == "detour"))),
        _of("ext_hierarchical", ext_hierarchical,
            _ext("hierarchical chaining beats the barriered version",
                 _span("total_speedup", lambda v: v > 1.5)),
            _ext("hierarchical chaining cuts the turnaround",
                 _span("turnaround_speedup", lambda v: v > 5.0))),
        _of("ext_plans", ext_plans,
            _ext("every lowered plan's simulated makespan equals its "
                 "hand-written emitter's", _span(
                     lambda r: r.planned_us - r.handwritten_us,
                     lambda v: v == 0.0, fmt="{:+g} us"), band="equal"),
            _ext("every plan is verified and its simulated trace ordered",
                 _span(lambda r: r.verified and r.ordered, lambda v: v,
                       fmt="{}"), band="all rows")),
        _of("ext_recovery", ext_recovery,
            _ext("the cost-based recovery policy re-embeds below the "
                 "crossover and restarts above it", _recovery_policy,
                 band="re-embed at 0.5x, restart at 2x the crossover")),
        _of("ext_synth", ext_synth,
            _ext("on stock machines synthesized plans are at most 5% "
                 "slower than the best builder",
                 _span("ratio", lambda v: v <= ext_synth.ACCEPT_TOLERANCE,
                       where=lambda r: r.topology in _SYNTH_STOCK,
                       fmt="{:.3f}"),
                 band=f"ratio <= {ext_synth.ACCEPT_TOLERANCE}"),
            _ext("on degraded topologies synthesized plans beat every "
                 "builder, at every point but the next row's",
                 _span("ratio", lambda v: v < 1.0,
                       where=lambda r: r.topology in _SYNTH_DEGRADED
                       and not _quad_dead_64k(r), fmt="{:.3f}"),
                 band="ratio < 1"),
            Claim("Extension", "synthesized plans beat every builder on "
                  "dgx1-quad-dead at 64 KB", "ratio < 1",
                  _span("ratio", lambda v: v < 1.0, where=_quad_dead_64k,
                        fmt="{:.3f}"), cause=_SYNTH_CAUSE),
            _ext("every synthesized winner is verified, ordered and "
                 "bit-exact", _span(
                     lambda r: r.verified and r.ordered and r.exact,
                     lambda v: v, fmt="{}"), band="all rows")),
        _of("ext_tree_search", ext_tree_search,
            _ext("the search matches or beats the hand-crafted DGX-1 pair",
                 _search_matches_hand),
            _ext("the search never returns an infeasible pair",
                 _span("infeasible", lambda v: v == 0, fmt="{}"))),
        _of("ext_workloads", ext_workloads,
            _ext("CC never loses to B on any workload",
                 _workloads_cc_over_b)),
        _of("ext_sensitivity", ext_sensitivity,
            _ext("the C1/B speedup stays in (1, 2] at every calibration",
                 _span("overlap_speedup", lambda v: 1.0 < v <= 2.0)),
            _ext("the turnaround gain reaches over 10x",
                 _span("turnaround_speedup", lambda v: v > 10.0, peak=True,
                       fmt="{:.0f}x"))),
    )


#: Every experiment by name, in report order.
EXPERIMENTS: dict[str, Experiment] = {e.name: e for e in _experiments()}
