"""Command-line interface.

Usage::

    python -m repro compare --network resnet50 --batch 64 [--low-bandwidth]
    python -m repro figures [fig12 fig13 ...]
    python -m repro autotune --network vgg16 --batch 16
    python -m repro chaos drops --drop 0.05 --corrupt 0.02
    python -m repro chaos crash --gpu 3
    python -m repro chaos crash --recover --gpu -1 --seed 7
    python -m repro plan show --algorithm double_tree --physical
    python -m repro plan verify --all
    python -m repro plan export --algorithm ring --out ring.json
    python -m repro plan verify ring.json
    python -m repro plan run --algorithm ring --elems 1024
    python -m repro sanitize list
    python -m repro sanitize run --all --elems 256
    python -m repro sanitize run --scenario seeded_dropped_post --json
    python -m repro sanitize report findings.json
    python -m repro fuzz run --schedules 25 --all
    python -m repro fuzz run --scenario tree --schedules 200 --policy pct
    python -m repro fuzz replay failure.json
    python -m repro fuzz report failure.json
    python -m repro fuzz mutate --algorithm ring --mutants 50
    python -m repro chaos elastic --events crash:3,join:3 --seed 7
    python -m repro chaos elastic --soak 10 --save-dir failing/
    python -m repro ckpt drill --faults torn,bitflip --seed 7
    python -m repro ckpt inspect ckpt_dir/
    python -m repro info
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__
from repro.core.autotune import choose_strategy
from repro.core.config import Bandwidth, CCubeConfig, Strategy
from repro.core.pipeline import IterationPipeline
from repro.dnn.networks import NETWORKS
from repro.experiments.report import render_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="C-Cube (HPCA 2023) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser(
        "compare", help="compare strategies on one workload"
    )
    compare.add_argument("--network", choices=sorted(NETWORKS), required=True)
    compare.add_argument("--batch", type=int, default=64)
    compare.add_argument("--low-bandwidth", action="store_true")

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("names", nargs="*", help="figNN ids (default: all)")

    autotune = sub.add_parser(
        "autotune", help="pick the best strategy for a workload"
    )
    autotune.add_argument("--network", choices=sorted(NETWORKS), required=True)
    autotune.add_argument("--batch", type=int, default=64)
    autotune.add_argument("--low-bandwidth", action="store_true")

    chaos = sub.add_parser(
        "chaos", help="fault-injection drills on the functional runtime"
    )
    chaos.add_argument(
        "scenario",
        choices=("drops", "crash", "stuck", "link-failure", "elastic",
                 "plan"),
        help=(
            "drops: lossy/corrupting links with retransmission, verified "
            "bit-exact; crash: injected kernel crash -> fail-fast abort "
            "with diagnostics; stuck: hung semaphore -> single-timeout "
            "abort; link-failure: simulator NVLink-failure degradation; "
            "elastic: membership event stream (crash/leave/join) with "
            "durable checkpoints, verified re-embedding, and a bit-exact "
            "multi-segment reference; plan: seeded crash inside an "
            "interpreted (synthesized-plan) segment — the whole run "
            "starts degraded on a synthesized fallback plan, a seeded "
            "victim dies mid-interpretation, and recovery must land "
            "bit-exact (--cascade adds a second crash while already "
            "re-embedded)"
        ),
    )
    chaos.add_argument("--drop", type=float, default=0.05,
                       help="per-transfer drop probability (drops)")
    chaos.add_argument("--corrupt", type=float, default=0.02,
                       help="per-transfer corruption probability (drops)")
    chaos.add_argument("--delay", type=float, default=2e-4,
                       help="mean injected link jitter in seconds (drops)")
    chaos.add_argument("--gpu", type=int, default=None,
                       help="victim GPU id (crash / stuck / plan; "
                            "default 3 for crash/stuck); -1 or omitted "
                            "draws one from --seed (crash --recover / "
                            "plan)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--iterations", type=int, default=2,
                       help="training iterations (drops / crash --recover)")
    chaos.add_argument("--elems", type=int, default=512,
                       help="gradient elements (drops / crash / stuck)")
    chaos.add_argument("--recover", action="store_true",
                       help="crash only: instead of aborting the job, "
                            "re-embed the double tree over the surviving "
                            "GPUs and resume from the last consistent "
                            "weights (verified bit-exact)")
    chaos.add_argument("--crash-iteration", type=int, default=-1,
                       help="iteration at which the crash fires "
                            "(crash --recover); -1 draws one from --seed")
    chaos.add_argument("--policy", choices=("cost", "reembed", "restart"),
                       default="reembed",
                       help="recovery policy (crash --recover / elastic)")
    chaos.add_argument("--events", default="crash:3,join:3",
                       help="membership event spec kind:gpu[@iter],... "
                            "(elastic); iterations omitted are drawn "
                            "from --seed")
    chaos.add_argument("--ckpt-every", type=int, default=2,
                       help="commit a checkpoint generation every N "
                            "iterations (elastic); 0 disables")
    chaos.add_argument("--ckpt-faults", default=None,
                       help="storage fault spec kind:prob,... with kinds "
                            "fail/torn/bitflip (elastic), e.g. "
                            "'torn:0.1,bitflip:0.05'")
    chaos.add_argument("--soak", type=int, default=0,
                       help="elastic / plan: run N trials at seeds "
                            "seed..seed+N-1 and require every one "
                            "bit-exact")
    chaos.add_argument("--save-dir", default=None,
                       help="elastic / plan --soak: write failing-trial "
                            "reports here as JSON")
    chaos.add_argument("--cascade", action="store_true",
                       help="plan: arm a second seeded crash while the "
                            "job is already running degraded on the "
                            "re-embedded plan")
    chaos.add_argument("--initial-dead", default="1,2,3,4",
                       help="plan: comma-separated GPUs already dead at "
                            "start; the survivor set must need a "
                            "synthesized fallback plan")

    plan = sub.add_parser(
        "plan",
        help="compile collectives to verifiable plans of primitive ops",
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)
    algorithms = ("ring", "tree", "double_tree", "halving_doubling")

    def add_plan_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algorithm", choices=algorithms,
                       default="double_tree")
        p.add_argument("--nnodes", type=int, default=8)
        p.add_argument("--nbytes", type=float, default=4096.0,
                       help="message size in bytes")
        p.add_argument("--nchunks", type=int, default=4,
                       help="pipeline chunks per tree (tree builders)")
        p.add_argument("--physical", action="store_true",
                       help="compile onto the DGX-1 topology (route "
                            "legalization + lane assignment); "
                            "double_tree uses the paper's tree pair")

    show = plan_sub.add_parser(
        "show", help="print the per-GPU program listing of a plan"
    )
    add_plan_args(show)

    verify = plan_sub.add_parser(
        "verify", help="statically verify plans (exactly-once reduce/"
                       "broadcast, deadlock-freedom, physical legality)"
    )
    add_plan_args(verify)
    verify.add_argument("file", nargs="?", default=None,
                        help="serialized plan JSON to verify instead of "
                             "building one (logical checks only)")
    verify.add_argument("--all", action="store_true", dest="verify_all",
                        help="verify every builder, raw and compiled "
                             "onto DGX-1 (CI smoke)")

    export = plan_sub.add_parser(
        "export", help="serialize a plan to JSON (load back with "
                       "`plan verify <file>`)"
    )
    add_plan_args(export)
    export.add_argument("--out", default="-",
                        help="output path (default: stdout)")

    run = plan_sub.add_parser(
        "run", help="execute a plan on the thread-backed runtime"
    )
    add_plan_args(run)
    run.add_argument("--elems", type=int, default=512,
                     help="gradient element count")
    run.add_argument("--seed", type=int, default=0)

    analyze = sub.add_parser(
        "analyze",
        help="static plan analysis: prove ordering properties, which "
             "wires may be zero-copy, and the contention lower bound "
             "on the IR, no simulation (see DESIGN.md §13)",
    )
    add_plan_args(analyze)
    analyze.add_argument("file", nargs="?", default=None,
                         help="serialized plan JSON to analyze instead "
                              "of building one")
    analyze.add_argument("--all", action="store_true", dest="analyze_all",
                         help="analyze every builder, raw and compiled "
                              "onto DGX-1 (CI smoke)")
    analyze.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the diagnostic report as JSON")
    analyze.add_argument("--sarif", default=None, metavar="PATH",
                         help="also write a SARIF 2.1.0 report to PATH "
                              "('-' for stdout)")

    sanitize = sub.add_parser(
        "sanitize",
        help="device-memory sanitizer: race / wait-cycle "
             "analysis of the virtual-GPU runtimes",
    )
    sanitize_sub = sanitize.add_subparsers(dest="sanitize_command",
                                           required=True)

    san_run = sanitize_sub.add_parser(
        "run", help="run scenarios under the vector-clock tracer"
    )
    san_run.add_argument("--all", action="store_true", dest="run_all",
                         help="every scenario: all shipped runtimes must "
                              "come back clean AND every seeded-broken "
                              "kernel must be flagged (the default when "
                              "no --scenario is given)")
    san_run.add_argument("--scenario", action="append", default=None,
                         help="run one named scenario (repeatable; "
                              "see `sanitize list`)")
    san_run.add_argument("--elems", type=int, default=64,
                         help="gradient element count per scenario")
    san_run.add_argument("--json", action="store_true", dest="as_json",
                         help="emit a machine-readable findings document")
    san_run.add_argument("--out", default="-",
                         help="where to write the --json document "
                              "(default: stdout)")

    san_report = sanitize_sub.add_parser(
        "report", help="render a saved `sanitize run --json` document"
    )
    san_report.add_argument("file", help="findings JSON path")

    sanitize_sub.add_parser("list", help="list registered scenarios")

    fuzz = sub.add_parser(
        "fuzz",
        help="schedule-space fuzzer: run scenarios under seeded "
             "adversarial interleavings with replayable failures",
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run", help="fuzz scenarios across many seeded schedules"
    )
    fuzz_run.add_argument("--all", action="store_true", dest="run_all",
                          help="every registered scenario (the default "
                               "when no --scenario is given): healthy "
                               "runtimes must survive every schedule "
                               "clean, seeded kernels must be detected "
                               "within the budget")
    fuzz_run.add_argument("--scenario", action="append", default=None,
                          help="fuzz one named scenario (repeatable; "
                               "see `sanitize list`)")
    fuzz_run.add_argument("--schedules", type=int, default=50,
                          help="schedule budget per scenario")
    fuzz_run.add_argument("--seed", type=int, default=0,
                          help="base seed; schedule i runs seed+i")
    fuzz_run.add_argument("--policy", choices=("random", "pct"),
                          default="random")
    fuzz_run.add_argument("--elems", type=int, default=64,
                          help="gradient element count per scenario")
    fuzz_run.add_argument("--quantum", type=float, default=2e-4,
                          help="scheduler sleep quantum in seconds")
    fuzz_run.add_argument("--save-dir", default=None,
                          help="write minimized failing seed files here "
                               "(replay with `fuzz replay`)")
    fuzz_run.add_argument("--no-shrink", action="store_true",
                          help="keep failing traces unminimized")

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-run a stored failing schedule from its "
                       "minimized decision trace"
    )
    fuzz_replay.add_argument("file", help="fuzz seed-file path (JSON)")

    fuzz_report = fuzz_sub.add_parser(
        "report", help="render a stored fuzz seed file"
    )
    fuzz_report.add_argument("file", help="fuzz seed-file path (JSON)")

    fuzz_mutate = fuzz_sub.add_parser(
        "mutate",
        help="plan-mutation fuzz: drop/duplicate/swap plan ops and "
             "check the static verifier's verdict against actual "
             "runtime behaviour",
    )
    fuzz_mutate.add_argument("--algorithm", action="append", default=None,
                             choices=algorithms,
                             help="plan builder to mutate (repeatable; "
                                  "default: ring + double_tree)")
    fuzz_mutate.add_argument("--mutants", type=int, default=40,
                             help="mutants per algorithm")
    fuzz_mutate.add_argument("--nnodes", type=int, default=4)
    fuzz_mutate.add_argument("--nchunks", type=int, default=2,
                             help="pipeline chunks per tree (tree "
                                  "builders)")
    fuzz_mutate.add_argument("--elems", type=int, default=64,
                             help="gradient element count")
    fuzz_mutate.add_argument("--seed", type=int, default=0)

    ckpt = sub.add_parser(
        "ckpt",
        help="durable checkpointer: fault drills and generation "
             "inspection",
    )
    ckpt_sub = ckpt.add_subparsers(dest="ckpt_command", required=True)

    ckpt_drill = ckpt_sub.add_parser(
        "drill",
        help="hammer the two-phase commit protocol with injected "
             "storage faults; exit 0 iff no corrupt generation is ever "
             "loaded and every load falls back to a committed one",
    )
    ckpt_drill.add_argument("--faults", default="torn,bitflip,fail",
                            help="comma-separated fault kinds to inject "
                                 "(fail/torn/bitflip), optionally "
                                 "kind:prob")
    ckpt_drill.add_argument("--generations", type=int, default=12,
                            help="save attempts in the drill")
    ckpt_drill.add_argument("--elems", type=int, default=256)
    ckpt_drill.add_argument("--seed", type=int, default=0)
    ckpt_drill.add_argument("--dir", default=None,
                            help="run against a real directory backend "
                                 "here instead of in-memory storage")
    ckpt_drill.add_argument("--every-site", action="store_true",
                            help="instead of probabilistic faults, "
                                 "enumerate every durable write site one "
                                 "save performs (each shard, the "
                                 "manifest, the commit rename) and "
                                 "simulate a process crash at each, "
                                 "under every fate; exit 0 iff every "
                                 "scenario recovers a committed "
                                 "generation bit-exactly and a follow-up "
                                 "save succeeds")

    ckpt_inspect = ckpt_sub.add_parser(
        "inspect",
        help="validate every committed generation in a checkpoint "
             "directory (CRC, sizes, coverage)",
    )
    ckpt_inspect.add_argument("dir", help="checkpoint root directory")

    synth = sub.add_parser(
        "synth",
        help="topology-driven plan synthesis: tune winners per message "
             "size, manage the plan store, soak random fabrics "
             "(see DESIGN.md §12)",
    )
    synth_sub = synth.add_subparsers(dest="synth_command", required=True)

    synth_tune = synth_sub.add_parser(
        "tune",
        help="synthesize + autotune plans for a topology and print the "
             "per-size winner table",
    )
    synth_tune.add_argument("--topology", default="dgx1",
                            choices=sorted(_SYNTH_TOPOLOGIES),
                            help="named topology (default: dgx1)")
    synth_tune.add_argument("--topology-json", default=None,
                            help="tune a topology loaded from a JSON "
                                 "file instead (overrides --topology)")
    synth_tune.add_argument("--smoke", action="store_true",
                            help="two-size CI sweep instead of the full "
                                 "size ladder")
    synth_tune.add_argument("--sizes", default=None,
                            help="comma-separated message sizes in bytes "
                                 "(overrides --smoke)")
    synth_tune.add_argument("--seed", type=int, default=0)
    synth_tune.add_argument("--no-prune", action="store_true",
                            help="simulate every gated candidate instead "
                                 "of pruning by the static lower bound "
                                 "(same winners, more DES runs)")
    synth_tune.add_argument("--store", default=None,
                            help="persist each size's winner into this "
                                 "plan-store directory")

    synth_show = synth_sub.add_parser(
        "show", help="list the plan store's cached winners"
    )
    synth_show.add_argument("--store", required=True,
                            help="plan-store directory")

    synth_clear = synth_sub.add_parser(
        "clear", help="drop every cached plan from the store"
    )
    synth_clear.add_argument("--store", required=True,
                             help="plan-store directory")

    synth_soak = synth_sub.add_parser(
        "soak",
        help="synthesize + verify plans over seeded random fabrics; "
             "failing topologies are dumped as JSON artifacts",
    )
    synth_soak.add_argument("--fabrics", type=int, default=20,
                            help="how many random fabrics to try")
    synth_soak.add_argument("--seed", type=int, default=0,
                            help="first fabric seed (fabric i uses "
                                 "seed+i)")
    synth_soak.add_argument("--save-dir", default=None,
                            help="directory for failing-topology JSON "
                                 "artifacts")

    sub.add_parser("info", help="print library and model summary")
    return parser


def _cmd_compare(args: argparse.Namespace) -> int:
    network = NETWORKS[args.network]()
    bandwidth = Bandwidth.LOW if args.low_bandwidth else Bandwidth.HIGH
    config = CCubeConfig().scaled(bandwidth)
    pipeline = IterationPipeline(
        network=network, batch=args.batch, config=config
    )
    rows = []
    for strategy in Strategy:
        result = pipeline.run(strategy)
        rows.append(
            (
                strategy.value,
                result.comm_total * 1e3,
                result.turnaround * 1e3,
                result.iteration_time * 1e3,
                f"{result.normalized_performance:.3f}",
            )
        )
    print(
        render_table(
            ["strategy", "comm (ms)", "turnaround (ms)", "iteration (ms)",
             "normalized"],
            rows,
            title=(
                f"{args.network} batch={args.batch} "
                f"bandwidth={bandwidth.value}"
            ),
        )
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as run_figures

    return run_figures(args.names or None)


def _cmd_autotune(args: argparse.Namespace) -> int:
    network = NETWORKS[args.network]()
    bandwidth = Bandwidth.LOW if args.low_bandwidth else Bandwidth.HIGH
    choice = choose_strategy(
        network, args.batch, config=CCubeConfig().scaled(bandwidth)
    )
    print(f"best strategy: {choice.best.value}")
    print(f"speedup over baseline tree: {choice.speedup_over_baseline:.2f}x")
    for strategy, result in sorted(
        choice.results.items(), key=lambda kv: kv[1].iteration_time
    ):
        print(
            f"  {strategy.value:<3} iteration="
            f"{result.iteration_time * 1e3:9.3f} ms  "
            f"normalized={result.normalized_performance:.3f}"
        )
    return 0


def _chaos_runtime(args: argparse.Namespace, plan, *, timeout: float):
    from repro.runtime import SpinConfig, TreeAllReduceRuntime
    from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees

    return TreeAllReduceRuntime(
        dgx1_trees(),
        total_elems=args.elems,
        chunks_per_tree=4,
        detour_map=DETOURED_EDGES,
        spin=SpinConfig(timeout=timeout),
        fault_plan=plan,
    )


#: SGD step size of every chaos training drill.
_CHAOS_LR = 0.02


def _chaos_problem(rng, elems: int):
    """The chaos drills' toy problem: a one-layer network, the gradient
    of 8 quadratic targets, and the initial weights, drawn from ``rng``
    in that order."""
    from repro.dnn.layers import LayerSpec, NetworkModel
    from repro.runtime import quadratic_gradient

    net = NetworkModel(
        name="chaos",
        layers=(LayerSpec(name="L0", params=elems, fwd_flops=1e6),),
    )
    targets = [rng.normal(size=elems) for _ in range(8)]
    w0 = rng.normal(size=elems)
    return net, quadratic_gradient(targets), w0


def _dgx1_trainer(cls, net, gradient_fn, *, policy: str, seed: int,
                  **kwargs):
    """A ``cls`` (:class:`~repro.runtime.ElasticTrainer` or a subclass)
    on the stock DGX-1 trees, as every recovery drill configures it."""
    from repro.runtime import RecoveryPolicy
    from repro.runtime.sync import SpinConfig
    from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
    from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees

    return cls(
        dgx1_topology(),
        net,
        gradient_fn,
        trees=dgx1_trees(),
        detour_map=DETOURED_EDGES,
        learning_rate=_CHAOS_LR,
        policy=RecoveryPolicy(mode=policy),
        spin=SpinConfig(timeout=30.0),
        detour_preference=DETOUR_NODES,
        search_seed=seed,
        **kwargs,
    )


def _chaos_drops(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.runtime import (
        FaultPlan,
        FunctionalTrainer,
        LinkFault,
        serial_reference,
        tree_reduce_order,
    )

    plan = FaultPlan(
        link_faults=(
            LinkFault(
                delay=args.delay,
                drop_prob=args.drop,
                corrupt_prob=args.corrupt,
            ),
        ),
        seed=args.seed,
    )
    runtime = _chaos_runtime(args, plan, timeout=30.0)
    net, gradient_fn, w0 = _chaos_problem(
        np.random.default_rng(args.seed), args.elems
    )
    trainer = FunctionalTrainer(
        runtime, net, gradient_fn, learning_rate=_CHAOS_LR
    )
    result = trainer.train(w0.copy(), iterations=args.iterations)
    reference = serial_reference(
        net, gradient_fn, w0.copy(),
        nnodes=8, iterations=args.iterations, learning_rate=_CHAOS_LR,
        reduce_order=tree_reduce_order(runtime.trees, runtime.layout),
    )
    identical = bool(np.array_equal(result.weights, reference))
    print(
        f"trained {args.iterations} iterations under "
        f"drop={args.drop} corrupt={args.corrupt} jitter<={args.delay}s"
    )
    print(f"fault stats: {plan.stats.describe()}")
    print(
        "weights bit-identical to serial reference: "
        + ("yes" if identical else "NO")
    )
    return 0 if identical else 1


def _chaos_recover(args: argparse.Namespace) -> int:
    """Crash-at-a-step recovery drill: abort -> drain -> re-embed -> resume.

    The victim GPU, crash iteration, and crash chunk are drawn from
    ``--seed`` unless pinned, so a seed sweep *is* a chaos soak.  Exit
    code 0 requires the recovered weights to be bit-identical to the
    fault-free serial reference replaying the same reduction orders.
    """
    import numpy as np

    from repro.runtime import (
        FaultPlan,
        GpuFault,
        ResilientTrainer,
        recovery_serial_reference,
    )
    from repro.runtime.faults import CRASH

    rng = np.random.default_rng(args.seed)
    iterations = max(2, args.iterations)
    gpu = (
        args.gpu
        if args.gpu is not None and args.gpu >= 0
        else int(rng.integers(0, 8))
    )
    crash_at = (
        args.crash_iteration
        if args.crash_iteration >= 0
        else int(rng.integers(0, iterations))
    )
    after_chunk = int(rng.integers(0, 4))

    net, gradient_fn, w0 = _chaos_problem(rng, args.elems)
    trainer = _dgx1_trainer(
        ResilientTrainer, net, gradient_fn,
        policy=args.policy, seed=args.seed,
    )
    plan = FaultPlan(
        gpu_faults=(GpuFault(gpu, CRASH, after_chunk=after_chunk),),
        seed=args.seed,
    )
    report = trainer.train(
        w0.copy(),
        iterations=iterations,
        fault_plan=plan,
        fault_at_iteration=crash_at,
    )
    print(
        f"injected crash: gpu {gpu}, iteration {crash_at}, "
        f"chunk {after_chunk} (seed {args.seed})"
    )
    for line in report.timeline:
        print(f"  {line}")
    if not report.aborted:
        print("ERROR: the cluster never aborted")
        return 1
    if report.decision is not None:
        print(
            f"policy: {report.decision.action} — "
            f"degraded {report.decision.degraded_cost * 1e3:.3f} ms vs "
            f"restart {report.decision.restart_cost * 1e3:.3f} ms"
        )
    reference = recovery_serial_reference(
        net, gradient_fn, w0.copy(),
        report=report,
        healthy_trees=trainer.trees,
        healthy_layout=trainer.layout,
        iterations=iterations,
        learning_rate=_CHAOS_LR,
    )
    identical = bool(np.array_equal(report.weights, reference))
    print(
        "recovered weights bit-identical to fault-free serial reference: "
        + ("yes" if identical else "NO")
    )
    return 0 if identical else 1


def _parse_storage_faults(spec: str, *, seed: int):
    """Build a storage-fault :class:`FaultPlan` from ``kind[:prob],...``."""
    from repro.errors import ConfigError
    from repro.runtime import FaultPlan, StorageFault

    defaults = {"fail": 0.15, "torn": 0.1, "bitflip": 0.1}
    probs = {"fail": 0.0, "torn": 0.0, "bitflip": 0.0}
    for token in (t.strip() for t in spec.split(",") if t.strip()):
        kind, _, prob_s = token.partition(":")
        if kind not in probs:
            raise ConfigError(
                f"unknown storage fault {kind!r}; "
                "expected fail, torn, or bitflip"
            )
        try:
            probs[kind] = float(prob_s) if prob_s else defaults[kind]
        except ValueError:
            raise ConfigError(
                f"bad storage fault probability {prob_s!r} in {token!r}"
            ) from None
    fault = StorageFault(
        fail_prob=probs["fail"],
        torn_prob=probs["torn"],
        bitflip_prob=probs["bitflip"],
    )
    return FaultPlan(storage_faults=(fault,), seed=seed)


def _elastic_trial(args: argparse.Namespace, seed: int):
    """One elastic drill; returns (ok, summary_lines, detail_dict)."""
    import numpy as np

    from repro.runtime import (
        Checkpointer,
        ElasticTrainer,
        FaultyBackend,
        MemoryBackend,
        elastic_serial_reference,
        parse_events,
    )

    iterations = max(4, args.iterations)
    events = parse_events(args.events, iterations=iterations, seed=seed)
    net, gradient_fn, w0 = _chaos_problem(
        np.random.default_rng(seed), args.elems
    )

    backend = MemoryBackend()
    if args.ckpt_faults:
        backend = FaultyBackend(
            backend, _parse_storage_faults(args.ckpt_faults, seed=seed)
        )
    trainer = _dgx1_trainer(
        ElasticTrainer, net, gradient_fn,
        policy=args.policy, seed=seed,
        checkpointer=Checkpointer(backend),
        checkpoint_every=args.ckpt_every,
    )
    report = trainer.train(w0.copy(), iterations=iterations, events=events)
    reference = elastic_serial_reference(
        net, gradient_fn, w0.copy(),
        segments=report.segments,
        layout=trainer.layout,
        iterations=iterations,
        learning_rate=_CHAOS_LR,
    )
    identical = bool(np.array_equal(report.weights, reference))
    all_verified = all(r.plan_check.verified for r in report.records)

    lines = [f"events: " + ", ".join(
        f"{e.kind}:{e.gpu}@{e.at_iteration}" for e in events
    )]
    lines += [f"  {line}" for line in report.timeline]
    for rec in report.records:
        restored = (
            f", restored gen {rec.restored_generation}"
            if rec.restored_generation >= 0
            else ""
        )
        lines.append(
            f"{rec.event.kind} gpu {rec.event.gpu} -> "
            f"{len(rec.members)} member(s), plan {rec.plan_check.nops} "
            f"ops {'verified' if rec.plan_check.verified else 'REFUSED'}"
            f"{restored}, resumed at iteration {rec.resumed_from}"
        )
    if report.checkpoint_counters:
        counters = ", ".join(
            f"{k}={v}" for k, v in sorted(report.checkpoint_counters.items())
            if v
        )
        lines.append(f"checkpointer: {counters}")
    lines.append(
        "final weights bit-identical to multi-segment serial reference: "
        + ("yes" if identical else "NO")
    )
    detail = {
        "seed": seed,
        "events": [
            f"{e.kind}:{e.gpu}@{e.at_iteration}" for e in events
        ],
        "bit_exact": identical,
        "plans_verified": all_verified,
        "segments": [
            {"start": start, "members": list(emb.survivors)}
            for start, emb, _ in report.segments
        ],
        "checkpoint_counters": dict(report.checkpoint_counters),
        "timeline": list(report.timeline),
    }
    return identical and all_verified, lines, detail


def _chaos_soak(args: argparse.Namespace, trial, name: str, describe) -> int:
    """Run ``trial(args, seed)`` for ``--seed``, or for ``--soak`` seeds
    from it.

    A single trial prints its full log; a soak prints one line per seed
    (``describe(detail)`` then the verdict) and a summary.  A failing
    trial's detail is written to ``--save-dir/<name>-seed-<seed>.json``.
    Exit 0 only if every trial passed.
    """
    import json
    from pathlib import Path

    trials = (
        [args.seed]
        if args.soak <= 0
        else list(range(args.seed, args.seed + args.soak))
    )
    failures = 0
    for seed in trials:
        ok, lines, detail = trial(args, seed)
        if args.soak <= 0:
            for line in lines:
                print(line)
        else:
            print(
                f"seed {seed}: {describe(detail)} "
                + ("bit-exact" if ok else "FAILED")
            )
        if not ok:
            failures += 1
            if args.save_dir is not None:
                out = Path(args.save_dir)
                out.mkdir(parents=True, exist_ok=True)
                path = out / f"{name}-seed-{seed}.json"
                path.write_text(json.dumps(detail, indent=2))
                print(f"  failing trial written to {path}")
    if args.soak > 0:
        print(
            f"soak: {len(trials) - failures}/{len(trials)} trials bit-exact"
        )
    return 0 if failures == 0 else 1


def _chaos_elastic(args: argparse.Namespace) -> int:
    """Elastic membership drill: crash/leave/join under checkpoints.

    Every membership boundary re-embeds the double tree over the new
    member set and gates it through compile + static verification;
    exit code 0 requires every trial's final weights to be bit-identical
    to the multi-segment serial reference.
    """
    return _chaos_soak(
        args, _elastic_trial, "elastic",
        lambda detail: "members " + "->".join(
            str(len(s["members"])) for s in detail["segments"]
        ),
    )


def _plan_chaos_trial(args: argparse.Namespace, seed: int):
    """One interpreted-segment crash drill; returns (ok, lines, detail)."""
    import numpy as np

    from repro.errors import ConfigError
    from repro.runtime import (
        FaultPlan,
        GpuFault,
        ResilientTrainer,
        recovery_serial_reference,
    )
    from repro.runtime.faults import CRASH

    try:
        initial_dead = tuple(sorted(
            int(t) for t in args.initial_dead.split(",") if t.strip()
        ))
    except ValueError:
        raise ConfigError(
            f"bad --initial-dead {args.initial_dead!r}: expected "
            "comma-separated GPU ids"
        ) from None
    survivors = sorted(set(range(8)) - set(initial_dead))
    if len(survivors) < 3 + (1 if args.cascade else 0):
        raise ConfigError(
            "need at least 3 survivors (4 with --cascade) so recovery "
            "has somewhere to go"
        )
    rng = np.random.default_rng(seed)
    iterations = max(4, args.iterations)
    victim = (
        args.gpu
        if args.gpu is not None and args.gpu >= 0
        else survivors[int(rng.integers(0, len(survivors)))]
    )
    if victim not in survivors:
        raise ConfigError(
            f"victim gpu {victim} is not one of the survivors {survivors}"
        )
    crash_at = (
        args.crash_iteration
        if args.crash_iteration >= 0
        else int(rng.integers(0, iterations - (2 if args.cascade else 0)))
    )
    after_chunk = int(rng.integers(0, 2))

    net, gradient_fn, w0 = _chaos_problem(rng, args.elems)
    trainer = _dgx1_trainer(
        ResilientTrainer, net, gradient_fn,
        policy=args.policy, seed=seed, initial_dead=initial_dead,
    )
    plan = FaultPlan(
        gpu_faults=(GpuFault(victim, CRASH, after_chunk=after_chunk),),
        seed=seed,
    )
    kwargs = {}
    cascade_victim = -1
    if args.cascade:
        remaining = [g for g in survivors if g != victim]
        cascade_victim = remaining[int(rng.integers(0, len(remaining)))]
        kwargs = dict(
            cascade_fault_plan=FaultPlan(
                gpu_faults=(
                    GpuFault(cascade_victim, CRASH, after_chunk=0),
                ),
                seed=seed + 1,
            ),
            cascade_at_iteration=1,
        )
    report = trainer.train(
        w0.copy(),
        iterations=iterations,
        fault_plan=plan,
        fault_at_iteration=crash_at,
        **kwargs,
    )
    lines = [
        f"initial dead: GPUs {list(initial_dead)} — "
        f"{len(survivors)} survivors on a synthesized plan",
        f"injected crash: gpu {victim}, iteration {crash_at}, "
        f"chunk {after_chunk} (seed {seed})"
        + (f"; cascade crash: gpu {cascade_victim}" if args.cascade
           else ""),
    ]
    lines += [f"  {line}" for line in report.timeline]
    ok = True
    if not report.aborted:
        lines.append("ERROR: the armed fault never aborted the cluster")
        ok = False
    if report.dead_gpus != (victim,):
        lines.append(
            f"ERROR: detected dead {list(report.dead_gpus)}, "
            f"expected [{victim}]"
        )
        ok = False
    if args.cascade and report.cascade_dead_gpus != (cascade_victim,):
        lines.append(
            f"ERROR: cascade detected {list(report.cascade_dead_gpus)}, "
            f"expected [{cascade_victim}]"
        )
        ok = False
    identical = False
    if ok:
        reference = recovery_serial_reference(
            net, gradient_fn, w0.copy(),
            report=report,
            healthy_trees=trainer.trees,
            healthy_layout=trainer.layout,
            iterations=iterations,
            learning_rate=_CHAOS_LR,
        )
        identical = bool(np.array_equal(report.weights, reference))
        lines.append(
            "recovered weights bit-identical to plan-aware serial "
            "reference: " + ("yes" if identical else "NO")
        )
    detail = {
        "seed": seed,
        "initial_dead": list(initial_dead),
        "victim": victim,
        "crash_iteration": crash_at,
        "after_chunk": after_chunk,
        "cascade_victim": cascade_victim,
        "aborted": report.aborted,
        "abort_reason": report.abort_reason,
        "dead_detected": list(report.dead_gpus),
        "cascade_dead_detected": list(report.cascade_dead_gpus),
        "fault_stats": dict(report.fault_stats),
        "cascade_fault_stats": dict(report.cascade_fault_stats),
        "bit_exact": identical,
        "timeline": list(report.timeline),
    }
    return ok and identical, lines, detail


def _chaos_plan(args: argparse.Namespace) -> int:
    """Seeded crash (and optional cascade) inside an interpreted segment.

    The run starts with a dead quad, so every iteration executes on a
    synthesized fallback plan through the interpreter; the armed fault
    then kills a seeded victim mid-plan.  Exit 0 requires abort,
    correct detection, verified re-embedding, and final weights
    bit-identical to the plan-aware serial reference.
    """
    return _chaos_soak(
        args, _plan_chaos_trial, "plan",
        lambda detail: f"victim gpu {detail['victim']}" + (
            f" + cascade gpu {detail['cascade_victim']}"
            if args.cascade else ""
        ),
    )


def _chaos_kill(args: argparse.Namespace, kind: str, timeout: float) -> int:
    import time

    import numpy as np

    from repro.errors import AbortedError
    from repro.runtime import FaultPlan, GpuFault

    gpu = 3 if args.gpu is None else args.gpu
    plan = FaultPlan(gpu_faults=(GpuFault(gpu, kind, after_chunk=1),))
    runtime = _chaos_runtime(args, plan, timeout=timeout)
    inputs = [np.full(args.elems, float(g)) for g in range(8)]
    started = time.monotonic()
    try:
        runtime.run(inputs)
    except AbortedError as exc:
        elapsed = time.monotonic() - started
        print(f"cluster aborted after {elapsed:.2f}s "
              f"(spin timeout {timeout:.1f}s)")
        print(f"reason: {exc.reason}")
        print(exc.diagnostics)
        return 0
    print("ERROR: run completed despite the injected fault")
    return 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.scenario == "drops":
        return _chaos_drops(args)
    if args.scenario == "crash":
        if args.recover:
            return _chaos_recover(args)
        from repro.runtime.faults import CRASH

        return _chaos_kill(args, CRASH, timeout=10.0)
    if args.scenario == "stuck":
        from repro.runtime.faults import STUCK

        return _chaos_kill(args, STUCK, timeout=2.0)
    if args.scenario == "elastic":
        return _chaos_elastic(args)
    if args.scenario == "plan":
        return _chaos_plan(args)
    from repro.experiments import ext_faults

    print(ext_faults.format_table(ext_faults.run()))
    return 0


def _plan_for_args(args: argparse.Namespace):
    """Build (and optionally compile) the plan an argparse namespace asks
    for; returns ``(plan, topo)`` with ``topo=None`` for logical plans."""
    from repro.plan import build_plan, compile_plan
    from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
    from repro.topology.routing import Router

    kwargs = {}
    if args.algorithm in ("tree", "double_tree"):
        kwargs["nchunks"] = args.nchunks
        kwargs["overlapped"] = True
    if (
        args.physical
        and args.algorithm == "double_tree"
        and args.nnodes == 8
    ):
        from repro.topology.dgx1_trees import dgx1_trees

        kwargs["trees"] = dgx1_trees()
    plan = build_plan(args.algorithm, args.nnodes, args.nbytes, **kwargs)
    if not args.physical:
        return plan, None
    topo = dgx1_topology()
    router = Router(topo, detour_preference=DETOUR_NODES)
    compiled, _reports = compile_plan(plan, topo, router=router)
    return compiled, topo


def _cmd_plan_show(args: argparse.Namespace) -> int:
    plan, _topo = _plan_for_args(args)
    print(plan.describe())
    for (rank, tb), prog in plan.programs().items():
        print(f"\ngpu {rank}, thread block {tb!r}:")
        for op in prog:
            deps = f"  deps={list(op.deps)}" if op.deps else ""
            print(f"  {op.name()}{deps}")
    return 0


def _verify_plan_file(path: str) -> int:
    """Deserialize a plan JSON file and statically verify it."""
    from pathlib import Path

    from repro.plan import Plan, verify_plan

    plan = Plan.from_json(Path(path).read_text())
    report = verify_plan(plan, raise_on_error=False)
    print(
        f"{path}: {len(plan.ops)} ops, {plan.nnodes} GPUs, "
        f"{plan.nchunks} chunks ({plan.algorithm})"
    )
    if report.ok:
        print("verdict: ok")
        return 0
    print("verdict: FAIL")
    for diagnostic in report.diagnostics:
        print(f"  {diagnostic}")
    return 1


def _cmd_plan_verify(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table
    from repro.plan import verify_plan

    if args.file is not None:
        return _verify_plan_file(args.file)
    rows = []
    failures = 0
    if args.verify_all:
        import argparse as _argparse

        algorithms = ("ring", "tree", "double_tree", "halving_doubling")
        cases = [(a, False) for a in algorithms]
        cases += [(a, True) for a in algorithms]
        for algorithm, physical in cases:
            case_args = _argparse.Namespace(
                algorithm=algorithm,
                nnodes=args.nnodes,
                nbytes=args.nbytes,
                nchunks=args.nchunks,
                physical=physical,
            )
            plan, topo = _plan_for_args(case_args)
            report = verify_plan(plan, topo=topo, raise_on_error=False)
            failures += 0 if report.ok else 1
            rows.append((
                algorithm,
                "dgx1" if physical else "logical",
                len(plan.ops),
                "ok" if report.ok else "FAIL",
                report.errors[0] if report.errors else "",
            ))
    else:
        plan, topo = _plan_for_args(args)
        report = verify_plan(plan, topo=topo, raise_on_error=False)
        failures += 0 if report.ok else 1
        rows.append((
            args.algorithm,
            "dgx1" if args.physical else "logical",
            len(plan.ops),
            "ok" if report.ok else "FAIL",
            report.errors[0] if report.errors else "",
        ))
    print(render_table(
        ["algorithm", "target", "ops", "verdict", "first diagnostic"],
        rows,
        title="plan verification",
    ))
    return 0 if failures == 0 else 1


def _cmd_plan_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    plan, _topo = _plan_for_args(args)
    text = plan.to_json()
    if args.out == "-":
        print(text)
    else:
        Path(args.out).write_text(text + "\n")
        print(
            f"wrote {args.algorithm} plan ({len(plan.ops)} ops, "
            f"{plan.nnodes} GPUs) to {args.out}"
        )
    return 0


def _cmd_plan_run(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.plan import PlanInterpreter
    from repro.runtime.sync import SpinConfig

    plan, _topo = _plan_for_args(args)
    rng = np.random.default_rng(args.seed)
    inputs = [rng.normal(size=args.elems) for _ in range(plan.nnodes)]
    interp = PlanInterpreter(
        plan,
        total_elems=args.elems,
        spin=SpinConfig(timeout=30.0),
    )
    report = interp.run([a.copy() for a in inputs])
    expected = np.sum(inputs, axis=0)
    correct = all(
        np.allclose(out, expected, rtol=1e-12) for out in report.outputs
    )
    print(
        f"executed {args.algorithm} plan ({len(plan.ops)} ops, "
        f"{plan.nnodes} GPUs, {args.elems} elems) in "
        f"{report.wall_time:.3f}s wall"
    )
    print("all GPUs hold the global sum: " + ("yes" if correct else "NO"))
    return 0 if correct else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError, PlanError

    try:
        if args.plan_command == "show":
            return _cmd_plan_show(args)
        if args.plan_command == "verify":
            return _cmd_plan_verify(args)
        if args.plan_command == "export":
            return _cmd_plan_export(args)
        return _cmd_plan_run(args)
    except (ConfigError, PlanError) as exc:
        print(f"repro plan: error: {exc}", file=sys.stderr)
        return 2


def _write_sarif(diagnostics, path: str) -> None:
    import json
    from pathlib import Path

    from repro.analyze import to_sarif

    text = json.dumps(to_sarif(diagnostics), indent=2)
    if path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n")
        # stderr so --json stdout stays pure machine-readable.
        print(f"wrote SARIF report to {path}", file=sys.stderr)


def _cmd_analyze_all(args: argparse.Namespace) -> int:
    import argparse as _argparse

    from repro.analyze import analyze_plan
    from repro.experiments.report import render_table

    algorithms = ("ring", "tree", "double_tree", "halving_doubling")
    cases = [(a, False) for a in algorithms]
    cases += [(a, True) for a in algorithms]
    rows = []
    failures = 0
    diagnostics = []
    for algorithm, physical in cases:
        case_args = _argparse.Namespace(
            algorithm=algorithm,
            nnodes=args.nnodes,
            nbytes=args.nbytes,
            nchunks=args.nchunks,
            physical=physical,
        )
        plan, topo = _plan_for_args(case_args)
        report = analyze_plan(plan, topo=topo)
        failures += 0 if report.ok else 1
        diagnostics.extend(report.report.diagnostics)
        lb = report.lower_bound
        rows.append((
            algorithm,
            "dgx1" if physical else "logical",
            len(plan.ops),
            "ok" if report.ok else "FAIL",
            f"{lb * 1e6:.1f}us" if lb is not None else "-",
            str(report.report.diagnostics[0])
            if report.report.diagnostics else "",
        ))
    print(render_table(
        ["algorithm", "target", "ops", "verdict", "lower bound",
         "first diagnostic"],
        rows,
        title="static plan analysis",
    ))
    if args.sarif:
        _write_sarif(diagnostics, args.sarif)
    return 0 if failures == 0 else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analyze import analyze_plan
    from repro.errors import ConfigError, PlanError

    try:
        if args.analyze_all:
            return _cmd_analyze_all(args)
        if args.file is not None:
            from repro.plan import Plan

            plan = Plan.from_json(Path(args.file).read_text())
            topo = None
        else:
            plan, topo = _plan_for_args(args)
        report = analyze_plan(plan, topo=topo)
        if args.as_json:
            print(json.dumps(report.to_json_dict(), indent=2))
        else:
            print(report.describe())
        if args.sarif:
            _write_sarif(report.report.diagnostics, args.sarif)
        return 0 if report.ok else 1
    except (ConfigError, PlanError, OSError) as exc:
        print(f"repro analyze: error: {exc}", file=sys.stderr)
        return 2


def _cmd_sanitize_list(_args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table
    from repro.sanitizer import SCENARIOS

    rows = [
        (sc.name, "seeded-bug" if sc.seeded else "healthy",
         sc.expect.kind, sc.doc)
        for sc in SCENARIOS.values()
    ]
    print(render_table(
        ["scenario", "family", "expects", "description"],
        rows,
        title="sanitizer scenarios",
    ))
    return 0


def _cmd_sanitize_run(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.experiments.report import render_table
    from repro.sanitizer import SCENARIOS, run_scenario

    if args.scenario:
        unknown = [n for n in args.scenario if n not in SCENARIOS]
        if unknown:
            print(
                f"repro sanitize: unknown scenario(s) {unknown}; "
                f"see `repro sanitize list`",
                file=sys.stderr,
            )
            return 2
        names = args.scenario
    else:
        names = list(SCENARIOS)

    rows = []
    documents = []
    failures = 0
    for name in names:
        result = run_scenario(name, elems=args.elems)
        scenario = SCENARIOS[name]
        failures += 0 if result.passed else 1
        rows.append((
            name,
            "seeded-bug" if scenario.seeded else "healthy",
            result.report.nevents,
            result.report.nthreads,
            len(result.report.findings),
            "ok" if result.passed else "FAIL",
            result.detail.splitlines()[0],
        ))
        documents.append({
            "scenario": name,
            "seeded": scenario.seeded,
            "passed": result.passed,
            "detail": result.detail,
            "report": result.report.to_json_dict(),
        })

    if args.as_json:
        text = json.dumps({"version": 1, "scenarios": documents}, indent=2)
        if args.out == "-":
            print(text)
        else:
            Path(args.out).write_text(text + "\n")
            print(f"wrote findings document to {args.out}")
    else:
        print(render_table(
            ["scenario", "family", "events", "threads", "findings",
             "verdict", "detail"],
            rows,
            title=f"sanitizer run (elems={args.elems})",
        ))
        for doc in documents:
            if not doc["passed"]:
                print(f"\n{doc['scenario']}:")
                print(doc["detail"])
    return 0 if failures == 0 else 1


def _cmd_sanitize_report(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.sanitizer import render_report_dict

    data = json.loads(Path(args.file).read_text())
    scenarios = data.get("scenarios")
    if scenarios is None:  # a bare to_json_dict payload
        print(render_report_dict(data))
        return 0 if not any(
            data.get(g) for g in
            ("races", "wait_cycles", "post_cycles")
        ) else 1
    failures = 0
    for entry in scenarios:
        verdict = "ok" if entry.get("passed") else "FAIL"
        failures += 0 if entry.get("passed") else 1
        family = "seeded-bug" if entry.get("seeded") else "healthy"
        print(f"== {entry.get('scenario')} ({family}) — {verdict}")
        print(render_report_dict(entry.get("report", {})))
        print()
    return 0 if failures == 0 else 1


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError

    try:
        if args.sanitize_command == "list":
            return _cmd_sanitize_list(args)
        if args.sanitize_command == "report":
            return _cmd_sanitize_report(args)
        return _cmd_sanitize_run(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"repro sanitize: error: {exc}", file=sys.stderr)
        return 2


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.report import render_table
    from repro.fuzz import fuzz_scenario, save_failure
    from repro.sanitizer import SCENARIOS

    if args.scenario:
        unknown = [n for n in args.scenario if n not in SCENARIOS]
        if unknown:
            print(
                f"repro fuzz: unknown scenario(s) {unknown}; "
                f"see `repro sanitize list`",
                file=sys.stderr,
            )
            return 2
        names = args.scenario
    else:
        names = list(SCENARIOS)

    rows = []
    failures = 0
    for name in names:
        outcome = fuzz_scenario(
            name,
            schedules=args.schedules,
            base_seed=args.seed,
            policy=args.policy,
            elems=args.elems,
            quantum=args.quantum,
            shrink=not args.no_shrink,
        )
        failures += 0 if outcome.ok else 1
        if outcome.seeded:
            verdict = (
                f"detected@{outcome.detected_at}"
                if outcome.detected_at is not None
                else "MISSED"
            )
        else:
            verdict = "clean" if outcome.failure is None else "FAIL"
        rows.append((
            name,
            "seeded-bug" if outcome.seeded else "healthy",
            f"{outcome.schedules}/{outcome.requested}",
            outcome.points,
            outcome.decisions,
            verdict,
        ))
        if outcome.failure is not None:
            failure = outcome.failure
            print(f"\n{name}: failing schedule found")
            print(f"  detail: {failure.detail}")
            print(
                f"  trace: {len(failure.trace)} decisions "
                f"(shrunk from {failure.original_decisions})"
            )
            if args.save_dir is not None:
                path = save_failure(
                    failure, Path(args.save_dir) / f"{name}.json"
                )
                print(f"  seed file: {path} (replay with `fuzz replay`)")
    print(render_table(
        ["scenario", "family", "schedules", "points", "perturbations",
         "verdict"],
        rows,
        title=(
            f"schedule fuzz (policy={args.policy}, seed={args.seed}, "
            f"elems={args.elems})"
        ),
    ))
    return 0 if failures == 0 else 1


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.fuzz import load_failure, replay_failure

    failure = load_failure(args.file)
    outcome = replay_failure(failure)
    print(
        f"replaying {failure.scenario} "
        f"({len(failure.trace)} stored decisions, "
        f"elems={failure.elems}, quantum={failure.quantum})"
    )
    print(f"detail: {outcome.detail}")
    print("failure reproduced: " + ("yes" if outcome.reproduced else "NO"))
    print(
        "applied trace identical to stored trace: "
        + ("yes" if outcome.trace_identical else "NO")
    )
    return 0 if outcome.reproduced and outcome.trace_identical else 1


def _cmd_fuzz_report(args: argparse.Namespace) -> int:
    from repro.fuzz import load_failure

    failure = load_failure(args.file)
    print(f"fuzz seed file: {args.file}")
    print(f"  scenario: {failure.scenario}")
    print(f"  elems: {failure.elems}  quantum: {failure.quantum}")
    print(f"  found by policy: {failure.policy_spec}")
    print(f"  detail: {failure.detail}")
    print(
        f"  trace: {len(failure.trace)} decisions "
        f"(shrunk from {failure.original_decisions})"
    )
    for thread, index, kind, action in failure.trace:
        print(f"    {thread}#{index} {kind} -> {action}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError

    try:
        if args.fuzz_command == "replay":
            return _cmd_fuzz_replay(args)
        if args.fuzz_command == "report":
            return _cmd_fuzz_report(args)
        if args.fuzz_command == "mutate":
            return _cmd_fuzz_mutate(args)
        return _cmd_fuzz_run(args)
    except (ConfigError, OSError) as exc:
        print(f"repro fuzz: error: {exc}", file=sys.stderr)
        return 2


def _cmd_fuzz_mutate(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table
    from repro.fuzz import fuzz_builder_mutations

    names = args.algorithm or ["ring", "double_tree"]
    rows = []
    inconsistent = 0
    for name in names:
        outcome = fuzz_builder_mutations(
            name,
            nnodes=args.nnodes,
            nchunks=args.nchunks,
            total_elems=args.elems,
            mutants=args.mutants,
            seed=args.seed,
        )
        inconsistent += len(outcome.inconsistent)
        rows.append((
            name,
            len(outcome.outcomes),
            outcome.killed,
            outcome.equivalent,
            len(outcome.unsound),
            len(outcome.inconsistent) - len(outcome.unsound),
        ))
        for bad in outcome.inconsistent:
            print(f"{name}: [{bad.classification}] {bad.description}")
            print(f"  verifier: "
                  f"{'ok' if bad.verdict_ok else bad.verifier_error}")
            print(f"  runtime:  "
                  f"{'clean' if bad.ran_clean else bad.runtime_failure}")
    print(render_table(
        ["algorithm", "mutants", "killed", "equivalent", "unsound",
         "incomplete"],
        rows,
        title=(
            f"plan-mutation fuzz (nnodes={args.nnodes}, "
            f"elems={args.elems}, seed={args.seed}) — a mutant must "
            "verify iff it runs clean"
        ),
    ))
    return 0 if inconsistent == 0 else 1


def _ckpt_every_site(args: argparse.Namespace) -> int:
    """Crash-at-every-durable-write-site sweep over one save.

    Exhaustive rather than probabilistic: every shard write, the
    manifest write, and the commit rename each get a simulated process
    death under every applicable fate (lost/torn for writes,
    before/after for the rename); each scenario must recover a
    committed generation bit-exactly and complete a follow-up save.
    """
    import functools

    from repro.errors import CheckpointError
    from repro.runtime import DirectoryBackend, MemoryBackend, every_site_drill

    factory = (
        functools.partial(DirectoryBackend, args.dir)
        if args.dir is not None
        else MemoryBackend
    )
    if args.dir is not None:
        # Scenarios are independent; a shared directory would leak
        # committed generations between them.
        print("note: --dir reuses one directory across scenarios; "
              "using fresh in-memory storage instead")
        factory = MemoryBackend
    try:
        report = every_site_drill(
            elems=args.elems, seed=args.seed, backend_factory=factory
        )
    except CheckpointError as exc:
        print(f"ERROR: {exc}")
        return 1
    for row in report["sites"]:
        print(
            f"site {row['site']:2d} {row['op']:6s} fate={row['fate']:6s} "
            f"-> recovered gen {row['recovered_generation']} "
            f"(iteration {row['recovered_iteration']}), follow-up gen "
            f"{row['followup_generation']}"
        )
    print(
        f"every-site drill: {report['nsites']} durable write sites, "
        f"{report['nscenarios']} crash scenarios, all recovered a "
        "committed generation bit-exactly"
    )
    return 0


def _cmd_ckpt_drill(args: argparse.Namespace) -> int:
    """Hammer the checkpointer's commit protocol with storage faults.

    Saves ``--generations`` states under injected faults; after every
    attempt, ``load_latest`` must come back with a bit-exact copy of
    some previously *committed* state — never a corrupt or staged one.
    """
    import numpy as np

    from repro.errors import CheckpointError
    from repro.runtime import (
        Checkpointer,
        CheckpointState,
        DirectoryBackend,
        FaultyBackend,
        MemoryBackend,
    )

    if args.every_site:
        return _ckpt_every_site(args)

    inner = (
        DirectoryBackend(args.dir)
        if args.dir is not None
        else MemoryBackend()
    )
    plan = _parse_storage_faults(args.faults, seed=args.seed)
    ckpt = Checkpointer(FaultyBackend(inner, plan), backoff=0.0)
    rng = np.random.default_rng(args.seed)
    committed: dict[int, np.ndarray] = {}
    corrupt_loads = 0
    save_failures = 0
    for i in range(args.generations):
        state = CheckpointState(
            weights=rng.normal(size=args.elems),
            iteration=i,
            members=tuple(range(8)),
        )
        try:
            generation = ckpt.save(state)
            committed[generation] = state.weights.copy()
        except CheckpointError:
            save_failures += 1
        try:
            state, generation = ckpt.load_latest()
        except CheckpointError:
            continue  # nothing loadable yet — acceptable early on
        if generation not in committed or not np.array_equal(
            state.weights, committed[generation]
        ):
            corrupt_loads += 1
            print(f"ERROR: load after save {i} returned generation "
                  f"{generation} with unexpected contents")
    counters = ", ".join(
        f"{k}={v}" for k, v in sorted(ckpt.counters.items()) if v
    )
    stats = ", ".join(
        f"{k}={v}" for k, v in sorted(plan.stats.snapshot().items()) if v
    )
    print(f"drill: {args.generations} save attempts, "
          f"{save_failures} exhausted the retry budget")
    print(f"checkpointer: {counters}")
    print(f"injected: {stats or 'nothing'}")
    print("corrupt or uncommitted generation loaded: "
          + (f"{corrupt_loads} time(s)" if corrupt_loads else "never"))
    return 0 if corrupt_loads == 0 else 1


def _cmd_ckpt_inspect(args: argparse.Namespace) -> int:
    from repro.runtime import Checkpointer, DirectoryBackend

    ckpt = Checkpointer(DirectoryBackend(args.dir))
    generations = ckpt.generations()
    if not generations:
        print(f"{args.dir}: no committed generations")
        return 1
    bad = 0
    for generation in generations:
        problems = ckpt.validate(generation)
        if problems:
            bad += 1
            print(f"gen {generation}: CORRUPT")
            for problem in problems:
                print(f"  {problem}")
        else:
            state = ckpt.load(generation)
            print(
                f"gen {generation}: ok — iteration "
                f"{state.iteration}, {len(state.members)} member(s), "
                f"{state.weights.size} elems"
            )
    print(f"{len(generations) - bad}/{len(generations)} generation(s) valid")
    return 0 if bad == 0 else 1


def _cmd_ckpt(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError

    try:
        if args.ckpt_command == "inspect":
            return _cmd_ckpt_inspect(args)
        return _cmd_ckpt_drill(args)
    except (ConfigError, OSError) as exc:
        print(f"repro ckpt: error: {exc}", file=sys.stderr)
        return 2


def _cmd_info(_args: argparse.Namespace) -> int:
    print(f"repro {__version__} — C-Cube (HPCA 2023) reproduction")
    print("\nnetworks:")
    for name, builder in sorted(NETWORKS.items()):
        net = builder()
        print(
            f"  {name:<10} {len(net):>3} layers  "
            f"{net.total_params / 1e6:7.1f}M params  "
            f"{net.total_bytes / 2**20:7.1f} MiB gradients"
        )
    print("\nstrategies: " + ", ".join(
        f"{s.value} ({s.algorithm})" for s in Strategy
    ))
    return 0


def _synth_dgx1_nolink37():
    from repro.topology.dgx1 import dgx1_topology

    topo = dgx1_topology().without_link(3, 7)
    topo.name = "dgx1-nolink37"
    return topo


def _synth_dgx1_quad_dead():
    from repro.topology.dgx1 import dgx1_topology
    from repro.topology.tree_search import survivor_topology

    topo, _ = survivor_topology(dgx1_topology(), [1, 2, 3, 4])
    topo.name = "dgx1-quad-dead"
    return topo


#: Named topologies for ``repro synth tune --topology``.
_SYNTH_TOPOLOGIES = {
    "dgx1": lambda: __import__(
        "repro.topology.dgx1", fromlist=["dgx1_topology"]
    ).dgx1_topology(),
    "dgx2": lambda: __import__(
        "repro.topology.dgx2", fromlist=["dgx2_topology"]
    ).dgx2_topology(),
    "dgx1-nolink37": _synth_dgx1_nolink37,
    "dgx1-quad-dead": _synth_dgx1_quad_dead,
    "switch8": lambda: __import__(
        "repro.topology.switch", fromlist=["switch_topology"]
    ).switch_topology(8, radix=4),
}


def _cmd_synth_tune(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.synth.fabrics import topology_from_json
    from repro.synth.store import PlanStore
    from repro.synth.tune import (
        SMOKE_SIZES,
        SWEEP_SIZES,
        format_tune_table,
        tune,
    )

    if args.topology_json:
        topo = topology_from_json(Path(args.topology_json))
    else:
        topo = _SYNTH_TOPOLOGIES[args.topology]()
    if args.sizes:
        sizes = tuple(
            float(s) for s in args.sizes.split(",") if s.strip()
        )
    else:
        sizes = SMOKE_SIZES if args.smoke else SWEEP_SIZES
    result = tune(topo, sizes=sizes, seed=args.seed,
                  prune=not args.no_prune)
    print(format_tune_table(result))
    if args.store:
        store = PlanStore(args.store)
        for winner in result.winners:
            key = store.put(
                topo,
                winner.nbytes,
                winner.best.plan,
                strategy=winner.best.strategy,
                source=winner.best.source,
                time=winner.best.time,
            )
            print(f"stored {key}")
    return 0


def _cmd_synth_show(args: argparse.Namespace) -> int:
    from repro.synth.store import PlanStore

    entries = PlanStore(args.store).entries()
    if not entries:
        print("plan store is empty")
        return 0
    for entry in entries:
        print(
            f"{entry['fingerprint']}  {entry['nbytes']:>12.0f} B  "
            f"{entry['strategy']:<16} ({entry['source']})  "
            f"{entry['time'] * 1e6:>9.1f} us  "
            f"[{entry['topology_name']}]"
        )
    return 0


def _cmd_synth_clear(args: argparse.Namespace) -> int:
    from repro.synth.store import PlanStore

    count = PlanStore(args.store).clear()
    print(f"dropped {count} cached plans")
    return 0


def _cmd_synth_soak(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import SynthesisError
    from repro.synth.fabrics import random_fabric, topology_to_json
    from repro.synth.search import synthesize_plan

    failures = 0
    for i in range(args.fabrics):
        seed = args.seed + i
        topo = random_fabric(seed)
        try:
            candidate = synthesize_plan(
                topo, 4e6, nchunks=2, pipelines=(1,), seed=seed
            )
        except SynthesisError as exc:
            failures += 1
            print(f"seed {seed}: FAIL on {topo.name!r}: {exc}")
            if args.save_dir:
                out_dir = Path(args.save_dir)
                out_dir.mkdir(parents=True, exist_ok=True)
                out = out_dir / f"soak_fail_seed{seed}.json"
                out.write_text(topology_to_json(topo))
                print(f"  topology dumped to {out}")
            continue
        print(
            f"seed {seed}: ok on {topo.name!r} — "
            f"{candidate.strategy} ({len(candidate.plan.ops)} ops, "
            f"{candidate.time * 1e6:.1f} us)"
        )
    print(
        f"soak: {args.fabrics - failures}/{args.fabrics} fabrics "
        "synthesized and verified"
    )
    return 1 if failures else 0


def _cmd_synth(args: argparse.Namespace) -> int:
    handlers = {
        "tune": _cmd_synth_tune,
        "show": _cmd_synth_show,
        "clear": _cmd_synth_clear,
        "soak": _cmd_synth_soak,
    }
    from repro.errors import ConfigError, SynthesisError

    try:
        return handlers[args.synth_command](args)
    except (ConfigError, SynthesisError) as exc:
        print(f"synth error: {exc}", file=sys.stderr)
        return 2


_COMMANDS = {
    "compare": _cmd_compare,
    "synth": _cmd_synth,
    "figures": _cmd_figures,
    "autotune": _cmd_autotune,
    "chaos": _cmd_chaos,
    "plan": _cmd_plan,
    "analyze": _cmd_analyze,
    "sanitize": _cmd_sanitize,
    "fuzz": _cmd_fuzz,
    "ckpt": _cmd_ckpt,
    "info": _cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ConfigError

    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        # A bad argument the parser cannot see (``--batch 0``): the
        # same one-line error and exit 2 as every subcommand's own.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
