"""``repro chaos``: fault-injection drills on the functional runtime.

``crash --recover`` and ``plan`` run one crash drill (Observation #4:
crash -> abort -> re-embed -> bit-exact resume); ``plan`` starts it
with ``--initial-dead`` GPUs already gone, so every iteration runs a
synthesized fallback plan through the interpreter.
"""

from __future__ import annotations

import argparse

from repro.cli import positive_int
from repro.errors import ConfigError

#: SGD step size of every chaos training drill.
_LR = 0.02


def add_chaos(sub) -> None:
    chaos = sub.add_parser(
        "chaos", help="fault-injection drills on the functional runtime"
    )
    chaos.add_argument(
        "scenario",
        choices=tuple(_SCENARIOS),
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
    chaos.add_argument("--elems", type=positive_int, default=512,
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
                       help="elastic / plan / crash --recover: run N "
                            "trials at seeds seed..seed+N-1 and require "
                            "every one bit-exact")
    chaos.add_argument("--save-dir", default=None,
                       help="elastic / plan / crash --recover with "
                            "--soak: write failing-trial reports here as "
                            "JSON")
    chaos.add_argument("--cascade", action="store_true",
                       help="plan / crash --recover: arm a second seeded "
                            "crash while the job is already running "
                            "degraded on the re-embedded plan")
    chaos.add_argument("--initial-dead", default="1,2,3,4",
                       help="plan: comma-separated GPUs already dead at "
                            "start; the survivor set must need a "
                            "synthesized fallback plan")
    chaos.set_defaults(run=lambda args: _SCENARIOS[args.scenario](args))


def _runtime(args: argparse.Namespace, plan, *, timeout: float):
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


def _problem(rng, elems: int):
    """The drills' toy problem: a one-layer network, the gradient of 8
    quadratic targets, and the initial weights, drawn from ``rng`` in
    that order."""
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
        learning_rate=_LR,
        policy=RecoveryPolicy(mode=policy),
        spin=SpinConfig(timeout=30.0),
        detour_preference=DETOUR_NODES,
        search_seed=seed,
        **kwargs,
    )


def _drops(args: argparse.Namespace) -> int:
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
    runtime = _runtime(args, plan, timeout=30.0)
    net, gradient_fn, w0 = _problem(
        np.random.default_rng(args.seed), args.elems
    )
    trainer = FunctionalTrainer(runtime, net, gradient_fn, learning_rate=_LR)
    result = trainer.train(w0.copy(), iterations=args.iterations)
    reference = serial_reference(
        net, gradient_fn, w0.copy(),
        nnodes=8, iterations=args.iterations, learning_rate=_LR,
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


def _crash(args: argparse.Namespace) -> int:
    if args.recover:
        return _crash_drill(args, initial_dead=())
    return _kill(args, timeout=10.0)


def _kill(args: argparse.Namespace, *, timeout: float) -> int:
    """``crash`` / ``stuck``: GPU ``--gpu`` (default 3) gets the fault
    kind of the scenario's name after one chunk, and the cluster must
    abort with diagnostics instead of finishing."""
    import time

    import numpy as np

    from repro.errors import AbortedError
    from repro.runtime import FaultPlan, GpuFault

    gpu = 3 if args.gpu is None else args.gpu
    plan = FaultPlan(
        gpu_faults=(GpuFault(gpu, args.scenario, after_chunk=1),)
    )
    runtime = _runtime(args, plan, timeout=timeout)
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


def _plan(args: argparse.Namespace) -> int:
    try:
        initial_dead = tuple(sorted(
            int(t) for t in args.initial_dead.split(",") if t.strip()
        ))
    except ValueError:
        raise ConfigError(
            f"bad --initial-dead {args.initial_dead!r}: expected "
            "comma-separated GPU ids"
        ) from None
    return _crash_drill(args, initial_dead=initial_dead)


def _crash_drill(args: argparse.Namespace, *, initial_dead) -> int:
    """The crash drill on :class:`~repro.runtime.ResilientTrainer`.
    Victim, crash iteration and chunk come from the trial's seed unless
    pinned, so a ``--soak`` is a seed sweep over the recovery path."""
    return _soak(
        args,
        lambda args, seed: _crash_trial(args, seed, initial_dead),
        lambda detail: f"victim gpu {detail['victim']}" + (
            f" + cascade gpu {detail['cascade_victim']}"
            if args.cascade else ""
        ),
    )


def _crash_trial(args: argparse.Namespace, seed: int, initial_dead):
    """One crash drill; returns (ok, lines, detail)."""
    import numpy as np

    from repro.runtime import (
        FaultPlan,
        GpuFault,
        ResilientTrainer,
        recovery_serial_reference,
    )
    from repro.runtime.faults import CRASH

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

    net, gradient_fn, w0 = _problem(rng, args.elems)
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
        f"{len(survivors)} survivors on a synthesized plan"
    ] if initial_dead else []
    lines.append(
        f"injected crash: gpu {victim}, iteration {crash_at}, "
        f"chunk {after_chunk} (seed {seed})"
        + (f"; cascade crash: gpu {cascade_victim}" if args.cascade else "")
    )
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
    if report.decision is not None:
        lines.append(
            f"policy: {report.decision.action} — "
            f"degraded {report.decision.degraded_cost * 1e3:.3f} ms vs "
            f"restart {report.decision.restart_cost * 1e3:.3f} ms"
        )
    identical = False
    if ok:
        reference = recovery_serial_reference(
            net, gradient_fn, w0.copy(),
            report=report,
            healthy_trees=trainer.trees,
            healthy_layout=trainer.layout,
            iterations=iterations,
            learning_rate=_LR,
        )
        identical = bool(np.array_equal(report.weights, reference))
        lines.append(
            "recovered weights bit-identical to serial recovery "
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


def _elastic(args: argparse.Namespace) -> int:
    """Elastic membership drill: crash/leave/join under checkpoints.
    Every membership change re-embeds over a verified plan, and every
    trial must end bit-identical to the multi-segment serial reference.
    """
    return _soak(
        args, _elastic_trial,
        lambda detail: "members " + "->".join(
            str(len(s["members"])) for s in detail["segments"]
        ),
    )


def _elastic_trial(args: argparse.Namespace, seed: int):
    """One elastic drill; returns (ok, summary_lines, detail_dict)."""
    import numpy as np

    from repro.cli.ckpt import parse_storage_faults
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
    net, gradient_fn, w0 = _problem(np.random.default_rng(seed), args.elems)

    backend = MemoryBackend()
    if args.ckpt_faults:
        backend = FaultyBackend(
            backend, parse_storage_faults(args.ckpt_faults, seed=seed)
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
        learning_rate=_LR,
    )
    identical = bool(np.array_equal(report.weights, reference))
    all_verified = all(r.plan_check.verified for r in report.records)

    lines = ["events: " + ", ".join(
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


def _soak(args: argparse.Namespace, trial, describe) -> int:
    """Run ``trial(args, seed)`` for ``--seed``, or for ``--soak`` seeds
    from it.

    A single trial prints its full log; a soak prints one line per seed
    (``describe(detail)`` then the verdict) and a summary.  A failing
    trial's detail is written to
    ``--save-dir/<scenario>-seed-<seed>.json``.  Exit 0 only if every
    trial passed.
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
                path = out / f"{args.scenario}-seed-{seed}.json"
                path.write_text(json.dumps(detail, indent=2))
                print(f"  failing trial written to {path}")
    if args.soak > 0:
        print(
            f"soak: {len(trials) - failures}/{len(trials)} trials bit-exact"
        )
    return 0 if failures == 0 else 1


def _link_failure(_args: argparse.Namespace) -> int:
    from repro.experiments import ext_faults

    print(ext_faults.format_table(ext_faults.run()))
    return 0


_SCENARIOS = {
    "drops": _drops,
    "crash": _crash,
    "stuck": lambda args: _kill(args, timeout=2.0),
    "link-failure": _link_failure,
    "elastic": _elastic,
    "plan": _plan,
}
