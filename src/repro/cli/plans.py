"""``repro plan`` and ``repro analyze``: build, verify, export, run
and statically analyze collective plans.  Both verify or analyze the
same eight builtin plans (``--all``) or one plan file."""

from __future__ import annotations

import argparse
import sys

from repro.cli import positive_int

#: Every plan builder, in the order ``--all`` walks them.
ALGORITHMS = ("ring", "tree", "double_tree", "halving_doubling")


def _add_plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algorithm", choices=ALGORITHMS, default="double_tree")
    p.add_argument("--nnodes", type=int, default=8)
    p.add_argument("--nbytes", type=float, default=4096.0,
                   help="message size in bytes")
    p.add_argument("--nchunks", type=int, default=4,
                   help="pipeline chunks per tree (tree builders)")
    p.add_argument("--physical", action="store_true",
                   help="compile onto the DGX-1 topology (route "
                        "legalization + lane assignment); double_tree "
                        "uses the paper's tree pair")


def add_plan(sub) -> None:
    plan = sub.add_parser(
        "plan",
        help="compile collectives to verifiable plans of primitive ops",
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)

    show = plan_sub.add_parser(
        "show", help="print the per-GPU program listing of a plan"
    )
    _add_plan_args(show)
    show.set_defaults(run=_show)

    verify = plan_sub.add_parser(
        "verify", help="statically verify plans (exactly-once reduce/"
                       "broadcast, deadlock-freedom, physical legality)"
    )
    _add_plan_args(verify)
    verify.add_argument("file", nargs="?", default=None,
                        help="serialized plan JSON to verify instead of "
                             "building one (logical checks only)")
    verify.add_argument("--all", action="store_true", dest="every",
                        help="verify every builder, raw and compiled "
                             "onto DGX-1 (CI smoke)")
    verify.set_defaults(run=_verify)

    export = plan_sub.add_parser(
        "export", help="serialize a plan to JSON (load back with "
                       "`plan verify <file>`)"
    )
    _add_plan_args(export)
    export.add_argument("--out", default="-",
                        help="output path (default: stdout)")
    export.set_defaults(run=_export)

    run = plan_sub.add_parser(
        "run", help="execute a plan on the thread-backed runtime"
    )
    _add_plan_args(run)
    run.add_argument("--elems", type=positive_int, default=512,
                     help="gradient element count")
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(run=_run)


def add_analyze(sub) -> None:
    analyze = sub.add_parser(
        "analyze",
        help="static plan analysis: prove ordering properties, which "
             "wires may be zero-copy, and the contention lower bound "
             "on the IR, no simulation (see DESIGN.md §13)",
    )
    _add_plan_args(analyze)
    analyze.add_argument("file", nargs="?", default=None,
                         help="serialized plan JSON to analyze instead "
                              "of building one")
    analyze.add_argument("--all", action="store_true", dest="every",
                         help="analyze every builder, raw and compiled "
                              "onto DGX-1 (CI smoke)")
    analyze.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the diagnostic report as JSON")
    analyze.add_argument("--sarif", default=None, metavar="PATH",
                         help="also write a SARIF 2.1.0 report to PATH "
                              "('-' for stdout)")
    analyze.set_defaults(run=_analyze)


def _build(args: argparse.Namespace, algorithm: str, physical: bool):
    """Build ``algorithm`` at ``args``' size, compiled onto DGX-1 when
    ``physical``; returns ``(plan, topo)``, ``topo=None`` if logical."""
    from repro.plan import build_plan, compile_plan
    from repro.topology.dgx1 import DETOUR_NODES, dgx1_topology
    from repro.topology.routing import Router

    kwargs = {}
    if algorithm in ("tree", "double_tree"):
        kwargs["nchunks"] = args.nchunks
        kwargs["overlapped"] = True
    if physical and algorithm == "double_tree" and args.nnodes == 8:
        from repro.topology.dgx1_trees import dgx1_trees

        kwargs["trees"] = dgx1_trees()
    plan = build_plan(algorithm, args.nnodes, args.nbytes, **kwargs)
    if not physical:
        return plan, None
    topo = dgx1_topology()
    router = Router(topo, detour_preference=DETOUR_NODES)
    compiled, _reports = compile_plan(plan, topo, router=router)
    return compiled, topo


def _cases(args: argparse.Namespace):
    """``(algorithm, target, plan, topo)`` for the eight builtin plans
    with ``--all`` (every builder, logical then on DGX-1), else for the
    one plan the flags ask for."""
    if not args.every:
        yield (args.algorithm, "dgx1" if args.physical else "logical",
               *_build(args, args.algorithm, args.physical))
        return
    for physical in (False, True):
        for algorithm in ALGORITHMS:
            yield (algorithm, "dgx1" if physical else "logical",
                   *_build(args, algorithm, physical))


def _load(path: str):
    """The plan serialized at ``path``."""
    from pathlib import Path

    from repro.plan import Plan

    return Plan.from_json(Path(path).read_text())


def _show(args: argparse.Namespace) -> int:
    plan, _topo = _build(args, args.algorithm, args.physical)
    print(plan.describe())
    return 0


def _verify(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table
    from repro.plan import verify_plan

    if args.file is not None:
        plan = _load(args.file)
        report = verify_plan(plan, raise_on_error=False)
        print(
            f"{args.file}: {len(plan.ops)} ops, {plan.nnodes} GPUs, "
            f"{plan.nchunks} chunks ({plan.algorithm})"
        )
        if report.ok:
            print("verdict: ok")
            return 0
        print("verdict: FAIL")
        for diagnostic in report.diagnostics:
            print(f"  {diagnostic}")
        return 1
    rows = []
    failures = 0
    for algorithm, target, plan, topo in _cases(args):
        report = verify_plan(plan, topo=topo, raise_on_error=False)
        failures += 0 if report.ok else 1
        rows.append((
            algorithm,
            target,
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


def _export(args: argparse.Namespace) -> int:
    from pathlib import Path

    plan, _topo = _build(args, args.algorithm, args.physical)
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


def _run(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.plan import PlanInterpreter
    from repro.runtime.sync import SpinConfig

    plan, _topo = _build(args, args.algorithm, args.physical)
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


def _analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analyze import analyze_plan
    from repro.experiments.report import render_table

    if not args.every:
        if args.file is not None:
            plan, topo = _load(args.file), None
        else:
            plan, topo = _build(args, args.algorithm, args.physical)
        report = analyze_plan(plan, topo=topo)
        if args.as_json:
            print(json.dumps(report.to_json_dict(), indent=2))
        else:
            print(report.describe())
        if args.sarif:
            _write_sarif(report.report.diagnostics, args.sarif)
        return 0 if report.ok else 1
    rows = []
    failures = 0
    diagnostics = []
    for algorithm, target, plan, topo in _cases(args):
        report = analyze_plan(plan, topo=topo)
        failures += 0 if report.ok else 1
        diagnostics.extend(report.report.diagnostics)
        lb = report.lower_bound
        rows.append((
            algorithm,
            target,
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
