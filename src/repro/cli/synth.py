"""``repro synth``: topology-driven plan synthesis (DESIGN.md §12) —
tune per-size winners, manage the plan store, soak random fabrics."""

from __future__ import annotations

import argparse

from repro.cli import positive_int


#: Named topologies for ``repro synth tune --topology``.
TOPOLOGIES = ("dgx1", "dgx2", "dgx1-nolink37", "dgx1-quad-dead", "switch8")


def _topology(name: str):
    """The topology ``--topology`` names."""
    from repro.topology.dgx1 import dgx1_topology
    from repro.topology.dgx2 import dgx2_topology
    from repro.topology.switch import switch_topology
    from repro.topology.tree_search import survivor_topology

    if name == "dgx2":
        return dgx2_topology()
    if name == "switch8":
        return switch_topology(8, radix=4)
    topo = dgx1_topology()
    if name == "dgx1-nolink37":
        topo = topo.without_link(3, 7)
    elif name == "dgx1-quad-dead":
        topo, _ = survivor_topology(topo, [1, 2, 3, 4])
    topo.name = name
    return topo


def add_synth(sub) -> None:
    synth = sub.add_parser(
        "synth",
        help="topology-driven plan synthesis: tune winners per message "
             "size, manage the plan store, soak random fabrics "
             "(see DESIGN.md §12)",
    )
    synth_sub = synth.add_subparsers(dest="synth_command", required=True)

    tune = synth_sub.add_parser(
        "tune",
        help="synthesize + autotune plans for a topology and print the "
             "per-size winner table",
    )
    tune.add_argument("--topology", default="dgx1",
                      choices=sorted(TOPOLOGIES),
                      help="named topology (default: dgx1)")
    tune.add_argument("--topology-json", default=None,
                      help="tune a topology loaded from a JSON file "
                           "instead (overrides --topology)")
    tune.add_argument("--smoke", action="store_true",
                      help="two-size CI sweep instead of the full size "
                           "ladder")
    tune.add_argument("--sizes", default=None,
                      help="comma-separated message sizes in bytes "
                           "(overrides --smoke)")
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--no-prune", action="store_true",
                      help="simulate every gated candidate instead of "
                           "pruning by the static lower bound (same "
                           "winners, more DES runs)")
    tune.add_argument("--store", default=None,
                      help="persist each size's winner into this "
                           "plan-store directory")
    tune.set_defaults(run=_tune)

    show = synth_sub.add_parser(
        "show", help="list the plan store's cached winners"
    )
    show.add_argument("--store", required=True, help="plan-store directory")
    show.set_defaults(run=_show)

    clear = synth_sub.add_parser(
        "clear", help="drop every cached plan from the store"
    )
    clear.add_argument("--store", required=True, help="plan-store directory")
    clear.set_defaults(run=_clear)

    soak = synth_sub.add_parser(
        "soak",
        help="synthesize + verify plans over seeded random fabrics; "
             "failing topologies are dumped as JSON artifacts",
    )
    soak.add_argument("--fabrics", type=positive_int, default=20,
                      help="how many random fabrics to try")
    soak.add_argument("--seed", type=int, default=0,
                      help="first fabric seed (fabric i uses seed+i)")
    soak.add_argument("--save-dir", default=None,
                      help="directory for failing-topology JSON "
                           "artifacts")
    soak.set_defaults(run=_soak)


def _tune(args: argparse.Namespace) -> int:
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
        topo = _topology(args.topology)
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


def _show(args: argparse.Namespace) -> int:
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


def _clear(args: argparse.Namespace) -> int:
    from repro.synth.store import PlanStore

    count = PlanStore(args.store).clear()
    print(f"dropped {count} cached plans")
    return 0


def _soak(args: argparse.Namespace) -> int:
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
