"""``repro ckpt``: fault drills on the durable checkpointer and
inspection of a checkpoint directory's committed generations."""

from __future__ import annotations

import argparse

from repro.cli import positive_int
from repro.errors import ConfigError


def add_ckpt(sub) -> None:
    ckpt = sub.add_parser(
        "ckpt",
        help="durable checkpointer: fault drills and generation "
             "inspection",
    )
    ckpt_sub = ckpt.add_subparsers(dest="ckpt_command", required=True)

    drill = ckpt_sub.add_parser(
        "drill",
        help="hammer the two-phase commit protocol with injected "
             "storage faults; exit 0 iff no corrupt generation is ever "
             "loaded and every load falls back to a committed one",
    )
    drill.add_argument("--faults", default="torn,bitflip,fail",
                       help="comma-separated fault kinds to inject "
                            "(fail/torn/bitflip), optionally kind:prob")
    drill.add_argument("--generations", type=positive_int, default=12,
                       help="save attempts in the drill")
    drill.add_argument("--elems", type=positive_int, default=256)
    drill.add_argument("--seed", type=int, default=0)
    drill.add_argument("--dir", default=None,
                       help="run against a real directory backend here "
                            "instead of in-memory storage")
    drill.add_argument("--every-site", action="store_true",
                       help="instead of probabilistic faults, enumerate "
                            "every durable write site one save performs "
                            "(each shard, the manifest, the commit "
                            "rename) and simulate a process crash at "
                            "each, under every fate; exit 0 iff every "
                            "scenario recovers a committed generation "
                            "bit-exactly and a follow-up save succeeds")
    drill.set_defaults(run=_drill)

    inspect = ckpt_sub.add_parser(
        "inspect",
        help="validate every committed generation in a checkpoint "
             "directory (CRC, sizes, coverage)",
    )
    inspect.add_argument("dir", help="checkpoint root directory")
    inspect.set_defaults(run=_inspect)


def parse_storage_faults(spec: str, *, seed: int):
    """Build a storage-fault :class:`FaultPlan` from ``kind[:prob],...``."""
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


def _every_site(args: argparse.Namespace) -> int:
    """Crash-at-every-durable-write-site sweep over one save.

    Exhaustive rather than probabilistic: every shard write, the
    manifest write, and the commit rename each get a simulated process
    death under every applicable fate (lost/torn for writes,
    before/after for the rename); each scenario must recover a
    committed generation bit-exactly and complete a follow-up save.
    """
    from repro.errors import CheckpointError
    from repro.runtime import every_site_drill

    if args.dir is not None:
        # Scenarios are independent; a shared directory would leak
        # committed generations between them.
        print("note: --dir reuses one directory across scenarios; "
              "using fresh in-memory storage instead")
    try:
        report = every_site_drill(elems=args.elems, seed=args.seed)
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


def _drill(args: argparse.Namespace) -> int:
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
        return _every_site(args)

    inner = (
        DirectoryBackend(args.dir)
        if args.dir is not None
        else MemoryBackend()
    )
    plan = parse_storage_faults(args.faults, seed=args.seed)
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


def _inspect(args: argparse.Namespace) -> int:
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
