"""``repro sanitize`` and ``repro fuzz``: run the registered runtime
scenarios under the race tracer or under seeded adversarial schedules,
and fuzz plans by mutation."""

from __future__ import annotations

import argparse

from repro.cli import positive_int
from repro.cli.plans import ALGORITHMS
from repro.errors import ConfigError


def add_sanitize(sub) -> None:
    sanitize = sub.add_parser(
        "sanitize",
        help="device-memory sanitizer: race / wait-cycle "
             "analysis of the virtual-GPU runtimes",
    )
    sanitize_sub = sanitize.add_subparsers(dest="sanitize_command",
                                           required=True)

    run = sanitize_sub.add_parser(
        "run", help="run scenarios under the vector-clock tracer"
    )
    run.add_argument("--all", action="store_true", dest="run_all",
                     help="every scenario: all shipped runtimes must "
                          "come back clean AND every seeded-broken "
                          "kernel must be flagged (the default when "
                          "no --scenario is given)")
    run.add_argument("--scenario", action="append", default=None,
                     help="run one named scenario (repeatable; "
                          "see `sanitize list`)")
    run.add_argument("--elems", type=positive_int, default=64,
                     help="gradient element count per scenario")
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="emit a machine-readable findings document")
    run.add_argument("--out", default="-",
                     help="where to write the --json document "
                          "(default: stdout)")
    run.set_defaults(run=_sanitize_run)

    report = sanitize_sub.add_parser(
        "report", help="render a saved `sanitize run --json` document"
    )
    report.add_argument("file", help="findings JSON path")
    report.set_defaults(run=_sanitize_report)

    sanitize_sub.add_parser(
        "list", help="list registered scenarios"
    ).set_defaults(run=_sanitize_list)


def add_fuzz(sub) -> None:
    fuzz = sub.add_parser(
        "fuzz",
        help="schedule-space fuzzer: run scenarios under seeded "
             "adversarial interleavings with replayable failures",
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    run = fuzz_sub.add_parser(
        "run", help="fuzz scenarios across many seeded schedules"
    )
    run.add_argument("--all", action="store_true", dest="run_all",
                     help="every registered scenario (the default "
                          "when no --scenario is given): healthy "
                          "runtimes must survive every schedule "
                          "clean, seeded kernels must be detected "
                          "within the budget")
    run.add_argument("--scenario", action="append", default=None,
                     help="fuzz one named scenario (repeatable; "
                          "see `sanitize list`)")
    run.add_argument("--schedules", type=positive_int, default=50,
                     help="schedule budget per scenario")
    run.add_argument("--seed", type=int, default=0,
                     help="base seed; schedule i runs seed+i")
    run.add_argument("--policy", choices=("random", "pct"),
                     default="random")
    run.add_argument("--elems", type=positive_int, default=64,
                     help="gradient element count per scenario")
    run.add_argument("--quantum", type=float, default=2e-4,
                     help="scheduler sleep quantum in seconds")
    run.add_argument("--save-dir", default=None,
                     help="write minimized failing seed files here "
                          "(replay with `fuzz replay`)")
    run.add_argument("--no-shrink", action="store_true",
                     help="keep failing traces unminimized")
    run.set_defaults(run=_fuzz_run)

    replay = fuzz_sub.add_parser(
        "replay", help="re-run a stored failing schedule from its "
                       "minimized decision trace"
    )
    replay.add_argument("file", help="fuzz seed-file path (JSON)")
    replay.set_defaults(run=_fuzz_replay)

    report = fuzz_sub.add_parser(
        "report", help="render a stored fuzz seed file"
    )
    report.add_argument("file", help="fuzz seed-file path (JSON)")
    report.set_defaults(run=_fuzz_report)

    mutate = fuzz_sub.add_parser(
        "mutate",
        help="plan-mutation fuzz: drop/duplicate/swap plan ops and "
             "check the static verifier's verdict against actual "
             "runtime behaviour",
    )
    mutate.add_argument("--algorithm", action="append", default=None,
                        choices=ALGORITHMS,
                        help="plan builder to mutate (repeatable; "
                             "default: ring + double_tree)")
    mutate.add_argument("--mutants", type=positive_int, default=40,
                        help="mutants per algorithm")
    mutate.add_argument("--nnodes", type=int, default=4)
    mutate.add_argument("--nchunks", type=int, default=2,
                        help="pipeline chunks per tree (tree builders)")
    mutate.add_argument("--elems", type=positive_int, default=64,
                        help="gradient element count")
    mutate.add_argument("--seed", type=int, default=0)
    mutate.set_defaults(run=_fuzz_mutate)


def _scenario_names(requested: list[str] | None) -> list[str]:
    """The scenarios ``--scenario`` names, or every registered one."""
    from repro.sanitizer import SCENARIOS

    if not requested:
        return list(SCENARIOS)
    unknown = [n for n in requested if n not in SCENARIOS]
    if unknown:
        raise ConfigError(
            f"unknown scenario(s) {unknown}; see `repro sanitize list`"
        )
    return requested


def _sanitize_list(_args: argparse.Namespace) -> int:
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


def _sanitize_run(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.experiments.report import render_table
    from repro.sanitizer import SCENARIOS, run_scenario

    rows = []
    documents = []
    failures = 0
    for name in _scenario_names(args.scenario):
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


def _sanitize_report(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.sanitizer import render_report_dict

    try:
        data = json.loads(Path(args.file).read_text())
    except ValueError as exc:
        raise ConfigError(f"findings document does not parse: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("findings document must be a JSON object")
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


def _fuzz_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.report import render_table
    from repro.fuzz import fuzz_scenario, save_failure

    rows = []
    failures = 0
    for name in _scenario_names(args.scenario):
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


def _fuzz_replay(args: argparse.Namespace) -> int:
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


def _fuzz_report(args: argparse.Namespace) -> int:
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


def _fuzz_mutate(args: argparse.Namespace) -> int:
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
