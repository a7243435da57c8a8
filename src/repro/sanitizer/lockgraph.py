"""Wait-graph analyses over the recorded sync trace.

Two detectors, both replay-based (pure functions of tracer state):

1. **Blocked wait cycle** — when a run aborts with threads still
   spinning, the final blocked set is analyzed: thread T blocked on
   semaphore S *waits for* every thread that has been observed posting
   S; a cycle of blocked threads is the deadlock the 30 s spin timeout
   would otherwise report as an anonymous hang.

2. **Conditional-post cycle** — from a *successful* run: semaphore
   ``s`` depends on ``s'`` if **every** post of ``s`` in the trace is
   preceded, in its posting thread's program order, by a blocking
   wait/check on ``s'`` (a semaphore with at least one unconditional
   post holds initial credit and breaks any cycle through it, which is
   exactly why the ring — whose kernels all post before their first
   wait — is clean).  A dependency cycle means no post in the cycle can
   be the first to happen without credit, i.e. a reordered post/wait
   pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BlockedWait",
    "WaitCycleFinding",
    "PostOrderCycleFinding",
    "find_wait_cycles",
    "find_post_order_cycles",
]


@dataclass(frozen=True)
class BlockedWait:
    """A thread that was still spinning when the run ended."""

    thread: str
    sem: str
    what: str
    site: str

    def describe(self) -> str:
        return (
            f"{self.thread!r} blocked in {self.what} on {self.sem!r} "
            f"at {self.site}"
        )


@dataclass(frozen=True)
class WaitCycleFinding:
    """A cycle of blocked threads, each waiting on a semaphore whose
    only observed posters are also blocked."""

    waiters: tuple[BlockedWait, ...]

    def describe(self) -> str:
        lines = ["SEMAPHORE WAIT CYCLE (deadlock):"]
        n = len(self.waiters)
        for i, wait in enumerate(self.waiters):
            poster = self.waiters[(i + 1) % n].thread
            lines.append(
                f"  {wait.describe()} — posted only by {poster!r}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PostOrderCycleFinding:
    """Semaphores whose posts all transitively require each other."""

    sems: tuple[str, ...]

    def describe(self) -> str:
        order = " -> ".join(self.sems + (self.sems[0],))
        return (
            f"CONDITIONAL-POST CYCLE: {order} — every post of each "
            "semaphore is preceded by a wait on the next; no initial "
            "credit can enter the cycle"
        )


def _cycles(graph: dict[str, set[str]]) -> list[tuple[str, ...]]:
    """Strongly connected components with >1 node, or a self-loop.

    Iterative Tarjan; graphs here are tiny (threads/semaphores of one
    run), so clarity over micro-optimization.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[tuple[str, ...]] = []

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                comp.reverse()
                if len(comp) > 1 or node in graph.get(node, ()):
                    sccs.append(tuple(comp))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return sccs


def find_wait_cycles(
    blocked: list[BlockedWait],
    posters: dict[str, set[str]],
) -> list[WaitCycleFinding]:
    """Cycles among still-blocked threads via observed posters.

    ``posters`` maps semaphore name -> threads seen posting it.  A
    blocked thread whose semaphore has live (non-blocked) or unknown
    posters is *not* part of a provable cycle — e.g. peers starved by a
    crashed kernel block forever, but the dead poster is not blocked, so
    no cycle is reported (the abort diagnostics cover that case).
    """
    by_thread = {w.thread: w for w in blocked}
    graph: dict[str, set[str]] = {}
    for wait in blocked:
        known = posters.get(wait.sem, set())
        graph[wait.thread] = {t for t in known if t in by_thread}
    findings = []
    for comp in _cycles(graph):
        findings.append(
            WaitCycleFinding(waiters=tuple(by_thread[t] for t in comp))
        )
    return findings


def find_post_order_cycles(
    programs: dict[str, list[tuple[str, str]]],
) -> list[PostOrderCycleFinding]:
    """Dependency cycles among semaphores from per-thread sem programs.

    ``programs`` maps thread -> ordered ``(op, sem)`` list where op is
    ``post`` or ``consume`` (wait/check).
    """
    # For each post event: the set of sems its thread consumed earlier.
    post_deps: dict[str, list[frozenset[str]]] = {}
    for ops in programs.values():
        consumed: set[str] = set()
        for op, sem in ops:
            if op == "consume":
                consumed.add(sem)
            else:
                post_deps.setdefault(sem, []).append(frozenset(consumed))
    graph: dict[str, set[str]] = {}
    for sem, dep_sets in post_deps.items():
        if any(not deps for deps in dep_sets):
            continue  # an unconditional post grants initial credit
        common = frozenset.intersection(*dep_sets)
        graph[sem] = {s for s in common if s != sem}
    return [PostOrderCycleFinding(sems=comp) for comp in _cycles(graph)]
