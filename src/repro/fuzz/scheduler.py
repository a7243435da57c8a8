"""The chaos scheduler: applies a policy at every traced sync point.

A :class:`ChaosScheduler` registers on the hook layer's scheduler stack
(:func:`repro.sanitizer.hooks.push_scheduler`); the runtime's ``_emit``
instrumentation in :mod:`repro.runtime.sync` / ``memory`` / ``cluster``
offers it every semantic event *before* tracer dispatch.  For each
event the scheduler assigns the calling thread its next per-thread
decision index, asks the policy, and applies the verdict in place:
proceed, yield the GIL, or sleep a few quanta — stretching exactly the
windows between synchronization operations where an adversarial real
scheduler (or a DGX-1's persistent kernels) could interleave another
thread.

``sem_block`` events are ignored: a failed spin retry is
timing-dependent, and counting it would make decision indices — and
therefore replays — nondeterministic.

Only *perturbations* are recorded (``trace()``): with a pure policy the
proceed decisions are reconstructible, and a sparse trace is what the
shrinker deletes from and the replayer re-applies.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from repro.sanitizer import hooks as _hooks

from .policy import SchedulePolicy

__all__ = ["ScheduleDecision", "ChaosScheduler", "fuzzing"]

#: Event kinds that never become decision points (timing-dependent).
_NON_DETERMINISTIC = ("sem_block",)


@dataclass(frozen=True)
class ScheduleDecision:
    """One applied perturbation: who was held up, where, and how.

    Attributes:
        thread: thread name (kernel pool threads carry kernel names).
        index: the thread's decision-point counter at the time.
        kind: event kind at the point (``sem_post``, ``write``, ...) —
            diagnostic context; replay keys on (thread, index) only.
        action: ``"y"`` (yield) or ``"s<quanta>"`` (sleep).
    """

    thread: str
    index: int
    kind: str
    action: str

    def row(self) -> list:
        return [self.thread, self.index, self.kind, self.action]


class ChaosScheduler:
    """Drives one fuzzed schedule; safe for concurrent decision points.

    Args:
        policy: the :class:`~repro.fuzz.policy.SchedulePolicy` deciding
            each point.
        quantum: seconds per sleep quantum.  Kept small: several
            emission points hold a device lock, and a sleeping holder
            only *delays* spinning peers, but the delay must stay well
            under every spin timeout.
        tail: recent perturbations retained for abort dumps.
    """

    def __init__(
        self,
        policy: SchedulePolicy,
        *,
        quantum: float = 2e-4,
        tail: int = 10,
    ):
        self.policy = policy
        self.quantum = quantum
        # The scheduler must not use the primitives it perturbs.
        self._lock = threading.Lock()  # sync-lint: allow(raw-threading)
        self._counters: dict[str, int] = {}
        self._decisions: list[ScheduleDecision] = []
        self._tail: deque[str] = deque(maxlen=tail)
        self.npoints = 0

    # -- the interception point ------------------------------------------

    def on_point(self, channel: str, kind: str, target: object) -> None:
        """One traced event (sync op or chunk access) by this thread."""
        if kind in _NON_DETERMINISTIC:
            return
        name = threading.current_thread().name
        with self._lock:
            index = self._counters.get(name, 0)
            self._counters[name] = index + 1
            self.npoints += 1
        decision = self.policy.decide(name, index, kind)
        if not decision.is_perturbation:
            return
        shown = f"{name}#{index} {kind}" + (
            f"@{target}" if target else ""
        )
        with self._lock:
            self._decisions.append(
                ScheduleDecision(name, index, kind, decision.action)
            )
            self._tail.append(f"{shown} -> {decision.action}")
        if decision.action == "y":
            time.sleep(0)
        else:
            time.sleep(self.quantum * decision.sleep_quanta)

    # -- results ----------------------------------------------------------

    def trace(self) -> list[ScheduleDecision]:
        """Applied perturbations, sorted by (thread, index).

        The sort removes the only nondeterminism left (the global order
        threads happened to reach their points in), so two runs with
        the same policy produce byte-identical serialized traces.
        """
        with self._lock:
            return sorted(
                self._decisions, key=lambda d: (d.thread, d.index)
            )

    def dump_tail(self) -> str:
        """Seed + recent decisions, for AbortCell diagnostic dumps."""
        with self._lock:
            tail = list(self._tail)
            ndec = len(self._decisions)
        lines = [
            f"policy {self.policy.describe()}, quantum={self.quantum}, "
            f"{self.npoints} points, {ndec} perturbations"
        ]
        lines.append(
            "recent: " + (" | ".join(tail) if tail else "(none)")
        )
        return "\n".join(lines)


@contextmanager
def fuzzing(policy: SchedulePolicy, *, quantum: float = 2e-4):
    """Run a scope under a fresh :class:`ChaosScheduler`; yields it.

    ::

        with fuzzing(RandomWalkPolicy(seed=7)) as sched:
            runtime.run(inputs)
        trace = sched.trace()
    """
    scheduler = ChaosScheduler(policy, quantum=quantum)
    _hooks.push_scheduler(scheduler)
    try:
        yield scheduler
    finally:
        _hooks.pop_scheduler()
