"""Schedule policies: who proceeds at a traced sync point, and how fast.

A policy is a **pure function** of ``(seed, thread name, per-thread
decision index)``: no shared RNG state, no dependence on the global
event order.  That is the property everything else leans on —

- the same seed produces the same per-thread decision sequence no
  matter how the threads actually interleaved, so a decision trace is
  byte-identical across runs (replay determinism);
- a recorded trace is *sparse* (perturbations only), so delta-debugging
  can shrink it by deleting entries and replaying the rest.

Two exploration policies ship:

- :class:`RandomWalkPolicy` — seeded pauses/yields: at each decision
  point a thread independently proceeds, yields the GIL, or sleeps a
  few quanta.  Cheap, uniform exploration.
- :class:`PCTPolicy` — PCT-style priorities (Burckhardt et al.): each
  thread draws a random priority; low-priority threads are slowed at
  every point, and ``change_points`` per-thread indices redraw the
  priority mid-run, forcing ordering flips that uniform noise rarely
  hits.  (Classic PCT serializes threads under a global scheduler; this
  adaptation keeps the priority + change-point structure but expresses
  priority as per-point delay so decisions stay a pure per-thread
  function — the price of deterministic replay without a cooperative
  runtime.)

:class:`ReplayPolicy` replays a recorded decision trace (applied
entries only; everything else proceeds), which is both the replay
mechanism and the shrinker's mutation vehicle.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = [
    "PROCEED",
    "YIELD",
    "Decision",
    "SchedulePolicy",
    "RandomWalkPolicy",
    "PCTPolicy",
    "ReplayPolicy",
    "policy_from_spec",
]

#: Canonical action encodings (the seed-file wire format).
PROCEED = "p"
YIELD = "y"
# Sleeps encode their quanta count: "s1", "s2", ...


@dataclass(frozen=True)
class Decision:
    """One scheduling decision at one thread's decision point.

    Attributes:
        action: :data:`PROCEED`, :data:`YIELD`, or ``"s<quanta>"``.
    """

    action: str

    @property
    def is_perturbation(self) -> bool:
        return self.action != PROCEED

    @property
    def sleep_quanta(self) -> int:
        if self.action.startswith("s"):
            return int(self.action[1:])
        return 0


_PROCEED = Decision(PROCEED)
_YIELD = Decision(YIELD)


def _unit(seed: int, thread: str, salt: str) -> float:
    """Deterministic uniform [0, 1) from (seed, thread, salt).

    ``zlib.crc32`` keyed hashing, matching the fault plan's stable
    seeding idiom — no RNG objects, so policies are trivially
    thread-safe and independent of thread registration order.
    """
    digest = zlib.crc32(f"{seed}:{thread}:{salt}".encode("utf-8"))
    return (digest ^ ((seed * 0x9E3779B1) & 0xFFFFFFFF)) % 2**32 / 2**32


class SchedulePolicy:
    """Base: deterministic mapping (thread, index) -> :class:`Decision`."""

    #: Short name stored in seed files (subclasses override).
    name = "base"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def decide(self, thread: str, index: int, kind: str) -> Decision:
        raise NotImplementedError

    def spec(self) -> dict:
        """JSON-able description sufficient to rebuild the policy."""
        return {"name": self.name, "seed": self.seed}

    def describe(self) -> str:
        return f"{self.name}(seed={self.seed})"


class RandomWalkPolicy(SchedulePolicy):
    """Seeded pauses/yields: uniform random perturbation per point.

    Args:
        seed: schedule seed.
        yield_prob: probability a point yields the GIL (``sleep(0)``).
        sleep_prob: probability a point sleeps 1..``max_quanta`` quanta.
        max_quanta: largest sleep, in scheduler quanta.
    """

    name = "random"

    def __init__(
        self,
        seed: int = 0,
        *,
        yield_prob: float = 0.30,
        sleep_prob: float = 0.10,
        max_quanta: int = 4,
    ):
        super().__init__(seed)
        self.yield_prob = yield_prob
        self.sleep_prob = sleep_prob
        self.max_quanta = max(1, int(max_quanta))

    def decide(self, thread: str, index: int, kind: str) -> Decision:
        u = _unit(self.seed, thread, f"d{index}")
        if u < self.sleep_prob:
            v = _unit(self.seed, thread, f"q{index}")
            return Decision(f"s{1 + int(v * self.max_quanta)}")
        if u < self.sleep_prob + self.yield_prob:
            return _YIELD
        return _PROCEED

    def spec(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "yield_prob": self.yield_prob,
            "sleep_prob": self.sleep_prob,
            "max_quanta": self.max_quanta,
        }


class PCTPolicy(SchedulePolicy):
    """PCT-style priorities with per-thread change points.

    Each thread draws a priority in [0, 1).  Threads whose current
    priority falls below ``slow_fraction`` sleep 1..``max_quanta``
    quanta at *every* decision point (they run "slower"); the rest
    proceed.  ``change_points`` indices per thread (drawn over
    ``horizon`` decision points) redraw the priority, so a thread that
    led the race for its first hundred sync ops can abruptly become the
    laggard — the ordering inversions PCT was designed to reach.

    Args:
        seed: schedule seed.
        change_points: priority redraws per thread (PCT's *k*).
        horizon: decision-point range the change points are drawn over.
        slow_fraction: fraction of priority space considered "slow".
        max_quanta: largest per-point sleep for slow threads.
    """

    name = "pct"

    def __init__(
        self,
        seed: int = 0,
        *,
        change_points: int = 3,
        horizon: int = 512,
        slow_fraction: float = 0.4,
        max_quanta: int = 2,
    ):
        super().__init__(seed)
        self.change_points = max(0, int(change_points))
        self.horizon = max(1, int(horizon))
        self.slow_fraction = slow_fraction
        self.max_quanta = max(1, int(max_quanta))

    def _priority(self, thread: str, index: int) -> float:
        """The thread's priority in effect at decision ``index``."""
        epoch = 0
        for j in range(self.change_points):
            at = int(_unit(self.seed, thread, f"cp{j}") * self.horizon)
            if index >= at:
                epoch += 1
        if epoch == 0:
            return _unit(self.seed, thread, "prio")
        return _unit(self.seed, thread, f"prio{epoch}")

    def decide(self, thread: str, index: int, kind: str) -> Decision:
        if self._priority(thread, index) >= self.slow_fraction:
            return _PROCEED
        v = _unit(self.seed, thread, f"q{index}")
        return Decision(f"s{1 + int(v * self.max_quanta)}")

    def spec(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "change_points": self.change_points,
            "horizon": self.horizon,
            "slow_fraction": self.slow_fraction,
            "max_quanta": self.max_quanta,
        }


class ReplayPolicy(SchedulePolicy):
    """Replay a recorded decision trace; unrecorded points proceed.

    Args:
        decisions: iterable of ``(thread, index, kind, action)`` rows —
            the seed file's ``trace`` entries.  ``kind`` is carried for
            diagnostics only; application is keyed by (thread, index).
    """

    name = "replay"

    def __init__(self, decisions=()):
        super().__init__(0)
        self._by_point: dict[tuple[str, int], str] = {
            (str(t), int(i)): str(action)
            for t, i, _kind, action in decisions
        }

    def decide(self, thread: str, index: int, kind: str) -> Decision:
        action = self._by_point.get((thread, index))
        if action is None or action == PROCEED:
            return _PROCEED
        return Decision(action)

    def spec(self) -> dict:
        return {"name": self.name, "decisions": len(self._by_point)}

    def describe(self) -> str:
        return f"replay({len(self._by_point)} decisions)"


def policy_from_spec(spec: dict) -> SchedulePolicy:
    """Rebuild a policy from its :meth:`SchedulePolicy.spec` dict."""
    kwargs = {k: v for k, v in spec.items() if k != "name"}
    name = spec.get("name")
    try:
        if name == RandomWalkPolicy.name:
            return RandomWalkPolicy(**kwargs)
        if name == PCTPolicy.name:
            return PCTPolicy(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"malformed policy spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown schedule policy {name!r}")
