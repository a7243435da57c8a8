"""The online tracer: consumes hook events, maintains happens-before.

One :class:`Tracer` is pushed (via :mod:`repro.sanitizer.hooks`) around
a run — or around a whole test when the suite runs with ``--sanitize``.
It keeps:

- a vector clock per thread (threads are identified by name — kernel
  pool threads carry their kernel name),
- a clock per sync object (locks, named atomics, events, fork/join
  points) and a per-semaphore ladder of cumulative post clocks so the
  k-th ``wait`` / ``check(k)`` acquires exactly the first k posts,
- FastTrack race state per ``(buffer, chunk)`` (online detection), and
- the raw material for the replay analyses: per-thread semaphore
  programs, the currently blocked set, and a short per-thread tail of
  recent sync ops (surfaced in abort dumps).

Sync objects are keyed by identity, not name: the tracer holds a strong
reference, so two runs inside one traced scope never alias each other's
semaphores even when they reuse names.

Happens-before model (documented in DESIGN §8):

====================  =================================================
event                 effect
====================  =================================================
``fork``              release: pool's clock := join(pool, thread); tick
``thread_start``      acquire: thread := join(thread, pool)
``thread_end``        release into the pool's join clock; a thread
                      a *crash* abort pulled out of a wait drops its
                      ``sem_block`` (that wait was abandoned, not
                      part of a cycle); a *timeout* abort keeps it
``join_all``          acquire of the pool's join clock
``lock_acquire``      acquire of the lock's clock
``lock_release``      release into the lock's clock
``atomic_load``       acquire of the cell's clock
``atomic_store/rmw``  acquire **and** release (emulated atomics are
                      full read-modify-writes on the cell)
``sem_post``          release: cumulative post clock k := join(k-1, thread)
``sem_wait``          k-th wait acquires cumulative post clock k
``sem_check``         ``check(v)`` acquires cumulative post clock v
``event_set``         release into the event's clock
``event_wait``        acquire of the event's clock
====================  =================================================

A failed spin iteration creates **no** edge — only the semantic
operations order memory, which is what lets the detector see through
schedules that only worked by timing luck.
"""

from __future__ import annotations

import threading
from collections import deque

from . import hooks
from .lockgraph import BlockedWait
from .races import Access, MemoryState
from .report import SanitizerReport
from .vectorclock import VectorClock

__all__ = ["Tracer", "tracing"]

#: Events that acquire the plain object clock.
_ACQUIRE = ("thread_start", "join_all", "lock_acquire", "atomic_load",
            "event_wait")
#: Events that release into the plain object clock.
_RELEASE = ("fork", "thread_end", "lock_release", "event_set")


def _crash_abort(reason: object) -> bool:
    """Whether an abort reason names a crashed kernel (the pool's
    ``kernel '...' failed: ...``) rather than a timed-out wait."""
    return (
        isinstance(reason, str)
        and reason.startswith("kernel ")
        and " failed: " in reason
        and "timed out" not in reason
    )


class _SemState:
    """Per-semaphore causal state."""

    __slots__ = ("cum", "post_clocks", "consumed", "posters")

    def __init__(self) -> None:
        self.cum = VectorClock()
        self.post_clocks: list[VectorClock] = []
        self.consumed = 0
        self.posters: set[str] = set()


class Tracer:
    """Collects sync/access events and detects races online.

    Args:
        tail: how many recent sync ops to keep per thread for the
            abort-dump tails and per-access "last sync" context.
    """

    def __init__(self, *, tail: int = 8):
        # The observer must not use the primitives it instruments.
        self._lock = threading.Lock()  # sync-lint: allow(raw-threading)
        self._tail = tail
        self.nevents = 0
        # Threads.
        self._tids: dict[str, int] = {}
        self._clocks: list[VectorClock] = []
        self._tails: dict[str, deque[str]] = {}
        # Sync objects (keyed by identity; refs keep ids stable).
        self._refs: list[object] = []
        self._names: dict[int, str] = {}
        self._name_counts: dict[str, int] = {}
        self._obj_clocks: dict[tuple[int, str], VectorClock] = {}
        self._sems: dict[int, _SemState] = {}
        # Replay material.
        self._blocked: dict[str, BlockedWait] = {}
        self._programs: dict[str, list[tuple[str, str]]] = {}
        self._memory = MemoryState()

    # -- identity ---------------------------------------------------------

    def _thread(self) -> tuple[str, int]:
        name = threading.current_thread().name
        tid = self._tids.get(name)
        if tid is None:
            tid = len(self._clocks)
            self._tids[name] = tid
            clock = VectorClock()
            clock.tick(tid)
            self._clocks.append(clock)
            self._tails[name] = deque(maxlen=self._tail)
        return name, tid

    def _display(self, obj: object) -> str:
        key = id(obj)
        display = self._names.get(key)
        if display is None:
            self._refs.append(obj)
            base = getattr(obj, "name", "") or type(obj).__name__.lower()
            count = self._name_counts.get(base, 0)
            self._name_counts[base] = count + 1
            display = base if count == 0 else f"{base}~{count}"
            self._names[key] = display
        return display

    def _obj_clock(self, obj: object, tag: str = "main") -> VectorClock:
        key = (id(obj), tag)
        clock = self._obj_clocks.get(key)
        if clock is None:
            clock = VectorClock()
            self._obj_clocks[key] = clock
        return clock

    # -- event intake -----------------------------------------------------

    def on_sync(self, kind: str, obj: object, detail: object = None) -> None:
        """One synchronization event by the current thread."""
        site = hooks.call_site()
        with self._lock:
            self.nevents += 1
            name, tid = self._thread()
            display = self._display(obj)
            clock = self._clocks[tid]
            shown = f"{kind} {display}" + (
                f"({detail})" if detail is not None else ""
            )
            self._tails[name].append(shown)

            if kind == "sem_block":
                self._blocked[name] = BlockedWait(
                    thread=name, sem=display, what=str(detail), site=site
                )
                return
            if kind == "sem_post":
                state = self._sems.setdefault(id(obj), _SemState())
                state.cum.join(clock)
                state.post_clocks.append(state.cum.copy())
                state.posters.add(name)
                self._programs.setdefault(name, []).append(
                    ("post", display)
                )
                self._blocked.pop(name, None)
                clock.tick(tid)
                return
            if kind in ("sem_wait", "sem_check"):
                state = self._sems.setdefault(id(obj), _SemState())
                if kind == "sem_wait":
                    state.consumed += 1
                    k = state.consumed
                else:
                    k = int(detail or 0)
                if k >= 1:
                    idx = min(k, len(state.post_clocks))
                    target = (
                        state.post_clocks[idx - 1] if idx >= 1 else state.cum
                    )
                    clock.join(target)
                self._programs.setdefault(name, []).append(
                    ("consume", display)
                )
                self._blocked.pop(name, None)
                return
            if kind in ("atomic_store", "atomic_rmw"):
                obj_clock = self._obj_clock(obj)
                clock.join(obj_clock)
                obj_clock.join(clock)
                clock.tick(tid)
                return
            if kind in _ACQUIRE:
                tag = "done" if kind == "join_all" else "main"
                clock.join(self._obj_clock(obj, tag))
                return
            if kind in _RELEASE:
                if kind == "thread_end" and _crash_abort(detail):
                    self._blocked.pop(name, None)
                tag = "done" if kind == "thread_end" else "main"
                obj_clock = self._obj_clock(obj, tag)
                obj_clock.join(clock)
                clock.tick(tid)
                return
            # Unknown kinds are recorded in the tail but create no edges.

    def on_access(self, kind: str, buffer: str, chunk: int) -> None:
        """One chunk access (read / write / reduce) by the current thread."""
        site = hooks.call_site()
        with self._lock:
            self.nevents += 1
            name, tid = self._thread()
            clock = self._clocks[tid]
            tail = self._tails[name]
            access = Access(
                thread=name,
                tid=tid,
                clock=clock.get(tid),
                kind=kind,
                site=site,
                last_sync=(
                    "; ".join(list(tail)[-2:]) if tail else "(no sync yet)"
                ),
            )
            self._memory.on_access(buffer, chunk, access, clock)

    # -- diagnostics ------------------------------------------------------

    def dump_tails(self) -> str:
        """Last sync ops per thread — appended to abort diagnostics."""
        with self._lock:
            lines = []
            for name in sorted(self._tails):
                tail = self._tails[name]
                shown = " -> ".join(tail) if tail else "(none)"
                lines.append(f"{name}: {shown}")
            return "\n".join(lines)

    # -- analysis ---------------------------------------------------------

    def analyze(self) -> SanitizerReport:
        """Run the replay analyses and bundle everything into a report."""
        from .lockgraph import find_post_order_cycles, find_wait_cycles

        with self._lock:
            blocked = sorted(
                self._blocked.values(), key=lambda w: w.thread
            )
            posters: dict[str, set[str]] = {}
            for key, state in self._sems.items():
                display = self._names.get(key, f"sem#{key}")
                posters.setdefault(display, set()).update(state.posters)
            programs = {t: list(ops) for t, ops in self._programs.items()}
            races = list(self._memory.races)
            nevents = self.nevents
            nthreads = len(self._tids)
        return SanitizerReport(
            races=races,
            wait_cycles=find_wait_cycles(blocked, posters),
            post_cycles=find_post_order_cycles(programs),
            blocked=blocked,
            nevents=nevents,
            nthreads=nthreads,
        )


class tracing:
    """Context manager: push a tracer, analyze on exit.

    ::

        with tracing() as tracer:
            runtime.run(inputs)
        report = tracer.report  # set on exit
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer or Tracer()
        self.report: SanitizerReport | None = None

    def __enter__(self) -> "tracing":
        hooks.push(self.tracer)
        return self

    def __exit__(self, *exc_info: object) -> None:
        hooks.pop()
        self.report = self.tracer.analyze()
