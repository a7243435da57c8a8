"""Device-side synchronization primitives (paper Fig. 11).

The paper implements lock/unlock with ``atomicCAS``/``atomicExch`` plus
thread fences, then builds counting semaphores (``post``/``wait``) to
manage receive buffers and a non-consuming ``check`` used by gradient
queuing ("each layer needs to check whether its own gradients are fully
reduced ... before forward computation").

Here the "hardware" atomicity of CAS/exchange is emulated with one Python
lock per cell; the *algorithms on top* — the spinning CAS loop, the
bounded post, the consuming wait, the non-consuming check — follow the
paper's pseudocode line by line.  Spins yield the GIL and carry a timeout
so a broken schedule deadlocks loudly instead of hanging the test suite.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable

from repro.errors import AbortedError, RuntimeClusterError
from repro.sanitizer import hooks as _hooks


def _emit(kind: str, obj: object, detail: object = None) -> None:
    """Forward one sync event to the active sanitizer tracer, if any.

    Emission points are chosen so the tracer observes a release strictly
    before the acquire it enables (release events fire *before* the
    underlying store, acquire events *after* the observing operation),
    keeping the recorded order consistent with the real memory order.

    An active schedule fuzzer (:mod:`repro.fuzz`) is consulted first: it
    may pause or yield the calling thread here, stretching exactly the
    windows the happens-before model says another thread could slip
    into.  ``sem_block`` is a timing-dependent retry, not a semantic
    operation, so schedulers ignore it to keep decision traces
    replay-deterministic.
    """
    scheduler = _hooks.active_scheduler()
    if scheduler is not None:
        scheduler.on_point("sync", kind, getattr(obj, "name", "") or None)
    tracer = _hooks.active()
    if tracer is not None:
        tracer.on_sync(kind, obj, detail)


@dataclass(frozen=True)
class SpinConfig:
    """Spin-loop behaviour.  Every spin iteration yields the GIL
    (``time.sleep(0)``).

    Attributes:
        timeout: seconds before a spinning primitive raises
            :class:`RuntimeClusterError` (deadlock guard).
        abort: optional cluster-wide abort flag checked on every spin
            iteration, so one failed kernel releases every peer fast
            instead of leaving each to its own independent timeout.
    """

    timeout: float = 30.0
    abort: "AbortCell | None" = None


class AtomicCell:
    """A single integer cell with atomic compare-and-swap / exchange.

    Emulates a device memory word accessed with ``atomicCAS`` /
    ``atomicExch``; the internal lock stands in for the memory
    controller's atomicity.

    Named cells emit happens-before events to an active sanitizer
    tracer; unnamed cells (the private cells inside locks, semaphores
    and the abort flag) stay silent so failed spin iterations don't
    fabricate ordering edges — the owning primitive emits its own
    semantic events instead.
    """

    def __init__(self, value: int = 0, *, name: str = ""):
        self._value = value
        self._hw = threading.Lock()
        self.name = name

    def load(self) -> int:
        with self._hw:
            if self.name and _hooks.ANY:
                _emit("atomic_load", self)
            return self._value

    def store(self, value: int) -> None:
        with self._hw:
            if self.name and _hooks.ANY:
                _emit("atomic_store", self)
            self._value = value

    def compare_and_swap(self, expected: int, new: int) -> int:
        """atomicCAS: swap to ``new`` iff currently ``expected``; returns
        the value observed *before* the operation."""
        with self._hw:
            old = self._value
            if old == expected:
                self._value = new
                if self.name and _hooks.ANY:
                    _emit("atomic_rmw", self)
            elif self.name and _hooks.ANY:
                _emit("atomic_load", self)
            return old

    def exchange(self, new: int) -> int:
        """atomicExch: unconditionally store ``new``; returns the old value."""
        with self._hw:
            if self.name and _hooks.ANY:
                _emit("atomic_rmw", self)
            old = self._value
            self._value = new
            return old

    def add(self, delta: int) -> int:
        """atomicAdd; returns the value before the addition."""
        with self._hw:
            if self.name and _hooks.ANY:
                _emit("atomic_rmw", self)
            old = self._value
            self._value = old + delta
            return old


class AbortCell:
    """Cluster-wide fail-fast abort flag over an :class:`AtomicCell`.

    One cell is shared by every synchronization primitive of a run.  The
    first ``trigger`` wins (atomicCAS semantics) and records the reason;
    every spinning primitive checks the flag each iteration and raises
    :class:`~repro.errors.AbortedError`, so a single stuck or crashed
    kernel fails the whole cluster in one bounded step instead of N
    independent spin timeouts.  Those errors carry the reason only;
    :meth:`to_error` builds the one diagnostic dump — registered
    semaphores' count/total_posted plus any extra dump sources (e.g. the
    per-GPU phase board).

    The cell holds its semaphores by weak reference: every semaphore
    holds the cell through its :class:`SpinConfig`, and a strong list
    back would tie each run's primitives into a cycle only the cyclic
    collector could free.  Dump sources are held strongly and must not
    refer back to the cell.
    """

    def __init__(self) -> None:
        self._cell = AtomicCell(0)
        self._meta = threading.Lock()
        self._reason: str | None = None
        self._semaphores: list[weakref.ref["DeviceSemaphore"]] = []
        self._dump_sources: list[tuple[str, object]] = []
        self._stragglers: list[threading.Thread] = []

    def trigger(self, reason: str) -> bool:
        """Set the flag; only the first caller's reason is recorded.

        Returns True when this call performed the transition.
        """
        if self._cell.compare_and_swap(0, 1) == 0:
            with self._meta:
                self._reason = reason
            return True
        return False

    def is_set(self) -> bool:
        return self._cell.load() != 0

    @property
    def reason(self) -> str:
        with self._meta:
            return self._reason or "unknown"

    def register_semaphore(self, sem: "DeviceSemaphore") -> None:
        with self._meta:
            self._semaphores.append(weakref.ref(sem))

    def register_dump(self, title: str, fn) -> None:
        """Add a diagnostics section: ``fn()`` -> str, called at dump time."""
        with self._meta:
            self._dump_sources.append((title, fn))

    def record_stragglers(self, threads: list[threading.Thread]) -> None:
        """Remember the kernel threads still alive when the pool raised
        the abort, so a drain joins exactly those."""
        with self._meta:
            self._stragglers.extend(threads)

    def stragglers(self) -> list[threading.Thread]:
        """Kernel threads recorded as still alive at abort time."""
        with self._meta:
            return list(self._stragglers)

    def diagnostics(self) -> str:
        """Best-effort cluster state dump (lock-free semaphore reads)."""
        with self._meta:
            refs = list(self._semaphores)
            sources = list(self._dump_sources)
        lines: list[str] = []
        for title, fn in sources:
            try:
                body = fn()
            except Exception as exc:  # noqa: BLE001 - diagnostics only
                body = f"<dump failed: {exc!r}>"
            lines.append(f"-- {title} --")
            lines.append(body)
        sems = [sem for sem in (ref() for ref in refs) if sem is not None]
        if sems:
            lines.append("-- semaphores --")
            for sem in sems:
                count, total = sem.peek()
                lines.append(
                    f"{sem.name or '<unnamed>'}: count={count}/"
                    f"{sem.capacity} total_posted={total}"
                )
        tracer = _hooks.active()
        if tracer is not None and hasattr(tracer, "dump_tails"):
            lines.append("-- sanitizer: last sync ops per thread --")
            lines.append(tracer.dump_tails())
        scheduler = _hooks.active_scheduler()
        if scheduler is not None and hasattr(scheduler, "dump_tail"):
            # A hung *fuzzed* run is only diagnosable post-mortem if the
            # dump names the schedule that produced it: active seed,
            # policy, and the last few injected decisions.
            lines.append("-- fuzz: active schedule --")
            lines.append(scheduler.dump_tail())
        return "\n".join(lines)

    def to_error(self) -> AbortedError:
        return AbortedError(self.reason, self.diagnostics())

    def raise_if_set(self) -> None:
        if self.is_set():
            raise AbortedError(self.reason)


class DeviceLock:
    """Fig. 11 ``lock``/``unlock``: a CAS spinlock over an atomic cell.

    Named locks report acquire/release (and lockset membership) to an
    active sanitizer tracer; unnamed locks — notably the one inside
    every :class:`DeviceSemaphore` — are silent, because the semaphore's
    post/wait/check events carry the semantic ordering.
    """

    def __init__(
        self,
        spin: SpinConfig | None = None,
        *,
        name: str | Callable[[], str] = "",
    ):
        self._cell = AtomicCell(0)
        self._spin = spin or SpinConfig()
        self._name = name

    @property
    def name(self) -> str:
        """The event's name; a callable given as ``name`` is called only
        when a diagnostic reads it."""
        name = self._name
        return name if isinstance(name, str) else name()

    def lock(self) -> None:
        deadline = time.monotonic() + self._spin.timeout
        while self._cell.compare_and_swap(0, 1) != 0:
            if self._spin.abort is not None:
                self._spin.abort.raise_if_set()
            if time.monotonic() > deadline:
                raise RuntimeClusterError("device lock acquisition timed out")
            time.sleep(0)
        # threadfence(): Python's lock release/acquire orders memory.
        if self.name and _hooks.ANY:
            _emit("lock_acquire", self)

    def unlock(self) -> None:
        # The release event fires before the cell exchange so a tracer
        # can never observe the enabled acquire first.
        if self.name and _hooks.ANY:
            _emit("lock_release", self)
        # threadfence() before release, as in the paper's pseudocode.
        if self._cell.exchange(0) != 1:
            raise RuntimeClusterError("unlock of a lock that was not held")

    def __enter__(self) -> "DeviceLock":
        self.lock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unlock()


class DeviceSemaphore:
    """Fig. 11 ``post``/``wait``/``check`` over a lock-protected counter.

    ``post`` increments the count, blocking while the count equals the
    buffer capacity (``value`` in the paper — bounded receive buffers);
    ``wait`` blocks while the count is zero then decrements; ``check``
    blocks until the count has *reached* a threshold without consuming —
    the primitive gradient queuing's dequeue uses.

    ``check`` observes the count monotonically, so it also tracks the
    total number of posts (``total_posted``), which never decreases even
    though ``wait`` consumes from ``count``.
    """

    def __init__(
        self,
        capacity: int,
        *,
        spin: SpinConfig | None = None,
        name: str = "",
    ):
        if capacity < 1:
            raise RuntimeClusterError(f"semaphore {name!r}: capacity must be >= 1")
        self._lock = DeviceLock(spin)
        self._count = 0
        self._total_posted = 0
        self._capacity = capacity
        self._spin = spin or SpinConfig()
        self.name = name
        if self._spin.abort is not None:
            self._spin.abort.register_semaphore(self)

    @property
    def capacity(self) -> int:
        return self._capacity

    def count(self) -> int:
        with self._lock:
            return self._count

    def total_posted(self) -> int:
        with self._lock:
            return self._total_posted

    def peek(self) -> tuple[int, int]:
        """(count, total_posted) read without the device lock.

        Reads of the two ints are GIL-atomic; the pair may be mutually
        inconsistent for an instant, which is fine for diagnostics — and
        means this accessor can never deadlock, even when called while
        another thread died holding the lock.
        """
        return self._count, self._total_posted

    def _spin_until(self, predicate, what: str) -> None:
        """Spin (lock-step, as in the paper) until ``predicate()`` holds.

        The predicate is evaluated with the lock held; between attempts
        the lock is released so posters can make progress.  A set abort
        flag exits the spin immediately; a timeout triggers the abort
        flag (when present) so every peer exits right behind us.
        """
        deadline = time.monotonic() + self._spin.timeout
        blocked_reported = False
        self._lock.lock()
        while not predicate():
            self._lock.unlock()
            if not blocked_reported:
                # Tells the sanitizer's wait-graph which semaphore each
                # thread is parked on; cleared by the next success.
                if _hooks.ANY:
                    _emit("sem_block", self, what)
                blocked_reported = True
            if self._spin.abort is not None:
                self._spin.abort.raise_if_set()
            if time.monotonic() > deadline:
                if self._spin.abort is not None:
                    self._spin.abort.trigger(
                        f"semaphore {self.name!r}: {what} timed out"
                    )
                raise RuntimeClusterError(
                    f"semaphore {self.name!r}: {what} timed out"
                )
            time.sleep(0)
            self._lock.lock()
        # leave with lock held; callers below finish and unlock

    def post(self) -> None:
        """Producer: one item available (blocks while buffer full)."""
        self._spin_until(lambda: self._count < self._capacity, "post")
        self._count += 1
        self._total_posted += 1
        # Emitted under the internal lock: the tracer sees posts and the
        # waits/checks they satisfy in true counter order.
        if _hooks.ANY:
            _emit("sem_post", self)
        self._lock.unlock()

    def wait(self) -> None:
        """Consumer: take one item (blocks while empty)."""
        self._spin_until(lambda: self._count > 0, "wait")
        self._count -= 1
        if _hooks.ANY:
            _emit("sem_wait", self)
        self._lock.unlock()

    def check(self, value: int) -> None:
        """Block until at least ``value`` items were ever posted; does not
        consume (paper: gradient queuing's dequeue test)."""
        self._spin_until(
            lambda: self._total_posted >= value, f"check({value})"
        )
        if _hooks.ANY:
            _emit("sem_check", self, value)
        self._lock.unlock()


class DeviceEvent:
    """A one-shot device event: ``set`` once, ``wait`` spins until set.

    Replaces raw ``threading.Event`` for cross-threadblock dependencies
    in the plan interpreter: built on an :class:`AtomicCell` store plus
    a spin-load, it honors :class:`SpinConfig` timeouts and the cluster
    abort flag like every other primitive, and reports set/wait edges to
    the sanitizer.
    """

    def __init__(
        self,
        spin: SpinConfig | None = None,
        *,
        name: str | Callable[[], str] = "",
    ):
        self._cell = AtomicCell(0)
        self._spin = spin or SpinConfig()
        self._name = name

    @property
    def name(self) -> str:
        """The event's name; a callable given as ``name`` is called only
        when a diagnostic reads it."""
        name = self._name
        return name if isinstance(name, str) else name()

    def is_set(self) -> bool:
        return self._cell.load() != 0

    def set(self) -> None:
        # Release event before the store, so no tracer ordering can show
        # the enabled wait first.
        if _hooks.ANY:
            _emit("event_set", self)
        self._cell.store(1)

    def wait(self) -> None:
        deadline = time.monotonic() + self._spin.timeout
        while self._cell.load() == 0:
            if self._spin.abort is not None:
                self._spin.abort.raise_if_set()
            if time.monotonic() > deadline:
                # No abort trigger here: the kernel pool's wrapper turns
                # this failure into the cluster abort, preserving the
                # "kernel ... failed" abort reason callers rely on.
                raise RuntimeClusterError(
                    f"timed out waiting for {self.name or 'event'}"
                )
            time.sleep(0)
        if _hooks.ANY:
            _emit("event_wait", self)
