"""Instrumentation hooks: the bridge between the runtime and a tracer.

This module is the *only* sanitizer module the runtime imports, and it
imports nothing from the rest of the repo, so the instrumentation in
:mod:`repro.runtime.sync`, :mod:`repro.runtime.memory` and
:mod:`repro.runtime.cluster` adds one attribute lookup and one ``None``
check per primitive operation when no tracer is active.

Tracers are kept on a stack: events go to the **top** tracer only.  That
lets the ``--sanitize`` pytest fixture keep a suite-wide tracer active
while a seeded-broken-kernel test pushes its own private tracer for the
duration of the deliberately racy run.

Schedule *fuzzers* (:mod:`repro.fuzz`) register on a second, independent
stack: every emitted event is offered to the active scheduler **before**
tracer dispatch, so the scheduler can perturb the interleaving (pause or
yield the calling thread) at exactly the points the happens-before model
considers meaningful.  The stacks are independent on purpose — a test
that pushes a private tracer must still run under the suite's fuzzed
schedule.
"""

from __future__ import annotations

import os
import sys
import threading

__all__ = [
    "ANY",
    "active",
    "push",
    "pop",
    "active_scheduler",
    "push_scheduler",
    "pop_scheduler",
    "call_site",
]

_STACK: list = []
_SCHED_STACK: list = []
_STACK_LOCK = threading.Lock()  # sync-lint: allow(raw-threading)

#: Fast-path flag: True iff a tracer OR a scheduler is attached.  Hot
#: paths (chunk accesses, semaphore ops) read this one module attribute
#: and skip event construction entirely when it is False, so a detached
#: tracer costs a single attribute check per operation.  Reads are
#: lock-free (GIL-atomic bool load); pushes always happen-before the
#: kernels whose events they want, because the pusher starts the threads.
ANY = False


def _refresh() -> None:
    global ANY
    ANY = bool(_STACK or _SCHED_STACK)


def active():
    """The tracer events should go to right now (``None`` when inactive)."""
    stack = _STACK
    return stack[-1] if stack else None


def push(tracer) -> None:
    """Activate ``tracer`` (it shadows any currently active tracer)."""
    with _STACK_LOCK:
        _STACK.append(tracer)
        _refresh()


def pop():
    """Deactivate and return the most recently pushed tracer."""
    with _STACK_LOCK:
        tracer = _STACK.pop()
        _refresh()
        return tracer


def active_scheduler():
    """The schedule fuzzer perturbing sync points (``None`` when off)."""
    stack = _SCHED_STACK
    return stack[-1] if stack else None


def push_scheduler(scheduler) -> None:
    """Activate a schedule fuzzer (shadows any active one)."""
    with _STACK_LOCK:
        _SCHED_STACK.append(scheduler)
        _refresh()


def pop_scheduler():
    """Deactivate and return the most recently pushed schedule fuzzer."""
    with _STACK_LOCK:
        scheduler = _SCHED_STACK.pop()
        _refresh()
        return scheduler


# Frames from these locations are instrumentation plumbing, not the code
# the user wants to see in a race report.  Scenario bodies
# (sanitizer/scenarios.py) are deliberately NOT skipped: their seeded
# bugs must report real code locations like any user kernel.
_SKIP_PARTS = (
    os.path.join("repro", "runtime", "sync.py"),
    os.path.join("repro", "runtime", "memory.py"),
    os.path.join("repro", "runtime", "cluster.py"),
    os.path.join("repro", "sanitizer", "hooks.py"),
    os.path.join("repro", "sanitizer", "tracer.py"),
    os.path.join("repro", "sanitizer", "races.py"),
    os.path.join("repro", "sanitizer", "vectorclock.py"),
    os.path.join("repro", "sanitizer", "lockgraph.py"),
    os.sep + "threading.py",
)


def call_site() -> str:
    """Compact call-site context: the first two frames outside plumbing.

    Walking ``sys._getframe`` is far cheaper than building a full
    traceback, which matters because every traced sync op and every
    traced chunk access captures its site.
    """
    try:
        frame = sys._getframe(1)
    except ValueError:  # pragma: no cover - no caller frame
        return "<unknown>"
    out: list[str] = []
    while frame is not None and len(out) < 2:
        filename = frame.f_code.co_filename
        if not any(part in filename for part in _SKIP_PARTS):
            out.append(
                f"{os.path.basename(filename)}:{frame.f_lineno} "
                f"in {frame.f_code.co_name}"
            )
        frame = frame.f_back
    return " < ".join(out) if out else "<internal>"
