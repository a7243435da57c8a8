"""Virtual GPU cluster plumbing: the wire and the kernel pool.

A :class:`_Wire` is the one link primitive: a FIFO hop modelling an
NVLink P2P transfer — payload memory plus a frame queue of ``(sequence
number, chunk id, CRC32)``, flow-controlled by a bounded
:class:`~repro.runtime.sync.DeviceSemaphore` (the paper's receive-buffer
post/wait).  The receiver verifies all three on every take, so dropped,
reordered or corrupted transfers are *detected*, never consumed.  A
*zero-copy* wire aliases the sender's gradient buffer: a send publishes
only a frame and the receiver verifies and reads the chunk in place (a
P2P read the sanitizer records); the executor aliases every wire the
compiler's static proof allows, detour relay legs included.  A staging
wire holds only the chunks it carries, packed back to back.

A checksum travels with its payload — relays and broadcast parents
forward the one they verified — so damage at any hop is caught at the
next.  Fault injection plugs in at send via a
:class:`~repro.runtime.faults.LinkInjector`; drops and corruptions are
recovered by bounded retransmission unless the fault plan disables it,
and an unrecovered corrupt frame on a zero-copy wire lands in the
wire's fault slot, never in the sender's memory.

The :class:`KernelPool` runs persistent-kernel bodies as threads and
fails fast: the first kernel failure triggers the cluster
:class:`~repro.runtime.sync.AbortCell`, the join loop collapses its
deadline to a short grace once it sees the flag, and the pool re-raises
one :class:`~repro.errors.AbortedError` carrying the diagnostic dump,
after recording on the cell any kernel thread still alive so a drain
can join exactly those.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import (
    AbortedError,
    LinkFaultError,
    RuntimeClusterError,
)
from repro.runtime.memory import ChunkLayout, GradientBuffer, payload_checksum
from repro.runtime.memory import _emit as _access_emit
from repro.runtime.sync import AbortCell, DeviceSemaphore, SpinConfig
from repro.runtime.sync import _emit as _sync_emit
from repro.sanitizer import hooks as _hooks

if TYPE_CHECKING:
    from repro.runtime.faults import LinkInjector


class _Wire:
    """One hop of a link: payload memory + flow control + frame metadata.

    ``deliver`` writes the payload and posts the bounded semaphore (the
    paper's receive-buffer management); ``take`` waits, then verifies the
    frame's sequence number, chunk id, and CRC32 against the payload that
    actually landed — an end-to-end check that catches corruption and
    misordering at the receiver.

    The wire has a slot for each of ``chunks``, the chunk ids it
    carries.  Its staging memory holds only those slots, packed back to
    back in an uninitialized array; ``deliver`` writes each slot before
    the frame that lets the receiver read it.  A wire built over
    ``buffer`` aliases that memory instead and addresses it through the
    layout's own slices.

    A ``zero_copy`` wire aliases the *sender's* memory: the payload is
    already in its slot when it is sent, so ``deliver`` publishes the
    frame without copying and the receiver verifies and reads the slot
    in place.  ``owner_buffer`` names the gradient buffer the wire
    aliases, so deliveries/takes are visible to the sanitizer as remote
    writes / reads of that GPU's memory.
    """

    def __init__(
        self,
        layout: ChunkLayout,
        *,
        capacity: int,
        spin: SpinConfig,
        name: str,
        chunks: Sequence[int],
        buffer: np.ndarray | None = None,
        owner_buffer: GradientBuffer | None = None,
        zero_copy: bool = False,
    ):
        self.name = name
        carried = sorted(set(chunks))
        self._slots: dict[int, slice] = {}
        if buffer is not None:
            self._data = buffer
            for chunk in carried:
                self._slots[chunk] = layout.slice_of(chunk)
        else:
            cursor = 0
            for chunk in carried:
                size = layout.chunk_elems(chunk)
                self._slots[chunk] = slice(cursor, cursor + size)
                cursor += size
            self._data = np.empty(cursor)
        self._owner_buffer = owner_buffer
        self._zero_copy = zero_copy
        self._sem = DeviceSemaphore(capacity, spin=spin, name=name)
        # (seq, chunk id, checksum, fault slot): the fault slot is None
        # unless an unrecovered corrupt frame rode a zero-copy wire.
        self._frames: deque[
            tuple[int, int, int, np.ndarray | None]
        ] = deque()
        self._frame_lock = threading.Lock()  # sync-lint: allow(raw-threading)
        self._send_seq = 0
        self._recv_seq = 0

    def _slot(self, chunk: int) -> slice:
        try:
            return self._slots[chunk]
        except KeyError:
            raise RuntimeClusterError(
                f"link {self.name!r} does not carry chunk {chunk}"
            ) from None

    def _publish(
        self, chunk: int, checksum: int, fault: np.ndarray | None
    ) -> None:
        with self._frame_lock:
            self._frames.append((self._send_seq, chunk, checksum, fault))
            self._send_seq += 1
        self._sem.post()

    def deliver(self, chunk: int, values: np.ndarray, checksum: int) -> None:
        """Sender side: land ``values`` in the chunk slot and signal.

        On a zero-copy wire ``values`` is the slot itself (the sender's
        own memory), so only the frame is published.
        """
        slot = self._slot(chunk)
        if not self._zero_copy:
            if self._owner_buffer is not None:
                self._owner_buffer.note_remote_write(chunk)
            self._data[slot] = values
        self._publish(chunk, checksum, None)

    def deliver_damaged(
        self, chunk: int, damaged: np.ndarray, checksum: int
    ) -> None:
        """Sender side, unrecovered corruption: land ``damaged`` under
        the intact payload's ``checksum`` so the receiver's CRC raises.

        A zero-copy wire must not let the damage reach the sender's
        memory: the bytes go to the link's fault slot for this frame,
        which the receiver reads instead of the aliased slot.
        """
        if not self._zero_copy:
            self.deliver(chunk, damaged, checksum)
            return
        self._slot(chunk)  # rejects an uncarried chunk, as deliver does
        self._publish(chunk, checksum, damaged)

    def _verify_frame(self, chunk: int) -> tuple[int, np.ndarray | None]:
        """Pop the next frame, enforce ordering, return its checksum and
        fault slot.

        Raises:
            LinkFaultError: on out-of-sequence delivery or a chunk-id
                mismatch.
        """
        with self._frame_lock:
            seq, frame_chunk, checksum, fault = self._frames.popleft()
        if seq != self._recv_seq:
            raise LinkFaultError(
                f"link {self.name!r}: frame seq {seq}, expected "
                f"{self._recv_seq} (reordered or lost frame)"
            )
        self._recv_seq += 1
        if frame_chunk != chunk:
            raise LinkFaultError(
                f"link {self.name!r}: received chunk {frame_chunk}, "
                f"expected {chunk}"
            )
        return checksum, fault

    def take_view(self, chunk: int) -> np.ndarray:
        """Receiver side: block for ``chunk``, verify it in place, and
        return a view of its slot.

        The view is valid until the slot is written again, so callers
        consume it before their next receive on this wire.

        Raises:
            LinkFaultError: on out-of-sequence delivery, a chunk-id
                mismatch, or a CRC32 mismatch (corrupted payload).
        """
        return self._receive(chunk, copy=False)[0]

    def take_frame(self, chunk: int) -> tuple[np.ndarray, int]:
        """Like :meth:`take_view`, also returning the verified frame
        checksum, so a forwarder passes it on instead of recomputing
        it."""
        return self._receive(chunk, copy=False)

    def take(self, chunk: int) -> np.ndarray:
        """Receiver side: like :meth:`take_view`, returning a verified
        copy.

        The returned array is caller-owned: a relay on a staging wire
        stashes it across ops, during which the wire may
        deliver the same chunk again, so ``take`` keeps copy semantics.
        Receivers that consume the payload immediately, and relays on a
        wire that aliases the sender's memory, use :meth:`take_view` or
        :meth:`take_frame`.
        """
        return self._receive(chunk, copy=True)[0]

    def _receive(
        self, chunk: int, *, copy: bool
    ) -> tuple[np.ndarray, int]:
        """Wait, record the sanitizer read, check the frame, and CRC the
        payload that is returned (the copy, when one is made)."""
        self._sem.wait()
        if self._owner_buffer is not None and _hooks.ANY:
            # The checksum verification below reads the aliased gradient
            # memory; record it as a read of the owning GPU's chunk.
            _access_emit("read", self._owner_buffer.label, chunk)
        checksum, fault = self._verify_frame(chunk)
        payload = self._data[self._slot(chunk)] if fault is None else fault
        if copy:
            payload = payload.copy()
        if payload_checksum(payload) != checksum:
            raise LinkFaultError(
                f"link {self.name!r}: checksum mismatch on chunk {chunk} "
                f"— payload corrupted in transit"
            )
        return payload, checksum


def _transmit(
    wire: _Wire,
    chunk: int,
    values: np.ndarray,
    injector: LinkInjector | None,
    abort: AbortCell | None,
    checksum: int | None = None,
) -> int:
    """Link-layer send: fault injection + bounded retransmission.

    ``checksum`` is the payload's CRC32 when the caller already holds
    it (a broadcast parent forwarding the checksum it verified); it is
    computed here otherwise.  Returns the checksum the frame carries.

    A dropped frame never reaches the wire; a corrupted frame is caught
    by the link-layer CRC (emulated sender-side — a real reliable link
    rejects the frame at the receiver NIC and NACKs) and both are retried
    with linear backoff up to the plan's ``max_retries``.  With recovery
    disabled, corruption is delivered raw (the receiver's end-to-end
    check raises) and a drop raises immediately at the sender.
    """
    if checksum is None:
        checksum = payload_checksum(values)
    if injector is None:
        wire.deliver(chunk, values, checksum)
        return checksum
    attempts = 0
    while True:
        if abort is not None:
            abort.raise_if_set()
        delay = injector.next_delay()
        if delay > 0:
            injector.stats.bump("delays_injected")
            time.sleep(delay)
        fate = injector.next_fate()
        if fate == "ok":
            wire.deliver(chunk, values, checksum)
            return checksum
        if fate == "corrupt":
            injector.stats.bump("corruptions")
            if not injector.recover:
                # Deliver the damage with the original checksum: the
                # receiver's CRC check is what detects it.
                wire.deliver_damaged(chunk, injector.corrupt(values), checksum)
                return checksum
        else:
            injector.stats.bump("drops")
            if not injector.recover:
                raise LinkFaultError(
                    f"link {wire.name!r}: chunk {chunk} dropped with "
                    f"retransmission disabled"
                )
        attempts += 1
        if attempts > injector.max_retries:
            raise LinkFaultError(
                f"link {wire.name!r}: chunk {chunk} still failing after "
                f"{injector.max_retries} retransmissions"
            )
        injector.stats.bump("retransmissions")
        time.sleep(injector.backoff * attempts)


#: Seconds between the pool's join-loop checks of the abort flag.
_JOIN_POLL = 0.005


@dataclass
class KernelPool:
    """Runs persistent-kernel bodies as threads; fails loudly together.

    A run leaves no reference cycle behind: the pool keeps only the
    first real failure, drops it and its kernel entries before raising,
    so an aborted collective's buffers are freed as soon as the caller
    drops the error.

    Attributes:
        join_timeout: seconds to wait for all kernels before declaring the
            run hung.
        abort: cluster abort flag; the first kernel failure triggers it,
            releasing every spinning peer, and the pool re-raises it as
            one :class:`~repro.errors.AbortedError` with diagnostics.
        abort_grace: join budget (seconds) granted to the surviving
            kernels once the abort flag is set — they only need to notice
            the flag, so this is short.
    """

    join_timeout: float = 60.0
    abort: AbortCell | None = None
    abort_grace: float = 1.0
    _entries: list[tuple[str, Callable[[], None]]] = field(default_factory=list)

    def add(self, name: str, body: Callable[[], None]) -> None:
        self._entries.append((name, body))

    def run(self) -> None:
        """Start every kernel, join all, re-raise the first failure.

        Raises:
            AbortedError: when the cluster abort flag fired (kernel crash
                or timeout cascade) — carries the diagnostic dump; the
                kernel threads still alive are recorded on the abort
                cell (:meth:`AbortCell.stragglers`).
            RuntimeClusterError: on kernel failure without an abort cell,
                or join timeout.
        """
        # The first failure, replaced once by the first one that is not
        # a cascading AbortedError; later ones are only counted.
        first_name: str | None = None
        first_exc: BaseException | None = None
        nfailed = 0
        fail_lock = threading.Lock()  # sync-lint: allow(raw-threading)

        def wrap(name: str, body: Callable[[], None]) -> Callable[[], None]:
            def runner() -> None:
                nonlocal first_name, first_exc, nfailed
                # The abort reason when this kernel left through the
                # abort flag: tells the sanitizer why its wait ended.
                aborted_by = None
                try:
                    _sync_emit("thread_start", self)
                    body()
                except BaseException as exc:  # noqa: BLE001 - reported below
                    cascade = isinstance(exc, AbortedError)
                    if cascade:
                        aborted_by = exc.reason
                    with fail_lock:
                        nfailed += 1
                        if first_exc is None or (
                            not cascade
                            and isinstance(first_exc, AbortedError)
                        ):
                            first_name, first_exc = name, exc
                    # Fail fast: the first real failure flips the cluster
                    # abort flag so every peer exits its spin loop now
                    # instead of burning its own full timeout.  Cascading
                    # AbortedErrors never re-trigger (first reason wins).
                    if self.abort is not None and not cascade:
                        self.abort.trigger(f"kernel {name!r} failed: {exc!r}")
                finally:
                    _sync_emit("thread_end", self, aborted_by)

            return runner

        threads = [
            threading.Thread(target=wrap(name, body), name=name, daemon=True)
            for name, body in self._entries
        ]
        # Launch edge: everything the launching thread did so far
        # happens-before every kernel body.
        _sync_emit("fork", self)
        for thread in threads:
            thread.start()

        # Once the abort flag is set the survivors only need one spin
        # iteration to observe it: collapse the deadline to the grace.
        deadline = time.monotonic() + self.join_timeout
        collapsed = self.abort is None
        for thread in threads:
            while thread.is_alive():
                now = time.monotonic()
                if not collapsed and self.abort.is_set():
                    deadline = min(deadline, now + self.abort_grace)
                    collapsed = True
                if now >= deadline:
                    break
                thread.join(
                    timeout=min(_JOIN_POLL, deadline - now)
                )

        # Join edge: every kernel that finished happens-before anything
        # the caller does next (reading results, computing errors).
        _sync_emit("join_all", self)
        alive = [t for t in threads if t.is_alive()]
        self._entries.clear()
        # The failure's traceback holds the kernel frames, whose closures
        # hold ``first_exc``: clear it so the error raised below is the
        # only path to them.
        cause, first_exc = first_exc, None
        error = self._outcome(alive, first_name, cause, nfailed)
        del cause
        if error is not None:
            try:
                raise error
            finally:
                del error

    def _outcome(
        self,
        alive: list[threading.Thread],
        name: str | None,
        cause: BaseException | None,
        nfailed: int,
    ) -> BaseException | None:
        """The error a finished join raises, if any (``__cause__`` set)."""
        if self.abort is not None and self.abort.is_set():
            self.abort.record_stragglers(alive)
            error = self.abort.to_error()
            if isinstance(cause, AbortedError):
                cause = None
        elif cause is not None:
            more = (
                f" ({nfailed - 1} more failures)" if nfailed > 1 else ""
            )
            error = RuntimeClusterError(
                f"kernel {name!r} failed: {cause!r}{more}"
            )
        elif alive:
            return RuntimeClusterError(
                f"kernels did not finish: {[t.name for t in alive]}"
            )
        else:
            return None
        error.__cause__ = cause
        return error
