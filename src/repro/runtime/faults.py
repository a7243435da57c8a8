"""Declarative fault injection for the functional runtime.

The fault model has three axes, mirroring what breaks on real NVLink
clusters:

- **link faults** (:class:`LinkFault`): per-send jitter delays, frame
  drops, and payload corruption on the P2P links, matched to links by
  tag substring (``"up t0 2->3"``-style tags, empty match = every link);
- **GPU faults** (:class:`GpuFault`): a *straggler* (every chunk of the
  GPU's reduce kernel is slowed), a *crash* (the kernel raises
  mid-collective), or a *stuck* kernel (stops posting its semaphores
  without dying — the pathological case the abort protocol exists for);
- **recovery policy**: link-layer retransmission (bounded retries with
  linear backoff) that makes drop/corrupt faults invisible to the
  application, or — with ``recover=False`` — faults delivered raw so the
  detection paths (receiver CRC check, sequence check) are exercised.

Everything is deterministic: each fault site draws from its own RNG
seeded with a **stable digest** of the site tag (``zlib.crc32``), never
``hash()``, whose per-process salting (``PYTHONHASHSEED``) would make
"reproducible" chaos differ between runs.

The fault-free path never imports this module: the frame checksum
(:func:`~repro.runtime.memory.payload_checksum`) lives beside the buffers
and the per-GPU :class:`~repro.runtime.executor.PhaseBoard` beside the
executor that stamps it.  The executor fires a GPU fault through the
plan it was given (:meth:`FaultPlan.apply_gpu_fault`), so only a caller
that builds a :class:`FaultPlan` loads the fault DSL.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError, RuntimeClusterError

if TYPE_CHECKING:
    from repro.runtime.executor import PhaseBoard
    from repro.runtime.sync import AbortCell

#: GPU fault kinds.
CRASH = "crash"
STUCK = "stuck"
STRAGGLER = "straggler"

_GPU_FAULT_KINDS = (CRASH, STUCK, STRAGGLER)

#: How often a GPU wedged by a STUCK fault polls for the abort (s).
STUCK_POLL = 1e-4


def stable_tag_seed(tag: str, seed: int) -> int:
    """Process-stable RNG seed for a named fault site.

    ``hash()`` is salted per interpreter, so it must never seed
    "deterministic" fault injection; CRC32 of the tag mixed with the plan
    seed is stable across processes and platforms.
    """
    return (zlib.crc32(tag.encode("utf-8")) ^ (seed * 0x9E3779B1)) & 0x7FFFFFFF


class FaultStats:
    """Thread-safe counters of everything the injectors did."""

    _FIELDS = (
        "delays_injected",
        "drops",
        "corruptions",
        "retransmissions",
        "crashes",
        "stalls",
        "io_failures",
        "torn_writes",
        "bit_flips",
        "io_retries",
    )

    def __init__(self) -> None:
        # Host-side bookkeeping, not a device primitive.
        self._lock = threading.Lock()  # sync-lint: allow(raw-threading)
        self._counts = {name: 0 for name in self._FIELDS}

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] += n

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts[name]

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def describe(self) -> str:
        snap = self.snapshot()
        return ", ".join(f"{k}={v}" for k, v in snap.items())


@dataclass(frozen=True)
class LinkFault:
    """Fault behaviour for link sends whose tag contains ``match``.

    Attributes:
        match: substring of the link tag this fault applies to (empty
            matches every link).  Wire tags look like ``"plan reduce
            t0 2->3"``; a tree edge's wires also answer to ``"up t0
            2->3"`` / ``"down t0 3->2"``, relay legs included.
        delay: max uniform jitter (seconds) added per send attempt.
        drop_prob: probability a frame is lost in transit.
        corrupt_prob: probability a frame arrives with damaged payload.
    """

    match: str = ""
    delay: float = 0.0
    drop_prob: float = 0.0
    corrupt_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ConfigError("link fault delay must be non-negative")
        for prob in (self.drop_prob, self.corrupt_prob):
            if not 0.0 <= prob < 1.0:
                raise ConfigError("fault probabilities must be in [0, 1)")
        if self.drop_prob + self.corrupt_prob >= 1.0:
            raise ConfigError("drop_prob + corrupt_prob must stay below 1")

    def applies_to(self, tag: str) -> bool:
        return self.match in tag


@dataclass(frozen=True)
class GpuFault:
    """Fault behaviour for one virtual GPU's persistent reduce kernel.

    Attributes:
        gpu: GPU id the fault binds to.
        kind: ``"crash"`` (raise), ``"stuck"`` (stop posting, stay
            alive), or ``"straggler"`` (sleep ``delay`` before every
            chunk).
        after_chunk: chunk position (within tree 0) at which a crash or
            stall fires.
        delay: per-chunk straggler delay in seconds.
    """

    gpu: int
    kind: str
    after_chunk: int = 0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _GPU_FAULT_KINDS:
            raise ConfigError(
                f"unknown GPU fault kind {self.kind!r}; "
                f"expected one of {_GPU_FAULT_KINDS}"
            )
        if self.after_chunk < 0:
            raise ConfigError("after_chunk must be non-negative")
        if self.delay < 0:
            raise ConfigError("straggler delay must be non-negative")
        if self.kind == STRAGGLER and self.delay <= 0:
            raise ConfigError("a straggler fault needs a positive delay")


@dataclass(frozen=True)
class StorageFault:
    """Fault behaviour for checkpoint-storage writes whose path contains
    ``match``.

    Mirrors :class:`LinkFault` for the durability layer: a write either
    fails outright (the backend raises ``OSError`` — retryable), lands
    *torn* (only a prefix of the bytes reaches the medium — the classic
    crash-during-write), or lands with a flipped bit (silent media
    corruption).  Torn and flipped writes *succeed* from the writer's
    point of view; only the CRC manifest catches them at load time.

    Attributes:
        match: substring of the storage path this fault applies to
            (empty matches every path; paths look like
            ``"commits/gen-00000003/shard-001.bin"``).
        fail_prob: probability a write raises ``OSError``.
        torn_prob: probability a write lands with only a prefix.
        bitflip_prob: probability a write lands with one bit flipped.
        delay: max uniform latency (seconds) added per write.
    """

    match: str = ""
    fail_prob: float = 0.0
    torn_prob: float = 0.0
    bitflip_prob: float = 0.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ConfigError("storage fault delay must be non-negative")
        for prob in (self.fail_prob, self.torn_prob, self.bitflip_prob):
            if not 0.0 <= prob < 1.0:
                raise ConfigError("fault probabilities must be in [0, 1)")
        if self.fail_prob + self.torn_prob + self.bitflip_prob >= 1.0:
            raise ConfigError(
                "fail_prob + torn_prob + bitflip_prob must stay below 1"
            )

    def applies_to(self, path: str) -> bool:
        return self.match in path


@dataclass(frozen=True)
class FaultPlan:
    """A full fault scenario plus the recovery policy.

    Attributes:
        link_faults: link-level faults (first match wins per field is not
            needed — matching faults are combined by taking the max of
            each field, so overlapping specs compose).
        gpu_faults: at most one per GPU.
        storage_faults: checkpoint-storage faults, matched by path
            substring like link faults are matched by tag.
        seed: plan-level seed mixed into every fault site's stable seed.
        recover: retransmit dropped/corrupted frames at the link layer;
            when False, faults are delivered raw and the receiver's
            detection paths raise :class:`~repro.errors.LinkFaultError`.
        max_retries: retransmission bound per chunk before the link gives
            up and raises.
        backoff: base sleep between retransmissions (linear backoff).
        stats: shared counters, filled in as injectors fire.
    """

    link_faults: tuple[LinkFault, ...] = ()
    gpu_faults: tuple[GpuFault, ...] = ()
    storage_faults: tuple[StorageFault, ...] = ()
    seed: int = 0
    recover: bool = True
    max_retries: int = 8
    backoff: float = 1e-4
    stats: FaultStats = field(default_factory=FaultStats, compare=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.backoff < 0:
            raise ConfigError("backoff must be non-negative")
        seen: set[int] = set()
        for fault in self.gpu_faults:
            if fault.gpu in seen:
                raise ConfigError(f"multiple GPU faults for gpu {fault.gpu}")
            seen.add(fault.gpu)

    @staticmethod
    def jitter(delay: float, seed: int = 0) -> "FaultPlan":
        """Uniform per-link send jitter on every link: each wire send
        sleeps up to ``delay`` seconds."""
        if delay < 0:
            raise ConfigError("jitter delay must be non-negative")
        return FaultPlan(link_faults=(LinkFault(delay=delay),), seed=seed)

    def link_injector(
        self, tag: str, *aliases: str | None
    ) -> "LinkInjector | None":
        """Injector for the link named ``tag`` or ``aliases`` (None when
        unaffected); its draws are seeded from ``tag`` alone."""
        names = [name for name in (tag, *aliases) if name]
        matching = [
            f for f in self.link_faults if any(map(f.applies_to, names))
        ]
        if not matching:
            return None
        return LinkInjector(
            tag=tag,
            delay=max(f.delay for f in matching),
            drop_prob=max(f.drop_prob for f in matching),
            corrupt_prob=max(f.corrupt_prob for f in matching),
            plan=self,
        )

    def gpu_fault(self, gpu: int) -> GpuFault | None:
        for fault in self.gpu_faults:
            if fault.gpu == gpu:
                return fault
        return None

    def apply_gpu_fault(
        self,
        gpu: int,
        tree: int,
        pos: int,
        board: "PhaseBoard",
        abort: "AbortCell",
    ) -> None:
        """Fire ``gpu``'s injected fault at reduce chunk position ``pos``.

        Crash/stuck faults fire once, on tree 0 at ``after_chunk``; a
        straggler sleeps before every chunk on every tree.  The sticky
        ``crashed`` / ``stuck`` board stamps are what
        :func:`~repro.runtime.elastic.detect_dead_gpus` reads.
        """
        fault = self.gpu_fault(gpu)
        if fault is None:
            return
        if fault.kind == STRAGGLER:
            time.sleep(fault.delay)
            return
        if tree != 0 or pos != fault.after_chunk:
            return
        if fault.kind == CRASH:
            self.stats.bump("crashes")
            board.set(gpu, f"crashed in reduce t{tree} at chunk {pos}")
            raise RuntimeClusterError(
                f"injected crash on gpu {gpu} (plan reduce t{tree}, "
                f"chunk {pos})"
            )
        if fault.kind == STUCK:
            # Stop posting without dying: peers spin until the first one
            # times out and triggers the abort; then we exit too.
            self.stats.bump("stalls")
            board.set(gpu, f"stuck in reduce t{tree} at chunk {pos}")
            while True:
                abort.raise_if_set()
                time.sleep(STUCK_POLL)

    def storage_injector(self, path: str) -> "StorageInjector | None":
        """Injector for the storage path ``path`` (None when unaffected)."""
        matching = [f for f in self.storage_faults if f.applies_to(path)]
        if not matching:
            return None
        return StorageInjector(
            path=path,
            fail_prob=max(f.fail_prob for f in matching),
            torn_prob=max(f.torn_prob for f in matching),
            bitflip_prob=max(f.bitflip_prob for f in matching),
            delay=max(f.delay for f in matching),
            plan=self,
        )


class LinkInjector:
    """Deterministic per-link fate source.

    One injector exists per link direction; a link's ``send`` is called
    by exactly one kernel thread, so draws need no locking and the draw
    sequence — hence the whole fault schedule — is reproducible across
    processes for a given (tag, plan seed).
    """

    def __init__(
        self,
        *,
        tag: str,
        delay: float,
        drop_prob: float,
        corrupt_prob: float,
        plan: FaultPlan,
    ):
        self.tag = tag
        self.delay = delay
        self.drop_prob = drop_prob
        self.corrupt_prob = corrupt_prob
        self.recover = plan.recover
        self.max_retries = plan.max_retries
        self.backoff = plan.backoff
        self.stats = plan.stats
        self._rng = np.random.default_rng(stable_tag_seed(tag, plan.seed))

    def next_delay(self) -> float:
        """Jitter for the next send attempt (0.0 when none configured)."""
        if self.delay <= 0:
            return 0.0
        return float(self._rng.uniform(0.0, self.delay))

    def next_fate(self) -> str:
        """``"ok"``, ``"drop"``, or ``"corrupt"`` for the next frame."""
        if self.drop_prob <= 0 and self.corrupt_prob <= 0:
            return "ok"
        u = float(self._rng.uniform())
        if u < self.drop_prob:
            return "drop"
        if u < self.drop_prob + self.corrupt_prob:
            return "corrupt"
        return "ok"

    @staticmethod
    def corrupt(values: np.ndarray) -> np.ndarray:
        """A damaged copy of ``values`` (one element nudged by 1 ulp —
        guaranteed to change the payload bytes, hence the CRC)."""
        damaged = values.copy()
        damaged[0] = np.nextafter(damaged[0], np.inf)
        return damaged


class StorageInjector:
    """Deterministic per-path fate source for checkpoint-storage writes.

    One injector exists per storage path; a path is written by exactly
    one thread at a time in the two-phase protocol, so draws need no
    locking and the fate sequence is reproducible across processes for a
    given (path, plan seed) — the same discipline as
    :class:`LinkInjector`.  Note that because the seed derives from the
    *path*, a retried write of the same path advances the same RNG, so a
    persistent fault site stays faulty under retry with exactly the
    configured probability per attempt.
    """

    def __init__(
        self,
        *,
        path: str,
        fail_prob: float,
        torn_prob: float,
        bitflip_prob: float,
        delay: float,
        plan: FaultPlan,
    ):
        self.path = path
        self.fail_prob = fail_prob
        self.torn_prob = torn_prob
        self.bitflip_prob = bitflip_prob
        self.delay = delay
        self.stats = plan.stats
        self._rng = np.random.default_rng(stable_tag_seed(path, plan.seed))

    def next_delay(self) -> float:
        """Latency for the next write attempt (0.0 when none configured)."""
        if self.delay <= 0:
            return 0.0
        return float(self._rng.uniform(0.0, self.delay))

    def next_fate(self) -> str:
        """``"ok"``, ``"fail"``, ``"torn"``, or ``"bitflip"``."""
        if (
            self.fail_prob <= 0
            and self.torn_prob <= 0
            and self.bitflip_prob <= 0
        ):
            return "ok"
        u = float(self._rng.uniform())
        if u < self.fail_prob:
            return "fail"
        if u < self.fail_prob + self.torn_prob:
            return "torn"
        if u < self.fail_prob + self.torn_prob + self.bitflip_prob:
            return "bitflip"
        return "ok"

    def tear(self, data: bytes) -> bytes:
        """A torn copy of ``data``: only a strict prefix reached the
        medium (at least one byte lost, possibly all of them)."""
        if not data:
            return data
        keep = int(self._rng.integers(0, len(data)))
        return data[:keep]

    def bitflip(self, data: bytes) -> bytes:
        """A copy of ``data`` with one random bit flipped (silent media
        corruption — undetectable without the CRC manifest)."""
        if not data:
            return data
        damaged = bytearray(data)
        pos = int(self._rng.integers(0, len(damaged)))
        bit = int(self._rng.integers(0, 8))
        damaged[pos] ^= 1 << bit
        return bytes(damaged)
