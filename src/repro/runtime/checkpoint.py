"""Durable checkpointing with a two-phase commit protocol.

Modeled on torch.distributed.checkpoint's staged, atomically-committed
writes: a checkpoint *generation* is first materialized under a staging
prefix (one binary shard per member plus a CRC32-per-shard manifest,
written last), every byte is fsynced, and only then does a single atomic
rename publish the generation under the committed prefix.  A reader can
therefore never observe a half-written generation *by construction* —
and anything that corrupts a shard after the writer's buffer (torn
write, bit flip on the medium) is caught at load time by the manifest's
CRCs, with automatic fallback to the previous committed generation.

Storage is pluggable behind :class:`StorageBackend` so the fault layer
(:mod:`repro.runtime.faults`) can sit between the checkpointer and the
medium: :class:`FaultyBackend` wraps any backend and injects write
failures (retryable ``OSError``), torn writes, bit flips, and latency
from a :class:`~repro.runtime.faults.FaultPlan`'s ``storage_faults``,
deterministically per (path, seed).  The checkpointer retries failed
writes with bounded exponential backoff; torn/flipped writes *succeed*
from the writer's point of view and are only detectable on load — which
is exactly what the CRC manifest is for.

Failure matrix (see DESIGN §10):

===================  ===============================================
failure              outcome
===================  ===============================================
write raises         bounded retry w/ exponential backoff; generation
                     abandoned (staging removed) when exhausted
crash during stage   orphan staging dir; never scanned by load
crash during commit  rename is atomic — generation is either fully
                     committed or still staging (ignored)
torn shard           manifest CRC/size mismatch on load; generation
                     skipped, fall back to previous commit
bit-flipped shard    manifest CRC mismatch on load; same fallback
torn manifest        JSON parse fails; same fallback
===================  ===============================================

The *every-site drill* (:func:`every_site_drill`) turns the "crash
during stage / crash during commit" rows into an exhaustive check: it
enumerates every durable operation one save performs (each shard write,
the manifest write, the commit rename) via :func:`enumerate_write_sites`
and simulates a process crash **at each one**, under every applicable
fate — a write that never reaches the medium (``lost``), a write torn
mid-flight (``torn``), and a crash just before or just after the atomic
rename (``before`` / ``after``).  After each simulated crash a fresh
reader must recover the newest *committed* generation bit-exactly and a
follow-up save must succeed despite the staging residue.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError, ConfigError
from repro.runtime.faults import FaultPlan

#: Prefix for generations being written (never loaded from).
STAGING = "staging"
#: Prefix for committed generations (the only ones load considers).
COMMITS = "commits"
#: Manifest file name, written last within a staging generation.
MANIFEST = "manifest.json"

_GEN_RE = re.compile(r"^gen-(\d{8})$")
_MANIFEST_VERSION = 1
#: Committed generations a checkpointer retains; older ones are pruned
#: after each successful commit.
KEEP = 2
#: Extra write attempts per path after the first.
MAX_RETRIES = 3


def _gen_name(generation: int) -> str:
    return f"gen-{generation:08d}"


@dataclass(frozen=True)
class CheckpointState:
    """One consistent training state to persist.

    Attributes:
        weights: the shared model weights (float64).
        iteration: number of completed iterations the weights reflect
            (weights after iteration ``iteration - 1``; 0 = initial).
        members: physical GPU ids that were members when the state was
            captured — restore re-shards for whatever membership exists
            *then*, so this is provenance, not a constraint.
    """

    weights: np.ndarray
    iteration: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ConfigError("checkpoint iteration must be non-negative")
        if not self.members:
            raise ConfigError("checkpoint needs at least one member")


class StorageBackend(ABC):
    """Minimal storage contract the two-phase protocol needs.

    Paths are forward-slash relative strings (``"staging/gen-00000001/
    shard-000.bin"``).  ``write`` must be durable (data on the medium
    when it returns) and ``rename`` must be atomic — those two properties
    carry the whole commit protocol.
    """

    @abstractmethod
    def write(self, path: str, data: bytes) -> None:
        """Durably write ``data`` at ``path`` (creating parents).

        Raises:
            OSError: on a (retryable) storage failure.
        """

    @abstractmethod
    def read(self, path: str) -> bytes:
        """Read the bytes at ``path``.

        Raises:
            OSError: when the path does not exist or cannot be read.
        """

    @abstractmethod
    def listdir(self, path: str) -> list[str]:
        """Immediate child names under ``path`` (sorted; [] if absent)."""

    @abstractmethod
    def rename(self, src: str, dst: str) -> None:
        """Atomically move the tree at ``src`` to ``dst``.

        Raises:
            OSError: when the move cannot be performed atomically.
        """

    @abstractmethod
    def remove_tree(self, path: str) -> None:
        """Delete the tree at ``path`` (no-op when absent)."""


class DirectoryBackend(StorageBackend):
    """Filesystem-backed storage rooted at ``root``.

    ``write`` fsyncs the file; ``rename`` uses ``os.rename`` (atomic
    within one filesystem) and fsyncs the destination's parent directory
    so the commit itself is durable, not just the shard bytes.
    """

    def __init__(self, root: str | os.PathLike[str]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _abs(self, path: str) -> Path:
        full = (self.root / path).resolve()
        if self.root.resolve() not in full.parents and full != self.root.resolve():
            raise ConfigError(f"path {path!r} escapes the backend root")
        return full

    def write(self, path: str, data: bytes) -> None:
        full = self._abs(path)
        full.parent.mkdir(parents=True, exist_ok=True)
        # Direct write is safe here: the protocol layer only ever writes
        # under staging/ and publishes via the staging->commits rename.
        with open(full, "wb") as f:  # sync-lint: allow(ckpt-atomic)
            f.write(data)
            f.flush()
            os.fsync(f.fileno())

    def read(self, path: str) -> bytes:
        return self._abs(path).read_bytes()

    def listdir(self, path: str) -> list[str]:
        full = self._abs(path)
        if not full.is_dir():
            return []
        return sorted(p.name for p in full.iterdir())

    def rename(self, src: str, dst: str) -> None:
        src_full, dst_full = self._abs(src), self._abs(dst)
        dst_full.parent.mkdir(parents=True, exist_ok=True)
        os.rename(src_full, dst_full)
        dirfd = os.open(dst_full.parent, os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)

    def remove_tree(self, path: str) -> None:
        full = self._abs(path)
        if not full.exists():
            return
        import shutil

        shutil.rmtree(full)


class MemoryBackend(StorageBackend):
    """In-memory storage for tests and drills — same contract, no disk.

    A single lock makes every operation atomic, including the prefix
    rename (the whole point of the commit step).
    """

    def __init__(self) -> None:
        # Host-side bookkeeping, not a device primitive.
        self._lock = threading.Lock()  # sync-lint: allow(raw-threading)
        self._files: dict[str, bytes] = {}

    def write(self, path: str, data: bytes) -> None:
        with self._lock:
            self._files[path] = bytes(data)

    def read(self, path: str) -> bytes:
        with self._lock:
            if path not in self._files:
                raise FileNotFoundError(path)
            return self._files[path]

    def listdir(self, path: str) -> list[str]:
        prefix = path.rstrip("/") + "/"
        with self._lock:
            children = {
                p[len(prefix):].split("/", 1)[0]
                for p in self._files
                if p.startswith(prefix)
            }
        return sorted(children)

    def rename(self, src: str, dst: str) -> None:
        src_prefix = src.rstrip("/") + "/"
        dst_prefix = dst.rstrip("/") + "/"
        with self._lock:
            moved = {
                p: data for p, data in self._files.items()
                if p == src or p.startswith(src_prefix)
            }
            if not moved:
                raise FileNotFoundError(src)
            for p, data in moved.items():
                del self._files[p]
                if p == src:
                    self._files[dst] = data
                else:
                    self._files[dst_prefix + p[len(src_prefix):]] = data

    def remove_tree(self, path: str) -> None:
        prefix = path.rstrip("/") + "/"
        with self._lock:
            for p in [
                p for p in self._files
                if p == path or p.startswith(prefix)
            ]:
                del self._files[p]


class PassthroughBackend(StorageBackend):
    """Forwards every operation to ``inner`` unchanged.

    The base of the storage interposers below: each overrides only the
    durable operations (``write``/``rename``) it intercepts.
    """

    def __init__(self, inner: StorageBackend):
        self.inner = inner

    def write(self, path: str, data: bytes) -> None:
        self.inner.write(path, data)

    def read(self, path: str) -> bytes:
        return self.inner.read(path)

    def listdir(self, path: str) -> list[str]:
        return self.inner.listdir(path)

    def rename(self, src: str, dst: str) -> None:
        self.inner.rename(src, dst)

    def remove_tree(self, path: str) -> None:
        self.inner.remove_tree(path)


class FaultyBackend(PassthroughBackend):
    """Fault-injecting decorator over any backend.

    Writes consult the :class:`~repro.runtime.faults.FaultPlan`'s
    ``storage_faults`` for a deterministic per-path fate: ``fail`` raises
    ``OSError`` (the retryable case), ``torn`` stores only a prefix of
    the bytes, ``bitflip`` stores the bytes with one bit flipped, and a
    configured latency sleeps before the attempt.  Torn and flipped
    writes are *silent* — the inner write succeeds — so only the CRC
    manifest can catch them, at load time.  Reads pass through: the
    model is faulty media under a correct reader.

    One injector lives per path for the backend's lifetime, so repeated
    writes to the same path advance its fate stream: injected failures
    are *transient* and the checkpointer's bounded retry can clear them.
    """

    def __init__(self, inner: StorageBackend, plan: FaultPlan):
        super().__init__(inner)
        self.plan = plan
        self._injectors: dict[str, object] = {}

    def _injector_for(self, path: str):
        if path not in self._injectors:
            self._injectors[path] = self.plan.storage_injector(path)
        return self._injectors[path]

    def write(self, path: str, data: bytes) -> None:
        injector = self._injector_for(path)
        if injector is None:
            self.inner.write(path, data)
            return
        delay = injector.next_delay()
        if delay > 0:
            injector.stats.bump("delays_injected")
            time.sleep(delay)
        fate = injector.next_fate()
        if fate == "fail":
            injector.stats.bump("io_failures")
            raise OSError(f"injected write failure at {path!r}")
        if fate == "torn":
            injector.stats.bump("torn_writes")
            data = injector.tear(data)
        elif fate == "bitflip":
            injector.stats.bump("bit_flips")
            data = injector.bitflip(data)
        self.inner.write(path, data)


class SimulatedCrash(Exception):
    """A process death injected at one durable write site.

    Deliberately a plain ``Exception``: were it an ``OSError`` the
    checkpointer's bounded retry would swallow it, and were it a
    ``CheckpointError`` the save path's own cleanup (``remove_tree`` of
    the staging residue) would run — neither happens when a real process
    dies, and the drill's whole point is to leave the medium exactly as
    a crash would.
    """


@dataclass(frozen=True)
class WriteSite:
    """One durable operation a save performs, in program order.

    Attributes:
        index: 0-based position in the save's durable-op sequence.
        op: ``"write"`` (shard or manifest) or ``"rename"`` (the
            commit).
        path: backend-relative path the operation targets (for renames,
            the source, i.e. the staging generation).
    """

    index: int
    op: str
    path: str


class _RecordingBackend(PassthroughBackend):
    """Passthrough backend that records durable ops, for site probing."""

    def __init__(self, inner: StorageBackend):
        super().__init__(inner)
        self.sites: list[WriteSite] = []

    def write(self, path: str, data: bytes) -> None:
        self.sites.append(WriteSite(len(self.sites), "write", path))
        self.inner.write(path, data)

    def rename(self, src: str, dst: str) -> None:
        self.sites.append(WriteSite(len(self.sites), "rename", src))
        self.inner.rename(src, dst)


class CrashingBackend(PassthroughBackend):
    """Kill the process (``SimulatedCrash``) at one durable op.

    Durable ops (writes and renames) are counted in order; the op at
    ``crash_at`` raises :class:`SimulatedCrash` with a fate controlling
    what the medium saw first:

    - write + ``"lost"``: nothing reaches the medium,
    - write + ``"torn"``: only a prefix of the bytes lands,
    - rename + ``"before"``: the rename never happens (generation stays
      staging),
    - rename + ``"after"``: the rename completes, *then* the process
      dies (generation is committed; only post-commit bookkeeping is
      lost).

    Reads and other metadata ops pass through untouched.
    """

    def __init__(self, inner: StorageBackend, *, crash_at: int, fate: str):
        if fate not in ("lost", "torn", "before", "after"):
            raise ConfigError(f"unknown crash fate {fate!r}")
        super().__init__(inner)
        self.crash_at = crash_at
        self.fate = fate
        self.ops = 0

    def _next_op(self) -> bool:
        hit = self.ops == self.crash_at
        self.ops += 1
        return hit

    def write(self, path: str, data: bytes) -> None:
        if self._next_op():
            if self.fate == "torn":
                self.inner.write(path, data[: max(1, len(data) // 2)])
            raise SimulatedCrash(
                f"crash at write of {path!r} (fate={self.fate})"
            )
        self.inner.write(path, data)

    def rename(self, src: str, dst: str) -> None:
        if self._next_op():
            if self.fate == "after":
                self.inner.rename(src, dst)
            raise SimulatedCrash(
                f"crash at rename of {src!r} (fate={self.fate})"
            )
        self.inner.rename(src, dst)


def enumerate_write_sites(state: CheckpointState) -> list[WriteSite]:
    """Every durable op one save of ``state`` performs, in order.

    Runs a clean probe save against a throwaway in-memory backend with a
    recording decorator: with ``n`` members that is ``n`` shard writes,
    the manifest write, and the commit rename — ``n + 2`` sites.
    """
    recorder = _RecordingBackend(MemoryBackend())
    Checkpointer(recorder).save(state)
    return recorder.sites


def _fates_for(site: WriteSite) -> tuple[str, ...]:
    return ("lost", "torn") if site.op == "write" else ("before", "after")


def every_site_drill(*, elems: int = 64, seed: int = 0) -> dict:
    """Crash a save at every durable write site and prove recovery.

    The state has 8 members, so one save has 10 write sites.  For each
    :class:`WriteSite` and each applicable fate:

    1. commit a *baseline* generation on a fresh :class:`MemoryBackend`,
    2. run a second save through a :class:`CrashingBackend` armed at the
       site — the save must die with :class:`SimulatedCrash`, leaving
       the medium exactly as a process crash would (staging residue,
       torn bytes, half-finished commit),
    3. a fresh :class:`Checkpointer` over the raw backend must
       ``load_latest()`` bit-exactly: the *new* state when the crash
       landed after the commit rename, the baseline otherwise,
    4. a follow-up save must succeed despite the residue, and a final
       load must return it bit-exactly.

    Returns:
        A report dict: ``sites`` (per-scenario outcome rows), ``nsites``,
        ``nscenarios``, and ``ok`` (always ``True`` — violations raise).

    Raises:
        CheckpointError: on any recovery violation — wrong generation
            observed, non-bit-exact weights, or a crash that failed to
            fire.
    """
    rng = np.random.default_rng(seed)
    members = tuple(range(8))
    baseline = CheckpointState(
        weights=rng.normal(size=elems), iteration=1, members=members
    )
    crashed_state = CheckpointState(
        weights=rng.normal(size=elems), iteration=2, members=members
    )
    followup = CheckpointState(
        weights=rng.normal(size=elems), iteration=3, members=members
    )
    sites = enumerate_write_sites(baseline)
    rows: list[dict] = []
    for site in sites:
        for fate in _fates_for(site):
            label = f"site {site.index} ({site.op} {site.path}) fate={fate}"
            backend = MemoryBackend()
            base_gen = Checkpointer(backend).save(baseline)
            crasher = Checkpointer(
                CrashingBackend(backend, crash_at=site.index, fate=fate)
            )
            try:
                crasher.save(crashed_state)
            except SimulatedCrash:
                pass
            else:
                raise CheckpointError(
                    f"{label}: armed crash never fired — site map stale?"
                )
            reader = Checkpointer(backend)
            state, generation = reader.load_latest()
            committed = site.op == "rename" and fate == "after"
            expect = crashed_state if committed else baseline
            expect_gen = base_gen + 1 if committed else base_gen
            if generation != expect_gen:
                raise CheckpointError(
                    f"{label}: recovered generation {generation}, "
                    f"expected {expect_gen}"
                )
            if not np.array_equal(state.weights, expect.weights) or (
                state.iteration != expect.iteration
            ):
                raise CheckpointError(
                    f"{label}: recovered state is not bit-exact"
                )
            follow_gen = reader.save(followup)
            final, final_gen = Checkpointer(backend).load_latest()
            if final_gen != follow_gen or not np.array_equal(
                final.weights, followup.weights
            ):
                raise CheckpointError(
                    f"{label}: follow-up save did not win the next load"
                )
            rows.append({
                "site": site.index,
                "op": site.op,
                "path": site.path,
                "fate": fate,
                "recovered_generation": generation,
                "recovered_iteration": state.iteration,
                "followup_generation": follow_gen,
            })
    return {
        "nsites": len(sites),
        "nscenarios": len(rows),
        "sites": rows,
        "ok": True,
    }


class Checkpointer:
    """Two-phase durable checkpointer over a pluggable backend.

    Save protocol (per generation ``g``):

    1. write ``staging/gen-g/shard-NNN.bin`` for every member (bounded
       retry with exponential backoff on ``OSError``),
    2. write ``staging/gen-g/manifest.json`` **last** (generation,
       iteration, members, element offsets, CRC32 + byte size per
       shard),
    3. commit: atomic rename ``staging/gen-g`` -> ``commits/gen-g``,
    4. prune committed generations beyond the newest :data:`KEEP`.

    Load protocol: scan ``commits/`` newest-first; a generation is
    accepted only if its manifest parses, every shard exists with the
    recorded size *and* CRC32, and the offsets tile the weight vector
    exactly; otherwise it is skipped (counted as a fallback) and the
    next-older generation is tried.  One pass over a generation reads
    each shard once and both checks and assembles it.

    Args:
        backend: storage backend (wrap in :class:`FaultyBackend` to
            inject faults).
        backoff: base sleep before retry ``k`` (``backoff * 2**k``); a
            write is tried :data:`MAX_RETRIES` more times after the first.
    """

    def __init__(self, backend: StorageBackend, *, backoff: float = 1e-3):
        if backoff < 0:
            raise ConfigError("backoff must be non-negative")
        self.backend = backend
        self.backoff = backoff
        self.counters = {
            "saves": 0,
            "commits": 0,
            "write_retries": 0,
            "write_failures": 0,
            "corrupt_skipped": 0,
            "loads": 0,
        }

    # -- write path ------------------------------------------------------

    def _write_retrying(self, path: str, data: bytes) -> None:
        """One durable write with bounded retry + exponential backoff.

        Every caller passes a ``staging/`` path — commits happen only
        through the atomic rename in :meth:`save`.

        Raises:
            CheckpointError: when every attempt raised ``OSError``.
        """
        last: OSError | None = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                self.counters["write_retries"] += 1
                if self.backoff:
                    time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                self.backend.write(path, data)  # sync-lint: allow(ckpt-atomic)
                return
            except OSError as exc:
                last = exc
        self.counters["write_failures"] += 1
        raise CheckpointError(
            f"write of {path!r} failed after {MAX_RETRIES + 1} "
            f"attempt(s): {last}"
        )

    def save(self, state: CheckpointState) -> int:
        """Persist ``state`` as a new committed generation.

        Returns:
            The committed generation number.

        Raises:
            CheckpointError: when a shard, manifest, or the commit rename
                keeps failing past the retry budget — the staging
                residue is removed and no generation is published.
        """
        self.counters["saves"] += 1
        weights = np.ascontiguousarray(state.weights, dtype=np.float64)
        generation = self._next_generation()
        stage = f"{STAGING}/{_gen_name(generation)}"
        nshards = len(state.members)
        bounds = np.linspace(0, weights.size, nshards + 1).astype(int)
        shards = []
        try:
            for i in range(nshards):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                blob = weights[lo:hi].tobytes()
                name = f"shard-{i:03d}.bin"
                self._write_retrying(f"{stage}/{name}", blob)
                shards.append({
                    "name": name,
                    "offset": lo,
                    "elems": hi - lo,
                    "nbytes": len(blob),
                    "crc32": zlib.crc32(blob),
                })
            manifest = {
                "version": _MANIFEST_VERSION,
                "generation": generation,
                "iteration": state.iteration,
                "members": list(state.members),
                "total_elems": int(weights.size),
                "dtype": "<f8",
                "shards": shards,
            }
            self._write_retrying(
                f"{stage}/{MANIFEST}",
                json.dumps(manifest, indent=1).encode(),
            )
            try:
                self.backend.rename(
                    stage, f"{COMMITS}/{_gen_name(generation)}"
                )
            except OSError as exc:
                raise CheckpointError(
                    f"commit rename of generation {generation} failed: "
                    f"{exc}"
                ) from exc
        except CheckpointError:
            self.backend.remove_tree(stage)
            raise
        self.counters["commits"] += 1
        self._prune()
        return generation

    def _next_generation(self) -> int:
        taken = [-1]
        for prefix in (COMMITS, STAGING):
            for name in self.backend.listdir(prefix):
                match = _GEN_RE.match(name)
                if match:
                    taken.append(int(match.group(1)))
        return max(taken) + 1

    def _prune(self) -> None:
        committed = self.generations()
        for generation in committed[:-KEEP]:
            self.backend.remove_tree(f"{COMMITS}/{_gen_name(generation)}")

    # -- read path -------------------------------------------------------

    def generations(self) -> list[int]:
        """Committed generation numbers, oldest first."""
        found = []
        for name in self.backend.listdir(COMMITS):
            match = _GEN_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def _read(
        self, generation: int
    ) -> tuple[CheckpointState | None, list[str]]:
        """One pass over a committed generation: ``(state, [])`` when it
        loads, ``(None, problems)`` otherwise.  Each shard is read and
        CRC-checked once."""
        base = f"{COMMITS}/{_gen_name(generation)}"
        try:
            raw = self.backend.read(f"{base}/{MANIFEST}")
        except OSError:
            return None, ["manifest missing or unreadable"]
        try:
            manifest = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            return None, ["manifest does not parse (torn or corrupt write)"]
        problems = []
        blobs = []
        covered = 0
        # A bit-flip can leave valid JSON with mangled keys or values —
        # any schema violation below is corruption, never a crash.
        try:
            for shard in manifest["shards"]:
                try:
                    blob = self.backend.read(f"{base}/{shard['name']}")
                except OSError:
                    problems.append(f"{shard['name']}: missing")
                    continue
                if len(blob) != shard["nbytes"]:
                    problems.append(
                        f"{shard['name']}: size {len(blob)} != recorded "
                        f"{shard['nbytes']} (torn write)"
                    )
                    continue
                if zlib.crc32(blob) != shard["crc32"]:
                    problems.append(
                        f"{shard['name']}: CRC mismatch (corrupt payload)"
                    )
                    continue
                covered += shard["elems"]
                blobs.append((shard, blob))
            if problems:
                return None, problems
            if covered != manifest["total_elems"]:
                return None, [
                    f"shards cover {covered} elems, manifest says "
                    f"{manifest['total_elems']}"
                ]
            weights = np.empty(manifest["total_elems"], dtype=np.float64)
            for shard, blob in blobs:
                lo = shard["offset"]
                weights[lo:lo + shard["elems"]] = np.frombuffer(
                    blob, dtype=manifest["dtype"]
                )
            state = CheckpointState(
                weights=weights,
                iteration=manifest["iteration"],
                members=tuple(manifest["members"]),
            )
        except (KeyError, TypeError, ValueError):
            return None, ["manifest schema is damaged (corrupt write)"]
        return state, []

    def validate(self, generation: int) -> list[str]:
        """Problems with a committed generation ([] when loadable)."""
        return self._read(generation)[1]

    def load(self, generation: int) -> CheckpointState:
        """Load one committed generation, validating every shard.

        Raises:
            CheckpointError: when the generation is missing or corrupt.
        """
        state, problems = self._read(generation)
        if problems:
            raise CheckpointError(
                f"generation {generation} is not loadable: "
                + "; ".join(problems)
            )
        self.counters["loads"] += 1
        return state

    def load_latest(self) -> tuple[CheckpointState, int]:
        """Newest loadable committed generation, falling back past any
        corrupt ones.

        Returns:
            ``(state, generation)``.

        Raises:
            CheckpointError: when no committed generation validates.
        """
        skipped: list[str] = []
        for generation in reversed(self.generations()):
            state, problems = self._read(generation)
            if problems:
                self.counters["corrupt_skipped"] += 1
                skipped.append(
                    f"gen {generation}: {'; '.join(problems)}"
                )
                continue
            self.counters["loads"] += 1
            return state, generation
        detail = ("; ".join(skipped)) or "no committed generations"
        raise CheckpointError(f"no loadable checkpoint: {detail}")
