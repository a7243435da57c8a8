"""Durable checkpointer: two-phase commit, CRC validation, fault drills.

The safety property under test is absolute: a reader can never observe a
half-written or corrupt generation.  Staging never satisfies a load,
torn/bit-flipped shards are caught by the manifest CRCs with fallback to
the previous commit, and a bit-flipped manifest — even one that still
parses as JSON — is treated as corruption, never a crash.
"""

import json

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigError
from repro.runtime import (
    Checkpointer,
    CheckpointState,
    DirectoryBackend,
    FaultPlan,
    FaultyBackend,
    MemoryBackend,
    StorageFault,
)
from repro.runtime import checkpoint
from repro.runtime.checkpoint import COMMITS, KEEP, MANIFEST, STAGING


def make_state(iteration=0, elems=64, seed=0, members=tuple(range(8))):
    rng = np.random.default_rng(seed + iteration)
    return CheckpointState(
        weights=rng.normal(size=elems),
        iteration=iteration,
        members=members,
    )


class TestCheckpointState:
    def test_negative_iteration_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            CheckpointState(np.zeros(4), iteration=-1, members=(0,))

    def test_empty_members_rejected(self):
        with pytest.raises(ConfigError, match="member"):
            CheckpointState(np.zeros(4), iteration=0, members=())


class TestSaveLoad:
    def test_roundtrip_bit_exact(self):
        ckpt = Checkpointer(MemoryBackend())
        state = make_state(iteration=3)
        generation = ckpt.save(state)
        loaded, loaded_gen = ckpt.load_latest()
        assert loaded_gen == generation
        assert np.array_equal(loaded.weights, state.weights)
        assert loaded.iteration == 3
        assert loaded.members == tuple(range(8))

    def test_generations_monotonic(self):
        ckpt = Checkpointer(MemoryBackend())
        gens = [ckpt.save(make_state(iteration=i)) for i in range(3)]
        assert gens == [0, 1, 2]
        assert ckpt.generations() == gens[-KEEP:]

    def test_one_shard_per_member(self):
        backend = MemoryBackend()
        ckpt = Checkpointer(backend)
        generation = ckpt.save(make_state(members=(0, 1, 2, 4, 5)))
        base = f"{COMMITS}/gen-{generation:08d}"
        names = backend.listdir(base)
        assert MANIFEST in names
        assert sum(1 for n in names if n.startswith("shard-")) == 5
        manifest = json.loads(backend.read(f"{base}/{MANIFEST}"))
        assert manifest["members"] == [0, 1, 2, 4, 5]
        assert all("crc32" in s for s in manifest["shards"])

    def test_prune_keeps_newest(self):
        ckpt = Checkpointer(MemoryBackend())
        for i in range(5):
            ckpt.save(make_state(iteration=i))
        assert len(ckpt.generations()) == KEEP
        _, generation = ckpt.load_latest()
        assert generation == max(ckpt.generations())

    def test_load_without_commit_raises(self):
        with pytest.raises(CheckpointError, match="no loadable"):
            Checkpointer(MemoryBackend()).load_latest()

    def test_staging_residue_never_loaded(self):
        backend = MemoryBackend()
        ckpt = Checkpointer(backend)
        ckpt.save(make_state(iteration=1))
        # A crashed writer's staging residue must be invisible to load.
        backend.write(f"{STAGING}/gen-00000007/shard-000.bin", b"junk")
        _, generation = ckpt.load_latest()
        assert generation == 0
        # ... but its number is reserved so a later save can't collide.
        assert ckpt.save(make_state(iteration=2)) == 8


class TestDirectoryBackend:
    def test_roundtrip_on_disk(self, tmp_path):
        ckpt = Checkpointer(DirectoryBackend(tmp_path / "ckpt"))
        state = make_state(iteration=4)
        ckpt.save(state)
        loaded, _ = ckpt.load_latest()
        assert np.array_equal(loaded.weights, state.weights)

    def test_commit_is_a_rename(self, tmp_path):
        root = tmp_path / "ckpt"
        ckpt = Checkpointer(DirectoryBackend(root))
        ckpt.save(make_state())
        assert (root / COMMITS / "gen-00000000" / MANIFEST).exists()
        assert list((root / STAGING).glob("*")) == []

    def test_root_escape_rejected(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "ckpt")
        with pytest.raises(ConfigError, match="escapes"):
            backend.write("../outside.bin", b"x")


class TestCorruptionDetection:
    def _committed(self, backend, n=2):
        ckpt = Checkpointer(backend)
        states = [make_state(iteration=i) for i in range(n)]
        for state in states:
            ckpt.save(state)
        return ckpt, states

    def test_bitflip_detected_and_skipped(self):
        backend = MemoryBackend()
        ckpt, states = self._committed(backend)
        path = f"{COMMITS}/gen-00000001/shard-000.bin"
        blob = bytearray(backend.read(path))
        blob[3] ^= 0x10
        backend.write(path, bytes(blob))
        assert any("CRC" in p for p in ckpt.validate(1))
        loaded, generation = ckpt.load_latest()
        assert generation == 0
        assert np.array_equal(loaded.weights, states[0].weights)
        assert ckpt.counters["corrupt_skipped"] == 1

    def test_torn_shard_detected(self):
        backend = MemoryBackend()
        ckpt, _ = self._committed(backend)
        path = f"{COMMITS}/gen-00000001/shard-001.bin"
        backend.write(path, backend.read(path)[:-5])
        assert any("torn" in p for p in ckpt.validate(1))
        _, generation = ckpt.load_latest()
        assert generation == 0

    def test_missing_shard_detected(self):
        backend = MemoryBackend()
        ckpt, _ = self._committed(backend)
        backend.remove_tree(f"{COMMITS}/gen-00000001/shard-002.bin")
        assert any("missing" in p for p in ckpt.validate(1))
        _, generation = ckpt.load_latest()
        assert generation == 0

    def test_unparseable_manifest_detected(self):
        backend = MemoryBackend()
        ckpt, _ = self._committed(backend)
        backend.write(f"{COMMITS}/gen-00000001/{MANIFEST}", b"\xff{{{")
        assert any("parse" in p for p in ckpt.validate(1))
        _, generation = ckpt.load_latest()
        assert generation == 0

    def test_mangled_manifest_keys_are_corruption_not_crash(self):
        # A single bit flip can leave valid JSON with a renamed key;
        # validate must report corruption, never raise KeyError.
        backend = MemoryBackend()
        ckpt, _ = self._committed(backend)
        path = f"{COMMITS}/gen-00000001/{MANIFEST}"
        manifest = json.loads(backend.read(path))
        manifest["shards"][0]["crc33"] = manifest["shards"][0].pop("crc32")
        backend.write(path, json.dumps(manifest).encode())
        assert any("schema" in p for p in ckpt.validate(1))
        _, generation = ckpt.load_latest()
        assert generation == 0

    @pytest.mark.parametrize(
        "damage",
        [
            lambda manifest: manifest["shards"][0].update(offset=10**6),
            lambda manifest: manifest.update(dtype="float65"),
        ],
        ids=["offset", "dtype"],
    )
    def test_mangled_manifest_values_are_corruption_not_crash(self, damage):
        # Valid JSON whose shard cannot be placed or decoded: the one
        # read pass reports it, and load falls back past it.
        backend = MemoryBackend()
        ckpt, _ = self._committed(backend)
        path = f"{COMMITS}/gen-00000001/{MANIFEST}"
        manifest = json.loads(backend.read(path))
        damage(manifest)
        backend.write(path, json.dumps(manifest).encode())
        assert any("schema" in p for p in ckpt.validate(1))
        _, generation = ckpt.load_latest()
        assert generation == 0

    def test_all_generations_corrupt_raises_with_detail(self):
        backend = MemoryBackend()
        ckpt, _ = self._committed(backend, n=1)
        path = f"{COMMITS}/gen-00000000/shard-000.bin"
        backend.write(path, b"garbage")
        with pytest.raises(CheckpointError, match="no loadable"):
            ckpt.load_latest()
        assert ckpt.counters["corrupt_skipped"] == 1


class TestFaultInjection:
    def _faulty(self, *, fail=0.0, torn=0.0, bitflip=0.0, seed=0):
        plan = FaultPlan(
            storage_faults=(
                StorageFault(
                    fail_prob=fail, torn_prob=torn, bitflip_prob=bitflip
                ),
            ),
            seed=seed,
        )
        backend = MemoryBackend()
        return (
            Checkpointer(FaultyBackend(backend, plan), backoff=0.0),
            plan,
        )

    def test_transient_failures_cleared_by_retry(self, monkeypatch):
        # 36 writes at a 30% failure rate: allow six retries per write.
        monkeypatch.setattr(checkpoint, "MAX_RETRIES", 6)
        ckpt, plan = self._faulty(fail=0.3, seed=5)
        for i in range(4):
            ckpt.save(make_state(iteration=i))
        assert ckpt.counters["commits"] == 4
        assert plan.stats.snapshot()["io_failures"] > 0
        assert ckpt.counters["write_retries"] > 0

    def test_persistent_failure_exhausts_and_cleans_staging(self):
        ckpt, _ = self._faulty(fail=0.95, seed=1)
        with pytest.raises(CheckpointError, match="attempt"):
            ckpt.save(make_state())
        assert ckpt.counters["write_failures"] == 1
        # No staging residue and nothing published.
        assert ckpt.backend.listdir(STAGING) == []
        assert ckpt.generations() == []

    def test_silent_corruption_never_loads(self):
        # Torn/bit-flip writes succeed silently; over many generations
        # the CRCs must always steer load to a clean commit — or refuse.
        ckpt, _ = self._faulty(torn=0.15, bitflip=0.15, seed=7)
        committed = {}
        for i in range(10):
            state = make_state(iteration=i)
            generation = ckpt.save(state)
            committed[generation] = state.weights
            try:
                loaded, loaded_gen = ckpt.load_latest()
            except CheckpointError:
                continue
            assert np.array_equal(loaded.weights, committed[loaded_gen])
        assert ckpt.counters["corrupt_skipped"] > 0

    def test_fault_determinism(self):
        outcomes = []
        for _ in range(2):
            ckpt, plan = self._faulty(torn=0.3, bitflip=0.2, seed=11)
            for i in range(5):
                ckpt.save(make_state(iteration=i))
            outcomes.append(
                (dict(ckpt.counters), plan.stats.snapshot())
            )
        assert outcomes[0] == outcomes[1]


class TestStorageFaultConfig:
    def test_probabilities_validated(self):
        with pytest.raises(ConfigError):
            StorageFault(fail_prob=1.5)
        with pytest.raises(ConfigError):
            StorageFault(fail_prob=0.6, torn_prob=0.5)

    def test_match_scopes_faults_to_paths(self):
        plan = FaultPlan(
            storage_faults=(StorageFault(match="manifest", fail_prob=0.5),)
        )
        assert plan.storage_injector("staging/g/shard-000.bin") is None
        assert plan.storage_injector("staging/g/manifest.json") is not None
