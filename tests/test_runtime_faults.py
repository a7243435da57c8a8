"""Tests for declarative fault injection, recovery, and fail-fast abort.

Three claims are on trial:

1. **Recovery is exact** — with link-layer retransmission enabled, drops
   and corruption change timing but never results: the AllReduce stays
   numerically exact and full training stays *bit-identical* to the
   serial reference.
2. **Detection catches what recovery is told to ignore** — with
   ``recover=False`` the receiver's CRC/sequence checks surface faults as
   :class:`LinkFaultError` instead of silently corrupting gradients.
3. **Failures abort the cluster fast** — a crashed or stuck kernel takes
   the whole cluster down in about one bounded step (not one spin
   timeout per peer), and the raised :class:`AbortedError` carries a
   per-GPU / per-semaphore diagnostic dump.
"""

import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import AbortedError, ConfigError
from repro.dnn.layers import LayerSpec, NetworkModel
from repro.runtime.allreduce import TreeAllReduceRuntime
from repro.runtime.faults import (
    CRASH,
    STRAGGLER,
    STUCK,
    FaultPlan,
    FaultStats,
    GpuFault,
    LinkFault,
    stable_tag_seed,
)
from repro.runtime.cluster import KernelPool, payload_checksum
from repro.runtime.memory import GradientBuffer
from repro.runtime.queue_runtime import (
    ChainedTrainingRuntime,
    FunctionalTrainer,
)
from repro.runtime.sync import AbortCell, SpinConfig
from repro.runtime.training import (
    quadratic_gradient,
    serial_reference,
    tree_reduce_order,
)
from repro.topology.dgx1_trees import DETOURED_EDGES, dgx1_trees

FAST = SpinConfig(timeout=10.0)
ELEMS = 512


def make_runtime(plan=None, *, spin=FAST, **kwargs):
    return TreeAllReduceRuntime(
        dgx1_trees(),
        total_elems=ELEMS,
        chunks_per_tree=4,
        detour_map=DETOURED_EDGES,
        spin=spin,
        fault_plan=plan,
        **kwargs,
    )


def make_inputs(rng):
    return [rng.normal(size=ELEMS) for _ in range(8)]


class TestStableSeeding:
    def test_deterministic_and_distinct(self):
        assert stable_tag_seed("up t0 2->3", 7) == stable_tag_seed(
            "up t0 2->3", 7
        )
        assert stable_tag_seed("up t0 2->3", 7) != stable_tag_seed(
            "up t0 2->4", 7
        )
        assert stable_tag_seed("up t0 2->3", 7) != stable_tag_seed(
            "up t0 2->3", 8
        )

    def test_fits_numpy_seed_range(self):
        for tag in ("", "up t0 2->3", "x" * 200):
            seed = stable_tag_seed(tag, 123456789)
            assert 0 <= seed < 2**31

    def test_reproducible_across_processes(self):
        """The chaos schedule must not depend on PYTHONHASHSEED.

        This is the regression test for the original ``hash()``-based
        seeding: two fresh interpreters with *different* hash seeds must
        draw the identical delay/fate sequence.
        """
        script = (
            "from repro.runtime.faults import FaultPlan, LinkFault\n"
            "plan = FaultPlan(link_faults=(LinkFault(delay=1e-3,"
            " drop_prob=0.2, corrupt_prob=0.1),), seed=42)\n"
            "inj = plan.link_injector('up t0 2->3')\n"
            "print([f'{inj.next_delay():.15e}' for _ in range(8)])\n"
            "print([inj.next_fate() for _ in range(16)])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("0", "31337"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=60,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestValidation:
    def test_negative_link_delay_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            LinkFault(delay=-1e-3)

    @pytest.mark.parametrize("prob", [-0.1, 1.0, 1.5])
    def test_probabilities_must_be_unit_interval(self, prob):
        with pytest.raises(ConfigError, match="probabilities"):
            LinkFault(drop_prob=prob)

    def test_drop_plus_corrupt_below_one(self):
        with pytest.raises(ConfigError, match="below 1"):
            LinkFault(drop_prob=0.6, corrupt_prob=0.5)

    def test_unknown_gpu_fault_kind(self):
        with pytest.raises(ConfigError, match="unknown GPU fault kind"):
            GpuFault(0, "meltdown")

    def test_straggler_needs_delay(self):
        with pytest.raises(ConfigError, match="positive delay"):
            GpuFault(0, STRAGGLER)

    def test_negative_after_chunk(self):
        with pytest.raises(ConfigError, match="after_chunk"):
            GpuFault(0, CRASH, after_chunk=-1)

    def test_duplicate_gpu_faults_rejected(self):
        with pytest.raises(ConfigError, match="multiple GPU faults"):
            FaultPlan(
                gpu_faults=(GpuFault(2, CRASH), GpuFault(2, STUCK))
            )

    def test_negative_retry_budget(self):
        with pytest.raises(ConfigError, match="max_retries"):
            FaultPlan(max_retries=-1)

    def test_negative_backoff(self):
        with pytest.raises(ConfigError, match="backoff"):
            FaultPlan(backoff=-1.0)

    def test_runtime_rejects_unknown_fault_gpu(self):
        with pytest.raises(ConfigError, match="unknown gpu"):
            make_runtime(FaultPlan(gpu_faults=(GpuFault(8, CRASH),)))


class TestLinkInjector:
    def test_no_match_means_no_injector(self):
        plan = FaultPlan(link_faults=(LinkFault(match="t1", delay=1e-3),))
        assert plan.link_injector("up t0 2->3") is None
        assert plan.link_injector("up t1 2->3") is not None

    def test_empty_match_hits_every_link(self):
        plan = FaultPlan(link_faults=(LinkFault(delay=1e-3),))
        assert plan.link_injector("anything at all") is not None

    @pytest.mark.parametrize("match, expected", [
        ("up t0 2->3", {"plan reduce t0 2->3"}),
        ("down t1 4->2", {
            "plan broadcast t1 4->0 flow 4->2",
            "plan broadcast t1 0->2 flow 4->2",
        }),
        ("up t1 2->4", {
            "plan reduce t1 2->0 flow 2->4", "plan reduce t1 0->4 flow 2->4",
        }),
    ])
    def test_tree_edge_match_selects_the_edges_wires(self, match, expected):
        """A fault written against a tree edge selects exactly that
        edge's wires, both legs of a detour included."""
        runtime = make_runtime(
            FaultPlan(link_faults=(LinkFault(match=match, delay=1e-3),))
        )
        buffers = [
            GradientBuffer(np.zeros(ELEMS), runtime.layout, owner=g)
            for g in range(8)
        ]
        wires, injectors = runtime._build_wires(runtime.spin, buffers)
        hit = {w.name for w, inj in zip(wires, injectors) if inj is not None}
        assert hit == expected

    def test_overlapping_faults_compose_by_max(self):
        plan = FaultPlan(
            link_faults=(
                LinkFault(match="t0", delay=2e-3, drop_prob=0.1),
                LinkFault(match="2->3", delay=1e-3, corrupt_prob=0.2),
            )
        )
        inj = plan.link_injector("up t0 2->3")
        assert inj.delay == 2e-3
        assert inj.drop_prob == 0.1
        assert inj.corrupt_prob == 0.2

    def test_delay_sequence_deterministic_and_bounded(self):
        plan = FaultPlan(link_faults=(LinkFault(delay=5e-3),), seed=3)
        a = plan.link_injector("up t0 2->3")
        b = plan.link_injector("up t0 2->3")
        seq_a = [a.next_delay() for _ in range(32)]
        seq_b = [b.next_delay() for _ in range(32)]
        assert seq_a == seq_b
        assert all(0.0 <= d <= 5e-3 for d in seq_a)

    def test_fate_sequence_deterministic(self):
        plan = FaultPlan(
            link_faults=(LinkFault(drop_prob=0.3, corrupt_prob=0.2),)
        )
        a = plan.link_injector("down t1 4->2")
        b = plan.link_injector("down t1 4->2")
        fates = [a.next_fate() for _ in range(64)]
        assert fates == [b.next_fate() for _ in range(64)]
        assert set(fates) <= {"ok", "drop", "corrupt"}
        assert "drop" in fates and "corrupt" in fates

    def test_corrupt_changes_payload_checksum(self):
        from repro.runtime.faults import LinkInjector

        values = np.arange(8.0)
        damaged = LinkInjector.corrupt(values)
        assert payload_checksum(damaged) != payload_checksum(values)
        # Exactly one element differs, by the smallest possible amount.
        assert np.sum(damaged != values) == 1

    def test_payload_checksum_pinned_to_byte_copy_crc(self, rng):
        # The checksum reads the array's buffer in place; it must equal
        # the CRC of a ``tobytes`` copy, contiguous or strided.
        import zlib

        values = np.arange(16.0)
        assert payload_checksum(values) == 752499739
        assert payload_checksum(values[::3]) == 1650748875
        assert payload_checksum(values.reshape(4, 4).T) == 2926419861
        noise = rng.normal(size=257)
        for view in (noise, noise[5:200], noise[::2], noise[::-1]):
            assert payload_checksum(view) == zlib.crc32(
                np.ascontiguousarray(view).tobytes()
            )

    def test_stats_counters_thread_safe_api(self):
        stats = FaultStats()
        stats.bump("drops")
        stats.bump("drops", 2)
        assert stats.get("drops") == 3
        snap = stats.snapshot()
        assert snap["drops"] == 3 and snap["crashes"] == 0
        assert "drops=3" in stats.describe()


class TestRecovery:
    def test_allreduce_exact_under_drops_and_corruption(self, rng):
        plan = FaultPlan(
            link_faults=(
                LinkFault(drop_prob=0.08, corrupt_prob=0.05, delay=1e-4),
            ),
            seed=11,
        )
        runtime = make_runtime(plan)
        inputs = make_inputs(rng)
        report = runtime.run([a.copy() for a in inputs])
        expected = tree_reduce_order(runtime.trees, runtime.layout)(inputs)
        for out in report.outputs:
            assert np.array_equal(out, expected)
        stats = report.fault_stats
        assert stats["drops"] > 0
        assert stats["corruptions"] > 0
        # Every recovered fault is exactly one retransmission.
        assert stats["retransmissions"] == (
            stats["drops"] + stats["corruptions"]
        )

    def test_training_bit_identical_under_faults(self, rng):
        """The satellite invariant: drops + corruption + retransmission
        must leave trained weights *bit-identical* to the serial
        reference replaying the runtime's reduction order."""
        layers = tuple(
            LayerSpec(name=f"L{i}", params=128 * (i + 1), fwd_flops=1e6)
            for i in range(4)
        )
        net = NetworkModel(name="chaos-train", layers=layers)
        plan = FaultPlan(
            link_faults=(
                LinkFault(drop_prob=0.05, corrupt_prob=0.03, delay=1e-4),
            ),
            seed=23,
        )
        runtime = TreeAllReduceRuntime(
            dgx1_trees(),
            total_elems=net.total_params,
            chunks_per_tree=4,
            detour_map=DETOURED_EDGES,
            spin=FAST,
            fault_plan=plan,
        )
        targets = [rng.normal(size=net.total_params) for _ in range(8)]
        w0 = rng.normal(size=net.total_params)
        trainer = FunctionalTrainer(
            runtime, net, quadratic_gradient(targets), learning_rate=0.02
        )
        result = trainer.train(w0.copy(), iterations=3)
        reference = serial_reference(
            net, quadratic_gradient(targets), w0.copy(),
            nnodes=8, iterations=3, learning_rate=0.02,
            reduce_order=tree_reduce_order(runtime.trees, runtime.layout),
        )
        assert np.array_equal(result.weights, reference)
        assert plan.stats.get("drops") + plan.stats.get("corruptions") > 0

    def test_corruption_detected_without_recovery(self, rng):
        plan = FaultPlan(
            link_faults=(LinkFault(corrupt_prob=0.4),),
            seed=1,
            recover=False,
        )
        runtime = make_runtime(plan)
        with pytest.raises(AbortedError, match="checksum mismatch"):
            runtime.run(make_inputs(rng))

    def test_drop_detected_without_recovery(self, rng):
        plan = FaultPlan(
            link_faults=(LinkFault(drop_prob=0.4),),
            seed=1,
            recover=False,
        )
        runtime = make_runtime(plan)
        with pytest.raises(AbortedError, match="retransmission disabled"):
            runtime.run(make_inputs(rng))

    def test_retry_budget_exhaustion_raises(self, rng):
        plan = FaultPlan(
            link_faults=(LinkFault(drop_prob=0.4),),
            seed=1,
            max_retries=0,
        )
        runtime = make_runtime(plan)
        with pytest.raises(AbortedError, match="after 0 retransmissions"):
            runtime.run(make_inputs(rng))

    def test_jitter_only_run_is_exact(self, rng):
        runtime = make_runtime(FaultPlan.jitter(1e-3, 9))
        inputs = make_inputs(rng)
        report = runtime.run([a.copy() for a in inputs])
        expected = tree_reduce_order(runtime.trees, runtime.layout)(inputs)
        for out in report.outputs:
            assert np.array_equal(out, expected)
        assert report.fault_stats["delays_injected"] > 0
        assert report.fault_stats["drops"] == 0


class TestChecksumForwarding:
    """One CRC per payload: a checksum is computed once and forwarded
    with the bytes, and every receiver still verifies what landed."""

    def test_one_crc_per_payload(self, monkeypatch, rng):
        import repro.runtime.cluster as cluster_mod

        calls = []

        def counting(values):
            calls.append(1)
            return payload_checksum(values)

        monkeypatch.setattr(cluster_mod, "payload_checksum", counting)
        k = 8
        runtime = TreeAllReduceRuntime(
            dgx1_trees(),
            total_elems=ELEMS,
            chunks_per_tree=k,
            detour_map=DETOURED_EDGES,
            overlapped=False,
            spin=FAST,
        )
        runtime.run(make_inputs(rng))
        # Per tree and chunk: each uplink is checksummed by its sender
        # and verified by its receiver, each downlink only verified, the
        # root computes one CRC for the broadcast, and a relay verifies
        # once per direction.
        expected = 0
        for tree in runtime.trees:
            edges = tree.up_edges()
            detours = sum(edge in DETOURED_EDGES for edge in edges)
            expected += k * (3 * len(edges) + 1 + 2 * detours)
        assert len(calls) == expected == 368

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_relay_damage_after_verify_caught_at_next_hop(
        self, direction, monkeypatch, rng
    ):
        """The relay of the detoured DGX-1 edge 2-4 (via GPU 0) forwards
        the checksum it verified on each chunk, so damage after its
        verify is caught at the next hop's CRC."""
        from repro.errors import LinkFaultError
        from repro.runtime import executor as executor_mod
        from repro.runtime.cluster import _Wire

        inbound, outbound = (
            ("plan reduce t1 2->0 flow 2->4", "plan reduce t1 0->4 flow 2->4")
            if direction == "up" else
            ("plan broadcast t1 4->0 flow 4->2",
             "plan broadcast t1 0->2 flow 4->2")
        )
        verified, transmit = _Wire.take_frame, executor_mod._transmit
        received, forwarded = {}, {}

        def recording_take(self, chunk):
            view, checksum = verified(self, chunk)
            if self.name == inbound:
                received[chunk] = checksum
            return view, checksum

        def recording_transmit(wire, chunk, values, injector, abort,
                               checksum=None):
            if wire.name == outbound:
                forwarded[chunk] = checksum
            return transmit(wire, chunk, values, injector, abort, checksum)

        monkeypatch.setattr(_Wire, "take_frame", recording_take)
        monkeypatch.setattr(executor_mod, "_transmit", recording_transmit)
        runtime = make_runtime()
        runtime.run(make_inputs(rng))
        assert sorted(received) == list(runtime.layout.tree_chunks[1])
        assert forwarded == received

        def take_then_rot(self, chunk):
            view, checksum = verified(self, chunk)
            if self.name == inbound:
                view[0] = np.nextafter(view[0], np.inf)  # after verify
            return view, checksum

        monkeypatch.setattr(_Wire, "take_frame", take_then_rot)
        with pytest.raises(AbortedError, match="checksum mismatch") as info:
            make_runtime().run(make_inputs(rng))
        cause = info.value.__cause__
        assert isinstance(cause, LinkFaultError)
        # The damage lands in the flow source's memory, which the relay
        # reads in place.  Going down, that is the root's, which its
        # other child (GPU 7) reads in place too.  Where 7 catches it
        # depends on the schedule: on 4->7 when the damage precedes 7's
        # verify; on 7's own downlinks when it lands between 7's verify
        # and 7's copy (7 then forwards the checksum it verified); not at
        # all when 7 copies first.  The forwarded checksums above pin the
        # relay either way.
        caught = [outbound]
        if direction == "down":
            tree = runtime.trees[1]
            sibling = next(c for c in tree.children[tree.root] if c != 2)
            caught.append(f"plan broadcast t1 {tree.root}->{sibling}")
            caught += [
                f"plan broadcast t1 {sibling}->{child}"
                for child in tree.children[sibling]
            ]
        assert any(f"link '{name}'" in str(cause) for name in caught), cause

    def test_broadcast_damage_after_verify_caught_below(
        self, monkeypatch, rng
    ):
        from repro.errors import LinkFaultError
        from repro.runtime.memory import GradientBuffer

        tree = dgx1_trees()[0]
        mid = next(
            n for n in tree.nodes if n != tree.root and tree.children[n]
        )
        runtime = make_runtime()
        tree0 = set(runtime.layout.tree_chunks[0])
        written = GradientBuffer.overwrite

        def overwrite_then_rot(self, chunk, values):
            written(self, chunk, values)
            if self.owner == mid and chunk in tree0:
                # The GPU's chunk rots after it verified the delivery; it
                # forwards the verified checksum, so its children catch
                # it.
                self.data[self.layout.slice_of(chunk)][0] += 1.0

        monkeypatch.setattr(GradientBuffer, "overwrite", overwrite_then_rot)
        with pytest.raises(AbortedError, match="checksum mismatch") as info:
            runtime.run(make_inputs(rng))
        assert isinstance(info.value.__cause__, LinkFaultError)
        assert f"plan broadcast t0 {mid}->" in str(info.value.__cause__)


class TestGpuFaults:
    def test_crash_aborts_fast_with_diagnostics(self, rng):
        plan = FaultPlan(gpu_faults=(GpuFault(3, CRASH, after_chunk=1),))
        runtime = make_runtime(plan, spin=SpinConfig(timeout=10.0))
        started = time.monotonic()
        with pytest.raises(AbortedError) as excinfo:
            runtime.run(make_inputs(rng))
        elapsed = time.monotonic() - started
        # Fail-fast: well under one spin timeout, not one per peer.
        assert elapsed < 5.0
        err = excinfo.value
        assert "injected crash on gpu 3" in err.reason
        assert "per-GPU last-known phase" in err.diagnostics
        assert "-- semaphores --" in err.diagnostics
        for gpu in range(8):
            assert f"gpu {gpu}:" in err.diagnostics
        assert "total_posted=" in err.diagnostics
        assert runtime.abort_cell is not None
        assert runtime.abort_cell.is_set()
        assert plan.stats.get("crashes") == 1

    def test_stuck_kernel_aborts_in_single_timeout(self, rng):
        timeout = 1.0
        plan = FaultPlan(gpu_faults=(GpuFault(5, STUCK, after_chunk=0),))
        runtime = make_runtime(
            plan, spin=SpinConfig(timeout=timeout)
        )
        started = time.monotonic()
        with pytest.raises(AbortedError, match="timed out"):
            runtime.run(make_inputs(rng))
        elapsed = time.monotonic() - started
        # One peer's timeout triggers the abort; everyone (including the
        # stuck loop itself) exits right behind it — nowhere near the
        # 30+ kernels x timeout a cascade of independent timeouts costs.
        assert timeout * 0.5 <= elapsed < timeout * 3
        assert plan.stats.get("stalls") == 1

    def test_abort_builds_one_dump(self, rng, monkeypatch):
        """Surviving kernels raise reason-only errors; the pool's final
        error is the one place the cluster dump is built."""
        calls = []
        original = AbortCell.diagnostics

        def counting(self):
            calls.append(threading.current_thread().name)
            return original(self)

        monkeypatch.setattr(AbortCell, "diagnostics", counting)
        plan = FaultPlan(gpu_faults=(GpuFault(3, CRASH, after_chunk=1),))
        with pytest.raises(AbortedError) as excinfo:
            make_runtime(plan).run(make_inputs(rng))
        assert calls == [threading.current_thread().name]
        assert "-- semaphores --" in excinfo.value.diagnostics

    def test_pool_starts_one_thread_per_kernel(self, rng, monkeypatch):
        started = []
        original = threading.Thread.start

        def counting(self):
            started.append(self.name)
            original(self)

        monkeypatch.setattr(threading.Thread, "start", counting)
        pool = KernelPool(join_timeout=5.0, abort=AbortCell())
        for k in range(3):
            pool.add(f"k{k}", lambda: None)
        pool.run()
        assert started == ["k0", "k1", "k2"]

    def test_straggler_slows_but_stays_exact(self, rng):
        delay = 1e-3
        plan = FaultPlan(
            gpu_faults=(GpuFault(6, STRAGGLER, delay=delay),)
        )
        runtime = make_runtime(plan)
        inputs = make_inputs(rng)
        report = runtime.run([a.copy() for a in inputs])
        expected = tree_reduce_order(runtime.trees, runtime.layout)(inputs)
        for out in report.outputs:
            assert np.array_equal(out, expected)
        # 4 chunks x 2 trees = 8 injected sleeps on the critical path.
        assert report.wall_time >= 8 * delay * 0.5

    def test_chained_training_aborts_on_crash(self, rng):
        """Compute kernels blocked in the gradient-queue ``check`` share
        the run's abort domain — the whole chained run fails fast
        instead of timing out layer by layer."""
        layers = tuple(
            LayerSpec(name=f"L{i}", params=128, fwd_flops=1e6)
            for i in range(4)
        )
        net = NetworkModel(name="chaos-chain", layers=layers)
        plan = FaultPlan(gpu_faults=(GpuFault(2, CRASH, after_chunk=0),))
        runtime = TreeAllReduceRuntime(
            dgx1_trees(),
            total_elems=net.total_params,
            chunks_per_tree=4,
            detour_map=DETOURED_EDGES,
            spin=SpinConfig(timeout=10.0),
            fault_plan=plan,
        )
        chained = ChainedTrainingRuntime(runtime, net)
        grads = [rng.normal(size=net.total_params) for _ in range(8)]
        started = time.monotonic()
        with pytest.raises(AbortedError):
            chained.run(grads)
        assert time.monotonic() - started < 5.0

    def test_report_without_plan_has_empty_stats(self, rng):
        runtime = make_runtime()
        report = runtime.run(make_inputs(rng))
        assert report.fault_stats == {}
        assert runtime.phase_board is not None
        assert runtime.phase_board.get(0) != "idle"
