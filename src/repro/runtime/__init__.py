"""Thread-backed functional virtual-GPU cluster.

The paper's proof-of-concept runs CUDA *persistent kernels* on 8 GPUs,
synchronized entirely device-side (no host round-trips) with lock /
unlock / post / wait / check built from atomicCAS, atomicExch and thread
fences (paper Fig. 11).  This package reproduces that system with one
Python thread per kernel:

- :mod:`repro.runtime.sync` — the Fig.-11 primitives over emulated atomics,
  plus the cluster-wide fail-fast :class:`AbortCell`,
- :mod:`repro.runtime.faults` — declarative fault injection
  (:class:`FaultPlan`): link jitter/drops/corruption with bounded
  retransmission, GPU stragglers/crashes/stuck kernels; loaded only by
  callers that build a plan,
- :mod:`repro.runtime.memory` — gradient buffers and chunk slicing,
- :mod:`repro.runtime.cluster` — the CRC-framed wire (the one link
  primitive, with its frame checksum) and the persistent-kernel thread
  pool,
- :mod:`repro.runtime.executor` — the one engine: it runs a compiled,
  verified :class:`Program`, stamps each GPU's :class:`PhaseBoard`, and
  hosts the gradient queue's enqueue hook,
- :mod:`repro.runtime.allreduce` — the pipelined double-tree AllReduce
  (C1 overlap, detour relays): a shipped or compiled program,
- :mod:`repro.runtime.queue_runtime` — gradient queuing + forward-compute
  chaining over the enqueue semaphores (C2/CC), and the
  :class:`FunctionalTrainer` that runs it for several iterations,
- :mod:`repro.runtime.training` — the one SGD span loop every trainer
  runs its engine through, and the serial oracle the trainers are
  checked against; it imports no engine,
- :mod:`repro.runtime.elastic` / :mod:`repro.runtime.recovery` — the
  membership state machine; each of its spans runs the plan it verified
  on one :class:`~repro.plan.interpreter.PlanInterpreter`, and
  ``ResilientTrainer`` is its crash-only configuration.

Everything is *functionally real*: the AllReduce produces numerically
exact sums, chunks flow in the same order as on the real system, and the
gradient queue's in-order dequeue property is enforced by the same
check-semaphore pattern the paper uses.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AbortCell": "sync",
    "AtomicCell": "sync",
    "DeviceEvent": "sync",
    "DeviceLock": "sync",
    "DeviceSemaphore": "sync",
    "SpinConfig": "sync",
    "FaultPlan": "faults",
    "FaultStats": "faults",
    "GpuFault": "faults",
    "LinkFault": "faults",
    "PhaseBoard": "executor",
    "StorageFault": "faults",
    "stable_tag_seed": "faults",
    "Checkpointer": "checkpoint",
    "CheckpointState": "checkpoint",
    "CrashingBackend": "checkpoint",
    "DirectoryBackend": "checkpoint",
    "FaultyBackend": "checkpoint",
    "MemoryBackend": "checkpoint",
    "SimulatedCrash": "checkpoint",
    "StorageBackend": "checkpoint",
    "WriteSite": "checkpoint",
    "enumerate_write_sites": "checkpoint",
    "every_site_drill": "checkpoint",
    "ElasticReport": "elastic",
    "ElasticTrainer": "elastic",
    "MembershipEvent": "elastic",
    "MembershipRecord": "elastic",
    "PlanCheck": "elastic",
    "elastic_serial_reference": "elastic",
    "parse_events": "elastic",
    "ChunkLayout": "memory",
    "GradientBuffer": "memory",
    "Executor": "executor",
    "Program": "executor",
    "RunReport": "executor",
    "TreeAllReduceRuntime": "allreduce",
    "ChainedTrainingRuntime": "queue_runtime",
    "ComputeRecord": "queue_runtime",
    "RecoveryDecision": "elastic",
    "RecoveryPolicy": "elastic",
    "RecoveryReport": "recovery",
    "ResilientTrainer": "recovery",
    "adopted_gradient_fn": "elastic",
    "detect_dead_gpus": "elastic",
    "drain_aborted_run": "elastic",
    "recovery_serial_reference": "recovery",
    "segment_reduce_order": "elastic",
    "shard_assignments": "elastic",
    "FunctionalTrainer": "queue_runtime",
    "quadratic_gradient": "training",
    "serial_reference": "training",
    "tree_reduce_order": "training",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
