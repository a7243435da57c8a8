"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the package raises with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class TopologyError(ReproError):
    """A physical or logical topology is malformed or unsupported."""


class RoutingError(TopologyError):
    """No route (minimal or detour) exists between two nodes."""


class EmbeddingError(TopologyError):
    """A logical topology cannot be embedded into a physical topology."""


class ScheduleError(ReproError):
    """A collective schedule is malformed (bad deps, wrong result, ...)."""


class SimulationError(ReproError):
    """The discrete-event simulator detected an inconsistency."""


class DeadlockError(SimulationError):
    """The DAG executor stalled with unfinished operations (dependency cycle)."""


class RuntimeClusterError(ReproError):
    """The thread-backed virtual GPU cluster failed or misbehaved."""


class LinkFaultError(RuntimeClusterError):
    """A link-layer transfer failed: dropped/corrupted beyond recovery,
    checksum mismatch at the receiver, or out-of-sequence delivery."""


class AbortedError(RuntimeClusterError):
    """The cluster-wide abort flag fired: one kernel failed or stalled and
    every peer exited fail-fast instead of spinning into its own timeout.

    Attributes:
        reason: what triggered the abort (first trigger wins).
        diagnostics: cluster state dump at abort time — every semaphore's
            count/total_posted plus each GPU's last-known phase.
    """

    def __init__(self, reason: str, diagnostics: str = ""):
        self.reason = reason
        self.diagnostics = diagnostics
        message = f"cluster aborted: {reason}"
        if diagnostics:
            message += "\n" + diagnostics
        super().__init__(message)


class ConfigError(ReproError):
    """Invalid user-supplied configuration value."""


class CheckpointError(ReproError):
    """Durable checkpointing failed: no committable generation could be
    written (persistent storage faults) or no committed generation
    survives validation on load."""


class PlanError(ReproError):
    """A collective plan is malformed or cannot be processed."""


class PlanVerificationError(PlanError):
    """The plan verifier rejected a plan.

    Attributes:
        errors: every diagnostic found, each naming the offending op.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        lines = "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(
            f"plan verification failed with {len(self.errors)} error(s):\n{lines}"
        )


class SynthesisError(PlanError):
    """Plan synthesis found no candidate that passes the full gate
    (compile -> verify -> simulate -> ordering oracle) on a topology."""

