"""Op-kind and phase codes shared by plans, DAGs and programs.

A leaf (it imports nothing from ``repro``): plan and DAG columns and
compiled programs store these codes, so the executor needs neither
:mod:`repro.plan` nor :mod:`repro.sim`.
"""

import enum

#: Kind codes of plan ops, indexes into :data:`KIND_NAMES`.
K_SEND, K_RECV, K_REDUCE, K_COPY = range(4)
KIND_NAMES = ("send", "recv", "reduce", "copy")


class Phase(enum.Enum):
    """Which phase of a collective (or of training) an op belongs to."""

    REDUCE = "reduce"
    BROADCAST = "broadcast"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_GATHER = "all_gather"
    FORWARD = "forward"
    BACKWARD = "backward"
    OTHER = "other"


#: Phase code (the ``phase_code`` column) -> phase.
PHASES: tuple[Phase, ...] = tuple(Phase)
PHASE_CODE = {phase: code for code, phase in enumerate(PHASES)}
