"""Operation descriptors submitted to the simulator."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError


class OpKind(enum.Enum):
    """Categories of simulated operations.

    The categories map one-to-one onto the legend of the paper's Figure 5 / Figure 6
    timelines so that the experiment harness can reconstruct those plots.
    """

    GPU_COMPUTE = "gpu_compute"
    GPU_UPDATE = "gpu_update"
    GPU_CONVERT = "gpu_convert"
    CPU_UPDATE = "cpu_update"
    CPU_DOWNSCALE = "cpu_downscale"
    CPU_UPSCALE = "cpu_upscale"
    HOST_ALLOC = "host_alloc"
    H2D = "h2d"
    D2H = "d2h"
    D2D = "d2d"
    ALLGATHER = "allgather"
    REDUCE_SCATTER = "reduce_scatter"
    BARRIER = "barrier"

    @property
    def is_transfer(self) -> bool:
        """True for operations that move data over the PCIe link."""
        return self in (OpKind.H2D, OpKind.D2H)


#: Default-id source for hand-built :class:`SimOp` graphs (tests and the eager
#: reference builders).  Production ops live in :class:`~repro.sim.opbatch.OpBatch`
#: rows, whose ids are their row indices and never come from here.
_op_counter = itertools.count()


@dataclass
class SimOp:
    """One operation to be scheduled on a resource.

    ``duration`` is the service time in seconds once the operation starts.  ``deps``
    are operation ids that must complete before this operation may start (in addition
    to the FIFO order of its resource).  ``op_id`` defaults to the next value of a
    process-wide counter; ops materialised from :class:`~repro.sim.opbatch.OpBatch`
    rows carry their row index instead.  ``payload_bytes`` is used to reconstruct
    bandwidth traces; ``gpu_mem_delta`` is applied to the GPU-memory timeline when the
    operation completes (positive = allocation, negative = free).
    """

    name: str
    kind: OpKind
    resource: str
    duration: float
    deps: tuple[int, ...] = ()
    phase: str = ""
    subgroup: int | None = None
    payload_bytes: int = 0
    gpu_mem_delta: int = 0
    op_id: int = field(default_factory=lambda: next(_op_counter))

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ConfigurationError(f"op {self.name!r} has negative duration {self.duration}")
        if self.payload_bytes < 0:
            raise ConfigurationError(f"op {self.name!r} has negative payload")
        self.deps = tuple(self.deps)


def reset_op_counter() -> None:
    """Restart :class:`SimOp`'s default ids at 0 (eager builders then match row indices)."""
    global _op_counter
    _op_counter = itertools.count()
