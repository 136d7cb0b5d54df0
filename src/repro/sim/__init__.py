"""Discrete-event simulator for hybrid CPU-GPU training timelines.

The simulator models one training process (one GPU plus its share of host resources)
as a set of FIFO resources — GPU compute, the H2D and D2H PCIe copy engines, the CPU,
and the NVLink collective engine — onto which the trainer and the update-phase
executors submit operations with explicit dependencies.  Operations on the same
resource execute in submission order (head-of-line blocking, the semantics of a CUDA
stream); operations on different resources overlap freely once their dependencies are
satisfied.  This is exactly the overlap structure the paper's Figures 5 and 6 draw.

The resulting :class:`~repro.sim.engine.Schedule` can be queried for phase durations,
per-resource busy time and utilisation, and can be sampled into GPU-memory and PCIe
throughput time series to reproduce Figures 3, 4 and 15.
"""

from repro.sim.ops import OpKind, SimOp
from repro.sim.engine import (
    Resource,
    Schedule,
    ScheduledOp,
    SimEngine,
    VectorSchedule,
)
from repro.sim.opbatch import OpBatch
from repro.sim.trace import MemoryTimeline, ThroughputTimeline, sample_series

__all__ = [
    "OpKind",
    "SimOp",
    "OpBatch",
    "SimEngine",
    "Resource",
    "Schedule",
    "ScheduledOp",
    "VectorSchedule",
    "MemoryTimeline",
    "ThroughputTimeline",
    "sample_series",
]
