"""Duration terms: every simulated op's duration as one division over a term vector.

Each row the training simulation emits has a duration of the form ``a / b``:
a subgroup's size (or a multiple of it) over a rate of the throughput profile,
or a phase's compute time over the forward-chunk or subgroup count.  The row
builders record, beside each row, that division as a pair of *slots* into a
per-scenario term vector (``OpBatch.term_slots``).  The slots depend only on
the op graph, never on the values, so one built representative carries the
duration formula of every scenario sharing its topology: a member's duration
column is ``terms[numerators] / terms[denominators]`` over its own vector —
the same IEEE-754 division on the same operands the builder performed, so its
floats equal a fresh build's bit for bit.

Layout of a term vector (:func:`term_vector`):

* :data:`SCALAR_SLOTS` scalars — the four per-iteration compute times, the
  forward-chunk and subgroup counts, and the profile rates the builders divide
  by (the interleaved update's rates after host contention in their own slots);
* then three slots per subgroup ``i`` from ``SCALAR_SLOTS + 3 * i``: its size
  ``p``, then ``3 * p`` and ``4 * p`` (the staged optimizer-state payloads,
  without and with the flushed gradients).  The builders compute that slot
  inline in their per-subgroup loops.
"""

from __future__ import annotations

from repro.core.scheduler import UpdatePlan
from repro.hardware.contention import HostContentionModel
from repro.hardware.throughput import ThroughputProfile

try:  # numpy is a hard dependency of the reproduction, but degrade loudly.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on broken installs
    np = None

(
    FORWARD_TIME,
    BACKWARD_TIME,
    GATHER_TIME,
    COLLECTIVE_TIME,
    FORWARD_CHUNKS,
    SUBGROUPS,
    GPU_UPDATE_PPS,
    GPU_CONVERT_PPS,
    CPU_UPDATE_PPS,
    CPU_DOWNSCALE_PPS,
    PCIE_PPS,
    PCIE_PPS_X2,
    ALLOC_PPS,
    UNPINNED_D2H_PPS,
    UPSCALE_PPS,
    PINNED_D2H_PPS,
    CONTENDED_CPU_UPDATE_PPS,
    CONTENDED_PCIE_PPS,
    CONTENDED_PCIE_PPS_X2,
) = range(19)

#: Slots before the per-subgroup sizes.
SCALAR_SLOTS = CONTENDED_PCIE_PPS_X2 + 1


def contended_rates(
    profile: ThroughputProfile,
    plan: UpdatePlan,
    contention: HostContentionModel | None,
) -> tuple[float, float]:
    """(CPU update, PCIe) rates of the interleaved update phase after contention.

    CPU updates slow down while transfers overlap them, and PCIe loses some
    bandwidth when both directions run at once — both only when the plan
    stages subgroups on the GPU.  Without a contention model the profile's
    rates apply unchanged.
    """
    if contention is None:
        return profile.cpu_update_pps, profile.pcie_pps
    has_dynamic = bool(plan.dynamic_gpu_indices())
    cpu_update = contention.effective_cpu_update_pps(
        profile.cpu_update_pps, transfers_overlap=has_dynamic
    )
    return cpu_update, contention.effective_pcie_pps(profile.pcie_pps, bidirectional=has_dynamic)


def term_vector(
    compute_times: tuple[float, float, float, float],
    forward_chunks: int,
    profile: ThroughputProfile,
    plan: UpdatePlan,
    contention: HostContentionModel | None,
    subgroup_params: dict[int, int],
) -> "np.ndarray":
    """One scenario's term vector (layout in the module docs).

    ``compute_times`` are (forward, backward, forward all-gather, backward
    collectives) seconds of one iteration.  Every value is the exact operand
    the builders use: counts and sizes are integers far below 2**53, so their
    float64 conversion is exact, and the rates are the very floats the
    builders read from the profile.
    """
    forward, backward, gather, collectives = compute_times
    cpu_update, pcie = contended_rates(profile, plan, contention)
    scalars = [0.0] * SCALAR_SLOTS
    scalars[FORWARD_TIME] = forward
    scalars[BACKWARD_TIME] = backward
    scalars[GATHER_TIME] = gather
    scalars[COLLECTIVE_TIME] = collectives
    scalars[FORWARD_CHUNKS] = forward_chunks
    scalars[SUBGROUPS] = len(subgroup_params)
    scalars[GPU_UPDATE_PPS] = profile.gpu_update_pps
    scalars[GPU_CONVERT_PPS] = profile.gpu_convert_pps
    scalars[CPU_UPDATE_PPS] = profile.cpu_update_pps
    scalars[CPU_DOWNSCALE_PPS] = profile.cpu_downscale_pps
    scalars[PCIE_PPS] = profile.pcie_pps
    scalars[PCIE_PPS_X2] = 2.0 * profile.pcie_pps
    scalars[ALLOC_PPS] = profile.host_unpinned_alloc_pps
    scalars[UNPINNED_D2H_PPS] = profile.unpinned_d2h_fp16_pps
    scalars[UPSCALE_PPS] = profile.host_upscale_pps
    scalars[PINNED_D2H_PPS] = profile.pinned_d2h_pps
    scalars[CONTENDED_CPU_UPDATE_PPS] = cpu_update
    scalars[CONTENDED_PCIE_PPS] = pcie
    scalars[CONTENDED_PCIE_PPS_X2] = 2.0 * pcie
    count = len(subgroup_params)
    sizes = np.fromiter(
        (subgroup_params[index] for index in range(count)), dtype=np.int64, count=count
    )
    multiples = np.stack((sizes, 3 * sizes, 4 * sizes), axis=1).ravel()
    return np.concatenate((np.asarray(scalars, dtype=np.float64), multiples.astype(np.float64)))
