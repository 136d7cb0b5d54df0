"""Gradient-flush paths of the backward pass (Figure 6).

During the backward pass, the FP16 gradients produced on the GPU must reach the FP32
gradient buffer of the host-resident optimizer:

* **Baseline (DeepSpeed ZeRO-3)** — for every subgroup, allocate an unpinned FP16
  staging buffer on the host, D2H-copy the FP16 gradients into it at the slow
  pageable rate, then upscale FP16->FP32 on the host.  The three steps run
  sequentially and *block the backward pass* (the ~90 ms gaps of Figure 6, top).
* **Deep Optimizer States** — convert FP16->FP32 chunk-wise on the GPU (Table 1:
  1.2 TB/s), then D2H-copy the FP32 chunk straight into the pre-pinned host buffer at
  the fast pinned rate, asynchronously (the ~7 ms transfers of Figure 6, bottom).
  Subgroups whose update is scheduled on the GPU skip the D2H copy entirely and keep
  their gradients in GPU memory (design principle 3).

Both builders submit operations to a :class:`~repro.sim.engine.SimEngine` and return
the per-subgroup "gradient ready" operations the update phase must depend on.

Each eager builder has a row-emitting twin (``make_*_flush_rows``) used by the
array-batched fast path of :func:`repro.training.simulation.simulate_job`: instead of
constructing ``SimOp`` objects it appends row tuples to an
:class:`~repro.sim.opbatch.OpBatch`, one subgroup per call, producing bit-identical
operations (same names, durations and dependency tuples; each row's id is its
index in the batch).  The golden tests in
``tests/test_opbatch_equivalence.py`` hold the two implementations together.
Beside each row the twins record its duration's term slots
(:mod:`repro.core.duration_terms`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.duration_terms import (
    ALLOC_PPS,
    GPU_CONVERT_PPS,
    PINNED_D2H_PPS,
    SCALAR_SLOTS,
    UNPINNED_D2H_PPS,
    UPSCALE_PPS,
)
from repro.core.scheduler import UpdatePlan, UpdateTarget
from repro.hardware.throughput import ThroughputProfile
from repro.precision.dtypes import DType
from repro.sim.engine import SimEngine
from repro.sim.opbatch import OpBatch
from repro.sim.ops import OpKind, SimOp


@dataclass
class GradientFlushOps:
    """Handles returned by the flush builders."""

    grad_ready_ops: dict[int, int] = field(default_factory=dict)
    blocking_ops: dict[int, int] = field(default_factory=dict)
    op_ids: list[int] = field(default_factory=list)
    d2h_bytes: int = 0

    @property
    def last_op_id(self) -> int | None:
        """Id of the last submitted flush op (None when nothing was submitted)."""
        return self.op_ids[-1] if self.op_ids else None


def build_baseline_gradient_flush(
    engine: SimEngine,
    profile: ThroughputProfile,
    subgroup_params: dict[int, int],
    compute_deps: dict[int, int],
    *,
    phase: str = "backward",
) -> GradientFlushOps:
    """Submit the slow unpinned-FP16 flush path for every subgroup.

    ``compute_deps`` maps each subgroup index to the backward-compute op that produced
    its gradients.  The returned ``blocking_ops`` give, per subgroup, the op the *next*
    backward compute chunk must wait for (this is what serialises the baseline).
    """
    result = GradientFlushOps()
    for index in sorted(subgroup_params):
        params = subgroup_params[index]
        deps = [compute_deps[index]] if index in compute_deps else []
        alloc = SimOp(
            name=f"host_alloc_grad[{index}]",
            kind=OpKind.HOST_ALLOC,
            resource="cpu",
            duration=params / profile.host_unpinned_alloc_pps,
            deps=tuple(deps),
            phase=phase,
            subgroup=index,
        )
        engine.submit(alloc)
        copy = SimOp(
            name=f"d2h_grad_fp16[{index}]",
            kind=OpKind.D2H,
            resource="pcie.d2h",
            duration=params / profile.unpinned_d2h_fp16_pps,
            deps=(alloc.op_id,),
            phase=phase,
            subgroup=index,
            payload_bytes=params * DType.FP16.itemsize,
            gpu_mem_delta=-params * DType.FP16.itemsize,
        )
        engine.submit(copy)
        upscale = SimOp(
            name=f"host_upscale_grad[{index}]",
            kind=OpKind.CPU_UPSCALE,
            resource="cpu",
            duration=params / profile.host_upscale_pps,
            deps=(copy.op_id,),
            phase=phase,
            subgroup=index,
        )
        engine.submit(upscale)
        result.grad_ready_ops[index] = upscale.op_id
        result.blocking_ops[index] = upscale.op_id
        result.op_ids.extend([alloc.op_id, copy.op_id, upscale.op_id])
        result.d2h_bytes += copy.payload_bytes
    return result


def build_overlapped_gradient_flush(
    engine: SimEngine,
    profile: ThroughputProfile,
    subgroup_params: dict[int, int],
    compute_deps: dict[int, int],
    *,
    plan: UpdatePlan | None = None,
    phase: str = "backward",
) -> GradientFlushOps:
    """Submit the Deep Optimizer States flush path (on-GPU upscale + pinned FP32 D2H).

    Gradients of subgroups whose update is GPU-scheduled (according to ``plan``) stay
    on the GPU: only the on-device conversion is charged, no PCIe traffic.  No flush
    operation blocks the backward compute chain (``blocking_ops`` stays empty).
    """
    result = GradientFlushOps()
    for index in sorted(subgroup_params):
        params = subgroup_params[index]
        deps = [compute_deps[index]] if index in compute_deps else []
        convert = SimOp(
            name=f"gpu_upscale_grad[{index}]",
            kind=OpKind.GPU_CONVERT,
            resource="gpu.compute",
            duration=params / profile.gpu_convert_pps,
            deps=tuple(deps),
            phase=phase,
            subgroup=index,
        )
        engine.submit(convert)
        result.op_ids.append(convert.op_id)

        keep_on_gpu = plan is not None and plan.target_of(index) == UpdateTarget.GPU
        if keep_on_gpu:
            result.grad_ready_ops[index] = convert.op_id
            continue

        copy = SimOp(
            name=f"d2h_grad_fp32_pinned[{index}]",
            kind=OpKind.D2H,
            resource="pcie.d2h",
            duration=params / profile.pinned_d2h_pps,
            deps=(convert.op_id,),
            phase=phase,
            subgroup=index,
            payload_bytes=params * DType.FP32.itemsize,
            gpu_mem_delta=-params * DType.FP16.itemsize,
        )
        engine.submit(copy)
        result.grad_ready_ops[index] = copy.op_id
        result.op_ids.append(copy.op_id)
        result.d2h_bytes += copy.payload_bytes
    return result


# --------------------------------------------------------------------- row twins


def make_baseline_flush_rows(
    batch: OpBatch,
    profile: ThroughputProfile,
    *,
    skip_residents: frozenset[int] = frozenset(),
    phase: str = "backward",
):
    """Row-emitting twin of :func:`build_baseline_gradient_flush`, one subgroup per call.

    Returns ``emit(flush, index, params, compute_dep) -> (grad_ready_id, blocking_id)``
    which appends the subgroup's flush rows to ``batch`` and aggregates the same
    bookkeeping into ``flush`` (a shared :class:`GradientFlushOps`) that the eager
    path accumulates per-subgroup.  ``skip_residents`` reproduces TwinFlow's
    behaviour: statically GPU-resident subgroups skip the flush entirely and their
    gradients are ready with the backward collective (``blocking_id`` is ``None``).
    """
    rows = batch.rows
    rows_append = rows.append
    slots_append = batch.term_slots.append
    alloc_pps = profile.host_unpinned_alloc_pps
    d2h_pps = profile.unpinned_d2h_fp16_pps
    upscale_pps = profile.host_upscale_pps
    fp16 = DType.FP16.itemsize

    def emit(flush: GradientFlushOps, index: int, params: int, compute_dep: int):
        if index in skip_residents:
            flush.grad_ready_ops[index] = compute_dep
            return compute_dep, None
        size = SCALAR_SLOTS + 3 * index
        alloc_id = len(rows)
        rows_append((f"host_alloc_grad[{index}]", OpKind.HOST_ALLOC, "cpu",
                     params / alloc_pps, (compute_dep,), phase, index, 0, 0))
        slots_append((size, ALLOC_PPS))
        payload = params * fp16
        copy_id = len(rows)
        rows_append((f"d2h_grad_fp16[{index}]", OpKind.D2H, "pcie.d2h",
                     params / d2h_pps, (alloc_id,), phase, index, payload, -payload))
        slots_append((size, UNPINNED_D2H_PPS))
        upscale_id = len(rows)
        rows_append((f"host_upscale_grad[{index}]", OpKind.CPU_UPSCALE, "cpu",
                     params / upscale_pps, (copy_id,), phase, index, 0, 0))
        slots_append((size, UPSCALE_PPS))
        flush.grad_ready_ops[index] = upscale_id
        flush.blocking_ops[index] = upscale_id
        flush.op_ids.extend((alloc_id, copy_id, upscale_id))
        flush.d2h_bytes += payload
        return upscale_id, upscale_id

    return emit


def make_overlapped_flush_rows(
    batch: OpBatch,
    profile: ThroughputProfile,
    plan: UpdatePlan | None = None,
    *,
    phase: str = "backward",
):
    """Row-emitting twin of :func:`build_overlapped_gradient_flush`, one subgroup per call.

    Same contract as :func:`make_baseline_flush_rows`; ``blocking_id`` is always
    ``None`` because the Deep Optimizer States flush never blocks the backward pass.
    GPU-scheduled subgroups (per ``plan``) keep their gradients on the GPU and only
    pay the on-device conversion.
    """
    rows = batch.rows
    rows_append = rows.append
    slots_append = batch.term_slots.append
    convert_pps = profile.gpu_convert_pps
    pinned_pps = profile.pinned_d2h_pps
    fp16 = DType.FP16.itemsize
    fp32 = DType.FP32.itemsize
    keep_on_gpu = (
        [item.target == UpdateTarget.GPU for item in plan.assignments]
        if plan is not None
        else None
    )

    def emit(flush: GradientFlushOps, index: int, params: int, compute_dep: int):
        size = SCALAR_SLOTS + 3 * index
        convert_id = len(rows)
        rows_append((f"gpu_upscale_grad[{index}]", OpKind.GPU_CONVERT, "gpu.compute",
                     params / convert_pps, (compute_dep,), phase, index, 0, 0))
        slots_append((size, GPU_CONVERT_PPS))
        flush.op_ids.append(convert_id)
        if keep_on_gpu is not None and keep_on_gpu[index]:
            flush.grad_ready_ops[index] = convert_id
            return convert_id, None
        copy_id = len(rows)
        payload = params * fp32
        rows_append((f"d2h_grad_fp32_pinned[{index}]", OpKind.D2H, "pcie.d2h",
                     params / pinned_pps, (convert_id,), phase, index,
                     payload, -(params * fp16)))
        slots_append((size, PINNED_D2H_PPS))
        flush.grad_ready_ops[index] = copy_id
        flush.op_ids.append(copy_id)
        flush.d2h_bytes += payload
        return copy_id, None

    return emit


def baseline_flush_seconds(profile: ThroughputProfile, params: int) -> float:
    """Analytic duration of the baseline flush of one subgroup (Figure 6 top zoom)."""
    return (
        params / profile.host_unpinned_alloc_pps
        + params / profile.unpinned_d2h_fp16_pps
        + params / profile.host_upscale_pps
    )


def overlapped_flush_seconds(profile: ThroughputProfile, params: int) -> float:
    """Analytic duration of the Deep Optimizer States flush of one subgroup (Figure 6 bottom)."""
    return params / profile.gpu_convert_pps + params / profile.pinned_d2h_pps
