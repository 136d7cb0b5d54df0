"""Update-phase operation graphs (Figure 5) built on the discrete-event simulator.

Two builders are provided:

* :func:`build_blocking_offload_update` — the state-of-the-art behaviour (DeepSpeed
  ZeRO-3 offload and TwinFlow, Figure 5 top): static GPU residents first (CPU idle),
  then for every CPU subgroup a *blocking* sequence of CPU update, FP32->FP16
  downscale and H2D copy of the updated parameters.
* :func:`build_interleaved_update` — Deep Optimizer States (Figure 5 bottom,
  Algorithm 1): every ``stride``-th subgroup is prefetched to the GPU (H2D of FP32
  parameters/momentum/variance), updated there and flushed back (D2H), fully
  overlapped with CPU updates, asynchronous downscales and FP16 parameter copies, and
  exploiting both PCIe directions concurrently.

Both return the operations after which every subgroup's updated FP16 parameters are
available on the GPU — the dependencies of the next iteration's forward pass.

Each eager builder has a row-emitting twin (``build_*_update_rows``) that appends
row tuples to an :class:`~repro.sim.opbatch.OpBatch` instead of constructing
``SimOp`` objects — the array-batched fast path of
:func:`repro.training.simulation.simulate_job`.  The twins must emit bit-identical
operations in the same order (a row's id is its index in the batch; the eager ops
match it when their default ids start from 0), which
``tests/test_opbatch_equivalence.py`` verifies end-to-end for every strategy.
Beside each row the twins record its duration's term slots
(:mod:`repro.core.duration_terms`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.core.duration_terms import (
    CONTENDED_CPU_UPDATE_PPS,
    CONTENDED_PCIE_PPS,
    CONTENDED_PCIE_PPS_X2,
    CPU_DOWNSCALE_PPS,
    CPU_UPDATE_PPS,
    GPU_CONVERT_PPS,
    GPU_UPDATE_PPS,
    PCIE_PPS_X2,
    SCALAR_SLOTS,
    contended_rates,
)
from repro.core.scheduler import AssignmentReason, UpdatePlan
from repro.hardware.contention import HostContentionModel
from repro.hardware.throughput import ThroughputProfile
from repro.precision.dtypes import DType
from repro.sim.engine import SimEngine
from repro.sim.opbatch import OpBatch
from repro.sim.ops import OpKind, SimOp

FP32 = DType.FP32.itemsize
FP16 = DType.FP16.itemsize


@dataclass
class UpdatePhaseOps:
    """Handles returned by the update-phase builders."""

    op_ids: list[int] = field(default_factory=list)
    params_ready_ops: list[int] = field(default_factory=list)
    per_subgroup_done: dict[int, int] = field(default_factory=dict)
    h2d_bytes: int = 0
    d2h_bytes: int = 0

    def record(self, op: SimOp) -> SimOp:
        """Track an op id and its transfer payload."""
        self.op_ids.append(op.op_id)
        if op.kind == OpKind.H2D:
            self.h2d_bytes += op.payload_bytes
        if op.kind == OpKind.D2H:
            self.d2h_bytes += op.payload_bytes
        return op


def _check_inputs(plan: UpdatePlan, subgroup_params: dict[int, int]) -> None:
    if plan.num_subgroups != len(subgroup_params):
        raise ConfigurationError(
            f"plan covers {plan.num_subgroups} subgroups, sizes given for {len(subgroup_params)}"
        )
    for index in range(plan.num_subgroups):
        if index not in subgroup_params:
            raise ConfigurationError(f"missing size for subgroup {index}")
        if subgroup_params[index] <= 0:
            raise ConfigurationError(f"subgroup {index} has non-positive size")


def build_blocking_offload_update(
    engine: SimEngine,
    profile: ThroughputProfile,
    plan: UpdatePlan,
    subgroup_params: dict[int, int],
    *,
    grad_ready_ops: dict[int, int] | None = None,
    start_deps: tuple[int, ...] = (),
    phase: str = "update",
) -> UpdatePhaseOps:
    """Figure 5 (top): static residents on the GPU, everything else blocking on the CPU."""
    _check_inputs(plan, subgroup_params)
    grad_ready_ops = grad_ready_ops or {}
    result = UpdatePhaseOps()
    blocking_tail: int | None = None

    # Static GPU residents are updated first; the CPU sits idle while they run.
    for index in sorted(plan.static_residents):
        params = subgroup_params[index]
        deps = list(start_deps)
        if index in grad_ready_ops:
            deps.append(grad_ready_ops[index])
        update = result.record(SimOp(
            name=f"gpu_update[{index}]",
            kind=OpKind.GPU_UPDATE,
            resource="gpu.compute",
            duration=params / profile.gpu_update_pps,
            deps=tuple(deps),
            phase=phase,
            subgroup=index,
        ))
        engine.submit(update)
        convert = result.record(SimOp(
            name=f"gpu_downscale[{index}]",
            kind=OpKind.GPU_CONVERT,
            resource="gpu.compute",
            duration=params / profile.gpu_convert_pps,
            deps=(update.op_id,),
            phase=phase,
            subgroup=index,
        ))
        engine.submit(convert)
        blocking_tail = convert.op_id
        result.params_ready_ops.append(convert.op_id)
        result.per_subgroup_done[index] = convert.op_id

    # CPU-scheduled subgroups: update -> downscale -> blocking H2D, strictly in order.
    for index in plan.cpu_indices():
        params = subgroup_params[index]
        deps = list(start_deps)
        if blocking_tail is not None:
            deps.append(blocking_tail)
        if index in grad_ready_ops:
            deps.append(grad_ready_ops[index])
        update = result.record(SimOp(
            name=f"cpu_update[{index}]",
            kind=OpKind.CPU_UPDATE,
            resource="cpu",
            duration=params / profile.cpu_update_pps,
            deps=tuple(deps),
            phase=phase,
            subgroup=index,
        ))
        engine.submit(update)
        downscale = result.record(SimOp(
            name=f"cpu_downscale[{index}]",
            kind=OpKind.CPU_DOWNSCALE,
            resource="cpu",
            duration=params / profile.cpu_downscale_pps,
            deps=(update.op_id,),
            phase=phase,
            subgroup=index,
        ))
        engine.submit(downscale)
        copy = result.record(SimOp(
            name=f"h2d_params_fp16[{index}]",
            kind=OpKind.H2D,
            resource="pcie.h2d",
            duration=params / (2.0 * profile.pcie_pps),
            deps=(downscale.op_id,),
            phase=phase,
            subgroup=index,
            payload_bytes=params * FP16,
        ))
        engine.submit(copy)
        blocking_tail = copy.op_id
        result.params_ready_ops.append(copy.op_id)
        result.per_subgroup_done[index] = copy.op_id

    return result


def build_interleaved_update(
    engine: SimEngine,
    profile: ThroughputProfile,
    plan: UpdatePlan,
    subgroup_params: dict[int, int],
    *,
    grad_ready_ops: dict[int, int] | None = None,
    start_deps: tuple[int, ...] = (),
    phase: str = "update",
    contention: HostContentionModel | None = None,
    gradients_on_gpu: bool = True,
    staged_subgroup_bytes: int = 0,
) -> UpdatePhaseOps:
    """Figure 5 (bottom) / Algorithm 1: interleaved and overlapped CPU-GPU updates."""
    _check_inputs(plan, subgroup_params)
    grad_ready_ops = grad_ready_ops or {}
    result = UpdatePhaseOps()

    cpu_update_pps = profile.cpu_update_pps
    pcie_pps = profile.pcie_pps
    if contention is not None:
        has_dynamic = bool(plan.dynamic_gpu_indices())
        cpu_update_pps = contention.effective_cpu_update_pps(
            cpu_update_pps, transfers_overlap=has_dynamic
        )
        pcie_pps = contention.effective_pcie_pps(pcie_pps, bidirectional=has_dynamic)

    dynamic_gpu = plan.dynamic_gpu_indices()
    gpu_update_ops: dict[int, int] = {}
    prefetch_ops: dict[int, int] = {}

    def submit_prefetch(position: int, index: int) -> None:
        """H2D staging of subgroup ``index`` (FP32 p/m/v, plus gradients if flushed)."""
        params = subgroup_params[index]
        payload_params = 3 * params + (0 if gradients_on_gpu else params)
        deps = list(start_deps)
        if position >= 1:
            previous = dynamic_gpu[position - 1]
            deps.append(gpu_update_ops[previous])
        prefetch = result.record(SimOp(
            name=f"prefetch_in[{index}]",
            kind=OpKind.H2D,
            resource="pcie.h2d",
            duration=payload_params / pcie_pps,
            deps=tuple(deps),
            phase=phase,
            subgroup=index,
            payload_bytes=payload_params * FP32,
            gpu_mem_delta=staged_subgroup_bytes,
        ))
        engine.submit(prefetch)
        prefetch_ops[index] = prefetch.op_id

    def submit_gpu_update(index: int, extra_deps: tuple[int, ...] = ()) -> tuple[int, int]:
        """GPU update + on-device FP32->FP16 downscale of subgroup ``index``."""
        params = subgroup_params[index]
        deps = list(start_deps) + list(extra_deps)
        if index in grad_ready_ops:
            deps.append(grad_ready_ops[index])
        update = result.record(SimOp(
            name=f"gpu_update[{index}]",
            kind=OpKind.GPU_UPDATE,
            resource="gpu.compute",
            duration=params / profile.gpu_update_pps,
            deps=tuple(deps),
            phase=phase,
            subgroup=index,
        ))
        engine.submit(update)
        convert = result.record(SimOp(
            name=f"gpu_downscale[{index}]",
            kind=OpKind.GPU_CONVERT,
            resource="gpu.compute",
            duration=params / profile.gpu_convert_pps,
            deps=(update.op_id,),
            phase=phase,
            subgroup=index,
        ))
        engine.submit(convert)
        return update.op_id, convert.op_id

    # The first staged subgroup is prefetched right at the start of the update phase,
    # overlapping the CPU updates of the leading subgroups (Figure 5 bottom).
    if dynamic_gpu:
        submit_prefetch(0, dynamic_gpu[0])

    previous_cpu_op: int | None = None
    for index in range(plan.num_subgroups):
        assignment = plan.assignments[index]
        params = subgroup_params[index]

        if assignment.reason == AssignmentReason.STRIDE:
            position = dynamic_gpu.index(index)
            update_id, convert_id = submit_gpu_update(index, (prefetch_ops[index],))
            gpu_update_ops[index] = update_id
            result.params_ready_ops.append(convert_id)
            result.per_subgroup_done[index] = convert_id
            flush = result.record(SimOp(
                name=f"flush_out[{index}]",
                kind=OpKind.D2H,
                resource="pcie.d2h",
                duration=3 * params / pcie_pps,
                deps=(update_id,),
                phase=phase,
                subgroup=index,
                payload_bytes=3 * params * FP32,
                gpu_mem_delta=-staged_subgroup_bytes,
            ))
            engine.submit(flush)
            # Prefetch the next staged subgroup as soon as this one's update finished
            # (the staging buffers are double-buffered, so the H2D can overlap the
            # D2H flush on the other copy engine — full-duplex PCIe).
            if position + 1 < len(dynamic_gpu):
                submit_prefetch(position + 1, dynamic_gpu[position + 1])
            continue

        if assignment.reason == AssignmentReason.STATIC_RESIDENT:
            # Static residents (placed last by Deep Optimizer States) run after the
            # dynamically staged subgroups have been issued.
            extra = tuple(gpu_update_ops[i] for i in dynamic_gpu if i < index)
            _, convert_id = submit_gpu_update(index, extra[-1:] if extra else ())
            result.params_ready_ops.append(convert_id)
            result.per_subgroup_done[index] = convert_id
            continue

        # CPU-scheduled subgroup: update, asynchronous downscale, asynchronous H2D.
        deps = list(start_deps)
        if previous_cpu_op is not None:
            deps.append(previous_cpu_op)
        if index in grad_ready_ops:
            deps.append(grad_ready_ops[index])
        update = result.record(SimOp(
            name=f"cpu_update[{index}]",
            kind=OpKind.CPU_UPDATE,
            resource="cpu",
            duration=params / cpu_update_pps,
            deps=tuple(deps),
            phase=phase,
            subgroup=index,
        ))
        engine.submit(update)
        downscale = result.record(SimOp(
            name=f"cpu_downscale[{index}]",
            kind=OpKind.CPU_DOWNSCALE,
            resource="cpu",
            duration=params / profile.cpu_downscale_pps,
            deps=(update.op_id,),
            phase=phase,
            subgroup=index,
        ))
        engine.submit(downscale)
        copy = result.record(SimOp(
            name=f"h2d_params_fp16[{index}]",
            kind=OpKind.H2D,
            resource="pcie.h2d",
            duration=params / (2.0 * pcie_pps),
            deps=(downscale.op_id,),
            phase=phase,
            subgroup=index,
            payload_bytes=params * FP16,
        ))
        engine.submit(copy)
        previous_cpu_op = update.op_id
        result.params_ready_ops.append(copy.op_id)
        result.per_subgroup_done[index] = copy.op_id

    return result


# --------------------------------------------------------------------- row twins


def build_blocking_offload_update_rows(
    batch: OpBatch,
    profile: ThroughputProfile,
    plan: UpdatePlan,
    subgroup_params: dict[int, int],
    *,
    grad_ready_ops: dict[int, int] | None = None,
    start_deps: tuple[int, ...] = (),
    phase: str = "update",
) -> UpdatePhaseOps:
    """Row-emitting twin of :func:`build_blocking_offload_update` (same op stream)."""
    _check_inputs(plan, subgroup_params)
    grad_ready_ops = grad_ready_ops or {}
    result = UpdatePhaseOps()
    op_ids_append = result.op_ids.append
    ready_append = result.params_ready_ops.append
    rows = batch.rows
    rows_append = rows.append
    slots_append = batch.term_slots.append
    gpu_update_pps = profile.gpu_update_pps
    gpu_convert_pps = profile.gpu_convert_pps
    cpu_update_pps = profile.cpu_update_pps
    cpu_downscale_pps = profile.cpu_downscale_pps
    pcie_pps = profile.pcie_pps
    h2d_bytes = 0
    blocking_tail: int | None = None

    for index in sorted(plan.static_residents):
        params = subgroup_params[index]
        size = SCALAR_SLOTS + 3 * index
        deps = start_deps
        if index in grad_ready_ops:
            deps += (grad_ready_ops[index],)
        update_id = len(rows)
        rows_append((f"gpu_update[{index}]", OpKind.GPU_UPDATE, "gpu.compute",
                     params / gpu_update_pps, deps, phase, index, 0, 0))
        slots_append((size, GPU_UPDATE_PPS))
        op_ids_append(update_id)
        convert_id = len(rows)
        rows_append((f"gpu_downscale[{index}]", OpKind.GPU_CONVERT, "gpu.compute",
                     params / gpu_convert_pps, (update_id,), phase, index, 0, 0))
        slots_append((size, GPU_CONVERT_PPS))
        op_ids_append(convert_id)
        blocking_tail = convert_id
        ready_append(convert_id)
        result.per_subgroup_done[index] = convert_id

    for index in plan.cpu_indices():
        params = subgroup_params[index]
        size = SCALAR_SLOTS + 3 * index
        deps = start_deps
        if blocking_tail is not None:
            deps += (blocking_tail,)
        if index in grad_ready_ops:
            deps += (grad_ready_ops[index],)
        update_id = len(rows)
        rows_append((f"cpu_update[{index}]", OpKind.CPU_UPDATE, "cpu",
                     params / cpu_update_pps, deps, phase, index, 0, 0))
        slots_append((size, CPU_UPDATE_PPS))
        op_ids_append(update_id)
        downscale_id = len(rows)
        rows_append((f"cpu_downscale[{index}]", OpKind.CPU_DOWNSCALE, "cpu",
                     params / cpu_downscale_pps, (update_id,), phase, index, 0, 0))
        slots_append((size, CPU_DOWNSCALE_PPS))
        op_ids_append(downscale_id)
        copy_id = len(rows)
        payload = params * FP16
        rows_append((f"h2d_params_fp16[{index}]", OpKind.H2D, "pcie.h2d",
                     params / (2.0 * pcie_pps), (downscale_id,), phase, index,
                     payload, 0))
        slots_append((size, PCIE_PPS_X2))
        op_ids_append(copy_id)
        h2d_bytes += payload
        blocking_tail = copy_id
        ready_append(copy_id)
        result.per_subgroup_done[index] = copy_id

    result.h2d_bytes = h2d_bytes
    return result


def build_interleaved_update_rows(
    batch: OpBatch,
    profile: ThroughputProfile,
    plan: UpdatePlan,
    subgroup_params: dict[int, int],
    *,
    grad_ready_ops: dict[int, int] | None = None,
    start_deps: tuple[int, ...] = (),
    phase: str = "update",
    contention: HostContentionModel | None = None,
    gradients_on_gpu: bool = True,
    staged_subgroup_bytes: int = 0,
) -> UpdatePhaseOps:
    """Row-emitting twin of :func:`build_interleaved_update` (same op stream).

    The per-subgroup scans of the eager builder (``dynamic_gpu.index(...)`` and the
    trailing-resident dependency search) are replaced with a precomputed position
    map and :meth:`UpdatePlan.prev_on_gpu`, which change the complexity from
    O(n^2) to O(n log n) without changing a single emitted operation.
    """
    _check_inputs(plan, subgroup_params)
    grad_ready_ops = grad_ready_ops or {}
    result = UpdatePhaseOps()
    op_ids_append = result.op_ids.append
    ready_append = result.params_ready_ops.append
    rows = batch.rows
    rows_append = rows.append
    slots_append = batch.term_slots.append
    gpu_update_pps = profile.gpu_update_pps
    gpu_convert_pps = profile.gpu_convert_pps
    cpu_downscale_pps = profile.cpu_downscale_pps
    h2d_bytes = 0
    d2h_bytes = 0

    cpu_update_pps, pcie_pps = contended_rates(profile, plan, contention)
    dynamic_gpu = plan.dynamic_gpu_indices()
    # The staged payload is p/m/v (3 * params), plus the gradients when they
    # were flushed to the host (4 * params): slot offset 1 or 2 from the size.
    prefetch_multiple = 1 if gradients_on_gpu else 2
    position_of = {index: position for position, index in enumerate(dynamic_gpu)}
    gpu_update_ops: dict[int, int] = {}
    prefetch_ops: dict[int, int] = {}

    def emit_prefetch(position: int, index: int) -> None:
        params = subgroup_params[index]
        payload_params = 3 * params + (0 if gradients_on_gpu else params)
        deps = start_deps
        if position >= 1:
            deps += (gpu_update_ops[dynamic_gpu[position - 1]],)
        prefetch_id = len(rows)
        payload = payload_params * FP32
        rows_append((f"prefetch_in[{index}]", OpKind.H2D, "pcie.h2d",
                     payload_params / pcie_pps, deps, phase, index,
                     payload, staged_subgroup_bytes))
        slots_append((SCALAR_SLOTS + 3 * index + prefetch_multiple, CONTENDED_PCIE_PPS))
        op_ids_append(prefetch_id)
        prefetch_ops[index] = prefetch_id
        nonlocal h2d_bytes
        h2d_bytes += payload

    def emit_gpu_update(index: int, extra_deps: tuple[int, ...] = ()) -> tuple[int, int]:
        params = subgroup_params[index]
        size = SCALAR_SLOTS + 3 * index
        deps = start_deps + extra_deps
        if index in grad_ready_ops:
            deps += (grad_ready_ops[index],)
        update_id = len(rows)
        rows_append((f"gpu_update[{index}]", OpKind.GPU_UPDATE, "gpu.compute",
                     params / gpu_update_pps, deps, phase, index, 0, 0))
        slots_append((size, GPU_UPDATE_PPS))
        op_ids_append(update_id)
        convert_id = len(rows)
        rows_append((f"gpu_downscale[{index}]", OpKind.GPU_CONVERT, "gpu.compute",
                     params / gpu_convert_pps, (update_id,), phase, index, 0, 0))
        slots_append((size, GPU_CONVERT_PPS))
        op_ids_append(convert_id)
        return update_id, convert_id

    if dynamic_gpu:
        emit_prefetch(0, dynamic_gpu[0])

    assignments = plan.assignments
    previous_cpu_op: int | None = None
    for index in range(plan.num_subgroups):
        reason = assignments[index].reason
        params = subgroup_params[index]

        if reason == AssignmentReason.STRIDE:
            position = position_of[index]
            update_id, convert_id = emit_gpu_update(index, (prefetch_ops[index],))
            gpu_update_ops[index] = update_id
            ready_append(convert_id)
            result.per_subgroup_done[index] = convert_id
            flush_id = len(rows)
            payload = 3 * params * FP32
            rows_append((f"flush_out[{index}]", OpKind.D2H, "pcie.d2h",
                         3 * params / pcie_pps, (update_id,), phase, index,
                         payload, -staged_subgroup_bytes))
            slots_append((SCALAR_SLOTS + 3 * index + 1, CONTENDED_PCIE_PPS))
            op_ids_append(flush_id)
            d2h_bytes += payload
            if position + 1 < len(dynamic_gpu):
                emit_prefetch(position + 1, dynamic_gpu[position + 1])
            continue

        if reason == AssignmentReason.STATIC_RESIDENT:
            previous_dynamic = plan.prev_on_gpu(index)
            extra = (gpu_update_ops[previous_dynamic],) if previous_dynamic is not None else ()
            _, convert_id = emit_gpu_update(index, extra)
            ready_append(convert_id)
            result.per_subgroup_done[index] = convert_id
            continue

        size = SCALAR_SLOTS + 3 * index
        deps = start_deps
        if previous_cpu_op is not None:
            deps += (previous_cpu_op,)
        if index in grad_ready_ops:
            deps += (grad_ready_ops[index],)
        update_id = len(rows)
        rows_append((f"cpu_update[{index}]", OpKind.CPU_UPDATE, "cpu",
                     params / cpu_update_pps, deps, phase, index, 0, 0))
        slots_append((size, CONTENDED_CPU_UPDATE_PPS))
        op_ids_append(update_id)
        downscale_id = len(rows)
        rows_append((f"cpu_downscale[{index}]", OpKind.CPU_DOWNSCALE, "cpu",
                     params / cpu_downscale_pps, (update_id,), phase, index, 0, 0))
        slots_append((size, CPU_DOWNSCALE_PPS))
        op_ids_append(downscale_id)
        copy_id = len(rows)
        payload = params * FP16
        rows_append((f"h2d_params_fp16[{index}]", OpKind.H2D, "pcie.h2d",
                     params / (2.0 * pcie_pps), (downscale_id,), phase, index,
                     payload, 0))
        slots_append((size, CONTENDED_PCIE_PPS_X2))
        op_ids_append(copy_id)
        h2d_bytes += payload
        previous_cpu_op = update_id
        ready_append(copy_id)
        result.per_subgroup_done[index] = copy_id

    result.h2d_bytes = h2d_bytes
    result.d2h_bytes = d2h_bytes
    return result
