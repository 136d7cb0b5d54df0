"""Iteration-level simulation: compose forward, backward and update into one schedule.

One training iteration of the ZeRO-3 runtime decomposes into:

* **forward** — per-layer parameter all-gathers over NVLink overlapped with GPU
  compute; activations (or activation checkpoints) accumulate in GPU memory;
* **backward** — GPU compute (plus recomputation when activation checkpointing is on)
  interleaved with gradient reduce-scatters and the per-subgroup gradient flush,
  which *blocks* the backward pass for the baselines and is asynchronous for Deep
  Optimizer States (Figure 6);
* **update** — the strategy-specific update phase (Figure 5), whose completion gates
  the next iteration's forward pass.

The builder chains several iterations in a single schedule so that transfers spilling
past the nominal end of the update phase (Figure 5, bottom) are charged against the
next iteration exactly as they would be on real hardware (the Figure 9 experiment).

Each iteration's operations are appended as row tuples to an
:class:`~repro.sim.opbatch.OpBatch` (:func:`build_iteration_rows`) and
scheduled on the struct-of-arrays kernel of :mod:`repro.sim.veckernel` via
:meth:`~repro.sim.engine.SimEngine.run_vector`.  Sweeps split the same
pipeline in two (:func:`prepare_simulation` / :func:`finalize_simulation`) so
that same-shape scenarios can share one stacked pass
(:mod:`repro.sweep.batching`).

:func:`build_iteration` is the eager twin of the row builder: one
:class:`~repro.sim.ops.SimOp` per operation, submitted through
:meth:`~repro.sim.engine.SimEngine.submit`.  No production path calls it; it
is the reference the golden suite (``tests/test_opbatch_equivalence.py``)
compares the row builder against, field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.units import GB
from repro.core.duration_terms import (
    BACKWARD_TIME,
    COLLECTIVE_TIME,
    FORWARD_CHUNKS,
    FORWARD_TIME,
    GATHER_TIME,
    SUBGROUPS,
    term_vector,
)
from repro.core.gradient_flush import GradientFlushOps
from repro.core.sim_executor import UpdatePhaseOps
from repro.model.flops import backward_compute_seconds, forward_compute_seconds
from repro.middleware import build_chain, effective_middleware_specs
from repro.precision.dtypes import DType
from repro.sim.engine import Schedule, SimEngine, standard_resources
from repro.sim.opbatch import OpBatch
from repro.sim.ops import OpKind, SimOp
from repro.sim.trace import MemoryTimeline, ThroughputTimeline
from repro.runtime import SIMULATION_FIELDS, ExecutionPolicy, ResolvedExecution
from repro.training.config import ResolvedJob
from repro.training.metrics import IterationBreakdown
from repro.zero.collectives import allgather_seconds, reduce_scatter_seconds

try:  # Optional at import time: only the stacked-breakdown helpers need it.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on broken installs
    np = None


@dataclass
class IterationOps:
    """Op-id bookkeeping for one simulated iteration."""

    index: int
    forward_ops: list[int] = field(default_factory=list)
    forward_compute_ops: list[int] = field(default_factory=list)
    backward_compute_ops: list[int] = field(default_factory=list)
    flush: GradientFlushOps = field(default_factory=GradientFlushOps)
    update: UpdatePhaseOps = field(default_factory=UpdatePhaseOps)
    blocks_backward: bool = False


@dataclass
class SimulationResult:
    """A schedule plus the per-iteration op bookkeeping needed to interpret it.

    ``resolved_policy`` records what actually ran — the resolved
    :class:`~repro.runtime.ExecutionPolicy`, the kernel and the op count.
    ``precomputed_breakdowns`` is set by the shape-batched sweep path
    (:mod:`repro.sweep.batching`), which computes every scenario's breakdowns
    in one vectorised pass; the values are bit-identical to what
    :meth:`breakdown` would derive from the schedule.
    """

    job: ResolvedJob
    schedule: Schedule
    iterations: list[IterationOps]
    initial_gpu_bytes: int = 0
    resolved_policy: ResolvedExecution | None = None
    precomputed_breakdowns: list[IterationBreakdown] | None = None

    # ------------------------------------------------------------------ times

    def iteration_start(self, index: int) -> float:
        """Start time of iteration ``index`` (first forward op's start)."""
        start_of = self.schedule.op_start
        return min(start_of(op_id) for op_id in self.iterations[index].forward_ops)

    def forward_end(self, index: int) -> float:
        """End of the forward compute of iteration ``index``."""
        end_of = self.schedule.op_end
        return max(end_of(op_id) for op_id in self.iterations[index].forward_compute_ops)

    def backward_end(self, index: int) -> float:
        """End of the backward phase (including blocking flushes for the baselines)."""
        record = self.iterations[index]
        end_of = self.schedule.op_end
        end = max(end_of(op_id) for op_id in record.backward_compute_ops)
        if record.blocks_backward and record.flush.op_ids:
            end = max(end, max(end_of(op_id) for op_id in record.flush.op_ids))
        return end

    def params_ready_time(self, index: int) -> float:
        """Time at which every updated FP16 parameter is back on the GPU."""
        end_of = self.schedule.op_end
        return max(end_of(op_id) for op_id in self.iterations[index].update.params_ready_ops)

    def update_window(self, index: int) -> tuple[float, float]:
        """(start, end) of the update phase, including any spill-over transfers."""
        ops = self.iterations[index].update.op_ids
        starts = [self.schedule.op_start(op_id) for op_id in ops]
        ends = [self.schedule.op_end(op_id) for op_id in ops]
        return (min(starts), max(ends))

    def breakdown(self, index: int) -> IterationBreakdown:
        """Per-phase wall-clock breakdown of iteration ``index`` (the Figure 7 metric)."""
        if self.precomputed_breakdowns is not None:
            return self.precomputed_breakdowns[index]
        start = self.iteration_start(index)
        forward_end = self.forward_end(index)
        backward_end = self.backward_end(index)
        ready = self.params_ready_time(index)
        return IterationBreakdown(
            forward_seconds=forward_end - start,
            backward_seconds=backward_end - forward_end,
            update_seconds=ready - backward_end,
        )

    def breakdowns(self) -> list[IterationBreakdown]:
        """Breakdowns of every simulated iteration."""
        if self.precomputed_breakdowns is not None:
            return list(self.precomputed_breakdowns)
        return [self.breakdown(index) for index in range(len(self.iterations))]

    # ------------------------------------------------------------------ traces

    def memory_timeline(self) -> MemoryTimeline:
        """GPU memory occupancy over the whole simulated window (Figure 3)."""
        return MemoryTimeline.from_schedule(self.schedule, initial_bytes=self.initial_gpu_bytes)

    def pcie_timeline(self, direction: str, resolution: float = 0.05) -> ThroughputTimeline:
        """PCIe throughput trace for "h2d" or "d2h" (Figure 4)."""
        kind = OpKind.H2D if direction == "h2d" else OpKind.D2H
        return ThroughputTimeline.from_schedule(self.schedule, kind, resolution=resolution)


def _iteration_compute_times(job: ResolvedJob) -> tuple[float, float, float, float]:
    """(forward compute, backward compute, forward allgather, backward collectives) seconds."""
    model = job.model
    microbatch = job.config.microbatch_size
    peak_flops = job.machine.gpu.fp16_flops
    forward = forward_compute_seconds(model, microbatch, peak_flops)
    backward = backward_compute_seconds(
        model,
        microbatch,
        peak_flops,
        activation_checkpointing=job.config.activation_checkpointing,
    )
    nvlink_bps = job.machine.nvlink.d2d_gbps * GB
    model_fp16_bytes = model.num_parameters() * DType.FP16.itemsize
    gather = allgather_seconds(model_fp16_bytes, job.data_parallel_degree, nvlink_bps)
    reduce = reduce_scatter_seconds(model_fp16_bytes, job.data_parallel_degree, nvlink_bps) + gather
    return forward, backward, gather, reduce


def _forward_chunks(job: ResolvedJob) -> int:
    """Forward chunks of one iteration (at most one per layer)."""
    return min(job.config.forward_chunks, job.model.num_layers)


def duration_terms(job: ResolvedJob) -> "np.ndarray":
    """``job``'s duration term vector (:mod:`repro.core.duration_terms`).

    Every row :func:`build_iteration_rows` emits for ``job`` has the duration
    ``terms[a] / terms[b]`` for the slot pair ``(a, b)`` it records in
    ``batch.term_slots``, bit for bit.  So the duration column of any job
    with the same :func:`topology_key` comes from one representative's slots
    and this vector, without building a row.
    """
    return term_vector(
        _iteration_compute_times(job),
        _forward_chunks(job),
        job.profile,
        job.plan,
        job.contention,
        job.subgroup_params,
    )


def topology_key(job: ResolvedJob, iterations: int) -> tuple:
    """What fixes the rows of ``iterations`` chained iterations, bar the durations.

    Two jobs with equal keys get the same rows in the same order — same
    resources, dependency edges and duration slots — so one built batch is
    the template of both: the strategy's row-builder identity
    (:meth:`~repro.core.engine.OffloadStrategy.template_key`), the iteration
    count, the forward chunks, and the update plan's per-subgroup GPU/CPU
    target with its static residents.  The plan's assignment reasons follow
    from those two (a GPU subgroup is a resident or a stride hit), and the
    target count is the subgroup count.  Computed from the resolved job,
    before any row exists.
    """
    plan = job.plan
    return (
        job.strategy.template_key(),
        iterations,
        _forward_chunks(job),
        bytes(item.on_gpu for item in plan.assignments),
        tuple(sorted(plan.static_residents)),
    )


def build_iteration(
    engine: SimEngine,
    job: ResolvedJob,
    iteration_index: int,
    start_deps: tuple[int, ...] = (),
) -> IterationOps:
    """Submit the operations of one training iteration to ``engine``."""
    record = IterationOps(index=iteration_index)
    record.blocks_backward = job.strategy.flush_blocks_backward()
    forward_time, backward_time, gather_time, backward_collective_time = _iteration_compute_times(job)

    model = job.model
    footprint = job.footprint
    n_forward_chunks = min(job.config.forward_chunks, model.num_layers)
    activation_per_chunk = footprint.activation_bytes // n_forward_chunks

    # ------------------------------------------------------------------ forward
    previous_compute: int | None = None
    for chunk in range(n_forward_chunks):
        gather = SimOp(
            name=f"it{iteration_index}.fwd_allgather[{chunk}]",
            kind=OpKind.ALLGATHER,
            resource="nvlink",
            duration=gather_time / n_forward_chunks,
            deps=start_deps if chunk == 0 else (),
            phase="forward",
        )
        engine.submit(gather)
        compute_deps = [gather.op_id]
        if chunk == 0:
            compute_deps.extend(start_deps)
        compute = SimOp(
            name=f"it{iteration_index}.fwd_compute[{chunk}]",
            kind=OpKind.GPU_COMPUTE,
            resource="gpu.compute",
            duration=forward_time / n_forward_chunks,
            deps=tuple(compute_deps),
            phase="forward",
            gpu_mem_delta=activation_per_chunk,
        )
        engine.submit(compute)
        record.forward_ops.extend([gather.op_id, compute.op_id])
        record.forward_compute_ops.append(compute.op_id)
        previous_compute = compute.op_id

    # ------------------------------------------------------------------ backward
    num_subgroups = job.num_subgroups
    if num_subgroups == 0:
        raise ConfigurationError("cannot simulate an iteration with zero subgroups")
    activation_free_per_chunk = footprint.activation_bytes // num_subgroups
    grad_ready_deps: dict[int, int] = {}
    blocking_tail: int | None = None

    # Gradients are produced in reverse subgroup order (backprop walks the layers from
    # the output back to the input), which is why Deep Optimizer States can start
    # updating the highest-index subgroups while the backward pass is still running.
    for position, subgroup_index in enumerate(reversed(range(num_subgroups))):
        params = job.subgroup_params[subgroup_index]
        compute_deps = [previous_compute] if previous_compute is not None else []
        if record.blocks_backward and blocking_tail is not None:
            compute_deps.append(blocking_tail)
        compute = SimOp(
            name=f"it{iteration_index}.bwd_compute[{subgroup_index}]",
            kind=OpKind.GPU_COMPUTE,
            resource="gpu.compute",
            duration=backward_time / num_subgroups,
            deps=tuple(compute_deps),
            phase="backward",
            subgroup=subgroup_index,
            gpu_mem_delta=-activation_free_per_chunk + params * DType.FP16.itemsize,
        )
        engine.submit(compute)
        record.backward_compute_ops.append(compute.op_id)
        previous_compute = compute.op_id

        reduce = SimOp(
            name=f"it{iteration_index}.bwd_reduce_scatter[{subgroup_index}]",
            kind=OpKind.REDUCE_SCATTER,
            resource="nvlink",
            duration=backward_collective_time / num_subgroups,
            deps=(compute.op_id,),
            phase="backward",
            subgroup=subgroup_index,
        )
        engine.submit(reduce)

        flush = job.strategy.build_gradient_flush(
            engine,
            job.profile,
            {subgroup_index: params},
            {subgroup_index: reduce.op_id},
            job.plan,
        )
        record.flush.grad_ready_ops.update(flush.grad_ready_ops)
        record.flush.blocking_ops.update(flush.blocking_ops)
        record.flush.op_ids.extend(flush.op_ids)
        record.flush.d2h_bytes += flush.d2h_bytes
        grad_ready_deps.update(flush.grad_ready_ops)
        if record.blocks_backward:
            blocking_tail = flush.blocking_ops.get(subgroup_index, blocking_tail)

    # ------------------------------------------------------------------ update
    last_backward = record.backward_compute_ops[-1]
    record.update = job.strategy.build_update_phase(
        engine,
        job.profile,
        job.plan,
        job.subgroup_params,
        grad_ready_ops=grad_ready_deps,
        start_deps=(last_backward,),
        contention=job.contention,
        staged_subgroup_bytes=footprint.staged_subgroup_bytes,
    )
    return record


def build_iteration_rows(
    batch: OpBatch,
    job: ResolvedJob,
    iteration_index: int,
    start_deps: tuple[int, ...] = (),
) -> IterationOps:
    """Row-emitting twin of :func:`build_iteration` for the array-batched backend.

    Appends the iteration's operations to ``batch`` as row tuples — same names,
    kinds, durations, dependency tuples and op order as the eager builder, with
    no per-op ``SimOp`` construction or per-subgroup strategy-call overhead.
    Each op's id is the index of its row (``len(rows)`` just before the
    append), and beside each row goes its duration's slot pair in
    ``batch.term_slots`` (see :func:`duration_terms`).  The emitted stream
    must stay bit-identical to the eager one; the golden tests compare the
    two schedules field by field.
    """
    record = IterationOps(index=iteration_index)
    record.blocks_backward = job.strategy.flush_blocks_backward()
    forward_time, backward_time, gather_time, backward_collective_time = _iteration_compute_times(job)

    model = job.model
    footprint = job.footprint
    n_forward_chunks = _forward_chunks(job)
    activation_per_chunk = footprint.activation_bytes // n_forward_chunks
    rows = batch.rows
    rows_append = rows.append
    slots_append = batch.term_slots.append

    # ------------------------------------------------------------------ forward
    gather_duration = gather_time / n_forward_chunks
    forward_duration = forward_time / n_forward_chunks
    previous_compute: int | None = None
    for chunk in range(n_forward_chunks):
        gather_id = len(rows)
        rows_append((f"it{iteration_index}.fwd_allgather[{chunk}]", OpKind.ALLGATHER,
                     "nvlink", gather_duration, start_deps if chunk == 0 else (),
                     "forward", None, 0, 0))
        slots_append((GATHER_TIME, FORWARD_CHUNKS))
        compute_id = len(rows)
        compute_deps = (gather_id,) + start_deps if chunk == 0 else (gather_id,)
        rows_append((f"it{iteration_index}.fwd_compute[{chunk}]", OpKind.GPU_COMPUTE,
                     "gpu.compute", forward_duration, compute_deps, "forward", None,
                     0, activation_per_chunk))
        slots_append((FORWARD_TIME, FORWARD_CHUNKS))
        record.forward_ops.extend([gather_id, compute_id])
        record.forward_compute_ops.append(compute_id)
        previous_compute = compute_id

    # ------------------------------------------------------------------ backward
    num_subgroups = job.num_subgroups
    if num_subgroups == 0:
        raise ConfigurationError("cannot simulate an iteration with zero subgroups")
    activation_free_per_chunk = footprint.activation_bytes // num_subgroups
    backward_duration = backward_time / num_subgroups
    reduce_duration = backward_collective_time / num_subgroups
    fp16 = DType.FP16.itemsize
    subgroup_params = job.subgroup_params
    emit_flush = job.strategy.flush_row_builder(batch, job.profile, job.plan)
    flush = record.flush
    blocks_backward = record.blocks_backward
    backward_append = record.backward_compute_ops.append
    grad_ready_deps: dict[int, int] = {}
    blocking_tail: int | None = None

    for subgroup_index in reversed(range(num_subgroups)):
        params = subgroup_params[subgroup_index]
        if previous_compute is not None:
            if blocks_backward and blocking_tail is not None:
                compute_deps = (previous_compute, blocking_tail)
            else:
                compute_deps = (previous_compute,)
        elif blocks_backward and blocking_tail is not None:
            compute_deps = (blocking_tail,)
        else:
            compute_deps = ()
        compute_id = len(rows)
        rows_append((f"it{iteration_index}.bwd_compute[{subgroup_index}]",
                     OpKind.GPU_COMPUTE, "gpu.compute", backward_duration,
                     compute_deps, "backward", subgroup_index, 0,
                     -activation_free_per_chunk + params * fp16))
        slots_append((BACKWARD_TIME, SUBGROUPS))
        backward_append(compute_id)
        previous_compute = compute_id

        reduce_id = len(rows)
        rows_append((f"it{iteration_index}.bwd_reduce_scatter[{subgroup_index}]",
                     OpKind.REDUCE_SCATTER, "nvlink", reduce_duration,
                     (compute_id,), "backward", subgroup_index, 0, 0))
        slots_append((COLLECTIVE_TIME, SUBGROUPS))

        grad_ready, blocking = emit_flush(flush, subgroup_index, params, reduce_id)
        grad_ready_deps[subgroup_index] = grad_ready
        if blocks_backward and blocking is not None:
            blocking_tail = blocking

    # ------------------------------------------------------------------ update
    last_backward = record.backward_compute_ops[-1]
    record.update = job.strategy.build_update_phase_rows(
        batch,
        job.profile,
        job.plan,
        subgroup_params,
        grad_ready_ops=grad_ready_deps,
        start_deps=(last_backward,),
        contention=job.contention,
        staged_subgroup_bytes=footprint.staged_subgroup_bytes,
    )
    return record


def simulate_job(
    job: ResolvedJob,
    iterations: int = 1,
    *,
    policy: ExecutionPolicy | None = None,
) -> SimulationResult:
    """Simulate ``iterations`` chained training iterations of ``job``.

    The op rows are built by :func:`prepare_simulation` and scheduled on the
    vector kernel.  ``policy`` pins the execution policy for this call;
    ``None`` resolves one through the standard order (active
    ``repro.configure`` context, then ``REPRO_*`` environment variables, then
    defaults — see :meth:`repro.runtime.ExecutionPolicy.resolve`).  Only its
    middleware chain (the engine seam) and tracing apply here.
    """
    if iterations <= 0:
        raise ConfigurationError("iterations must be positive")
    if policy is None:
        # Only the simulation-relevant fields consult the environment: a
        # broken sweep-level variable must not fail a call that never reads it.
        policy = ExecutionPolicy.resolve(env_fields=SIMULATION_FIELDS)
    elif not isinstance(policy, ExecutionPolicy):
        raise ConfigurationError("policy must be an ExecutionPolicy")

    prepared = prepare_simulation(job, iterations, policy=policy)
    engine = SimEngine(name=f"{job.model.name}-{job.strategy.name}")
    standard_resources(engine)
    effective_specs = effective_middleware_specs(policy)
    if effective_specs:
        # The engine seam: the policy's chain intercepts the run_vector() pass
        # as a whole (see docs/middleware.md).
        engine.install_middleware(build_chain(effective_specs), policy=policy)
    return finalize_simulation(prepared, engine.run_vector(prepared.batch))


def _initial_gpu_bytes(job: ResolvedJob) -> int:
    """GPU bytes already resident when the simulated window opens."""
    return (
        job.footprint.fp16_parameter_bytes
        + job.footprint.gpu_resident_optimizer_bytes
        + job.footprint.gathered_layer_workspace_bytes
    )


@dataclass
class PreparedSimulation:
    """The op-construction half of a simulation, before scheduling.

    :func:`prepare_simulation` builds the op rows and the per-iteration
    bookkeeping; the schedule itself can then come from anywhere — the solo
    vector run in :func:`simulate_job`, or one column of a shape-batched
    :class:`~repro.sim.shapebatch.StackedSchedule` when a sweep schedules many
    prepared scenarios at once.  :func:`finalize_simulation` reassembles the
    pieces into the exact :class:`SimulationResult` the solo path returns.
    """

    job: ResolvedJob
    policy: ExecutionPolicy
    batch: OpBatch
    records: list[IterationOps]
    op_count: int


def prepare_simulation(
    job: ResolvedJob,
    iterations: int,
    *,
    policy: ExecutionPolicy | None = None,
) -> PreparedSimulation:
    """Build the op rows of ``iterations`` chained iterations without scheduling.

    Strategies without row builders (``supports_op_batch()`` false) cannot
    be simulated and raise :class:`~repro.common.errors.ConfigurationError`.
    """
    if iterations <= 0:
        raise ConfigurationError("iterations must be positive")
    if policy is None:
        policy = ExecutionPolicy.resolve(env_fields=SIMULATION_FIELDS)
    if not job.strategy.supports_op_batch():
        raise ConfigurationError(
            f"strategy {job.strategy.name!r} does not implement the op-batch row "
            "builders (build_update_phase_rows / flush_row_builder), which "
            "simulation requires"
        )
    batch = OpBatch()
    records: list[IterationOps] = []
    start_deps: tuple[int, ...] = ()
    for index in range(iterations):
        record = build_iteration_rows(batch, job, index, start_deps)
        records.append(record)
        start_deps = tuple(record.update.params_ready_ops)
    return PreparedSimulation(
        job=job,
        policy=policy,
        batch=batch,
        records=records,
        op_count=len(batch.rows),
    )


def finalize_simulation(
    prepared: PreparedSimulation,
    schedule: Schedule,
    *,
    scheduler: str = "vector",
    breakdowns: list[IterationBreakdown] | None = None,
) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from a prepared batch and its schedule.

    ``scheduler`` names the backend that produced ``schedule`` (recorded in
    ``resolved_policy``); ``breakdowns`` optionally carries per-iteration
    breakdowns already computed elsewhere (the stacked sweep path), which
    :meth:`SimulationResult.breakdowns` then returns without touching the
    schedule.
    """
    resolved = ResolvedExecution(
        policy=prepared.policy,
        scheduler=scheduler,
        op_count=prepared.op_count,
    )
    return SimulationResult(
        job=prepared.job,
        schedule=schedule,
        iterations=prepared.records,
        initial_gpu_bytes=_initial_gpu_bytes(prepared.job),
        resolved_policy=resolved,
        precomputed_breakdowns=breakdowns,
    )


# --------------------------------------------------------------------- stacked
# Vectorised breakdown computation for the shape-batched sweep path: instead of
# querying one schedule at a time, gather the relevant rows of the stacked
# (ops, scenarios) start/end matrices once and reduce across the op axis, so a
# group of S scenarios pays one numpy pass instead of S rounds of id lookups.


@dataclass(frozen=True)
class BreakdownIndexPlan:
    """Row indices feeding one iteration's breakdown, shared across a shape group.

    Valid for every scenario whose batch matches the plan's
    :class:`~repro.sim.shapebatch.ShapeKey`: op ids are row indices, so the
    ids in one representative's bookkeeping index every column of the stacked
    schedule directly.
    """

    start_rows: "np.ndarray"
    forward_rows: "np.ndarray"
    backward_rows: "np.ndarray"
    ready_rows: "np.ndarray"


def breakdown_index_plans(records: list[IterationOps]) -> list[BreakdownIndexPlan]:
    """Gather the per-iteration op-id bookkeeping as stacked row-index arrays."""
    plans: list[BreakdownIndexPlan] = []
    for record in records:
        backward = list(record.backward_compute_ops)
        if record.blocks_backward and record.flush.op_ids:
            backward.extend(record.flush.op_ids)
        plans.append(
            BreakdownIndexPlan(
                start_rows=np.asarray(record.forward_ops, dtype=np.intp),
                forward_rows=np.asarray(record.forward_compute_ops, dtype=np.intp),
                backward_rows=np.asarray(backward, dtype=np.intp),
                ready_rows=np.asarray(record.update.params_ready_ops, dtype=np.intp),
            )
        )
    return plans


def stacked_breakdowns(
    plans: list[BreakdownIndexPlan],
    starts,
    ends,
) -> list[list[IterationBreakdown]]:
    """Per-scenario breakdowns from stacked ``(ops, scenarios)`` time matrices.

    Returns one list of :class:`IterationBreakdown` per scenario column,
    bit-identical to what :meth:`SimulationResult.breakdown` computes from the
    scenario's own schedule: the axis-0 min/max reductions see the same float
    values as the scalar query chains, and the phase subtractions are the same
    IEEE-754 double operations applied elementwise.
    """
    num_scenarios = starts.shape[1]
    phases = []
    for plan in plans:
        iteration_start = starts[plan.start_rows].min(axis=0)
        forward_end = ends[plan.forward_rows].max(axis=0)
        backward_end = ends[plan.backward_rows].max(axis=0)
        ready = ends[plan.ready_rows].max(axis=0)
        phases.append(
            (forward_end - iteration_start, backward_end - forward_end, ready - backward_end)
        )
    return [
        [
            IterationBreakdown(
                forward_seconds=float(forward[s]),
                backward_seconds=float(backward[s]),
                update_seconds=float(update[s]),
            )
            for forward, backward, update in phases
        ]
        for s in range(num_scenarios)
    ]
