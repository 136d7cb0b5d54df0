"""End-to-end pipeline simulation: schedule pass -> lowering -> engine -> metrics.

:func:`simulate_pipeline` is the pipeline twin of
:func:`repro.training.simulation.simulate_job`: it resolves an
:class:`~repro.runtime.ExecutionPolicy` (``pipeline_schedule`` supplies the
default schedule family), builds the schedule and its op rows through the
strategy's row builder, schedules them on the ordinary
:class:`~repro.sim.engine.SimEngine`'s vector kernel (middleware chain
installed at the engine seam) and derives the pipeline metrics — makespan,
per-stage busy time and the **bubble fraction**

    ``1 - total stage compute / (stages * makespan)``

that the figures plot.  Zero-duration RECV ops keep the stage clocks honest
without counting as compute, so the bubble fraction measures exactly the
idle the schedule family leaves on the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.middleware import build_chain, effective_middleware_specs
from repro.pipeline.lowering import pipeline_resources
from repro.pipeline.strategy import PipelineStrategy, build_pipeline_strategy
from repro.pipeline.timing import DEFAULT_BACKWARD_SPLIT, PipelineTiming, timing_from_presets
from repro.runtime import ExecutionPolicy
from repro.runtime.policy import PIPELINE_FIELDS, ResolvedExecution
from repro.sim.engine import Schedule, SimEngine


@dataclass(frozen=True)
class PipelineResult:
    """Metrics of one simulated pipeline iteration."""

    schedule: str
    stages: int
    microbatches: int
    model: str
    machine: str
    microbatch_size: int
    timing: PipelineTiming
    makespan_seconds: float
    bubble_fraction: float
    stage_busy_seconds: tuple[float, ...]
    comm_busy_seconds: float
    op_count: int
    resolved: ResolvedExecution = field(repr=False)
    sim_schedule: Schedule = field(repr=False)

    @property
    def ideal_seconds(self) -> float:
        """Bubble-free lower bound: each stage's serial compute."""
        return self.microbatches * self.timing.stage_seconds

    def to_dict(self) -> dict:
        """Flat JSON-able summary (the sweep-worker return value).

        Deliberately excludes *how* the result was computed (kernel,
        executor): identical scenarios must serialize byte-identically
        across serial/pool/cluster executors.
        """
        utilizations = [
            busy / self.makespan_seconds if self.makespan_seconds > 0 else 0.0
            for busy in self.stage_busy_seconds
        ]
        return {
            "schedule": self.schedule,
            "stages": self.stages,
            "microbatches": self.microbatches,
            "model": self.model,
            "machine": self.machine,
            "microbatch_size": self.microbatch_size,
            "op_count": self.op_count,
            "makespan_s": self.makespan_seconds,
            "ideal_s": self.ideal_seconds,
            "bubble_fraction": self.bubble_fraction,
            "f_s": self.timing.f_seconds,
            "b_s": self.timing.b_seconds,
            "w_s": self.timing.w_seconds,
            "comm_s": self.timing.comm_seconds,
            "stage_busy_total_s": sum(self.stage_busy_seconds),
            "comm_busy_s": self.comm_busy_seconds,
            "min_stage_utilization": min(utilizations, default=0.0),
            "max_stage_utilization": max(utilizations, default=0.0),
        }


def simulate_pipeline(
    *,
    schedule: str | None = None,
    stages: int = 4,
    microbatches: int = 8,
    model: str = "20B",
    machine: str = "jlse-4xh100",
    microbatch_size: int = 1,
    activation_checkpointing: bool = True,
    backward_split: float = DEFAULT_BACKWARD_SPLIT,
    timing: PipelineTiming | None = None,
    strategy: PipelineStrategy | None = None,
    policy: ExecutionPolicy | None = None,
) -> PipelineResult:
    """Simulate one pipeline-parallel iteration.

    ``schedule=None`` resolves the family from the policy's
    ``pipeline_schedule`` field (arg > context > ``$REPRO_PIPELINE_SCHEDULE``
    > default), mirroring how every other execution decision resolves.  An
    explicit ``timing`` bypasses the preset-derived durations (tests and the
    property suite use this); ``strategy`` likewise bypasses the registry.
    """
    if policy is None:
        policy = ExecutionPolicy.resolve(env_fields=PIPELINE_FIELDS)
    schedule_name = schedule if schedule is not None else policy.pipeline_schedule
    if strategy is None:
        strategy = build_pipeline_strategy(schedule_name)
    if timing is None:
        timing = timing_from_presets(
            model, machine,
            stages=stages,
            microbatch_size=microbatch_size,
            activation_checkpointing=activation_checkpointing,
            backward_split=backward_split,
        )
    plan = strategy.build_plan(stages, microbatches, timing)

    engine = SimEngine("pipeline")
    pipeline_resources(engine, stages)
    chain = build_chain(effective_middleware_specs(policy))
    if chain is not None:
        engine.install_middleware(chain, policy=policy)

    lowered = strategy.build_schedule_rows(plan, timing)
    sim_schedule = engine.run_vector(lowered.batch)

    makespan = sim_schedule.makespan
    stage_busy = tuple(
        sim_schedule.busy_time(resource) for resource in lowered.stage_resources()
    )
    bubble = 0.0
    if makespan > 0:
        bubble = 1.0 - sum(stage_busy) / (stages * makespan)
    comm_busy = sum(
        sim_schedule.busy_time(resource)
        for resource in lowered.resource_names
        if resource.startswith("link")
    )
    resolved = ResolvedExecution(
        policy=policy, scheduler="vector", op_count=lowered.op_count
    )
    return PipelineResult(
        schedule=lowered.schedule.name,
        stages=stages,
        microbatches=microbatches,
        model=model,
        machine=machine,
        microbatch_size=microbatch_size,
        timing=timing,
        makespan_seconds=makespan,
        bubble_fraction=bubble,
        stage_busy_seconds=stage_busy,
        comm_busy_seconds=comm_busy,
        op_count=lowered.op_count,
        resolved=resolved,
        sim_schedule=sim_schedule,
    )
