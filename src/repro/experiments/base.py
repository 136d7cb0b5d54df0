"""Shared infrastructure for the experiment runners.

Grid-shaped experiments declare their (model × strategy × knob) grids through the
sweep subsystem (:func:`training_sweep` / :func:`model_sweep`) instead of hand-rolled
nested loops, so every figure/table inherits process parallelism and result caching
from :class:`~repro.sweep.runner.SweepRunner` without any per-module code.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.model.presets import PAPER_MODEL_ORDER
from repro.runtime import ExecutionPolicy, policy_context
from repro.sim.engine import STANDARD_RESOURCE_NAMES
from repro.sweep import Scenario, SweepRunner, SweepSpec
from repro.sweep.batching import PreparedCase, register_batchable
from repro.training.config import ResolvedJob, TrainingJobConfig
from repro.training.metrics import TrainingReport, format_table
from repro.training.simulation import (
    PreparedSimulation,
    breakdown_index_plans,
    duration_terms,
    finalize_simulation,
    prepare_simulation,
    stacked_breakdowns,
    topology_key,
)
from repro.training.trainer import Trainer

# The paper's fast-iteration defaults: DP = 4 GPUs, microbatch 1, 100M-parameter
# subgroups, activation checkpointing on.
DEFAULT_ITERATIONS = 4
DEFAULT_WARMUP = 1


@dataclass
class ExperimentResult:
    """Structured output of one experiment."""

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    series: dict[str, list] = field(default_factory=dict)
    paper_reference: dict = field(default_factory=dict)
    notes: str = ""

    def format(self, columns: list[str] | None = None) -> str:
        """Render the rows as an aligned text table (plus notes)."""
        header = f"[{self.experiment_id}] {self.title}"
        body = format_table(self.rows, columns) if self.rows else "(series-only experiment)"
        parts = [header, body]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def column(self, name: str) -> list:
        """Extract one column across all rows."""
        return [row.get(name) for row in self.rows]


def run_experiment(
    experiment_id: str, *, policy: ExecutionPolicy | None = None, **kwargs
) -> ExperimentResult:
    """Run an experiment by its id (e.g. ``"fig7"``).

    ``policy`` pins the :class:`~repro.runtime.ExecutionPolicy` for everything
    the experiment runs (its internal sweeps resolve at the context level);
    ``None`` leaves resolution to the ambient context/environment, keeping the
    experiment modules themselves policy-free.
    """
    from repro.experiments import EXPERIMENT_MODULES

    if experiment_id not in EXPERIMENT_MODULES:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENT_MODULES)}"
        )
    module = importlib.import_module(EXPERIMENT_MODULES[experiment_id])
    if policy is None:
        return module.run(**kwargs)
    with policy_context(policy):
        return module.run(**kwargs)


def _training_trainer(
    *,
    model: str = "20B",
    strategy: str = "deep-optimizer-states",
    machine: str = "jlse-4xh100",
    static_gpu_fraction: float = 0.0,
    microbatch_size: int = 1,
    subgroup_size: int = 100_000_000,
    data_parallel_degree: int | None = None,
    cpu_cores_per_gpu: int | None = None,
    update_stride: int = 0,
    iterations: int = DEFAULT_ITERATIONS,
    warmup_iterations: int | None = None,
    check_memory: bool = True,
) -> Trainer:
    """The :class:`Trainer` behind one :func:`run_training` scenario."""
    if warmup_iterations is None:
        warmup_iterations = min(DEFAULT_WARMUP, iterations - 1)
    config = TrainingJobConfig(
        model=model,
        machine=machine,
        strategy=strategy,
        data_parallel_degree=data_parallel_degree,
        microbatch_size=microbatch_size,
        subgroup_size=subgroup_size,
        activation_checkpointing=True,
        static_gpu_fraction=static_gpu_fraction,
        update_stride=update_stride,
        cpu_cores_per_gpu=cpu_cores_per_gpu,
        iterations=iterations,
        warmup_iterations=warmup_iterations,
        check_memory=check_memory,
    )
    return Trainer(config, simulated_iterations=min(3, iterations))


def run_training(
    *,
    model: str = "20B",
    strategy: str = "deep-optimizer-states",
    machine: str = "jlse-4xh100",
    static_gpu_fraction: float = 0.0,
    microbatch_size: int = 1,
    subgroup_size: int = 100_000_000,
    data_parallel_degree: int | None = None,
    cpu_cores_per_gpu: int | None = None,
    update_stride: int = 0,
    iterations: int = DEFAULT_ITERATIONS,
    warmup_iterations: int | None = None,
    check_memory: bool = True,
) -> TrainingReport:
    """Run one simulated training job with the paper's default runtime settings."""
    return _training_trainer(
        model=model,
        strategy=strategy,
        machine=machine,
        static_gpu_fraction=static_gpu_fraction,
        microbatch_size=microbatch_size,
        subgroup_size=subgroup_size,
        data_parallel_degree=data_parallel_degree,
        cpu_cores_per_gpu=cpu_cores_per_gpu,
        update_stride=update_stride,
        iterations=iterations,
        warmup_iterations=warmup_iterations,
        check_memory=check_memory,
    ).run()


# --------------------------------------------------------------- shape batching
# The sweep-batching adapter for run_training: prepare resolves the job into a
# topology key and a duration term vector, build turns a template member into
# op rows, finalize_group turns one stacked schedule back into per-scenario
# TrainingReports.  Registered at the bottom of this module, so any process
# that can import run_training (pool workers, cluster daemons) rediscovers the
# adapter automatically.


@dataclass
class _TrainingCase:
    """The payload of one prepared :func:`run_training` scenario.

    ``prepared`` is set once :func:`_build_training_case` built the case's
    rows (a group template, or a member of a group too small to stack).
    """

    trainer: Trainer
    job: ResolvedJob
    iterations: int
    policy: ExecutionPolicy
    prepared: PreparedSimulation | None = None


def _prepare_training_case(policy, **params):
    """Prepare one :func:`run_training` scenario for shape-batched scheduling.

    Returns a :class:`~repro.sweep.batching.PreparedCase` carrying the job's
    topology key and duration term vector — no op row is built here — or, for
    a scenario that runs out of memory at resolution, the finished
    :class:`~repro.training.metrics.TrainingReport` itself, computed exactly
    as :func:`run_training` would.
    """
    trainer = _training_trainer(**params)
    try:
        job = trainer.config.resolve()
    except OutOfMemoryError as exc:
        return trainer.oom_report(exc)
    iterations = max(1, min(trainer.simulated_iterations, trainer.config.iterations))
    return PreparedCase(
        key=topology_key(job, iterations),
        terms=duration_terms(job),
        resource_names=STANDARD_RESOURCE_NAMES,
        payload=_TrainingCase(trainer, job, iterations, policy),
    )


def _build_training_case(case: _TrainingCase):
    """Build one prepared scenario's op rows (see ``BatchAdapter.build``)."""
    prepared = prepare_simulation(case.job, case.iterations, policy=case.policy)
    batch = prepared.batch
    # The rows live on in the stacked schedule (or the solo run) only.
    prepared.batch = None
    case.prepared = prepared
    return batch


def _finalize_training_group(payloads, stacked):
    """Per-scenario :class:`TrainingReport` values from one stacked schedule.

    Breakdowns are computed for the whole group in one vectorised pass (op ids
    are row indices, shared by every member of a shape group), then each
    scenario's report aggregates them exactly like the per-scenario path —
    same floats, same JSON.  Members that never built rows take the
    template's op bookkeeping, which names the same row indices; their
    schedules read the template's rows for op metadata, their own columns
    for times.
    """
    template = payloads[0].prepared
    plans = breakdown_index_plans(template.records)
    group_breakdowns = stacked_breakdowns(plans, stacked.starts, stacked.ends)
    reports = []
    for scenario_index, case in enumerate(payloads):
        prepared = case.prepared or PreparedSimulation(
            job=case.job,
            policy=case.policy,
            batch=None,
            records=template.records,
            op_count=template.op_count,
        )
        result = finalize_simulation(
            prepared,
            stacked.schedule_for(scenario_index),
            scheduler="vector",
            breakdowns=group_breakdowns[scenario_index],
        )
        reports.append(case.trainer.report_from_simulation(case.job, result))
    return reports


def training_sweep(
    axes: Mapping[str, Sequence[Any]],
    *,
    base: Mapping[str, Any] | None = None,
    jobs: int | None = None,
    use_cache: bool | None = None,
    cache_dir: Any = None,
    policy: ExecutionPolicy | None = None,
) -> dict[tuple, TrainingReport]:
    """Run a declarative grid of :func:`run_training` scenarios.

    ``axes`` maps :func:`run_training` keyword names to candidate values; ``base``
    holds fixed keywords shared by every scenario.  Returns reports keyed by the
    tuple of axis values in declaration order (bare values for a single axis).
    Parallelism and caching follow the resolved :class:`~repro.runtime.ExecutionPolicy`
    unless overridden (``policy=`` whole, or the individual keywords).
    """
    spec = SweepSpec.build(axes, base)
    runner = SweepRunner(
        run_training, jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
        policy=policy,
    )
    return runner.run(spec).keyed(*spec.axis_names)


def numeric_sweep(
    axes: Mapping[str, Sequence[Any]],
    *,
    base: Mapping[str, Any] | None = None,
    jobs: int | None = None,
    use_cache: bool | None = None,
    cache_dir: Any = None,
    policy: ExecutionPolicy | None = None,
) -> dict[tuple, dict]:
    """Run a declarative grid of numeric (tiny-model) training runs.

    The sweep twin of :func:`training_sweep` for the numeric execution path:
    ``axes``/``base`` map :func:`repro.training.numeric.run_numeric_training`
    keywords, values are its JSON summaries keyed by axis values.  Sweeping
    ``strategy`` with a fixed ``seed`` demonstrates the paper's numerical
    equivalence claim grid-wide (identical losses for every strategy).
    """
    from repro.training.numeric import run_numeric_training

    spec = SweepSpec.build(axes, base)
    runner = SweepRunner(
        run_numeric_training, jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
        policy=policy,
    )
    return runner.run(spec).keyed(*spec.axis_names)


def model_sweep(
    strategies: list[str],
    *,
    models: tuple[str, ...] = PAPER_MODEL_ORDER,
    static_gpu_fraction: float = 0.0,
    iterations: int = DEFAULT_ITERATIONS,
    data_parallel_degree: int | None = None,
    jobs: int | None = None,
    use_cache: bool | None = None,
    policy: ExecutionPolicy | None = None,
) -> dict[tuple[str, str], TrainingReport]:
    """Run every (model, strategy) combination; keys are ``(model, strategy)``.

    The static GPU fraction is forced to zero for the fully-offloaded ZeRO-3
    baseline, so the grid is built as an explicit scenario list rather than a pure
    cartesian spec.
    """
    scenarios = [
        Scenario.from_params(
            {
                "model": model,
                "strategy": strategy,
                "static_gpu_fraction": static_gpu_fraction if strategy != "zero3-offload" else 0.0,
                "iterations": iterations,
                "data_parallel_degree": data_parallel_degree,
            }
        )
        for model in models
        for strategy in strategies
    ]
    runner = SweepRunner(run_training, jobs=jobs, use_cache=use_cache, policy=policy)
    result = runner.run(scenarios)
    return {
        (record.scenario.get("model"), record.scenario.get("strategy")): record.value
        for record in result.records
    }


register_batchable(
    run_training,
    prepare=_prepare_training_case,
    build=_build_training_case,
    finalize_group=_finalize_training_group,
)
