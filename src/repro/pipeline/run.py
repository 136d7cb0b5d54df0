"""Sweep-facing pipeline workers: :func:`run_pipeline` and :func:`pipeline_sweep`.

:func:`run_pipeline` is the module-level (hence picklable) worker behind
``repro sweep --worker pipeline`` and the serve worker registry.  It takes
every scenario knob explicitly — including the schedule family, whose default
here is fixed at ``"1f1b"`` rather than resolved from the ambient policy:
sweep results are cached by ``(worker, params)`` content address and the
execution policy deliberately never enters the key, so nothing
result-affecting may default from it.  (Single uncached runs through
:func:`~repro.pipeline.simulate.simulate_pipeline` *do* honour the policy's
``pipeline_schedule`` — the cache-correctness constraint is the sweep
worker's alone.)
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.pipeline.simulate import simulate_pipeline
from repro.pipeline.timing import DEFAULT_BACKWARD_SPLIT
from repro.runtime import ExecutionPolicy
from repro.sweep import SweepRunner, SweepSpec


def run_pipeline(
    *,
    schedule: str = "1f1b",
    stages: int = 4,
    microbatches: int = 8,
    model: str = "20B",
    machine: str = "jlse-4xh100",
    microbatch_size: int = 1,
    activation_checkpointing: bool = True,
    backward_split: float = DEFAULT_BACKWARD_SPLIT,
) -> dict:
    """Simulate one pipeline scenario; returns the flat JSON-able summary.

    The return value carries scenario identity and metrics only — no
    executor/scheduler provenance — so identical scenarios serialize
    byte-identically however they were computed.
    """
    return simulate_pipeline(
        schedule=schedule,
        stages=stages,
        microbatches=microbatches,
        model=model,
        machine=machine,
        microbatch_size=microbatch_size,
        activation_checkpointing=activation_checkpointing,
        backward_split=backward_split,
    ).to_dict()


def pipeline_sweep(
    axes: Mapping[str, Sequence[Any]],
    *,
    base: Mapping[str, Any] | None = None,
    jobs: int | None = None,
    use_cache: bool | None = None,
    cache_dir: Any = None,
    policy: ExecutionPolicy | None = None,
) -> dict[tuple, dict]:
    """Run a declarative grid of :func:`run_pipeline` scenarios.

    The pipeline twin of :func:`repro.experiments.base.training_sweep`:
    ``axes`` maps :func:`run_pipeline` keyword names (``schedule``, ``stages``,
    ``microbatches``, ...) to candidate values, ``base`` holds fixed keywords,
    and results come back keyed by the axis-value tuple in declaration order
    (bare values for a single axis).
    """
    spec = SweepSpec.build(axes, base)
    runner = SweepRunner(
        run_pipeline, jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
        policy=policy,
    )
    return runner.run(spec).keyed(*spec.axis_names)
