"""Runtime execution policy: one first-class object instead of plumbed knobs.

:class:`ExecutionPolicy` carries every runtime-execution decision — sweep
parallelism and dispatch, caching, middleware, scenario defaults and tracing —
and :meth:`ExecutionPolicy.resolve` implements the
one documented resolution order (explicit argument > active
:func:`configure` context > ``REPRO_*`` environment > defaults) that every
consumer shares: ``simulate_job``, ``Trainer``, ``SweepRunner`` and the CLI.
See ``docs/runtime.md`` for the full model.
"""

from repro.runtime.policy import (
    AUTO_EXECUTOR,
    EXECUTOR_BACKENDS,
    EXECUTOR_CHOICES,
    PIPELINE_FIELDS,
    POLICY_FIELDS,
    SCENARIO_FAMILIES,
    SIMULATION_FIELDS,
    ExecutionPolicy,
    ResolvedExecution,
    configure,
    policy_context,
    resolution_report,
)

__all__ = [
    "AUTO_EXECUTOR",
    "EXECUTOR_BACKENDS",
    "EXECUTOR_CHOICES",
    "PIPELINE_FIELDS",
    "POLICY_FIELDS",
    "SCENARIO_FAMILIES",
    "SIMULATION_FIELDS",
    "ExecutionPolicy",
    "ResolvedExecution",
    "configure",
    "policy_context",
    "resolution_report",
]
