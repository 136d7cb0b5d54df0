"""Deep Optimizer States middleware facade and strategy interface.

The paper packages its contribution as a middleware that plugs into DeepSpeed and is
"enabled and configured through a single JSON entry".  This module provides the same
surface for the reproduction:

* :class:`DeepOptimizerStatesConfig` — the JSON-able configuration block;
* :class:`OffloadStrategy` — the interface every offloading strategy implements
  (the two baselines live in :mod:`repro.baselines`);
* :class:`DeepOptimizerStates` — the interleaved-offloading strategy itself, which
  knows how to pick its stride from the performance model, build Algorithm 1 plans,
  drive the numeric executor, and emit the overlapped operation graphs used by the
  timing simulation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.serialization import from_dict, to_dict
from repro.core.gradient_flush import (
    GradientFlushOps,
    build_baseline_gradient_flush,
    build_overlapped_gradient_flush,
    make_overlapped_flush_rows,
)
from repro.core.numeric_executor import InterleavedNumericExecutor, SequentialCpuExecutor
from repro.core.performance_model import PerformanceModel, optimal_update_stride
from repro.core.scheduler import UpdatePlan, build_cpu_only_plan, build_update_plan
from repro.core.sim_executor import (
    UpdatePhaseOps,
    build_blocking_offload_update,
    build_interleaved_update,
    build_interleaved_update_rows,
)
from repro.hardware.contention import HostContentionModel
from repro.hardware.throughput import ThroughputProfile
from repro.zero.offload import OffloadConfig, OffloadDevice
from repro.zero.stage3 import ShardedMixedPrecisionOptimizer


@dataclass(frozen=True)
class DeepOptimizerStatesConfig:
    """The single configuration block of the middleware (JSON-serialisable)."""

    enabled: bool = True
    subgroup_size: int = 100_000_000
    update_stride: int = 0  # 0 = derive from the performance model (Equation 1)
    min_update_stride: int = 2
    max_update_stride: int = 8
    static_gpu_fraction: float = 0.0
    static_residents_at_end: bool = True
    pin_host_memory: bool = True
    keep_gpu_scheduled_gradients_on_gpu: bool = True

    def __post_init__(self) -> None:
        if self.subgroup_size <= 0:
            raise ConfigurationError("subgroup_size must be positive")
        if self.update_stride < 0:
            raise ConfigurationError("update_stride must be >= 0 (0 selects automatic)")
        if self.min_update_stride < 1 or self.max_update_stride < self.min_update_stride:
            raise ConfigurationError("invalid stride bounds")
        if not 0.0 <= self.static_gpu_fraction <= 1.0:
            raise ConfigurationError("static_gpu_fraction must be in [0, 1]")

    def to_json_dict(self) -> dict:
        """The dictionary a user would paste into the training-runtime JSON config."""
        return {"deep_optimizer_states": to_dict(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeepOptimizerStatesConfig":
        """Parse a configuration block (accepts both wrapped and bare dictionaries)."""
        block = data.get("deep_optimizer_states", data)
        return from_dict(cls, block)


class OffloadStrategy(abc.ABC):
    """Interface implemented by every optimizer-offloading strategy."""

    name: str = "strategy"
    display_name: str = "strategy"

    @property
    @abc.abstractmethod
    def static_gpu_fraction(self) -> float:
        """Fraction of the optimizer state statically resident on the GPU."""

    @abc.abstractmethod
    def offload_config(self, subgroup_size: int) -> OffloadConfig:
        """The ZeRO offload configuration to shard the optimizer with."""

    @abc.abstractmethod
    def build_plan(self, num_subgroups: int, profile: ThroughputProfile) -> UpdatePlan:
        """Scheduling plan for one rank's subgroups."""

    @abc.abstractmethod
    def flush_blocks_backward(self) -> bool:
        """Whether the gradient flush serialises the backward pass (baseline behaviour)."""

    @abc.abstractmethod
    def stages_subgroup_on_gpu(self) -> bool:
        """Whether the strategy dynamically stages optimizer subgroups on the GPU."""

    @abc.abstractmethod
    def build_gradient_flush(
        self,
        engine,
        profile: ThroughputProfile,
        subgroup_params: dict[int, int],
        compute_deps: dict[int, int],
        plan: UpdatePlan,
    ) -> GradientFlushOps:
        """Submit the backward-pass gradient-flush operations."""

    @abc.abstractmethod
    def build_update_phase(
        self,
        engine,
        profile: ThroughputProfile,
        plan: UpdatePlan,
        subgroup_params: dict[int, int],
        *,
        grad_ready_ops: dict[int, int],
        start_deps: tuple[int, ...],
        contention: HostContentionModel | None,
        staged_subgroup_bytes: int = 0,
    ) -> UpdatePhaseOps:
        """Submit the update-phase operations."""

    @abc.abstractmethod
    def numeric_executor(self, num_subgroups: int, profile: ThroughputProfile | None = None):
        """Executor for :meth:`ShardedMixedPrecisionOptimizer.step` (numeric path)."""

    # ------------------------------------------------------------------ op batching
    #
    # The array-batched fast path of ``simulate_job`` asks the strategy for
    # row-emitting twins of the two builders above.  Strategies that do not
    # implement them keep working: ``supports_op_batch()`` defaults to False and
    # the simulation falls back to eager ``SimOp`` submission.

    def supports_op_batch(self) -> bool:
        """True when the strategy provides the row-emitting builder twins."""
        return False

    def template_key(self) -> tuple:
        """What, besides the update plan, fixes the rows the twins emit.

        Part of :func:`repro.training.simulation.topology_key`: scenarios
        whose keys match share one built batch as their row template, so a
        strategy option that changes an emitted row's topology or duration
        slots must appear here.
        """
        return (self.name,)

    def flush_row_builder(self, batch, profile: ThroughputProfile, plan: UpdatePlan):
        """Per-subgroup flush row emitter (see :mod:`repro.core.gradient_flush`)."""
        raise NotImplementedError(f"{self.name} does not support op batching")

    def build_update_phase_rows(
        self,
        batch,
        profile: ThroughputProfile,
        plan: UpdatePlan,
        subgroup_params: dict[int, int],
        *,
        grad_ready_ops: dict[int, int],
        start_deps: tuple[int, ...],
        contention: HostContentionModel | None,
        staged_subgroup_bytes: int = 0,
    ) -> UpdatePhaseOps:
        """Row-emitting twin of :meth:`build_update_phase`."""
        raise NotImplementedError(f"{self.name} does not support op batching")

    def describe(self) -> dict:
        """Human-readable summary."""
        return {"strategy": self.name, "static_gpu_fraction": self.static_gpu_fraction}


class DeepOptimizerStates(OffloadStrategy):
    """The paper's strategy: interleaved, overlapped CPU-GPU optimizer updates."""

    name = "deep-optimizer-states"
    display_name = "Deep Optimizer States"

    def __init__(self, config: DeepOptimizerStatesConfig | None = None) -> None:
        self.config = config or DeepOptimizerStatesConfig()
        if not self.config.enabled:
            raise ConfigurationError(
                "DeepOptimizerStates instantiated with enabled=False; use a baseline strategy instead"
            )

    # ------------------------------------------------------------------ planning

    @property
    def static_gpu_fraction(self) -> float:
        return self.config.static_gpu_fraction

    def offload_config(self, subgroup_size: int | None = None) -> OffloadConfig:
        return OffloadConfig(
            device=OffloadDevice.CPU,
            subgroup_size=subgroup_size or self.config.subgroup_size,
            pin_memory=self.config.pin_host_memory,
            static_gpu_fraction=self.config.static_gpu_fraction,
            static_residents_at_end=self.config.static_residents_at_end,
        )

    def update_stride(self, profile: ThroughputProfile) -> int:
        """The interleaving stride: explicit from the config, or Equation 1 otherwise."""
        if self.config.update_stride:
            return self.config.update_stride
        return optimal_update_stride(
            profile,
            min_stride=self.config.min_update_stride,
            max_stride=self.config.max_update_stride,
        )

    def performance_model(self, profile: ThroughputProfile) -> PerformanceModel:
        """The performance model parameterised with this configuration's bounds."""
        return PerformanceModel(
            profile=profile,
            min_stride=self.config.min_update_stride,
            max_stride=self.config.max_update_stride,
        )

    def build_plan(self, num_subgroups: int, profile: ThroughputProfile) -> UpdatePlan:
        offload = self.offload_config(self.config.subgroup_size)
        residents = offload.static_resident_indices(num_subgroups)
        return build_update_plan(num_subgroups, self.update_stride(profile), residents)

    # ------------------------------------------------------------------ simulation

    def flush_blocks_backward(self) -> bool:
        return False

    def stages_subgroup_on_gpu(self) -> bool:
        return True

    def build_gradient_flush(self, engine, profile, subgroup_params, compute_deps, plan):
        return build_overlapped_gradient_flush(
            engine, profile, subgroup_params, compute_deps, plan=plan
        )

    def build_update_phase(
        self,
        engine,
        profile,
        plan,
        subgroup_params,
        *,
        grad_ready_ops,
        start_deps,
        contention,
        staged_subgroup_bytes: int = 0,
    ):
        return build_interleaved_update(
            engine,
            profile,
            plan,
            subgroup_params,
            grad_ready_ops=grad_ready_ops,
            start_deps=start_deps,
            contention=contention,
            gradients_on_gpu=self.config.keep_gpu_scheduled_gradients_on_gpu,
            staged_subgroup_bytes=staged_subgroup_bytes,
        )

    # ------------------------------------------------------------------ op batching

    def supports_op_batch(self) -> bool:
        return True

    def template_key(self) -> tuple:
        # Flushed gradients are staged back with p/m/v: another numerator slot.
        return (self.name, self.config.keep_gpu_scheduled_gradients_on_gpu)

    def flush_row_builder(self, batch, profile, plan):
        return make_overlapped_flush_rows(batch, profile, plan)

    def build_update_phase_rows(
        self,
        batch,
        profile,
        plan,
        subgroup_params,
        *,
        grad_ready_ops,
        start_deps,
        contention,
        staged_subgroup_bytes: int = 0,
    ):
        return build_interleaved_update_rows(
            batch,
            profile,
            plan,
            subgroup_params,
            grad_ready_ops=grad_ready_ops,
            start_deps=start_deps,
            contention=contention,
            gradients_on_gpu=self.config.keep_gpu_scheduled_gradients_on_gpu,
            staged_subgroup_bytes=staged_subgroup_bytes,
        )

    # ------------------------------------------------------------------ numeric path

    def numeric_executor(self, num_subgroups: int, profile: ThroughputProfile | None = None):
        stride = self.config.update_stride or (
            self.update_stride(profile) if profile is not None else self.config.min_update_stride
        )
        return InterleavedNumericExecutor(stride=stride)

    def attach(
        self, optimizer: ShardedMixedPrecisionOptimizer, profile: ThroughputProfile | None = None
    ) -> InterleavedNumericExecutor:
        """Return the executor to pass to ``optimizer.step`` for every iteration."""
        num_subgroups = optimizer.num_subgroups(optimizer.ranks[0]) if optimizer.ranks else 0
        return self.numeric_executor(num_subgroups, profile)

    # ------------------------------------------------------------------ reporting

    def describe(self) -> dict:
        summary = super().describe()
        summary.update(
            {
                "subgroup_size": self.config.subgroup_size,
                "update_stride": self.config.update_stride or "auto (Equation 1)",
                "static_residents_at_end": self.config.static_residents_at_end,
                "keep_gpu_scheduled_gradients_on_gpu": self.config.keep_gpu_scheduled_gradients_on_gpu,
            }
        )
        return summary


# Convenience alias matching the name used in the experiments and examples.
DeepOptimizerStatesStrategy = DeepOptimizerStates


def sequential_cpu_executor() -> SequentialCpuExecutor:
    """Executor reproducing the baseline all-CPU update order (numeric path)."""
    return SequentialCpuExecutor()


def cpu_only_plan(num_subgroups: int, static_residents=frozenset()) -> UpdatePlan:
    """Re-export of the baseline plan builder for symmetry with :func:`build_update_plan`."""
    return build_cpu_only_plan(num_subgroups, static_residents)
