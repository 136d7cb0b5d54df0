"""`PipelineStrategy`: the pipeline twin of the offload-strategy interface.

The offload side of the codebase plugs scenario families into the simulation
through :class:`~repro.core.engine.OffloadStrategy`'s hook set — a
``build_plan`` producing the scheduling plan, a row-emitting builder, and a
``describe()`` for diagnostics.
:class:`PipelineStrategy` mirrors those hooks for the pipeline family, so the
two families present the same mechanism/policy seam: the *mechanism* (the
engine and its admission paths) never changes, the *policy* (which schedule
pass shapes the op DAG) is the pluggable part.

Concrete strategies are one per schedule family and come from the same
registry the passes live in (:data:`~repro.pipeline.schedules.SCHEDULES`),
so ``build_pipeline_strategy("zb")`` and friends stay enumerable.
"""

from __future__ import annotations

import abc

from repro.pipeline.ir import PipelineSchedule, validate_schedule
from repro.pipeline.lowering import LoweredPipeline, lower_schedule
from repro.pipeline.schedules import SCHEDULES, build_schedule
from repro.pipeline.timing import PipelineTiming


class PipelineStrategy(abc.ABC):
    """Interface implemented by every pipeline-schedule strategy.

    The hook names deliberately mirror :class:`~repro.core.engine.OffloadStrategy`:
    ``build_plan`` produces the (un-timed) scheduling plan and
    ``build_schedule_rows`` lowers it to op rows.
    """

    name: str = "pipeline-strategy"
    display_name: str = "pipeline strategy"

    @abc.abstractmethod
    def build_plan(
        self, stages: int, microbatches: int,
        timing: PipelineTiming | None = None,
    ) -> PipelineSchedule:
        """The schedule (per-stage node orders) for one ``stages x microbatches`` grid.

        ``timing`` parameterizes timing-aware passes (the greedy zero-bubble
        scheduler places deferred W halves by measured gap sizes); shape-only
        passes ignore it.
        """

    def build_schedule_rows(
        self, schedule: PipelineSchedule, timing: PipelineTiming
    ) -> LoweredPipeline:
        """Row-emitting builder: lower ``schedule`` to an :class:`~repro.sim.opbatch.OpBatch`."""
        return lower_schedule(schedule, timing)

    def describe(self) -> dict:
        """Diagnostic summary (mirrors ``OffloadStrategy.describe``)."""
        return {"name": self.name, "family": "pipeline"}


class SchedulePipelineStrategy(PipelineStrategy):
    """A strategy backed by one registered schedule pass."""

    def __init__(self, schedule_name: str) -> None:
        entry = SCHEDULES.get(schedule_name)
        self.name = entry.name
        self.display_name = f"pipeline/{entry.name}"
        self._description = entry.description

    def build_plan(
        self, stages: int, microbatches: int,
        timing: PipelineTiming | None = None,
    ) -> PipelineSchedule:
        schedule = build_schedule(self.name, stages, microbatches, timing)
        validate_schedule(schedule)
        return schedule

    def describe(self) -> dict:
        described = super().describe()
        described["schedule"] = self.name
        described["description"] = self._description
        return described


def build_pipeline_strategy(name: str) -> PipelineStrategy:
    """Construct the strategy for a registered schedule name (aliases accepted)."""
    return SchedulePipelineStrategy(name)
