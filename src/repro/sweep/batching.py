"""Worker-side shape batching: prepare scenarios, schedule shape groups at once.

The per-scenario sweep path pays the full simulation pipeline per grid point.
For workers that opt in through :func:`register_batchable`, ``SweepRunner``
instead dispatches *groups* of scenarios to :func:`run_scenario_group` — a
module-level trampoline the local executors ship by reference, just like an
ordinary worker.  Inside the group, each scenario is *prepared* (everything up
to but excluding scheduling: resolve, op-row construction) and the resulting
op batches are grouped by :func:`~repro.sim.shapebatch.shape_key`.  A shape
group of at least :data:`STACK_MIN_SCENARIOS` scenarios is compiled once
(:func:`~repro.sim.shapebatch.compile_plan`) and scheduled in one stacked
pass (:func:`~repro.sim.shapebatch.schedule_group`); each member of a smaller
group is scheduled alone on the vector kernel.  Either way the adapter's
finalizer turns the schedule back into the exact per-scenario values the
plain worker returns.

The contract is strict value equality: for every scenario,
``run_scenario_group`` must produce byte-for-byte what ``worker(**params)``
produces (``tests/test_shapebatch.py`` enforces this differentially across
serial and pool executors).  That is what lets the runner keep its
per-scenario cache entries — a batch-computed result is stored under the same
key a serial run reads.

An adapter's :attr:`~BatchAdapter.prepare` may also *decline* a scenario by
returning the final value directly (anything that is not a
:class:`PreparedCase`): out-of-memory configurations, for example, are
finished inside ``prepare``, so a mixed grid still works.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.common.errors import ConfigurationError
from repro.dispatch.base import resolve_worker_spec, worker_spec
from repro.sim.engine import SimEngine
from repro.sim.shapebatch import (
    StackedSchedule,
    compile_plan,
    scenario_column,
    schedule_group,
    shape_key,
    stack_solo,
)

#: Smallest shape group scheduled in one stacked pass.  Measured on the paper
#: evaluation's 453- and 1251-op shapes: compiling and replaying a stacked
#: pass costs about 3.4 solo vector-kernel runs whatever the group size, so
#: stacking breaks even at 3 scenarios and wins from 4.
STACK_MIN_SCENARIOS = 4


@dataclass(frozen=True)
class PreparedCase:
    """One scenario, prepared up to (but excluding) scheduling.

    ``batch`` is the scenario's op rows (an :class:`~repro.sim.opbatch.OpBatch`);
    ``resource_names`` the resource universe those rows schedule on; ``salt``
    a string folding in everything *besides* the op topology that must match
    for two scenarios to share a compiled plan (strategy name, iteration
    count, ...) — it pre-partitions groups so :func:`~repro.sim.shapebatch.shape_key`
    only ever compares like with like; ``payload`` is whatever the adapter's
    finalizer needs to rebuild the worker's return value (it never crosses a
    process boundary — prepare and finalize run in the same process).

    The group runner consumes ``batch`` immediately — shape key, duration
    column — and then drops it (only each group's first batch is kept, as the
    compile representative, plus the batches of a group still too small to
    stack).  Adapters should therefore **not** reference the
    batch from ``payload``: letting a scenario's row tuples die right after
    extraction is what keeps hundreds of prepared scenarios from turning into
    garbage-collector drag.
    """

    batch: Any
    resource_names: tuple[str, ...]
    salt: str
    payload: Any


@dataclass(frozen=True)
class BatchAdapter:
    """How one worker maps onto the prepare/schedule/finalize split.

    ``prepare(**params)`` returns a :class:`PreparedCase`, or the scenario's
    final value directly to decline batching for that point.
    ``finalize_group(payloads, stacked)`` receives the prepared payloads of
    one shape group (in group order) plus their stacked schedule and returns
    the final values in the same order.  A member of a group too small to
    stack is finalised alone: one payload and a one-column stack of its own
    vector-kernel schedule.
    """

    prepare: Callable[..., Any]
    finalize_group: Callable[[list, StackedSchedule], list]


@dataclass
class _ShapeGroup:
    """Accumulator for one (salt, resources, shape-key) group of a chunk.

    ``batches`` holds every member's op batch while the group is smaller than
    :data:`STACK_MIN_SCENARIOS`; once it reaches that size they become
    ``columns`` and only the first stays, as the compile ``representative``.
    """

    resource_names: tuple[str, ...]
    positions: list[int] = field(default_factory=list)
    payloads: list = field(default_factory=list)
    batches: list | None = field(default_factory=list)
    columns: list = field(default_factory=list)
    representative: Any = None

    def add(self, position: int, batch: Any, payload: Any) -> None:
        self.positions.append(position)
        self.payloads.append(payload)
        if self.batches is None:
            self.columns.append(scenario_column(batch))
            return
        self.batches.append(batch)
        if len(self.batches) == STACK_MIN_SCENARIOS:
            self.representative = self.batches[0]
            self.columns = [scenario_column(member) for member in self.batches]
            self.batches = None


#: worker spec string -> adapter.  Populated by ``register_batchable`` as an
#: import side effect of the worker's module, so resolving the spec inside a
#: pool or cluster process repopulates it there too.
_REGISTRY: dict[str, BatchAdapter] = {}


def register_batchable(
    worker: Callable[..., Any],
    *,
    prepare: Callable[..., Any],
    finalize_group: Callable[[list, StackedSchedule], list],
) -> None:
    """Declare that ``worker`` supports shape-batched sweep execution.

    ``worker`` must be module-level (the registry is keyed by its
    ``module:qualname`` spec, which is also how remote processes rediscover
    the adapter: importing the module re-runs this registration).
    """
    _REGISTRY[worker_spec(worker)] = BatchAdapter(
        prepare=prepare, finalize_group=finalize_group
    )


def is_batchable(worker: Callable[..., Any]) -> bool:
    """Whether ``worker`` registered a batching adapter."""
    try:
        return worker_spec(worker) in _REGISTRY
    except ConfigurationError:
        return False


@contextmanager
def _gc_paused():
    """Pause generational collection for the duration of one chunk.

    Preparing a chunk allocates hundreds of thousands of short-lived row
    tuples; with the collector enabled, the recurring generation scans walk
    every surviving payload each time and dominate the prepare loop.  Nothing
    in a chunk builds reference cycles faster than the final collection can
    reclaim, so pausing is safe — and worth ~15% of batch-mode wall time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run_scenario_group(*, worker: str, scenarios: Sequence[dict]) -> list:
    """Execute one chunk of scenarios for ``worker``, shape-batched.

    This is the group trampoline the runner dispatches for batchable workers:
    a module-level callable taking plain-data keywords, so a backend ships it
    exactly like an ordinary worker (pool pickles it by reference) and the
    dispatch policy context wraps the whole group call.  Returns one value
    per scenario, in input order, byte-identical to ``worker(**params)`` per
    scenario.
    """
    target = resolve_worker_spec(worker)
    adapter = _REGISTRY.get(worker)
    if adapter is None:
        # Importing the worker's module did not register an adapter: stay
        # correct by running the scenarios through the worker itself.
        return [target(**dict(params)) for params in scenarios]

    values: list[Any] = [None] * len(scenarios)
    groups: dict[tuple, _ShapeGroup] = {}
    with _gc_paused():
        for position, params in enumerate(scenarios):
            prepared = adapter.prepare(**dict(params))
            if not isinstance(prepared, PreparedCase):
                values[position] = prepared
                continue
            key = (prepared.salt, prepared.resource_names, shape_key(prepared.batch))
            group = groups.get(key)
            if group is None:
                groups[key] = group = _ShapeGroup(resource_names=prepared.resource_names)
            group.add(position, prepared.batch, prepared.payload)
            # prepared.batch is dropped here once its group stacks: its rows
            # die young (the extracted column is all the stacked pass needs),
            # except the representative's.

        for group in groups.values():
            if group.batches is None:
                plan = compile_plan(group.representative, group.resource_names)
                stacked = schedule_group(plan, group.columns)
                stacked.rows = group.representative.rows
                finals = adapter.finalize_group(group.payloads, stacked)
            else:
                engine = SimEngine("shape-group")
                for name in group.resource_names:
                    engine.add_resource(name)
                finals = [
                    adapter.finalize_group([payload], stack_solo(engine.run_vector(batch)))[0]
                    for payload, batch in zip(group.payloads, group.batches)
                ]
            for position, value in zip(group.positions, finals):
                values[position] = value
    return values
