"""Worker-side shape batching: prepare scenarios, schedule shape groups at once.

The per-scenario sweep path pays the full simulation pipeline per grid point.
For workers that opt in through :func:`register_batchable`, ``SweepRunner``
instead dispatches *groups* of scenarios to :func:`run_scenario_group` — a
module-level trampoline the local executors ship by reference, just like an
ordinary worker.  Inside the group, each scenario is *prepared* without
building a single op row: the adapter resolves it into a topology key (what
fixes its op graph) and a duration term vector (the operands of its
durations; see :mod:`repro.core.duration_terms`).  Scenarios are grouped by
key.  A group of at least :data:`STACK_MIN_SCENARIOS` scenarios builds the
rows of its first member only — the *template* — compiles them once
(:func:`~repro.sim.shapebatch.compile_plan`), evaluates every member's
duration column from the template's recorded term slots and the member's term
vector (:func:`~repro.sim.shapebatch.template_columns`), and schedules the
group in one stacked pass (:func:`~repro.sim.shapebatch.schedule_group`).
Members never build rows.  Each member of a smaller group builds its rows and
is scheduled alone on the vector kernel.  Either way the adapter's finalizer
turns the schedule back into the exact per-scenario values the plain worker
returns.

The contract is strict value equality: for every scenario,
``run_scenario_group`` must produce byte-for-byte what ``worker(**params)``
produces (``tests/test_shapebatch.py`` enforces this differentially across
serial and pool executors, and checks that the topology key partitions
scenarios exactly as the shape of their freshly built rows does).  That is
what lets the runner keep its per-scenario cache entries — a batch-computed
result is stored under the same key a serial run reads.

An adapter's :attr:`~BatchAdapter.prepare` may also *decline* a scenario by
returning the final value directly (anything that is not a
:class:`PreparedCase`): out-of-memory configurations, for example, are
finished inside ``prepare``, so a mixed grid still works.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from repro.common.errors import ConfigurationError
from repro.dispatch.base import resolve_worker_spec, worker_spec
from repro.runtime import SIMULATION_FIELDS, ExecutionPolicy
from repro.sim.engine import SimEngine
from repro.sim.shapebatch import (
    StackedSchedule,
    compile_plan,
    schedule_group,
    stack_solo,
    template_columns,
)

#: Smallest shape group scheduled in one stacked pass.  Measured on the paper
#: evaluation's 453- and 1251-op shapes: compiling and replaying a stacked
#: pass costs about 3.4 solo vector-kernel runs whatever the group size, so
#: stacking breaks even at 3 scenarios and wins from 4.
STACK_MIN_SCENARIOS = 4


@dataclass(frozen=True)
class PreparedCase:
    """One scenario, resolved but not yet turned into op rows.

    ``key`` is the scenario's topology key: scenarios with equal keys (and
    equal ``resource_names``, the resource universe their rows schedule on)
    get the same op rows in the same order, durations aside, so one built
    batch is the template of all.  ``terms`` is the scenario's duration term
    vector, which the template's recorded slots turn into its duration column.
    ``payload`` is whatever the adapter's ``build`` and ``finalize_group``
    need (it never crosses a process boundary — prepare, build and finalize
    run in the same process).
    """

    key: Hashable
    terms: Any
    resource_names: tuple[str, ...]
    payload: Any


@dataclass(frozen=True)
class BatchAdapter:
    """How one worker maps onto the prepare/build/schedule/finalize split.

    ``prepare(policy, **params)`` returns a :class:`PreparedCase`, or the
    scenario's final value directly to decline batching for that point;
    ``policy`` is the simulation policy, resolved once per group call.
    ``build(payload)`` builds one prepared scenario's op rows (an
    :class:`~repro.sim.opbatch.OpBatch`) — called for a group's template and
    for every member of a group too small to stack, never for the other
    members of a stacked group.  ``finalize_group(payloads, stacked)``
    receives the payloads of one shape group (in group order, the template
    first) plus their stacked schedule and returns the final values in the
    same order.  A member of a group too small to stack is finalised alone:
    one payload and a one-column stack of its own vector-kernel schedule.
    """

    prepare: Callable[..., Any]
    build: Callable[[Any], Any]
    finalize_group: Callable[[list, StackedSchedule], list]


@dataclass
class _ShapeGroup:
    """One (topology key, resources) group of a chunk."""

    resource_names: tuple[str, ...]
    positions: list[int] = field(default_factory=list)
    payloads: list = field(default_factory=list)
    terms: list = field(default_factory=list)


#: worker spec string -> adapter.  Populated by ``register_batchable`` as an
#: import side effect of the worker's module, so resolving the spec inside a
#: pool or cluster process repopulates it there too.
_REGISTRY: dict[str, BatchAdapter] = {}


def register_batchable(
    worker: Callable[..., Any],
    *,
    prepare: Callable[..., Any],
    build: Callable[[Any], Any],
    finalize_group: Callable[[list, StackedSchedule], list],
) -> None:
    """Declare that ``worker`` supports shape-batched sweep execution.

    ``worker`` must be module-level (the registry is keyed by its
    ``module:qualname`` spec, which is also how remote processes rediscover
    the adapter: importing the module re-runs this registration).
    """
    _REGISTRY[worker_spec(worker)] = BatchAdapter(
        prepare=prepare, build=build, finalize_group=finalize_group
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

    A chunk allocates many small long-lived objects (resolved jobs, term
    vectors, template rows); with the collector enabled, the recurring
    generation scans walk every surviving payload each time.  Nothing in a
    chunk builds reference cycles faster than the final collection can
    reclaim, so pausing is safe.
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
    dispatch policy context wraps the whole group call.  The simulation
    policy is resolved once, inside that context, and handed to every
    ``prepare``.  Returns one value per scenario, in input order,
    byte-identical to ``worker(**params)`` per scenario.
    """
    target = resolve_worker_spec(worker)
    adapter = _REGISTRY.get(worker)
    if adapter is None:
        # Importing the worker's module did not register an adapter: stay
        # correct by running the scenarios through the worker itself.
        return [target(**dict(params)) for params in scenarios]

    policy = ExecutionPolicy.resolve(env_fields=SIMULATION_FIELDS)
    values: list[Any] = [None] * len(scenarios)
    groups: dict[tuple, _ShapeGroup] = {}
    with _gc_paused():
        for position, params in enumerate(scenarios):
            prepared = adapter.prepare(policy, **dict(params))
            if not isinstance(prepared, PreparedCase):
                values[position] = prepared
                continue
            key = (prepared.key, prepared.resource_names)
            group = groups.get(key)
            if group is None:
                groups[key] = group = _ShapeGroup(resource_names=prepared.resource_names)
            group.positions.append(position)
            group.payloads.append(prepared.payload)
            group.terms.append(prepared.terms)

        for group in groups.values():
            template = adapter.build(group.payloads[0])
            if len(group.payloads) >= STACK_MIN_SCENARIOS:
                plan = compile_plan(template, group.resource_names)
                stacked = schedule_group(plan, template_columns(template, group.terms))
                stacked.rows = template.rows
                finals = adapter.finalize_group(group.payloads, stacked)
            else:
                engine = SimEngine("shape-group")
                for name in group.resource_names:
                    engine.add_resource(name)
                finals = []
                for number, payload in enumerate(group.payloads):
                    batch = template if number == 0 else adapter.build(payload)
                    stacked = stack_solo(engine.run_vector(batch))
                    finals.append(adapter.finalize_group([payload], stacked)[0])
            for position, value in zip(group.positions, finals):
                values[position] = value
    return values
