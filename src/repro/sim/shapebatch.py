"""Shape-compiled scenario batching: one compiled DAG, many duration vectors.

A sweep pays the full scheduling pipeline per scenario even when every grid
point shares one DAG *shape* — the fig14/fig16 grids vary CPU cores or the
static GPU fraction, which changes operation *durations* but never the
operation set, the resources they run on, or the dependency edges.  This
module exploits that: it derives a :class:`ShapeKey` from an
:class:`~repro.sim.opbatch.OpBatch`'s topology, compiles the expensive parts
of the :mod:`~repro.sim.veckernel` pipeline **once per shape**
(:func:`compile_plan`), and then schedules every scenario of a group in one
stacked struct-of-arrays pass (:func:`schedule_group`) over scenario-major 2-D
columns.

**Why the plan replays.**  The vector kernel's frontier loop visits resources
in a fixed order and walks runs of ready head operations, where *ready* means
``pending == 0`` — a pure function of which operations finalised earlier,
i.e. of the dependency topology.  Durations, release times and lower bounds
only feed the *float* computation (``start = max(lb, resource end)``;
``end = start + duration``), never the control flow, so the sequence of
``(row, resource)`` finalisations is identical for every scenario of a shape.
:func:`compile_plan` records that sequence with a float-free walk;
:func:`schedule_group` replays it with each float operation vectorised across
the scenario axis — the same two-operand comparisons and additions
:func:`~repro.sim.veckernel.schedule_rows` performs per scenario, in the same
order, on the same IEEE-754 doubles.  Schedules are therefore byte-identical
to the per-scenario paths; ``tests/test_shapebatch.py`` enforces that
bit-for-bit against both the scalar vector kernel and the heap engine.

**What is in a ShapeKey.**  Everything the control flow can see: per-row
resource names, dependency edges, and the *structure* of release times (which
rows have one).  An op's id is its row index (:mod:`repro.sim.opbatch`), so
edges and release keys are row indices already and need no normalisation: the
same DAG built at any point of a process's life has the same key.
Everything that only feeds floats — durations and release-time *values* — is
deliberately excluded: two scenarios that differ only in durations share a
key, which is the entire point.

**Sweeps never build a member's rows.**  A :class:`ShapeKey` needs built rows,
so the sweep path does not compute one: it groups scenarios by a topology key
derived from each resolved job before any row exists
(:func:`repro.training.simulation.topology_key`), builds only the first
member's rows as the group's *template*, and gets every member's duration
column from :func:`template_columns` — the template's recorded term slots
gathered and divided over the member's own term vector
(:mod:`repro.core.duration_terms`).  :func:`shape_key` and
:func:`scenario_column` remain as the reference the tests hold that key and
those columns to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Mapping

from repro.common.errors import ConfigurationError, SimulationError
from repro.sim.engine import VectorSchedule
from repro.sim.veckernel import _compile, require_numpy

try:  # numpy is a hard dependency of the reproduction, but degrade loudly.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on broken installs
    np = None


@dataclass(frozen=True)
class ShapeKey:
    """Topology fingerprint of an op batch: equal keys mean one shared plan.

    ``digest`` hashes the scheduling topology (resources, dependency edges,
    release-time structure); ``op_count`` rides along for cheap sanity checks
    and logging.  Duration or release-time
    *value* changes never change a key.
    """

    digest: str
    op_count: int


def shape_key(batch) -> ShapeKey:
    """The :class:`ShapeKey` of an :class:`~repro.sim.opbatch.OpBatch`."""
    require_numpy()
    rows = batch.rows
    n = len(rows)
    if n == 0:
        return ShapeKey(digest=hashlib.sha256(b"empty").hexdigest(), op_count=0)
    deps_col = list(map(itemgetter(4), rows))
    dep_counts = np.fromiter(map(len, deps_col), dtype=np.int64, count=n)
    flat_deps = np.fromiter(
        chain.from_iterable(deps_col), dtype=np.int64, count=int(dep_counts.sum())
    )
    hasher = hashlib.sha256()
    hasher.update("\x1f".join(map(itemgetter(2), rows)).encode())
    hasher.update(dep_counts.tobytes())
    hasher.update(flat_deps.tobytes())
    # Release-time *structure* only: which rows carry one, not their values.
    if batch.release_times:
        hasher.update(b"release")
        hasher.update(np.asarray(sorted(batch.release_times), dtype=np.int64).tobytes())
    return ShapeKey(digest=hasher.hexdigest(), op_count=n)


@dataclass(frozen=True)
class ShapePlan:
    """A shape's compiled scheduling recipe, reusable across scenarios.

    ``steps`` is the finalisation sequence the vector kernel's frontier loop
    produces for this topology: per step the row index, its resource code and
    the successor rows whose lower bounds it raises.  ``release_rows`` are the
    rows (equivalently, op ids) carrying a release time.
    """

    resource_names: tuple[str, ...]
    op_count: int
    steps: tuple[tuple[int, int, tuple[int, ...]], ...]
    release_rows: tuple[int, ...]


def compile_plan(batch, resource_names) -> ShapePlan:
    """Compile one representative batch of a shape into a :class:`ShapePlan`.

    Runs the :func:`veckernel._compile <repro.sim.veckernel._compile>` bulk
    pipeline (CSR successor graph, redundant same-resource edge dropping,
    per-resource FIFO queues), then walks the frontier loop *without floats*,
    recording the finalisation order.  Raises the kernel's
    :class:`~repro.common.errors.SimulationError` on topological deadlock and
    :class:`~repro.common.errors.ConfigurationError` on unknown resources —
    once per shape instead of once per scenario.
    """
    require_numpy()
    rows = batch.rows
    resource_names = tuple(resource_names)
    n = len(rows)
    if n == 0:
        return ShapePlan(resource_names=resource_names, op_count=0, steps=(), release_rows=())
    queues, pending, _lb, succ_ptr, succ_tgt, _durations = _compile(
        rows, batch.release_times, list(resource_names)
    )

    row_resource = [0] * n
    for code, queue in enumerate(queues):
        for index in queue:
            row_resource[index] = code

    # The float-free twin of veckernel.schedule_rows' frontier loop: identical
    # sweep order, identical run walks, identical deadlock condition — only
    # the start/end arithmetic is deferred to schedule_group's stacked replay.
    steps: list[tuple[int, int, tuple[int, ...]]] = []
    append = steps.append
    cursor = [0] * len(queues)
    queue_lengths = [len(queue) for queue in queues]
    remaining = n
    while remaining:
        progressed = 0
        for resource, queue in enumerate(queues):
            position = cursor[resource]
            length = queue_lengths[resource]
            if position >= length or pending[queue[position]]:
                continue
            walked = position
            while position < length:
                index = queue[position]
                if pending[index]:
                    break
                successors = tuple(succ_tgt[succ_ptr[index]:succ_ptr[index + 1]])
                for target in successors:
                    pending[target] -= 1
                append((index, resource, successors))
                position += 1
            cursor[resource] = position
            progressed += position - walked
        if not progressed:
            blocked_heads = [
                rows[queue[cursor[resource]]][0]
                for resource, queue in enumerate(queues)
                if cursor[resource] < queue_lengths[resource]
            ]
            raise SimulationError(
                f"simulation deadlock: blocked head operations {blocked_heads}"
            )
        remaining -= progressed

    release_rows = tuple(row for row in sorted(batch.release_times) if 0 <= row < n)
    return ShapePlan(
        resource_names=resource_names, op_count=n, steps=tuple(steps),
        release_rows=release_rows,
    )


@dataclass(frozen=True)
class ScenarioColumn:
    """One scenario's float inputs, detached from its op rows.

    Extracting a column is what lets a group run drop each scenario's row
    tuples as soon as it has prepared them — holding hundreds of row lists
    alive for the whole group keeps the garbage collector re-scanning them —
    while the stacked pass still sees everything scenario-specific: the
    duration vector and the release times, both by row.
    """

    durations: "np.ndarray"
    release_times: Mapping[int, float]


def scenario_column(batch) -> ScenarioColumn:
    """The :class:`ScenarioColumn` of one op batch, read off its rows.

    The sweep path never calls this: its members' columns come from
    :func:`template_columns`.  It is the reference those columns are checked
    against, byte for byte (``tests/test_shapebatch.py``).
    """
    require_numpy()
    rows = batch.rows
    n = len(rows)
    return ScenarioColumn(
        durations=np.fromiter(map(itemgetter(3), rows), dtype=np.float64, count=n),
        release_times=dict(batch.release_times),
    )


def template_columns(batch, terms) -> list[ScenarioColumn]:
    """Every group member's :class:`ScenarioColumn`, from one template batch.

    ``batch`` is a built representative and ``terms`` one duration term
    vector per member (:mod:`repro.core.duration_terms`), all of one length.
    Each member's durations are ``terms[numerator] / terms[denominator]``
    over the slot pairs the builders recorded — one numpy gather and divide
    for the whole group, the same IEEE-754 division of the same operands as a
    fresh build, so the floats are identical.  A template must record a slot
    pair for every row and carry no release times (it carries durations
    only); anything else is a :class:`~repro.common.errors.ConfigurationError`.
    """
    require_numpy()
    if len(batch.term_slots) != len(batch.rows) or batch.release_times:
        raise ConfigurationError(
            f"a template needs one term-slot pair per row and no release times; "
            f"this batch has {len(batch.term_slots)} pairs for {len(batch.rows)} rows"
            f" and {len(batch.release_times)} release times"
        )
    slots = np.asarray(batch.term_slots, dtype=np.intp).reshape(-1, 2)
    matrix = np.asarray(terms, dtype=np.float64)
    durations = matrix[:, slots[:, 0]] / matrix[:, slots[:, 1]]
    return [ScenarioColumn(durations=row, release_times={}) for row in durations]


@dataclass
class StackedSchedule:
    """Start/end columns of every scenario in a group, shape ``(ops, scenarios)``.

    Row ``k`` of ``starts``/``ends`` is the scenario-major vector of op ``k``'s
    times; :meth:`schedule_for` slices one scenario back out as a lazy
    :class:`~repro.sim.engine.VectorSchedule`.  ``rows`` optionally carries the
    group representative's op rows so callers that dropped their own rows
    (column-extracted scenarios) can still materialise schedules — start and
    end columns are exact per scenario, and op ids are row indices, so only row
    metadata (names, payloads) is shared.
    """

    plan: ShapePlan
    starts: "np.ndarray"
    ends: "np.ndarray"
    rows: Any = field(default=None, compare=False)

    @property
    def num_scenarios(self) -> int:
        return int(self.starts.shape[1])

    def columns_for(self, scenario: int) -> tuple["np.ndarray", "np.ndarray"]:
        """Contiguous per-row (starts, ends) columns of one scenario."""
        return (
            np.ascontiguousarray(self.starts[:, scenario]),
            np.ascontiguousarray(self.ends[:, scenario]),
        )

    def schedule_for(self, scenario: int, rows=None) -> VectorSchedule:
        """One scenario's schedule (lazy materialisation over ``rows``).

        ``rows`` defaults to the stacked :attr:`rows` (the group
        representative's); pass the scenario's own rows for exact per-row
        metadata.
        """
        if rows is None:
            rows = self.rows
        if rows is None:
            raise ConfigurationError(
                "schedule_for needs op rows (pass rows= or set StackedSchedule.rows)"
            )
        starts, ends = self.columns_for(scenario)
        return VectorSchedule(rows, starts, ends, list(self.plan.resource_names))


def stack_solo(schedule: VectorSchedule) -> StackedSchedule:
    """One solo vector-kernel schedule as a one-column :class:`StackedSchedule`.

    Lets a scenario whose shape group is too small to stack reach the same
    finalizer a stacked group does.  The plan carries the schedule's resources
    but no replay steps: the kernel already scheduled the rows.
    """
    plan = ShapePlan(
        resource_names=tuple(schedule.resources), op_count=len(schedule._rows),
        steps=(), release_rows=(),
    )
    return StackedSchedule(
        plan=plan, starts=schedule._starts[:, None], ends=schedule._ends[:, None],
        rows=schedule._rows,
    )


def schedule_group(plan: ShapePlan, columns) -> StackedSchedule:
    """Schedule every scenario of one shape group in a single stacked pass.

    ``columns`` are the scenarios' :class:`ScenarioColumn` inputs; their
    scenarios must all carry ``plan``'s shape (group them by a topology key,
    or by :func:`shape_key`, first).  The replay performs, per plan step, the
    kernel's scalar float operations vectorised across scenarios::

        start = lb[k]  if lb[k] > resource_end  else resource_end
        end   = start + duration[k]

    expressed as ``np.maximum``/``np.add`` into preallocated rows.  All times
    are non-negative and never NaN, so the max reformulations are bit-identical
    to the kernel's comparison branches, keeping every scenario's floats
    byte-equal to a solo :func:`~repro.sim.veckernel.schedule_rows` run.
    """
    require_numpy()
    columns = list(columns)
    if not columns:
        raise ConfigurationError("schedule_group needs at least one scenario column")
    n = plan.op_count
    count = len(columns)
    durations = np.empty((n, count), dtype=np.float64)
    lower_bounds = np.zeros((n, count), dtype=np.float64)
    for index, column in enumerate(columns):
        if column.durations.shape != (n,):
            raise ConfigurationError(
                f"scenario column {index} has {column.durations.shape[0]} ops, "
                f"plan expects {n}; group batches by shape_key() before scheduling"
            )
        if n == 0:
            continue
        durations[:, index] = column.durations
        for row in plan.release_rows:
            lower_bounds[row, index] = column.release_times[row]

    starts = np.empty((n, count), dtype=np.float64)
    ends = np.empty((n, count), dtype=np.float64)
    resource_end = [np.zeros(count, dtype=np.float64) for _ in plan.resource_names]
    for index, resource, successors in plan.steps:
        start = starts[index]
        end = ends[index]
        np.maximum(lower_bounds[index], resource_end[resource], out=start)
        np.add(start, durations[index], out=end)
        resource_end[resource] = end
        for target in successors:
            bound = lower_bounds[target]
            np.maximum(bound, end, out=bound)

    return StackedSchedule(plan=plan, starts=starts, ends=ends)
