"""Event-heap discrete-event engine with FIFO resources and indexed schedules.

The engine intentionally mirrors CUDA execution semantics:

* every resource (GPU compute, each PCIe copy engine, the CPU, NVLink) executes the
  operations submitted to it strictly in submission order;
* an operation starts as soon as (a) its resource is free, (b) every operation it
  depends on has completed, and (c) its optional ``not_before`` release time passed;
* operations on different resources run concurrently — this is what produces the
  overlap between CPU updates, GPU updates and full-duplex PCIe transfers that Deep
  Optimizer States exploits.

Scheduling is driven by a ready-set heap: a resource enters the heap the moment its
head-of-queue operation has every dependency satisfied, keyed by the earliest start
time it could achieve (with the resource name as tie-break).  This is O(N log N) in
the number of operations while producing *exactly* the same schedule as the original
per-pop scan over all resource queues — the equivalence is enforced by the golden
property test in ``tests/test_engine_equivalence.py``.

The engine has three admission paths with identical semantics:

* **eager** — :meth:`SimEngine.submit` one :class:`~repro.sim.ops.SimOp` at a time,
  then :meth:`SimEngine.run`;
* **batched** — hand :meth:`SimEngine.run_batch` a
  :class:`~repro.sim.opbatch.OpBatch` of row tuples; the scheduler runs directly on
  the rows and materialises ``SimOp`` objects only for the finished schedule, which
  makes large DAGs (10k+ optimizer subgroups) several times cheaper end-to-end;
* **vector** — :meth:`SimEngine.run_vector` schedules a batch on the numpy
  struct-of-arrays kernel in
  :mod:`repro.sim.veckernel`, which replaces the per-op heap/dict event loop
  with flat arrays and run-at-a-time scans — the production path; it is the
  fastest at every size measured.

The heap paths (:meth:`SimEngine.run` / :meth:`SimEngine.run_batch`) are kept as
the reference the differential tests compare the kernel against; no production
code calls them.

**Op ids.**  A batch op's id is its row index (:mod:`repro.sim.opbatch`), so the
batched and vector paths index their state by row and never translate ids.  Only
the eager path accepts arbitrary ids — hand-built :class:`~repro.sim.ops.SimOp`
graphs, whose ids may have gaps or disagree with submission order, go to
:meth:`SimEngine.run`.  All paths must produce byte-identical schedules;
``tests/test_opbatch_equivalence.py`` is the golden test for the batched path and
the three-way differential harness in ``tests/test_engine_equivalence.py`` covers
all of them against the seed list-scheduler reference.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError, SimulationError
from repro.middleware.base import SEAM_ENGINE, MiddlewareContext
from repro.sim.opbatch import simop_from_row
from repro.sim.ops import OpKind, SimOp


@dataclass
class Resource:
    """A serially-executing resource (stream)."""

    name: str
    description: str = ""


@dataclass(frozen=True)
class ScheduledOp:
    """An operation together with its computed start/end times."""

    op: SimOp
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Scheduled service time."""
        return self.end - self.start


class _ScheduleIndex:
    """Precomputed lookup structures for :class:`Schedule` queries.

    Built once, lazily, on the first indexed query.  The per-resource, per-kind and
    per-phase lists preserve the schedule's global op order, so indexed filters return
    results in the same order as a full scan would.
    """

    __slots__ = ("by_id", "by_resource", "by_kind", "by_phase")

    def __init__(self, ops: list[ScheduledOp]) -> None:
        self.by_id: dict[int, ScheduledOp] = {}
        self.by_resource: dict[str, list[ScheduledOp]] = {}
        self.by_kind: dict[OpKind, list[ScheduledOp]] = {}
        self.by_phase: dict[str, list[ScheduledOp]] = {}
        for item in ops:
            self.by_id[item.op.op_id] = item
            self.by_resource.setdefault(item.op.resource, []).append(item)
            self.by_kind.setdefault(item.op.kind, []).append(item)
            self.by_phase.setdefault(item.op.phase, []).append(item)


@dataclass
class Schedule:
    """The result of running a :class:`SimEngine`.

    A schedule is immutable once produced: the query methods build lookup indices on
    first use and assume ``ops`` is never mutated afterwards.
    """

    ops: list[ScheduledOp] = field(default_factory=list)
    resources: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index_cache: _ScheduleIndex | None = None

    def __eq__(self, other: object) -> bool:
        # Defined by hand (the dataclass skips generating __eq__ when one
        # exists) so equality spans Schedule subclasses: a lazily materialised
        # VectorSchedule must compare equal to the heap Schedule it matches
        # bit for bit, not fail the generated same-class check.
        if not isinstance(other, Schedule):
            return NotImplemented
        return (self.ops, self.resources) == (other.ops, other.resources)

    @property
    def _index(self) -> _ScheduleIndex:
        if self._index_cache is None:
            self._index_cache = _ScheduleIndex(self.ops)
        return self._index_cache

    # ------------------------------------------------------------------ queries

    @property
    def makespan(self) -> float:
        """Completion time of the last operation."""
        return max((item.end for item in self.ops), default=0.0)

    def by_id(self, op_id: int) -> ScheduledOp:
        """Look up a scheduled operation by its op id (O(1) after the first call)."""
        try:
            return self._index.by_id[op_id]
        except KeyError:
            raise KeyError(f"no scheduled op with id {op_id}") from None

    def op_start(self, op_id: int) -> float:
        """Start time of one operation (:class:`VectorSchedule` answers from arrays)."""
        return self.by_id(op_id).start

    def op_end(self, op_id: int) -> float:
        """End time of one operation (:class:`VectorSchedule` answers from arrays)."""
        return self.by_id(op_id).end

    def filter(
        self,
        *,
        resource: str | None = None,
        kind: OpKind | None = None,
        phase: str | None = None,
        subgroup: int | None = None,
    ) -> list[ScheduledOp]:
        """Return scheduled ops matching all provided criteria.

        The narrowest available index (resource, kind or phase) seeds the candidate
        list; the remaining criteria are applied as predicates.
        """
        index = self._index
        if resource is not None:
            candidates = index.by_resource.get(resource, [])
            resource = None
        elif kind is not None:
            candidates = index.by_kind.get(kind, [])
            kind = None
        elif phase is not None:
            candidates = index.by_phase.get(phase, [])
            phase = None
        else:
            candidates = self.ops
        result = []
        for item in candidates:
            if resource is not None and item.op.resource != resource:
                continue
            if kind is not None and item.op.kind != kind:
                continue
            if phase is not None and item.op.phase != phase:
                continue
            if subgroup is not None and item.op.subgroup != subgroup:
                continue
            result.append(item)
        return result

    def busy_time(self, resource: str, window: tuple[float, float] | None = None) -> float:
        """Total service time of ``resource`` (optionally clipped to ``window``)."""
        total = 0.0
        for item in self._index.by_resource.get(resource, []):
            start, end = item.start, item.end
            if window is not None:
                start = max(start, window[0])
                end = min(end, window[1])
            if end > start:
                total += end - start
        return total

    def utilization(self, resource: str, window: tuple[float, float] | None = None) -> float:
        """Fraction of the window during which ``resource`` was busy."""
        if window is None:
            window = (0.0, self.makespan)
        span = window[1] - window[0]
        if span <= 0:
            return 0.0
        return min(1.0, self.busy_time(resource, window) / span)

    def phase_window(self, phase: str) -> tuple[float, float]:
        """(first start, last end) of the operations tagged with ``phase``."""
        items = self._index.by_phase.get(phase, [])
        if not items:
            return (0.0, 0.0)
        return (min(item.start for item in items), max(item.end for item in items))

    def phase_duration(self, phase: str) -> float:
        """Wall-clock span of a phase."""
        start, end = self.phase_window(phase)
        return end - start

    def end_of(self, op_ids: list[int]) -> float:
        """Latest completion time among ``op_ids`` (0.0 for an empty list)."""
        if not op_ids:
            return 0.0
        by_id = self._index.by_id
        return max(by_id[op_id].end for op_id in op_ids)

    def transferred_bytes(self, kind: OpKind, window: tuple[float, float] | None = None) -> float:
        """Bytes moved by transfers of ``kind`` (pro-rated if clipped to a window)."""
        total = 0.0
        for item in self._index.by_kind.get(kind, []):
            if item.op.payload_bytes == 0 or item.duration == 0:
                continue
            if window is None:
                total += item.op.payload_bytes
                continue
            start = max(item.start, window[0])
            end = min(item.end, window[1])
            if end > start:
                total += item.op.payload_bytes * (end - start) / item.duration
        return total

    def validate(self) -> None:
        """Check internal consistency (used by property tests)."""
        lookup = {item.op.op_id: item for item in self.ops}
        seen_order: dict[str, list[ScheduledOp]] = {}
        for item in self.ops:
            if item.start < 0 or item.end < item.start:
                raise SimulationError(f"op {item.op.name!r} has an invalid interval")
            for dep in item.op.deps:
                if dep not in lookup:
                    raise SimulationError(f"op {item.op.name!r} depends on unknown op {dep}")
                if lookup[dep].end - item.start > 1e-9:
                    raise SimulationError(
                        f"op {item.op.name!r} starts before its dependency finishes"
                    )
            seen_order.setdefault(item.op.resource, []).append(item)
        for resource, items in seen_order.items():
            # self.ops is sorted by (start, op id), which only matches execution
            # order when ids are monotone with submission order; serial execution
            # itself is order-free — intervals on one resource must not overlap.
            items = sorted(items, key=lambda item: (item.start, item.end))
            for first, second in zip(items, items[1:]):
                if second.start + 1e-9 < first.end:
                    raise SimulationError(
                        f"resource {resource!r} executes ops {first.op.name!r} and "
                        f"{second.op.name!r} concurrently"
                    )


def _materialise_ops(rows: list[tuple], triples) -> list[ScheduledOp]:
    """Bulk-build ``ScheduledOp`` objects from ``(row index, start, end)`` triples.

    The one materialisation path shared by :meth:`SimEngine.run_batch` and
    :class:`VectorSchedule`.  ``ScheduledOp`` is a frozen dataclass; installing
    the attribute dict through ``object.__setattr__`` skips the three per-field
    frozen checks of the generated ``__init__``, and the generational collector
    is paused for the duration (~4 container objects per op, every one of them
    reachable from the result or refcount-freed immediately) — both measurable
    wins at 100k+ ops.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        new_item = ScheduledOp.__new__
        set_attr = object.__setattr__
        ops: list[ScheduledOp] = []
        append = ops.append
        for index, start, end in triples:
            item = new_item(ScheduledOp)
            set_attr(item, "__dict__",
                     {"op": simop_from_row(rows[index], index), "start": start, "end": end})
            append(item)
        return ops
    finally:
        if gc_was_enabled:
            gc.enable()


class VectorSchedule(Schedule):
    """A :class:`Schedule` whose per-op objects materialise lazily.

    The vector kernel finishes with flat per-row start/end arrays — everything
    array-backed queries need, since an op's id is its row index.  Sorting the
    schedule and building the 100k+
    :class:`ScheduledOp`/:class:`~repro.sim.ops.SimOp` objects of a large grid
    cost more than the scheduling itself, so both are deferred to the first
    access of :attr:`ops`; ``makespan`` is answered from the arrays directly.
    Once materialised, the schedule is bit-for-bit the one the heap paths
    produce (same object layout, same floats, same order) and every inherited
    query behaves identically.
    """

    def __init__(self, rows: list[tuple], starts, ends, resources: list[str]) -> None:
        self._rows = rows
        self._starts = starts
        self._ends = ends
        self._ops_cache: list[ScheduledOp] | None = None
        self.resources = resources
        self._index_cache = None

    def _row_of(self, op_id: int) -> int:
        """Row index of ``op_id`` (the id itself, once bounds-checked)."""
        if 0 <= op_id < len(self._rows):
            return op_id
        raise KeyError(f"no scheduled op with id {op_id}")

    def op_start(self, op_id: int) -> float:  # type: ignore[override]
        """Start time by op id, straight from the kernel's start column."""
        return float(self._starts[self._row_of(op_id)])

    def op_end(self, op_id: int) -> float:  # type: ignore[override]
        """End time by op id, straight from the kernel's end column."""
        return float(self._ends[self._row_of(op_id)])

    @property
    def ops(self) -> list[ScheduledOp]:  # type: ignore[override]
        if self._ops_cache is None:
            from repro.sim.veckernel import schedule_order

            order = schedule_order(self._starts)
            self._ops_cache = _materialise_ops(
                self._rows,
                zip(order.tolist(), self._starts[order].tolist(), self._ends[order].tolist()),
            )
        return self._ops_cache

    @property
    def makespan(self) -> float:  # type: ignore[override]
        """Completion time of the last operation (array-backed, no materialisation)."""
        if self._ends.shape[0] == 0:
            return 0.0
        return float(self._ends.max())


class SimEngine:
    """Collects operations and computes their schedule.

    The engine is **single-shot**: :meth:`run` consumes every submitted operation and
    resets the engine to an empty state, so a subsequent :meth:`run` without new
    submissions returns an empty schedule.  Re-submit (or build a fresh engine) to
    simulate again.
    """

    def __init__(self, name: str = "sim") -> None:
        self.name = name
        self._resources: dict[str, Resource] = {}
        self._queues: dict[str, deque[SimOp]] = {}
        self._submission_order: list[SimOp] = []
        self._release_times: dict[int, float] = {}
        self._middleware = None
        self._middleware_policy = None

    # -------------------------------------------------------------- middleware

    def install_middleware(self, chain, policy=None) -> None:
        """Install a :class:`~repro.middleware.MiddlewareChain` around op admission.

        Every subsequent :meth:`run`/:meth:`run_batch`/:meth:`run_vector` call
        is intercepted once, as a whole (the engine seam is deliberately
        coarse-grained — wrapping the per-op inner loops would tax the 100k-op
        vector path).  ``policy`` rides on the context for the chain to
        inspect.  Pass ``chain=None`` to uninstall; with no chain installed
        the run methods pay a single attribute check.
        """
        self._middleware = chain if chain else None
        self._middleware_policy = policy

    def _intercept(self, method: str, scheduler: str, op_count: int, call):
        """Run ``call`` through the installed chain at the engine seam."""
        context = MiddlewareContext(
            seam=SEAM_ENGINE,
            name=f"{self.name}.{method}",
            policy=self._middleware_policy,
            payload={
                "engine": self.name,
                "method": method,
                "scheduler": scheduler,
                "op_count": op_count,
            },
        )
        return self._middleware.run(context, call)

    # ------------------------------------------------------------------ setup

    def add_resource(self, name: str, description: str = "") -> Resource:
        """Register a resource; idempotent for an existing name."""
        if name not in self._resources:
            self._resources[name] = Resource(name=name, description=description)
            self._queues[name] = deque()
        return self._resources[name]

    def has_resource(self, name: str) -> bool:
        """True if ``name`` is a registered resource."""
        return name in self._resources

    @property
    def resources(self) -> list[str]:
        """Names of the registered resources."""
        return list(self._resources)

    # ------------------------------------------------------------------ submission

    def submit(self, op: SimOp, *, not_before: float = 0.0) -> int:
        """Queue ``op`` on its resource and return its op id."""
        if op.resource not in self._resources:
            raise ConfigurationError(
                f"op {op.name!r} targets unknown resource {op.resource!r}"
            )
        if not_before < 0:
            raise ConfigurationError("not_before must be non-negative")
        self._queues[op.resource].append(op)
        self._submission_order.append(op)
        if not_before > 0:
            self._release_times[op.op_id] = not_before
        return op.op_id

    def submit_many(self, ops: list[SimOp]) -> list[int]:
        """Queue several ops in order; returns their ids."""
        return [self.submit(op) for op in ops]

    @property
    def pending_ops(self) -> int:
        """Number of submitted, not yet scheduled operations."""
        return len(self._submission_order)

    # ------------------------------------------------------------------ execution

    def run(self) -> Schedule:
        """Compute the schedule of every submitted operation.

        A resource is *ready* when its head-of-queue operation has all dependencies
        finished; ready resources live in a min-heap keyed by ``(earliest start,
        resource name)``.  Each pop schedules exactly one operation, then re-arms the
        popped resource and any resources whose head was blocked on the finished op.
        A ready entry never goes stale: its start time depends only on the resource's
        own free time (the resource cannot run anything before its head) and on
        dependency end times that are already final.

        Raises :class:`SimulationError` when the dependency graph and the per-resource
        FIFO order deadlock (e.g. two resources whose head operations wait on each
        other's queued-but-not-head operations).

        The engine is single-shot: on return every queue is cleared, so calling
        :meth:`run` again without new submissions yields an empty schedule.
        """
        if self._middleware is not None:
            return self._intercept("run", "heap", self.pending_ops, self._run_heap)
        return self._run_heap()

    def _run_heap(self) -> Schedule:
        """The ready-set-heap scheduling core of :meth:`run`."""
        queues = {name: deque(queue) for name, queue in self._queues.items()}
        finished: dict[int, float] = {}
        resource_free = {name: 0.0 for name in self._resources}
        scheduled: list[ScheduledOp] = []

        # dep op_id -> resources whose head waits on it; resource -> #unfinished deps.
        waiting: dict[int, list[str]] = {}
        blocked: dict[str, int] = {}
        ready: list[tuple[float, str]] = []

        def arm(name: str) -> None:
            """Queue the resource's head on the ready heap, or register its blockers."""
            queue = queues[name]
            if not queue:
                return
            head = queue[0]
            unfinished = {dep for dep in head.deps if dep not in finished}
            if unfinished:
                blocked[name] = len(unfinished)
                for dep in unfinished:
                    waiting.setdefault(dep, []).append(name)
                return
            deps_end = max((finished[dep] for dep in head.deps), default=0.0)
            release = self._release_times.get(head.op_id, 0.0)
            start = max(resource_free[name], deps_end, release)
            heapq.heappush(ready, (start, name))

        for name in queues:
            arm(name)

        remaining = sum(len(queue) for queue in queues.values())
        while remaining:
            if not ready:
                blocked_heads = [queue[0].name for queue in queues.values() if queue]
                raise SimulationError(
                    f"simulation deadlock: blocked head operations {blocked_heads}"
                )
            start, name = heapq.heappop(ready)
            op = queues[name].popleft()
            end = start + op.duration
            finished[op.op_id] = end
            resource_free[name] = end
            scheduled.append(ScheduledOp(op=op, start=start, end=end))
            remaining -= 1
            arm(name)
            for blocked_name in waiting.pop(op.op_id, ()):
                blocked[blocked_name] -= 1
                if blocked[blocked_name] == 0:
                    del blocked[blocked_name]
                    arm(blocked_name)

        # Single-shot reset: clear submissions so explicit reuse starts empty.
        self._queues = {name: deque() for name in self._resources}
        self._submission_order = []
        self._release_times = {}

        schedule = Schedule(ops=sorted(scheduled, key=lambda item: (item.start, item.op.op_id)),
                            resources=list(self._resources))
        schedule.validate()
        return schedule

    def run_batch(self, batch, *, validate: bool = False) -> Schedule:
        """Schedule an :class:`~repro.sim.opbatch.OpBatch` without per-op objects.

        The scheduling algorithm is the same ready-set heap as :meth:`run` — same
        ``(earliest start, resource name)`` heap key, same FIFO-per-resource order,
        same deadlock condition — but it walks the batch's row tuples directly.
        ``SimOp`` objects are created only at the end, one ``__dict__`` assignment
        per scheduled row, so the result is a plain :class:`Schedule` that compares
        equal (including op ids, names and exact float times) to what expanding the
        batch through :meth:`submit`/:meth:`run` would produce (op ids are row
        indices, so the loop keys its state by row); the golden tests in
        ``tests/test_opbatch_equivalence.py`` enforce that bit-for-bit.

        ``validate=False`` (the default) skips :meth:`Schedule.validate`: the loop
        establishes the schedule invariants by construction (starts are max() over
        resource-free and dependency-end times), and the golden-equivalence suite
        cross-checks against :meth:`run`, which does validate.  Pass ``True`` when
        scheduling rows from an untrusted builder.

        Unlike :meth:`run` this does not consume engine state — the batch carries
        the submissions — but mixing the two admission paths in one scheduling round
        is a :class:`ConfigurationError`.
        """
        if self._middleware is not None:
            return self._intercept(
                "run_batch",
                "heap",
                len(batch.rows),
                lambda: self._run_batch_guarded(batch, validate),
            )
        return self._run_batch_guarded(batch, validate)

    def _run_batch_guarded(self, batch, validate: bool) -> Schedule:
        """Admission guard + GC pause around :meth:`_run_batch_rows`."""
        if self._submission_order:
            raise ConfigurationError(
                "run_batch on an engine with eagerly submitted pending ops; "
                "use either submit()+run() or run_batch(), not both"
            )
        rows = batch.rows
        batch.validate_rows()
        # Scheduling and materialisation allocate ~4 container objects per op; at
        # 100k ops the generational collector would otherwise run hundreds of
        # pointless scans over acyclic garbage (every object built here is
        # reachable from the returned Schedule or refcount-freed immediately).
        # Pausing collection for the duration roughly halves run_batch wall time.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run_batch_rows(batch, rows, validate)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_batch_rows(self, batch, rows: list[tuple], validate: bool) -> Schedule:
        """The scheduling core of :meth:`run_batch` (runs with GC paused)."""
        resources = self._resources
        queues: dict[str, list[int]] = {name: [] for name in resources}
        for index, row in enumerate(rows):
            queue = queues.get(row[2])
            if queue is None:
                raise ConfigurationError(
                    f"op {row[0]!r} targets unknown resource {row[2]!r}"
                )
            queue.append(index)

        release_times = batch.release_times
        heads = {name: 0 for name in queues}
        finished: dict[int, float] = {}  # row index -> end time
        finished_get = finished.get
        resource_free = {name: 0.0 for name in resources}
        scheduled: list[tuple[float, int, float]] = []  # (start, row index, end)
        sched_append = scheduled.append

        waiting: dict[int, list[str]] = {}
        blocked: dict[str, int] = {}
        ready: list[tuple[float, str]] = []
        push = heapq.heappush

        def arm(name: str) -> None:
            position = heads[name]
            queue = queues[name]
            if position >= len(queue):
                return
            index = queue[position]
            deps = rows[index][4]
            deps_end = 0.0
            if deps:
                if len(deps) == 1:
                    deps_end = finished_get(deps[0])
                    if deps_end is None:
                        blocked[name] = 1
                        waiting.setdefault(deps[0], []).append(name)
                        return
                else:
                    for dep in deps:
                        end = finished_get(dep)
                        if end is None:
                            # At least one dependency unfinished: register every
                            # distinct blocker (duplicates count once, as in run()).
                            unfinished = {d for d in deps if d not in finished}
                            blocked[name] = len(unfinished)
                            for blocker in unfinished:
                                waiting.setdefault(blocker, []).append(name)
                            return
                        if end > deps_end:
                            deps_end = end
            start = resource_free[name]
            if deps_end > start:
                start = deps_end
            if release_times:
                release = release_times.get(index, 0.0)
                if release > start:
                    start = release
            push(ready, (start, name))

        for name in queues:
            arm(name)

        remaining = len(rows)
        while remaining:
            if not ready:
                blocked_heads = [
                    rows[queue[heads[name]]][0]
                    for name, queue in queues.items()
                    if heads[name] < len(queue)
                ]
                raise SimulationError(
                    f"simulation deadlock: blocked head operations {blocked_heads}"
                )
            start, name = heapq.heappop(ready)
            position = heads[name]
            heads[name] = position + 1
            index = queues[name][position]
            end = start + rows[index][3]
            finished[index] = end
            resource_free[name] = end
            sched_append((start, index, end))
            remaining -= 1
            arm(name)
            if index in waiting:
                for blocked_name in waiting.pop(index):
                    blocked[blocked_name] -= 1
                    if blocked[blocked_name] == 0:
                        del blocked[blocked_name]
                        arm(blocked_name)

        scheduled.sort()
        ops = _materialise_ops(rows, ((index, start, end) for start, index, end in scheduled))

        schedule = Schedule(ops=ops, resources=list(self._resources))
        if validate:
            schedule.validate()
        return schedule


    def run_vector(self, batch, *, validate: bool = False) -> Schedule:
        """Schedule an :class:`~repro.sim.opbatch.OpBatch` on the numpy vector kernel.

        The kernel (:mod:`repro.sim.veckernel`) performs the same float
        operations as the heap scheduler over struct-of-arrays state, so the
        resulting schedule is byte-identical to :meth:`run_batch` on the same
        batch and to :meth:`run` on its expansion — the three-way differential
        harness in ``tests/test_engine_equivalence.py`` enforces that
        bit-for-bit.  Eager submissions are not accepted: hand-built ``SimOp``
        graphs (arbitrary ids) belong to :meth:`run`.

        Returns a :class:`VectorSchedule`: start/end times and schedule order
        are final on return, while ``ScheduledOp`` materialisation is deferred
        to the first ``.ops`` access.  ``validate=True`` materialises and runs
        :meth:`Schedule.validate` before returning.

        Raises the same errors as the heap paths: :class:`ConfigurationError`
        for unknown resources or mixed admission, :class:`SimulationError` for
        FIFO/dependency deadlocks.
        """
        if self._middleware is not None:
            return self._intercept(
                "run_vector",
                "vector",
                len(batch.rows),
                lambda: self._run_vector_kernel(batch, validate),
            )
        return self._run_vector_kernel(batch, validate)

    def _run_vector_kernel(self, batch, validate: bool) -> Schedule:
        """The vector-kernel scheduling core of :meth:`run_vector`."""
        from repro.sim.veckernel import schedule_rows

        if self._submission_order:
            raise ConfigurationError(
                "run_vector on an engine with eagerly submitted pending ops; "
                "use either submit()+run() or run_vector(batch), not both"
            )
        batch.validate_rows()
        rows = batch.rows
        starts, ends = schedule_rows(rows, batch.release_times, list(self._resources))
        schedule = VectorSchedule(rows, starts, ends, list(self._resources))
        if validate:
            schedule.validate()
        return schedule


#: Names (and registration order) of the canonical per-process resources; the
#: shape-batched sweep path builds schedules against this list without an engine.
STANDARD_RESOURCE_NAMES = ("gpu.compute", "pcie.h2d", "pcie.d2h", "cpu", "nvlink")


def standard_resources(engine: SimEngine) -> None:
    """Register the canonical per-process resources used throughout the reproduction."""
    engine.add_resource("gpu.compute", "GPU SMs (forward/backward compute and GPU Adam updates)")
    engine.add_resource("pcie.h2d", "Host-to-device PCIe copy engine")
    engine.add_resource("pcie.d2h", "Device-to-host PCIe copy engine")
    engine.add_resource("cpu", "Host CPU cores owned by this training process")
    engine.add_resource("nvlink", "Intra-node collective interconnect (NVLink)")
