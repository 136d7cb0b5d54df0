"""Array-batched operation construction for the discrete-event simulator.

Building one :class:`~repro.sim.ops.SimOp` dataclass per operation costs ~1.5 µs of
pure Python overhead (``__init__`` with ten fields, ``__post_init__`` validation, a
deque append) before the engine does any scheduling work.  Beyond ~10k optimizer
subgroups (~80k operations per simulated iteration) that object churn dominates
``simulate_job``.  An :class:`OpBatch` removes it: every operation is a flat row
tuple appended to one list, and the engine's batch-admission path
(:meth:`repro.sim.engine.SimEngine.run_batch`) schedules straight off those rows,
materialising ``SimOp`` objects only once, for the finished :class:`~repro.sim.engine.Schedule`.

The row layout is the ``SimOp`` field order minus ``op_id`` (see :data:`ROW_FIELDS`):
an op's id is its **row index** in the batch.  Builders read the id of the op they
are about to emit as ``len(batch.rows)``, and dependencies name earlier (or, for
pre-planned DAGs, later) rows of the same batch.  Ids therefore depend on nothing
but the batch itself — building the same DAG twice yields the same ids, whatever
else the process built in between.  Rows are stored row-major (one tuple per op)
rather than as per-field parallel lists because in CPython one tuple display plus
one ``list.append`` is ~3x cheaper than nine list appends; the
:meth:`OpBatch.column` accessor recovers the columnar view when analysis wants it.

**Golden equivalence** — for every supported workload, ``run_batch`` over a batch
produces a byte-identical :class:`~repro.sim.engine.Schedule` (same ops, same
floats) to expanding the batch and running :meth:`~repro.sim.engine.SimEngine.run`.
``tests/test_opbatch_equivalence.py`` enforces this for raw DAGs and, against the
eager ``SimOp`` builders (whose default ids count from 0 after
:func:`~repro.sim.ops.reset_op_counter`, so they coincide with row indices), for the
full ``simulate_job`` pipeline of every offloading strategy.

Hot builders (the per-subgroup loops of the training simulation) bypass
:meth:`OpBatch.add_op` and append row tuples directly via ``batch.rows.append`` —
the method exists for generic callers and tests, the row layout is the actual API.
Beside each row they also append its duration's slot pair to
:attr:`OpBatch.term_slots`, which makes a built batch the *template* of every
scenario sharing its topology (see :mod:`repro.core.duration_terms`).
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.sim.ops import OpKind, SimOp

#: Row layout, in ``SimOp`` field order without ``op_id`` (a row's id is its index).
#: ``OpBatch`` rows are tuples indexed by these positions.
ROW_FIELDS = (
    "name",
    "kind",
    "resource",
    "duration",
    "deps",
    "phase",
    "subgroup",
    "payload_bytes",
    "gpu_mem_delta",
)

# Positional indices into a row tuple, for readers of the scheduling loop.
NAME, KIND, RESOURCE, DURATION, DEPS, PHASE, SUBGROUP, PAYLOAD, MEM_DELTA = range(9)

_NEW_SIMOP = SimOp.__new__


def simop_from_row(row: tuple, op_id: int, _new=_NEW_SIMOP) -> SimOp:
    """Materialise row ``op_id`` as a ``SimOp`` without running ``SimOp.__init__``.

    The single place that maps row positions back to ``SimOp`` attributes — both
    :meth:`OpBatch.expand` and schedule materialisation
    (:func:`repro.sim.engine._materialise_ops`) go through it, so a ``SimOp``
    field change only has to touch :data:`ROW_FIELDS` and this function.
    """
    name, kind, resource, duration, deps, phase, subgroup, payload, delta = row
    op = _new(SimOp)
    op.__dict__ = {
        "name": name, "kind": kind, "resource": resource, "duration": duration,
        "deps": deps, "phase": phase, "subgroup": subgroup,
        "payload_bytes": payload, "gpu_mem_delta": delta, "op_id": op_id,
    }
    return op


class OpBatch:
    """A batch of operations represented as row tuples instead of ``SimOp`` objects.

    The batch is append-only: :meth:`add_op` (or a direct ``rows.append`` of a
    tuple in :data:`ROW_FIELDS` order) adds one operation, whose id is the row
    index it lands at.
    Submission order is row order; per-resource FIFO order follows from it exactly
    as it does for :meth:`~repro.sim.engine.SimEngine.submit`.

    Field validation (non-negative duration and payload) is deferred to
    :meth:`validate_rows`, which :meth:`~repro.sim.engine.SimEngine.run_batch` runs
    once over the whole batch — the same checks ``SimOp.__post_init__`` performs
    per object, at a fraction of the cost.
    """

    __slots__ = ("rows", "release_times", "term_slots")

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        #: row index -> earliest allowed start (the ``not_before`` of eager submission).
        self.release_times: dict[int, float] = {}
        #: Per row, the (numerator, denominator) slots of its duration in a
        #: scenario's term vector (:mod:`repro.core.duration_terms`).  The
        #: training builders record one pair per row; other builders record
        #: none, and a batch without a pair for every row has no template.
        self.term_slots: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------ building

    def add_op(
        self,
        name: str,
        kind: OpKind,
        resource: str,
        duration: float,
        deps: tuple[int, ...] = (),
        phase: str = "",
        subgroup: int | None = None,
        payload_bytes: int = 0,
        gpu_mem_delta: int = 0,
        *,
        not_before: float = 0.0,
    ) -> int:
        """Append one operation row; returns its op id (the new row's index)."""
        if not_before < 0:
            raise ConfigurationError("not_before must be non-negative")
        op_id = len(self.rows)
        self.rows.append(
            (name, kind, resource, duration, tuple(deps), phase, subgroup,
             payload_bytes, gpu_mem_delta)
        )
        if not_before > 0:
            self.release_times[op_id] = not_before
        return op_id

    # ------------------------------------------------------------------ validation

    def validate_rows(self) -> None:
        """Bulk equivalent of ``SimOp.__post_init__``: reject negative durations/payloads."""
        for row in self.rows:
            if row[DURATION] < 0:
                raise ConfigurationError(
                    f"op {row[NAME]!r} has negative duration {row[DURATION]}"
                )
            if row[PAYLOAD] < 0:
                raise ConfigurationError(f"op {row[NAME]!r} has negative payload")

    # ------------------------------------------------------------------ expansion

    def column(self, field: str) -> list:
        """One field across all rows (the parallel-array view), in submission order."""
        try:
            index = ROW_FIELDS.index(field)
        except ValueError:
            raise ConfigurationError(
                f"unknown op field {field!r}; available: {ROW_FIELDS}"
            ) from None
        return [row[index] for row in self.rows]

    def expand(self) -> list[SimOp]:
        """Materialise every row as a ``SimOp`` (used by the equivalence tests).

        The expansion bypasses ``SimOp.__init__``: a row plus its index already
        *is* the attribute dict, so each op is ``__new__`` plus one ``__dict__``
        assignment.  Run
        :meth:`validate_rows` first when the rows come from an untrusted builder.
        """
        return [simop_from_row(row, index) for index, row in enumerate(self.rows)]

    def submit_to(self, engine) -> list[int]:
        """Expand and submit every row to an eager engine (equivalence testing)."""
        self.validate_rows()
        ids = []
        for op in self.expand():
            ids.append(engine.submit(op, not_before=self.release_times.get(op.op_id, 0.0)))
        return ids
