"""Struct-of-arrays scheduler kernel: the ``vector`` engine backend.

The heap engine (:meth:`repro.sim.engine.SimEngine.run` / ``run_batch``) spends
several µs of pure Python per operation on heap tuples, growing dicts and per-op
``arm()`` bookkeeping, and its hash-based state degrades further once a schedule
carries hundreds of thousands of operations (the ~100k-subgroup grids of the
fig14/fig16 sweep experiments).  This module replaces that event loop with a
kernel over the :class:`~repro.sim.opbatch.OpBatch` row layout organised as
struct-of-arrays:

* **columns, not objects** — durations, release times and resource codes are
  extracted column-wise (one ``map`` per column instead of per-op object
  construction); dependencies already name rows (an op's id *is* its row
  index, see :mod:`repro.sim.opbatch`), so they are range-checked, classified
  in bulk and compiled into a CSR successor graph plus a per-op *pending*
  count of unfinished cross-resource dependencies — no id-to-row translation;
* **cursor walks, not heap pops** — every resource executes its queue in FIFO
  order, so the kernel keeps one cursor per resource and, per visit, walks the
  longest *run* of consecutive ready operations (``pending == 0``), finalising
  start/end times and scattering them into dependants' lower bounds inline.
  The frontier state (pending counts, lower bounds, start/end columns) lives
  in flat preallocated arrays indexed by row — no hashing, no heap, no
  allocation in the loop;
* **vectorised ordering** — the finished schedule is ordered by
  ``(start, op id)`` — i.e. ``(start, row)`` — with one stable ``np.argsort``
  instead of a Timsort over a million-tuple list, and comes back as a lazy
  :class:`~repro.sim.engine.VectorSchedule` whose per-op objects materialise
  only when a query actually touches them.

**Byte-identical by construction.**  The schedule computed by the heap engine
is a pure function of the dependency DAG and the per-resource FIFO order: an
operation's start time is ``max(resource free time, dependency end times,
release time)``, and the heap's pop order is merely *one* topological order of
that DAG — it never changes the computed floats.  The kernel exploits exactly
that freedom (it finalises operations in cursor-run order instead of
simulated-time order) while performing identical float operations:

* within a run, ``end[k] = max(lb[k], end[k-1]) + duration[k]`` — the same
  two-operand comparisons and additions the heap's ``max()`` chain performs;
* a dependency on an earlier operation of the same resource is dropped during
  edge classification: the FIFO constraint already forces
  ``start[k] >= end[k-1] >= end[dep]``, so the ``max`` chain yields the same
  value with or without it.

The three-way differential harness in ``tests/test_engine_equivalence.py`` and
the golden suite in ``tests/test_opbatch_equivalence.py`` enforce the
equivalence bit-for-bit on randomized DAGs and on every offloading strategy's
full ``simulate_job`` pipeline; ``benchmarks/bench_sim_engine_scaling.py``
(Part 3) gates the speedup this buys at 100k subgroups.
"""

from __future__ import annotations

from operator import itemgetter

from repro.common.errors import ConfigurationError, SimulationError

try:  # numpy is a hard dependency of the reproduction, but degrade loudly.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on broken installs
    np = None


def require_numpy() -> None:
    """Raise a configuration error when the vector backend cannot run."""
    if np is None:  # pragma: no cover - exercised only on broken installs
        raise ConfigurationError(
            "the vector scheduling kernel requires numpy, which is not installed"
        )


def _compile(rows, release_times, resource_names):
    """Compile rows into the kernel's struct-of-arrays form (all bulk numpy).

    Returns ``(queues, pending, lb, succ_ptr, succ_tgt, durations)``:
    per-resource FIFO queues of row indices, the pending cross-resource
    dependency count and start-lower-bound columns, the CSR successor graph,
    and the duration column.
    """
    n = len(rows)
    # Column extraction: only the scheduling columns, never whole rows — names,
    # kinds, phases and payloads stay untouched until lazy materialisation.
    durations = list(map(itemgetter(3), rows))
    deps_col = list(map(itemgetter(4), rows))

    code_of = {name: code for code, name in enumerate(resource_names)}
    try:
        res_code = np.fromiter(
            (code_of[row[2]] for row in rows), dtype=np.int64, count=n
        )
    except KeyError:
        for row in rows:
            if row[2] not in code_of:
                raise ConfigurationError(
                    f"op {row[0]!r} targets unknown resource {row[2]!r}"
                ) from None
        raise  # pragma: no cover - unreachable, the loop above always raises

    # Per-resource FIFO queues: row indices grouped by resource, submission
    # order preserved by the stable sort.
    order = np.argsort(res_code, kind="stable").tolist()
    queue_lengths = np.bincount(res_code, minlength=len(resource_names)).tolist()
    queues = []
    offset = 0
    for length in queue_lengths:
        queues.append(order[offset:offset + length])
        offset += length

    # Start lower bounds: the release time, raised later by dependency ends.
    lb = [0.0] * n
    for index, release in release_times.items():
        if 0 <= index < n:
            lb[index] = release

    # Dependencies are row indices already.  An out-of-range one names no op
    # and keeps its dependant pending forever, surfacing as the same deadlock
    # the heap reports.
    dep_counts = np.fromiter(map(len, deps_col), dtype=np.int64, count=n)
    flat_deps = np.asarray(
        [dep for deps in deps_col for dep in deps], dtype=np.int64
    )
    if flat_deps.size:
        known = (flat_deps >= 0) & (flat_deps < n)
        dep_rows = np.where(known, flat_deps, 0)
        dst = np.repeat(np.arange(n, dtype=np.int64), dep_counts)
        # A dependency on an earlier op of the same resource is enforced by
        # FIFO order already; dropping it leaves the max() chain unchanged.
        redundant = known & (res_code[dep_rows] == res_code[dst]) & (dep_rows < dst)
        ext = ~redundant
        pending = np.bincount(dst[ext], minlength=n).tolist()
        # CSR successor graph over the known external edges (unknown rows
        # have no source that could ever finalise them).
        live = ext & known
        src, tgt = dep_rows[live], dst[live]
        src_order = np.argsort(src, kind="stable")
        succ_tgt = tgt[src_order].tolist()
        succ_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(src, minlength=n)))
        ).tolist()
    else:
        pending = [0] * n
        succ_tgt = []
        succ_ptr = [0] * (n + 1)

    return queues, pending, lb, succ_ptr, succ_tgt, durations


def schedule_rows(
    rows: list[tuple],
    release_times: dict[int, float],
    resource_names: list[str],
) -> tuple["np.ndarray", "np.ndarray"]:
    """Schedule op-batch rows on the vector kernel.

    Returns ``(starts, ends)``: per-row float64 start/end columns (the
    schedule's ``(start, row)`` ordering is computed lazily by
    :class:`~repro.sim.engine.VectorSchedule` via :func:`schedule_order`).
    Raises the same :class:`ConfigurationError` /
    :class:`SimulationError` conditions as the heap paths (unknown resources,
    FIFO/dependency deadlocks).
    """
    require_numpy()
    queues, pending, lb, succ_ptr, succ_tgt, durations = _compile(
        rows, release_times, resource_names
    )
    n = len(rows)
    starts = [0.0] * n
    ends = [0.0] * n
    cursor = [0] * len(queues)
    resource_end = [0.0] * len(queues)
    queue_lengths = [len(queue) for queue in queues]

    # The frontier loop.  Each sweep visits every resource cursor and walks the
    # longest run of ready head operations, finalising times and propagating
    # them inline.  A sweep that finalises nothing while work remains is the
    # heap engine's deadlock condition (every head blocked).
    remaining = n
    while remaining:
        progressed = 0
        for resource, queue in enumerate(queues):
            position = cursor[resource]
            length = queue_lengths[resource]
            if position >= length or pending[queue[position]]:
                continue
            end = resource_end[resource]
            walked = position
            while position < length:
                index = queue[position]
                if pending[index]:
                    break
                bound = lb[index]
                start = bound if bound > end else end
                end = start + durations[index]
                starts[index] = start
                ends[index] = end
                edge = succ_ptr[index]
                stop = succ_ptr[index + 1]
                if edge != stop:
                    for target in succ_tgt[edge:stop]:
                        pending[target] -= 1
                        if end > lb[target]:
                            lb[target] = end
                position += 1
            cursor[resource] = position
            resource_end[resource] = end
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

    start_column = np.asarray(starts, dtype=np.float64)
    end_column = np.asarray(ends, dtype=np.float64)
    return start_column, end_column


def schedule_order(starts: "np.ndarray") -> "np.ndarray":
    """Row order of the finished schedule: ``(start, op id)``, one stable sort.

    Bit-for-bit the order ``Schedule.ops`` carries on the heap paths: an op's
    id is its row index, so a stable sort on start times breaks float ties
    (including ``0.0`` vs ``-0.0``) by id exactly as the heap's
    ``(start, op_id)`` key does.
    """
    return np.argsort(starts, kind="stable")
