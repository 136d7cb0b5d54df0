"""Struct-of-arrays scheduler kernel: the ``vector`` engine backend.

The heap engine (:meth:`repro.sim.engine.SimEngine.run` / ``run_batch``) spends
several µs of pure Python per operation on heap tuples, growing dicts and per-op
``arm()`` bookkeeping, and its hash-based state degrades further once a schedule
carries hundreds of thousands of operations (the ~100k-subgroup grids of the
fig14/fig16 sweep experiments).  This module replaces that event loop with a
kernel over the :class:`~repro.sim.opbatch.OpBatch` row layout organised as
struct-of-arrays:

* **columns, not objects** — durations, release times, resource codes and op
  ids are extracted column-wise (one ``zip(*rows)`` instead of per-op object
  construction); dependency ids are resolved to row indices in one vectorised
  ``np.searchsorted``, classified in bulk, and compiled into a CSR successor
  graph plus a per-op *pending* count of unfinished cross-resource
  dependencies;
* **cursor walks, not heap pops** — every resource executes its queue in FIFO
  order, so the kernel keeps one cursor per resource and, per visit, walks the
  longest *run* of consecutive ready operations (``pending == 0``), finalising
  start/end times and scattering them into dependants' lower bounds inline.
  The frontier state (pending counts, lower bounds, start/end columns) lives
  in flat preallocated arrays indexed by row — no hashing, no heap, no
  allocation in the loop;
* **vectorised ordering** — the finished schedule is ordered by
  ``(start, op id)`` with one ``np.lexsort`` instead of a Timsort over a
  million-tuple list, and comes back as a lazy
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

    Returns ``(queues, pending, lb, succ_ptr, succ_tgt, durations, op_ids)``:
    per-resource FIFO queues of row indices, the pending cross-resource
    dependency count and start-lower-bound columns, the CSR successor graph,
    and the duration / op-id columns.
    """
    n = len(rows)
    # Column extraction: only the scheduling columns, never whole rows — names,
    # kinds, phases and payloads stay untouched until lazy materialisation.
    durations = list(map(itemgetter(3), rows))
    deps_col = list(map(itemgetter(4), rows))
    id_col = list(map(itemgetter(9), rows))
    op_ids = np.asarray(id_col, dtype=np.int64)

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
    if release_times:
        by_id = {op_id: index for index, op_id in enumerate(id_col)}
        for op_id, release in release_times.items():
            index = by_id.get(op_id)
            if index is not None:
                lb[index] = release

    # Resolve dependency op-ids to row indices in bulk.  Unknown ids keep an
    # op pending forever, surfacing as the same deadlock the heap reports.
    dep_counts = np.fromiter(map(len, deps_col), dtype=np.int64, count=n)
    flat_deps = np.asarray(
        [dep for deps in deps_col for dep in deps], dtype=np.int64
    )
    if flat_deps.size:
        first_id = id_col[0]
        if n == op_ids[-1] - first_id + 1 and bool((np.diff(op_ids) > 0).all()):
            # Consecutive ids (a batch built by one uninterrupted draw from the
            # global counter — every builder batch): dep row = dep id - first id.
            dep_rows = np.clip(flat_deps - first_id, 0, n - 1)
        else:
            id_order = np.argsort(op_ids, kind="stable")
            pos = np.minimum(
                np.searchsorted(op_ids, flat_deps, sorter=id_order), n - 1
            )
            dep_rows = id_order[pos]
        known = op_ids[dep_rows] == flat_deps
        dst = np.repeat(np.arange(n, dtype=np.int64), dep_counts)
        # A dependency on an earlier op of the same resource is enforced by
        # FIFO order already; dropping it leaves the max() chain unchanged.
        redundant = known & (res_code[dep_rows] == res_code[dst]) & (dep_rows < dst)
        ext = ~redundant
        pending = np.bincount(dst[ext], minlength=n).tolist()
        # CSR successor graph over the known external edges (unknown ids have
        # no source row that could ever finalise them).
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

    return queues, pending, lb, succ_ptr, succ_tgt, durations, op_ids


def schedule_rows(
    rows: list[tuple],
    release_times: dict[int, float],
    resource_names: list[str],
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Schedule op-batch rows on the vector kernel.

    Returns ``(starts, ends, op_ids)``: per-row float64 start/end columns plus
    the op-id column (the key material for the schedule's ``(start, op_id)``
    ordering, which :class:`~repro.sim.engine.VectorSchedule` computes lazily
    via :func:`schedule_order`).  Raises the same :class:`ConfigurationError` /
    :class:`SimulationError` conditions as the heap paths (unknown resources,
    FIFO/dependency deadlocks).
    """
    require_numpy()
    queues, pending, lb, succ_ptr, succ_tgt, durations, op_ids = _compile(
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
    return start_column, end_column, op_ids


def schedule_order(starts: "np.ndarray", op_ids: "np.ndarray") -> "np.ndarray":
    """Row order of the finished schedule: ``(start, op_id)``, one lexsort.

    Bit-for-bit the order ``Schedule.ops`` carries on the heap paths: float
    ties (including ``0.0`` vs ``-0.0``) are broken by the unique op id, so the
    sort never has to compare equal keys.
    """
    return np.lexsort((op_ids, starts))
