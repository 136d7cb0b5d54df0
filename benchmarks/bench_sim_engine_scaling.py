"""Engine scheduling throughput (ops/sec) vs subgroup count: seed vs heap engine,
eager vs array-batched ``simulate_job`` op construction, and heap vs vector
scheduler kernels.

**Part 1 — scheduling.**  The seed engine re-scanned every resource queue per
scheduled op and answered every ``Schedule`` query with a linear scan, which made
the schedule-then-analyse pipeline used by the training simulation quadratic in the
number of operations.  This benchmark replays the seed algorithm (ported verbatim
below) against the current heap-scheduled, index-backed engine on
update-phase-shaped DAGs of growing subgroup count and reports end-to-end pipeline
throughput.

**Part 2 — op construction.**  With scheduling O(N log N), per-op Python-object
construction became the next hot path: one ``SimOp`` dataclass per operation plus
per-subgroup strategy-builder overhead dominates ``simulate_job`` beyond ~10k
subgroups.  The second section measures one end-to-end iteration (build ops ->
run -> materialise the schedule) on the heap engine, built by the eager
``SimOp`` builders (``build_iteration`` + ``SimEngine.run``, the pre-opbatch
path, kept as a test oracle) and by the array-batched row builders
(``prepare_simulation`` + ``SimEngine.run_batch``), and asserts the acceptance
criterion: >= 2x end-to-end throughput at 10k subgroups for the default
strategy.  The two builders are byte-identical by construction
(``tests/test_opbatch_equivalence.py``), which this script spot-checks via makespans.

**Part 3 — scheduler kernels.**  Beyond ~100k subgroups per scenario the heap
scheduler's per-op Python bookkeeping (heap tuples, growing dicts, the final
Timsort over per-op tuples) dominates ``run_batch`` itself.  The third section
schedules the same prebuilt ``OpBatch`` — the default strategy at growing
subgroup counts, including the chained two-iteration DAG the Trainer actually
simulates — on ``run_batch`` (heap) and ``run_vector`` (the numpy
struct-of-arrays kernel of ``repro.sim.veckernel``).

The gated timing is *scheduling plus a makespan query*: the kernel's own work.
``run_vector`` defers schedule ordering and per-op ``ScheduledOp``
materialisation until a query touches ``.ops``, so analyses that touch every
operation (e.g. the Trainer's per-iteration breakdowns) pay that shared
materialisation cost on either backend — the table's ``mat'd`` column reports
the fully-materialised ratio too (typically ~1.3-2x; informational, not gated)
so the headline speedup cannot be mistaken for an end-to-end number.  It
asserts the acceptance criterion: >= 3x scheduling over ``run_batch`` at 100k
subgroups.  The kernels are byte-identical
(``tests/test_engine_equivalence.py`` is the three-way proof); this script
cross-checks every makespan and fully compares the smallest schedule op by op.

**Part 4 — sweep throughput.**  Grid sweeps re-pay the whole per-scenario
pipeline per grid point even though every point of a typical figure grid shares
one DAG shape.  The fourth section runs a 256-scenario ``cpu_cores_per_gpu``
grid (a fig14-style sweep: same topology per point, different durations)
through ``SweepRunner`` twice: once per scenario, each scheduled on the heap
engine (``_heap_training_report``, a non-batchable twin of ``run_training``),
and once with ``run_training`` itself, which the runner dispatches as one
scenario group stacked into the shape-compiled path of
``repro.sim.shapebatch`` / ``repro.sweep.batching``.  It cross-checks that
every scenario's ``(params, config_hash, value)`` projection is byte-identical
between the two, and reports sweep throughput in scenarios/sec.  It asserts the
acceptance criterion: >= 3x sweep throughput on the shared-shape grid, and
writes the measurements to ``BENCH_sweep_throughput.json``.

**Part 5 — middleware overhead.**  The middleware layer
(:mod:`repro.middleware`) intercepts the engine's run methods once per
invocation — coarse-grained on purpose, so the chain costs one extra Python
call per *run*, not per op.  The fifth section schedules the 100k-subgroup
prebuilt batch through ``run_vector`` bare and under an installed no-op chain,
asserts identical makespans, and gates the chained/bare ratio: an empty
(observe-only no-op) chain must add **< 2%** to the 100k-op vector path
(``BENCH_MAX_MIDDLEWARE_OVERHEAD``), with the measurements written to
``BENCH_middleware_overhead.json``.

**Part 6 — pipeline deep DAGs.**  The pipeline-parallel lowering
(:mod:`repro.pipeline`) produces the opposite DAG regime of Part 3: long
cross-resource dependency chains (a microbatch's forward walks every stage
with a link hop per boundary) instead of a wide per-subgroup fan.  Deep
chains shrink the vector kernel's batched frontier toward one op at a time,
so this section gates a *floor*, not a speedup: on an 8-stage x
64-microbatch zero-bubble schedule the vector kernel must hold at least
``BENCH_MIN_PIPELINE_SPEEDUP`` (default 0.2x) of the heap path's throughput,
with op-by-op byte-identity asserted in-run and the measurements written to
``BENCH_pipeline_depth.json``.

**Part 7 — trace-chain overhead.**  Span tracing (:mod:`repro.obs.trace`)
rides the same coarse-grained seam as Part 5's no-op chain, but each
interception now records a real span: two uuid draws, a couple of clock
reads, and a dict append under a lock.  The seventh section schedules the
100k-op vector batch bare and under an installed ``trace`` chain, asserts
identical makespans, and gates the ratio: the tracer must add **<= 5%** to
the 100k-op vector path (``BENCH_MAX_TRACE_OVERHEAD``), with the
measurements written to ``BENCH_trace_overhead.json``.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_sim_engine_scaling.py

The script asserts all seven acceptance criteria: >= 5x pipeline throughput
at 1000+ operations (Part 1), >= 2x ``simulate_job`` throughput at 10k
subgroups (Part 2), >= 3x ``run_batch`` scheduling throughput at 100k
subgroups (Part 3), >= 3x sweep throughput on a 256-scenario shared-shape
grid (Part 4), <= 2% no-op middleware overhead on the 100k-op vector path
(Part 5), the vector-kernel floor on the deep pipeline DAG (Part 6), and
<= 5% trace-chain overhead on the 100k-op vector path (Part 7).
CI shrinks Part 4 via ``BENCH_SWEEP_SCENARIOS`` and relaxes its gate via
``BENCH_MIN_SWEEP_SPEEDUP`` (small grids amortise the compiled plan over
fewer scenarios).
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.sim.engine import SimEngine, standard_resources  # noqa: E402
from repro.sim.ops import OpKind, SimOp  # noqa: E402
from repro.training.config import TrainingJobConfig  # noqa: E402
from repro.training.simulation import (  # noqa: E402
    build_iteration,
    finalize_simulation,
    prepare_simulation,
)

SUBGROUP_COUNTS = (50, 125, 250, 500, 1250)
OPS_PER_SUBGROUP = 4  # d2h, cpu update, h2d, gpu compute

# Acceptance threshold for the 1000+ op speedup.  Noisy shared runners (CI) can
# deschedule the millisecond-scale timing windows, so the gate is overridable.
MIN_SPEEDUP = float(os.environ.get("BENCH_MIN_SPEEDUP", "5.0"))

# Part 2: simulate_job end-to-end speedup gate (batch vs eager op construction) at
# SIMJOB_GATE_SUBGROUPS subgroups for the default strategy.  Same noise caveat.
MIN_SIMJOB_SPEEDUP = float(os.environ.get("BENCH_MIN_SIMJOB_SPEEDUP", "2.0"))
SIMJOB_SUBGROUPS = (1000, 2500, 10000)
SIMJOB_GATE_SUBGROUPS = 10000
SIMJOB_STRATEGIES = ("deep-optimizer-states", "zero3-offload", "twinflow")
# Rank parameters of the 20B preset at data-parallel degree 4.
RANK_PARAMS_20B = 5_000_000_000

# Part 3: heap vs vector scheduler on a prebuilt batch.  (subgroups, iterations)
# grid; the gate row is the 100k-subgroup chained-iteration DAG.  Same noise
# caveat as above — CI overrides the bar via BENCH_MIN_VECTOR_SPEEDUP.
MIN_VECTOR_SPEEDUP = float(os.environ.get("BENCH_MIN_VECTOR_SPEEDUP", "3.0"))
VECTOR_CASES = ((10_000, 1), (100_000, 1), (100_000, 2))
VECTOR_GATE_CASE = (100_000, 2)

# Part 4: shape-batched sweep throughput over the per-scenario path on a
# shared-shape grid.  BENCH_SWEEP_SCENARIOS shrinks the grid for CI smoke runs
# (per-group compile/replay costs amortise over fewer scenarios there, so CI
# also relaxes the gate via BENCH_MIN_SWEEP_SPEEDUP).
MIN_SWEEP_SPEEDUP = float(os.environ.get("BENCH_MIN_SWEEP_SPEEDUP", "3.0"))
SWEEP_SCENARIOS = int(os.environ.get("BENCH_SWEEP_SCENARIOS", "256"))
SWEEP_REPEATS = int(os.environ.get("BENCH_SWEEP_REPEATS", "3"))
# 20B at 70M-parameter subgroups: dense enough that the per-scenario path's
# heap scheduling and Python-level breakdown queries dominate, small enough
# that the DAG stays below 50k ops, where the per-scenario baseline used to
# run on the heap.
SWEEP_BASE = {
    "model": "20B",
    "strategy": "deep-optimizer-states",
    "subgroup_size": 70_000_000,
}
SWEEP_RESULT_FILE = "BENCH_sweep_throughput.json"

# Part 5: no-op middleware chain overhead on the vector path.  The 100k-op
# single-iteration DAG is the gate case; the bar is a *ratio* (2% by default),
# overridable for noisy shared runners like every other gate here.
MAX_MIDDLEWARE_OVERHEAD = float(os.environ.get("BENCH_MAX_MIDDLEWARE_OVERHEAD", "0.02"))
MIDDLEWARE_REPEATS = int(os.environ.get("BENCH_MIDDLEWARE_REPEATS", "5"))
MIDDLEWARE_CASE = (100_000, 1)
MIDDLEWARE_RESULT_FILE = "BENCH_middleware_overhead.json"

# Part 6: deep-DAG pipeline schedule (long cross-resource dependency chains,
# the opposite regime of Part 3's wide per-subgroup fan).  The vector kernel's
# advantage shrinks on deep chains — its batched frontier degenerates toward
# one-op-at-a-time — so the gate here is deliberately lenient: it pins "the
# vector path must not fall off a cliff on pipeline DAGs", not a speedup.
MIN_PIPELINE_SPEEDUP = float(os.environ.get("BENCH_MIN_PIPELINE_SPEEDUP", "0.2"))
PIPELINE_CASE = (8, 64)  # (stages, microbatches): ~3.3k ops, depth ~8 chains
PIPELINE_REPEATS = int(os.environ.get("BENCH_PIPELINE_REPEATS", "5"))
PIPELINE_RESULT_FILE = "BENCH_pipeline_depth.json"

# Part 7: span-tracing chain overhead on the vector path.  The tracer records
# one real span per engine run — the gate is looser than Part 5's no-op bar
# (5% by default) because each interception now does real work, but it still
# pins "tracing is per-run, never per-op".  Same noise caveat as every gate.
MAX_TRACE_OVERHEAD = float(os.environ.get("BENCH_MAX_TRACE_OVERHEAD", "0.05"))
TRACE_REPEATS = int(os.environ.get("BENCH_TRACE_REPEATS", "5"))
TRACE_CASE = (100_000, 1)
TRACE_RESULT_FILE = "BENCH_trace_overhead.json"


# --------------------------------------------------------------------- seed port


class _SeedSchedule:
    """Seed-era schedule queries: every lookup is a linear scan."""

    def __init__(self, ops):
        self.ops = ops

    def by_id(self, op_id):
        for item in self.ops:
            if item.op.op_id == op_id:
                return item
        raise KeyError(op_id)

    def busy_time(self, resource):
        total = 0.0
        for item in self.ops:
            if item.op.resource == resource:
                total += item.end - item.start
        return total

    def phase_window(self, phase):
        items = [item for item in self.ops if item.op.phase == phase]
        if not items:
            return (0.0, 0.0)
        return (min(i.start for i in items), max(i.end for i in items))


def _seed_run(resources, submissions):
    """Verbatim port of the seed SimEngine.run() scheduling loop."""
    from repro.sim.engine import ScheduledOp

    queues = {name: deque() for name in resources}
    for op in submissions:
        queues[op.resource].append(op)
    finished: dict[int, float] = {}
    resource_free = {name: 0.0 for name in resources}
    scheduled = []

    remaining = len(submissions)
    while remaining:
        best = None
        for name, queue in queues.items():
            if not queue:
                continue
            head = queue[0]
            if any(dep not in finished for dep in head.deps):
                continue
            deps_end = max((finished[dep] for dep in head.deps), default=0.0)
            start = max(resource_free[name], deps_end)
            if best is None or start < best[0] or (start == best[0] and name < best[1]):
                best = (start, name, head)
        assert best is not None
        start, name, op = best
        queues[name].popleft()
        end = start + op.duration
        finished[op.op_id] = end
        resource_free[name] = end
        scheduled.append(ScheduledOp(op=op, start=start, end=end))
        remaining -= 1

    scheduled.sort(key=lambda item: (item.start, item.op.op_id))
    return _SeedSchedule(scheduled)


# --------------------------------------------------------------------- workload


def build_update_phase_ops(num_subgroups: int) -> list[SimOp]:
    """An update-phase-shaped DAG: per-subgroup d2h -> cpu -> h2d with GPU stride hits."""
    ops: list[SimOp] = []
    previous_cpu = None
    for index in range(num_subgroups):
        d2h = SimOp(
            name=f"d2h[{index}]", kind=OpKind.D2H, resource="pcie.d2h",
            duration=0.01, phase="update", subgroup=index, payload_bytes=1000,
        )
        deps = (d2h.op_id,) if previous_cpu is None else (d2h.op_id, previous_cpu)
        target = "gpu.compute" if (index + 1) % 2 == 0 else "cpu"
        update = SimOp(
            name=f"update[{index}]",
            kind=OpKind.GPU_UPDATE if target == "gpu.compute" else OpKind.CPU_UPDATE,
            resource=target, duration=0.02, deps=deps, phase="update", subgroup=index,
        )
        h2d = SimOp(
            name=f"h2d[{index}]", kind=OpKind.H2D, resource="pcie.h2d",
            duration=0.01, deps=(update.op_id,), phase="update", subgroup=index,
            payload_bytes=1000,
        )
        tail = SimOp(
            name=f"apply[{index}]", kind=OpKind.GPU_COMPUTE, resource="gpu.compute",
            duration=0.005, deps=(h2d.op_id,), phase="apply", subgroup=index,
        )
        ops.extend([d2h, update, h2d, tail])
        previous_cpu = update.op_id
    return ops


def _analyse(schedule, ops) -> float:
    """The simulation layer's query pattern, as in SimulationResult.breakdown():
    every op's start and end are looked up independently (update_window does both
    passes), plus per-resource busy totals and the phase window."""
    checksum = 0.0
    for op in ops:
        checksum += schedule.by_id(op.op_id).start
    for op in ops:
        checksum += schedule.by_id(op.op_id).end
    for resource in ("cpu", "gpu.compute", "pcie.h2d", "pcie.d2h"):
        checksum += schedule.busy_time(resource)
    start, end = schedule.phase_window("update")
    return checksum + end - start


def _time_seed(ops, resources) -> tuple[float, float]:
    begin = time.perf_counter()
    schedule = _seed_run(resources, ops)
    checksum = _analyse(schedule, ops)
    return time.perf_counter() - begin, checksum


def _time_heap(ops) -> tuple[float, float]:
    engine = SimEngine()
    standard_resources(engine)
    begin = time.perf_counter()
    for op in ops:
        engine.submit(op)
    schedule = engine.run()
    checksum = _analyse(schedule, ops)
    return time.perf_counter() - begin, checksum


# ----------------------------------------------------------- simulate_job backends


def _simulate_on_heap(job, backend: str):
    """One iteration of ``job`` on the heap engine, its ops built eagerly
    (``"objects"``) or as op-batch rows (``"batch"``)."""
    engine = SimEngine(name=f"{job.model.name}-{job.strategy.name}")
    standard_resources(engine)
    if backend == "objects":
        build_iteration(engine, job, 0)
        return engine.run()
    return engine.run_batch(prepare_simulation(job, 1).batch)


def _time_simulate(job, backend: str, repeats: int = 2) -> tuple[float, float, int]:
    """Best-of-N end-to-end simulation time, the makespan, and the op count."""
    best = float("inf")
    makespan = 0.0
    num_ops = 0
    # Both builders schedule on the heap, so Part 2 isolates op construction.
    for _ in range(repeats):
        begin = time.perf_counter()
        schedule = _simulate_on_heap(job, backend)
        best = min(best, time.perf_counter() - begin)
        makespan = schedule.makespan
        num_ops = len(schedule.ops)
    return best, makespan, num_ops


def bench_simulate_job_backends() -> None:
    """Part 2: eager vs array-batched op construction across subgroup counts."""
    print(f"\n{'strategy':>22}  {'subgroups':>9}  {'ops':>6}  "
          f"{'eager ops/s':>12}  {'batch ops/s':>12}  {'speedup':>8}")
    gate_speedup = None
    for strategy in SIMJOB_STRATEGIES:
        for subgroups in SIMJOB_SUBGROUPS:
            job = TrainingJobConfig(
                model="20B",
                strategy=strategy,
                subgroup_size=RANK_PARAMS_20B // subgroups,
                check_memory=False,
            ).resolve()
            eager_s, eager_makespan, num_ops = _time_simulate(job, "objects")
            batch_s, batch_makespan, _ = _time_simulate(job, "batch")
            assert batch_makespan == eager_makespan, (
                f"{strategy}@{subgroups}: backends diverged "
                f"({batch_makespan} != {eager_makespan})"
            )
            speedup = eager_s / batch_s if batch_s > 0 else float("inf")
            print(f"{strategy:>22}  {subgroups:>9}  {num_ops:>6}  "
                  f"{num_ops / eager_s:>12.0f}  {num_ops / batch_s:>12.0f}  "
                  f"{speedup:>7.2f}x")
            if strategy == SIMJOB_STRATEGIES[0] and subgroups == SIMJOB_GATE_SUBGROUPS:
                gate_speedup = speedup
    assert gate_speedup is not None and gate_speedup >= MIN_SIMJOB_SPEEDUP, (
        f"expected >= {MIN_SIMJOB_SPEEDUP:g}x end-to-end simulate_job speedup at "
        f"{SIMJOB_GATE_SUBGROUPS} subgroups ({SIMJOB_STRATEGIES[0]}), "
        f"got {gate_speedup:.2f}x"
    )
    print(f"\nOK: >= {MIN_SIMJOB_SPEEDUP:g}x simulate_job speedup at "
          f"{SIMJOB_GATE_SUBGROUPS} subgroups ({gate_speedup:.2f}x)")


# ------------------------------------------------------------ scheduler kernels


def _build_job_batch(subgroups: int, iterations: int):
    """A prebuilt OpBatch of the default strategy's chained-iteration DAG."""
    from repro.sim.opbatch import OpBatch
    from repro.training.simulation import build_iteration_rows

    job = TrainingJobConfig(
        model="20B",
        strategy=SIMJOB_STRATEGIES[0],
        subgroup_size=RANK_PARAMS_20B // subgroups,
        check_memory=False,
    ).resolve()
    batch = OpBatch()
    start_deps: tuple = ()
    for index in range(iterations):
        record = build_iteration_rows(batch, job, index, start_deps)
        start_deps = tuple(record.update.params_ready_ops)
    return batch


def _time_scheduler(
    engine, batch, method: str, repeats: int = 2, materialise: bool = False
) -> tuple[float, float]:
    """Best-of-N time to schedule ``batch`` and answer a makespan query.

    ``materialise=True`` additionally touches every ``ScheduledOp`` inside the
    timed region, charging the vector backend's deferred ordering and per-op
    object construction (the cost an op-touching analysis pays on any backend).
    """
    best = float("inf")
    makespan = 0.0
    for _ in range(repeats):
        begin = time.perf_counter()
        schedule = getattr(engine, method)(batch)
        makespan = schedule.makespan
        if materialise:
            assert schedule.ops[-1].end > 0
        best = min(best, time.perf_counter() - begin)
        del schedule
    return best, makespan


def bench_scheduler_kernels() -> None:
    """Part 3: heap vs vector scheduler kernels on prebuilt op batches."""
    print(f"\n{'subgroups':>9}  {'iters':>5}  {'ops':>8}  "
          f"{'heap ops/s':>12}  {'vector ops/s':>12}  {'speedup':>8}  {'mat_d':>7}")
    gate_speedup = None
    for subgroups, iterations in VECTOR_CASES:
        batch = _build_job_batch(subgroups, iterations)
        num_ops = len(batch)
        engine = SimEngine()
        standard_resources(engine)
        heap_s, heap_makespan = _time_scheduler(engine, batch, "run_batch")
        vector_s, vector_makespan = _time_scheduler(engine, batch, "run_vector")
        assert vector_makespan == heap_makespan, (
            f"{subgroups}x{iterations}: scheduler kernels diverged "
            f"({vector_makespan} != {heap_makespan})"
        )
        if (subgroups, iterations) == VECTOR_CASES[0]:
            # Full byte-identical cross-check on the smallest case: every
            # (op id, start, end) triple, not just the makespan.
            heap_ops = [(i.op.op_id, i.start, i.end) for i in engine.run_batch(batch).ops]
            vector_ops = [(i.op.op_id, i.start, i.end) for i in engine.run_vector(batch).ops]
            assert heap_ops == vector_ops, "scheduler kernels diverged op-by-op"
        # Informational: the ratio when every ScheduledOp is materialised inside
        # the timed region (what a breakdowns()-style analysis sees end to end).
        heap_mat, _ = _time_scheduler(engine, batch, "run_batch", repeats=1,
                                      materialise=True)
        vector_mat, _ = _time_scheduler(engine, batch, "run_vector", repeats=1,
                                        materialise=True)
        speedup = heap_s / vector_s if vector_s > 0 else float("inf")
        materialised = heap_mat / vector_mat if vector_mat > 0 else float("inf")
        print(f"{subgroups:>9}  {iterations:>5}  {num_ops:>8}  "
              f"{num_ops / heap_s:>12.0f}  {num_ops / vector_s:>12.0f}  "
              f"{speedup:>7.2f}x  {materialised:>6.2f}x")
        if (subgroups, iterations) == VECTOR_GATE_CASE:
            gate_speedup = speedup
    assert gate_speedup is not None and gate_speedup >= MIN_VECTOR_SPEEDUP, (
        f"expected >= {MIN_VECTOR_SPEEDUP:g}x scheduling speedup at "
        f"{VECTOR_GATE_CASE[0]} subgroups x{VECTOR_GATE_CASE[1]} iterations, "
        f"got {gate_speedup:.2f}x"
    )
    print(f"\nOK: >= {MIN_VECTOR_SPEEDUP:g}x vector-kernel scheduling speedup at "
          f"{VECTOR_GATE_CASE[0]} subgroups ({gate_speedup:.2f}x; mat'd column is "
          f"informational)")


# ----------------------------------------------------------- sweep throughput


def _scenario_projection(result) -> list[dict]:
    """The per-scenario identity a sweep mode must preserve byte-for-byte.

    ``to_dict()`` also carries run provenance (worker ids, wall times, cache
    counters) that legitimately differs between runs; the scenario params, the
    config hash, and the value are the contract.
    """
    return [
        {key: scenario[key] for key in ("params", "config_hash", "value")}
        for scenario in result.to_dict()["scenarios"]
    ]


def _heap_training_report(**params):
    """``run_training`` with its schedule computed on the heap engine.

    No batching adapter is registered for it, so ``SweepRunner`` dispatches it
    one scenario at a time: the per-scenario baseline of Part 4.
    """
    from repro.common.errors import OutOfMemoryError
    from repro.experiments.base import _training_trainer

    trainer = _training_trainer(**params)
    try:
        job = trainer.config.resolve()
    except OutOfMemoryError as exc:
        return trainer.oom_report(exc)
    iterations = max(1, min(trainer.simulated_iterations, trainer.config.iterations))
    prepared = prepare_simulation(job, iterations)
    engine = SimEngine(name=f"{job.model.name}-{job.strategy.name}")
    standard_resources(engine)
    schedule = engine.run_batch(prepared.batch)
    return trainer.report_from_simulation(
        job, finalize_simulation(prepared, schedule, scheduler="heap")
    )


def bench_sweep_throughput() -> None:
    """Part 4: per-scenario vs shape-batched sweep on a shared-shape grid."""
    import json

    from repro.experiments.base import run_training
    from repro.sweep import SweepRunner, SweepSpec

    workers = {"scenario": _heap_training_report, "batch": run_training}

    spec = SweepSpec.build(
        {"cpu_cores_per_gpu": list(range(2, 2 + SWEEP_SCENARIOS))}, SWEEP_BASE
    )
    warmup = SweepSpec.build({"cpu_cores_per_gpu": [2]}, SWEEP_BASE)

    timings: dict[str, float] = {}
    projections: dict[str, list[dict]] = {}
    for mode in ("scenario", "batch"):
        runner = SweepRunner(workers[mode], use_cache=False)
        runner.run(warmup)  # absorb one-time import/preset costs
        best = float("inf")
        for _ in range(SWEEP_REPEATS):
            begin = time.perf_counter()
            result = runner.run(spec)
            best = min(best, time.perf_counter() - begin)
        timings[mode] = best
        projections[mode] = _scenario_projection(result)

    assert projections["batch"] == projections["scenario"], (
        "sweep modes diverged: batch scenarios are not byte-identical to the "
        "per-scenario path"
    )
    speedup = timings["scenario"] / timings["batch"] if timings["batch"] > 0 else float("inf")

    print(f"\n{'mode':>10}  {'scenarios':>9}  {'time':>8}  {'scn/s':>8}")
    for mode in ("scenario", "batch"):
        print(f"{mode:>10}  {SWEEP_SCENARIOS:>9}  {timings[mode]:>7.2f}s  "
              f"{SWEEP_SCENARIOS / timings[mode]:>8.1f}")

    payload = {
        "grid": {**SWEEP_BASE, "scenarios": SWEEP_SCENARIOS,
                 "axis": "cpu_cores_per_gpu"},
        "repeats": SWEEP_REPEATS,
        "seconds": {mode: timings[mode] for mode in timings},
        "scenarios_per_second": {
            mode: SWEEP_SCENARIOS / timings[mode] for mode in timings
        },
        "speedup": speedup,
        "min_speedup_gate": MIN_SWEEP_SPEEDUP,
        "byte_identical": True,
    }
    with open(SWEEP_RESULT_FILE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert speedup >= MIN_SWEEP_SPEEDUP, (
        f"expected >= {MIN_SWEEP_SPEEDUP:g}x sweep throughput on the "
        f"{SWEEP_SCENARIOS}-scenario shared-shape grid, got {speedup:.2f}x"
    )
    print(f"\nOK: >= {MIN_SWEEP_SPEEDUP:g}x sweep throughput on the shared-shape "
          f"grid ({speedup:.2f}x; values byte-identical; results in "
          f"{SWEEP_RESULT_FILE})")


# -------------------------------------------------------- middleware overhead


def bench_middleware_overhead() -> None:
    """Part 5: an installed no-op chain must not tax the 100k-op vector path."""
    import json

    from repro.middleware import Middleware, MiddlewareChain

    subgroups, iterations = MIDDLEWARE_CASE
    batch = _build_job_batch(subgroups, iterations)
    num_ops = len(batch)

    bare_engine = SimEngine(name="bare")
    standard_resources(bare_engine)
    chained_engine = SimEngine(name="chained")
    standard_resources(chained_engine)
    chained_engine.install_middleware(MiddlewareChain((Middleware(),)))

    # Interleave the two measurements so a mid-run machine hiccup cannot land
    # entirely on one side; best-of-N on each absorbs the rest of the noise.
    bare_s = chained_s = float("inf")
    bare_makespan = chained_makespan = 0.0
    for _ in range(MIDDLEWARE_REPEATS):
        sample, bare_makespan = _time_scheduler(bare_engine, batch, "run_vector",
                                                repeats=1)
        bare_s = min(bare_s, sample)
        sample, chained_makespan = _time_scheduler(chained_engine, batch,
                                                   "run_vector", repeats=1)
        chained_s = min(chained_s, sample)
    assert chained_makespan == bare_makespan, (
        f"no-op chain changed the schedule ({chained_makespan} != {bare_makespan})"
    )
    overhead = chained_s / bare_s - 1.0 if bare_s > 0 else 0.0

    print(f"\n{'path':>8}  {'ops':>8}  {'time':>10}  {'ops/s':>12}")
    for label, seconds in (("bare", bare_s), ("chained", chained_s)):
        print(f"{label:>8}  {num_ops:>8}  {seconds * 1e3:>8.2f}ms  "
              f"{num_ops / seconds:>12.0f}")

    payload = {
        "case": {"subgroups": subgroups, "iterations": iterations, "ops": num_ops},
        "repeats": MIDDLEWARE_REPEATS,
        "seconds": {"bare": bare_s, "chained": chained_s},
        "overhead": overhead,
        "max_overhead_gate": MAX_MIDDLEWARE_OVERHEAD,
        "makespans_identical": True,
    }
    with open(MIDDLEWARE_RESULT_FILE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert overhead <= MAX_MIDDLEWARE_OVERHEAD, (
        f"expected <= {MAX_MIDDLEWARE_OVERHEAD:.0%} no-op middleware overhead on "
        f"the {num_ops}-op vector path, got {overhead:.2%}"
    )
    print(f"\nOK: no-op middleware chain adds {overhead:+.2%} on the {num_ops}-op "
          f"vector path (gate <= {MAX_MIDDLEWARE_OVERHEAD:.0%}; results in "
          f"{MIDDLEWARE_RESULT_FILE})")


# ------------------------------------------------------ trace-chain overhead


def bench_trace_overhead() -> None:
    """Part 7: an installed ``trace`` chain must stay cheap on the vector path."""
    import json

    from repro.middleware import build_chain
    from repro.obs.trace import reset_tracing, snapshot_spans

    subgroups, iterations = TRACE_CASE
    batch = _build_job_batch(subgroups, iterations)
    num_ops = len(batch)

    bare_engine = SimEngine(name="bare")
    standard_resources(bare_engine)
    traced_engine = SimEngine(name="traced")
    standard_resources(traced_engine)
    traced_engine.install_middleware(build_chain(("trace",)))

    # Interleave the measurements (same rationale as Part 5); drop recorded
    # spans between repeats so the collector never grows past a handful.
    bare_s = traced_s = float("inf")
    bare_makespan = traced_makespan = 0.0
    try:
        for _ in range(TRACE_REPEATS):
            sample, bare_makespan = _time_scheduler(bare_engine, batch,
                                                    "run_vector", repeats=1)
            bare_s = min(bare_s, sample)
            sample, traced_makespan = _time_scheduler(traced_engine, batch,
                                                      "run_vector", repeats=1)
            traced_s = min(traced_s, sample)
            assert any(r["seam"] == "engine" for r in snapshot_spans()), (
                "trace chain recorded no engine span — it never intercepted"
            )
            reset_tracing()
    finally:
        reset_tracing()
    assert traced_makespan == bare_makespan, (
        f"trace chain changed the schedule ({traced_makespan} != {bare_makespan})"
    )
    overhead = traced_s / bare_s - 1.0 if bare_s > 0 else 0.0

    print(f"\n{'path':>8}  {'ops':>8}  {'time':>10}  {'ops/s':>12}")
    for label, seconds in (("bare", bare_s), ("traced", traced_s)):
        print(f"{label:>8}  {num_ops:>8}  {seconds * 1e3:>8.2f}ms  "
              f"{num_ops / seconds:>12.0f}")

    payload = {
        "case": {"subgroups": subgroups, "iterations": iterations, "ops": num_ops},
        "repeats": TRACE_REPEATS,
        "seconds": {"bare": bare_s, "traced": traced_s},
        "overhead": overhead,
        "max_overhead_gate": MAX_TRACE_OVERHEAD,
        "makespans_identical": True,
    }
    with open(TRACE_RESULT_FILE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert overhead <= MAX_TRACE_OVERHEAD, (
        f"expected <= {MAX_TRACE_OVERHEAD:.0%} trace-chain overhead on the "
        f"{num_ops}-op vector path, got {overhead:.2%}"
    )
    print(f"\nOK: trace chain adds {overhead:+.2%} on the {num_ops}-op vector "
          f"path (gate <= {MAX_TRACE_OVERHEAD:.0%}; results in "
          f"{TRACE_RESULT_FILE})")


# -------------------------------------------------------- pipeline deep DAGs


def bench_pipeline_depth() -> None:
    """Part 6: heap vs vector on a deep pipeline-parallel schedule DAG."""
    import json

    from repro.pipeline import (
        build_schedule,
        lower_schedule,
        pipeline_resources,
        timing_from_presets,
    )

    stages, microbatches = PIPELINE_CASE
    timing = timing_from_presets(stages=stages)
    schedule = build_schedule("zb", stages=stages, microbatches=microbatches,
                              timing=timing)
    lowered = lower_schedule(schedule, timing)
    num_ops = lowered.op_count

    engine = SimEngine(name="pipeline-bench")
    pipeline_resources(engine, stages)

    # Byte-identity asserted in-run, op by op — a pipeline DAG must agree just
    # like the training DAGs of tests/test_engine_equivalence.py do.
    heap_ops = [(i.op.op_id, i.start, i.end)
                for i in engine.run_batch(lowered.batch).ops]
    vector_ops = [(i.op.op_id, i.start, i.end)
                  for i in engine.run_vector(lowered.batch).ops]
    assert heap_ops == vector_ops, "scheduler kernels diverged on the pipeline DAG"

    heap_s = vector_s = float("inf")
    for _ in range(PIPELINE_REPEATS):
        sample, _ = _time_scheduler(engine, lowered.batch, "run_batch", repeats=1)
        heap_s = min(heap_s, sample)
        sample, _ = _time_scheduler(engine, lowered.batch, "run_vector", repeats=1)
        vector_s = min(vector_s, sample)
    speedup = heap_s / vector_s if vector_s > 0 else float("inf")

    print(f"\n{'schedule':>9}  {'stages':>6}  {'microb':>6}  {'ops':>6}  "
          f"{'heap ops/s':>12}  {'vector ops/s':>12}  {'speedup':>8}")
    print(f"{'zb':>9}  {stages:>6}  {microbatches:>6}  {num_ops:>6}  "
          f"{num_ops / heap_s:>12.0f}  {num_ops / vector_s:>12.0f}  "
          f"{speedup:>7.2f}x")

    payload = {
        "case": {"schedule": "zb", "stages": stages,
                 "microbatches": microbatches, "ops": num_ops},
        "repeats": PIPELINE_REPEATS,
        "seconds": {"heap": heap_s, "vector": vector_s},
        "ops_per_second": {"heap": num_ops / heap_s, "vector": num_ops / vector_s},
        "speedup": speedup,
        "min_speedup_gate": MIN_PIPELINE_SPEEDUP,
        "byte_identical": True,
    }
    with open(PIPELINE_RESULT_FILE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert speedup >= MIN_PIPELINE_SPEEDUP, (
        f"expected >= {MIN_PIPELINE_SPEEDUP:g}x vector-vs-heap ratio on the "
        f"{stages}x{microbatches} pipeline DAG, got {speedup:.2f}x"
    )
    print(f"\nOK: vector kernel holds {speedup:.2f}x on the deep pipeline DAG "
          f"(gate >= {MIN_PIPELINE_SPEEDUP:g}x; byte-identical; results in "
          f"{PIPELINE_RESULT_FILE})")


def main() -> int:
    resources = ("gpu.compute", "pcie.h2d", "pcie.d2h", "cpu", "nvlink")
    print(f"{'subgroups':>9}  {'ops':>6}  {'seed ops/s':>12}  {'heap ops/s':>12}  {'speedup':>8}")
    worst_at_scale = None
    for subgroups in SUBGROUP_COUNTS:
        ops = build_update_phase_ops(subgroups)
        num_ops = len(ops)
        seed_s, seed_sum = _time_seed(ops, resources)
        heap_s, heap_sum = _time_heap(ops)
        assert abs(seed_sum - heap_sum) < 1e-6, "seed and heap schedules diverged"
        speedup = seed_s / heap_s if heap_s > 0 else float("inf")
        print(f"{subgroups:>9}  {num_ops:>6}  {num_ops / seed_s:>12.0f}  "
              f"{num_ops / heap_s:>12.0f}  {speedup:>7.1f}x")
        if num_ops >= 1000:
            worst_at_scale = speedup if worst_at_scale is None else min(worst_at_scale, speedup)
    assert worst_at_scale is not None and worst_at_scale >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP:g}x pipeline speedup at 1000+ ops, "
        f"got {worst_at_scale:.1f}x"
    )
    print(f"\nOK: >= {MIN_SPEEDUP:g}x speedup sustained at 1000+ ops "
          f"(worst {worst_at_scale:.1f}x)")
    bench_simulate_job_backends()
    bench_scheduler_kernels()
    bench_sweep_throughput()
    bench_middleware_overhead()
    bench_pipeline_depth()
    bench_trace_overhead()
    return 0


if __name__ == "__main__":
    sys.exit(main())
