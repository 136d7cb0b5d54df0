"""Three-way differential harness: seed reference == heap == batch == vector.

Every randomized DAG is scheduled four ways and all results must agree with
*exact float equality* on every ``(op id, start, end)`` triple:

* ``_seed_list_scheduler`` — a verbatim port of the seed algorithm (per-pop scan
  over all resource queues), the reference;
* the heap engine's **eager** path (:meth:`SimEngine.submit` + :meth:`SimEngine.run`);
* the heap engine's **batched** path (:meth:`SimEngine.run_batch` over the same
  operations as :class:`~repro.sim.opbatch.OpBatch` rows);
* the **vector** kernel (:meth:`SimEngine.run_vector`, the numpy
  struct-of-arrays backend of :mod:`repro.sim.veckernel`).

A batch op's id is its row index, so the two batch legs see the DAG relabelled
to rows and their results are mapped back to the original ids before the
comparison; the eager leg and the reference keep the original ids, which may
have gaps or disagree with submission order.

The DAG generator deliberately covers the shapes that stress scheduler corner
cases: zero-duration operations (ties on the ready heap), ``not_before`` release
times, diamond and fan-in dependency patterns (including duplicate dependency
ids), long same-resource chains, and single-resource workloads (pure FIFO).

Exact equality is the point: all schedulers must compute identical start times
through identical ``max()`` chains, not merely close ones — this is what lets
``simulate_job`` run on the vector kernel alone while the heap paths stay on as
test oracles.
"""

from dataclasses import dataclass
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimEngine
from repro.sim.opbatch import OpBatch
from repro.sim.ops import OpKind, SimOp
from repro.training.simulation import simulate_job

RESOURCES = ("cpu", "gpu", "link", "pcie.h2d", "pcie.d2h")


@dataclass(frozen=True)
class _SeedScheduled:
    op_id: int
    start: float
    end: float


def _seed_list_scheduler(
    resources: tuple[str, ...],
    submissions: list[SimOp],
    release_times: dict[int, float],
) -> list[_SeedScheduled]:
    """The seed algorithm: per-pop scan over all resource queues (reference)."""
    queues: dict[str, deque[SimOp]] = {name: deque() for name in resources}
    for op in submissions:
        queues[op.resource].append(op)
    finished: dict[int, float] = {}
    resource_free = {name: 0.0 for name in resources}
    scheduled: list[_SeedScheduled] = []

    remaining = len(submissions)
    while remaining:
        best: tuple[float, str, SimOp] | None = None
        for name, queue in queues.items():
            if not queue:
                continue
            head = queue[0]
            if any(dep not in finished for dep in head.deps):
                continue
            deps_end = max((finished[dep] for dep in head.deps), default=0.0)
            release = release_times.get(head.op_id, 0.0)
            start = max(resource_free[name], deps_end, release)
            if best is None or start < best[0] or (start == best[0] and name < best[1]):
                best = (start, name, head)
        assert best is not None, "reference scheduler deadlocked on a valid DAG"
        start, name, op = best
        queues[name].popleft()
        end = start + op.duration
        finished[op.op_id] = end
        resource_free[name] = end
        scheduled.append(_SeedScheduled(op_id=op.op_id, start=start, end=end))
        remaining -= 1

    scheduled.sort(key=lambda item: (item.start, item.op_id))
    return scheduled


# ------------------------------------------------------------------- harness


def _as_batch(submissions: list[SimOp], release_times: dict[int, float]) -> OpBatch:
    """The same operations as op-batch rows, ids relabelled to row indices."""
    row_of = {op.op_id: row for row, op in enumerate(submissions)}
    batch = OpBatch()
    for op in submissions:
        batch.add_op(
            op.name, op.kind, op.resource, op.duration,
            tuple(row_of[dep] for dep in op.deps),
            op.phase, op.subgroup, op.payload_bytes, op.gpu_mem_delta,
            not_before=release_times.get(op.op_id, 0.0),
        )
    return batch


def _original_ids(schedule, submissions: list[SimOp]) -> list[tuple[int, float, float]]:
    """A batch leg's triples under the submissions' own ids, in ``(start, id)`` order.

    Row order and id order agree whenever ids grow with submission order (the
    common case), and the sort is then a no-op; for shuffled ids it restores
    the order the eager leg and the reference use.
    """
    triples = [(submissions[item.op.op_id].op_id, item.start, item.end)
               for item in schedule.ops]
    return sorted(triples, key=lambda triple: (triple[1], triple[0]))


def _engine(resources: tuple[str, ...] = RESOURCES) -> SimEngine:
    engine = SimEngine()
    for name in resources:
        engine.add_resource(name)
    return engine


def assert_all_schedulers_agree(
    submissions: list[SimOp],
    release_times: dict[int, float] | None = None,
    resources: tuple[str, ...] = RESOURCES,
) -> list[tuple[int, float, float]]:
    """Schedule the DAG four ways and assert byte-identical results.

    Returns the agreed ``(op id, start, end)`` triples so callers can make
    additional assertions about the schedule itself.
    """
    release_times = release_times or {}

    eager = _engine(resources)
    for op in submissions:
        eager.submit(op, not_before=release_times.get(op.op_id, 0.0))
    heap_eager = [(i.op.op_id, i.start, i.end) for i in eager.run().ops]

    batch = _as_batch(submissions, release_times)
    heap_batch = _original_ids(_engine(resources).run_batch(batch, validate=True), submissions)
    vector = _original_ids(_engine(resources).run_vector(batch, validate=True), submissions)

    reference = [(i.op_id, i.start, i.end)
                 for i in _seed_list_scheduler(resources, submissions, release_times)]

    # Exact float equality on purpose: every scheduler must compute identical
    # start times through identical max() chains, not merely close ones.
    assert heap_eager == reference, "heap eager path diverged from the seed reference"
    assert heap_batch == reference, "heap batch path diverged from the seed reference"
    assert vector == reference, "vector kernel diverged from the seed reference"
    return reference


# ------------------------------------------------------------- DAG generator


_DURATIONS = st.one_of(
    st.just(0.0),  # zero-duration ops: ready-heap ties and zero-width intervals
    st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _dags(draw, max_ops: int = 40, min_resources: int = 1):
    """A randomized DAG: (submissions, release_times, resources).

    Covers single-resource chains (``num_resources == 1``), diamond and fan-in
    dependency shapes (with duplicate ids), explicit same-resource chains,
    zero-duration ops and ``not_before`` release times.
    """
    num_resources = draw(st.integers(min_resources, len(RESOURCES)))
    resources = RESOURCES[:num_resources]
    num_ops = draw(st.integers(1, max_ops))
    submissions: list[SimOp] = []
    release_times: dict[int, float] = {}
    for index in range(num_ops):
        deps: tuple[int, ...] = ()
        if submissions:
            shape = draw(st.sampled_from(("independent", "chain", "fan_in", "diamond")))
            if shape == "chain":
                # Often a *same-resource* chain: dependency on the previous op.
                deps = (submissions[-1].op_id,)
            elif shape == "fan_in":
                count = draw(st.integers(1, min(4, len(submissions))))
                deps = tuple(
                    submissions[draw(st.integers(0, len(submissions) - 1))].op_id
                    for _ in range(count)
                )  # duplicates allowed on purpose
            elif shape == "diamond" and len(submissions) >= 2:
                left = draw(st.integers(0, len(submissions) - 1))
                right = draw(st.integers(0, len(submissions) - 1))
                deps = (submissions[left].op_id, submissions[right].op_id)
        op = SimOp(
            name=f"op{index}",
            kind=OpKind.GPU_COMPUTE,
            resource=resources[draw(st.integers(0, num_resources - 1))],
            duration=draw(_DURATIONS),
            deps=deps,
        )
        submissions.append(op)
        if draw(st.booleans()):
            release_times[op.op_id] = draw(
                st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False)
            )
    return submissions, release_times, resources


# ------------------------------------------------------------------- tests


@settings(max_examples=80, deadline=None)
@given(_dags())
def test_all_schedulers_match_seed_reference_exactly(case):
    """Randomized DAGs schedule byte-identically under all four schedulers."""
    submissions, release_times, resources = case
    assert_all_schedulers_agree(submissions, release_times, resources)


@settings(max_examples=40, deadline=None)
@given(_dags(min_resources=1, max_ops=25))
def test_single_resource_dags_are_pure_fifo(case):
    """With one resource the agreed schedule must follow submission order."""
    submissions, release_times, _ = case
    resources = RESOURCES[:1]
    single: list[SimOp] = []
    remapped: dict[int, int] = {}
    for op in submissions:
        clone = SimOp(name=op.name, kind=op.kind, resource=resources[0],
                      duration=op.duration,
                      deps=tuple(remapped[dep] for dep in op.deps))
        remapped[op.op_id] = clone.op_id
        single.append(clone)
    releases = {remapped[op_id]: value for op_id, value in release_times.items()}
    triples = assert_all_schedulers_agree(single, releases, resources)
    scheduled_ids = [op_id for op_id, _, _ in triples]
    assert scheduled_ids == sorted(scheduled_ids), "single-resource order is FIFO"


def test_schedulers_match_on_duplicate_deps():
    """Duplicate dependency ids behave identically in every scheduler."""
    producer = SimOp("p", OpKind.GPU_COMPUTE, "gpu", 2.0)
    consumer = SimOp(
        "c", OpKind.CPU_UPDATE, "cpu", 1.0, deps=(producer.op_id, producer.op_id)
    )
    triples = assert_all_schedulers_agree([producer, consumer])
    assert triples == [(producer.op_id, 0.0, 2.0), (consumer.op_id, 2.0, 3.0)]


def test_schedulers_match_on_cross_resource_chain():
    """A ping-pong chain across resources with release times matches exactly."""
    ops: list[SimOp] = []
    release: dict[int, float] = {}
    previous: SimOp | None = None
    for index in range(12):
        op = SimOp(
            name=f"chain{index}",
            kind=OpKind.H2D if index % 2 else OpKind.D2H,
            resource=RESOURCES[index % len(RESOURCES)],
            duration=0.25 * (index % 3),
            deps=(previous.op_id,) if previous is not None else (),
        )
        ops.append(op)
        if index % 4 == 0:
            release[op.op_id] = 0.5 * index
        previous = op
    assert_all_schedulers_agree(ops, release)


def test_schedulers_match_on_gapped_and_shuffled_op_ids():
    """Non-consecutive, non-monotonic op ids schedule identically everywhere.

    The eager heap path and the reference take the ids as they are: they have
    gaps (ops created and discarded between rows) and the submission order
    does not follow id order (ops created out of order, then submitted
    interleaved).  The batch legs see the same DAG by row index.
    """
    SimOp("burn0", OpKind.GPU_COMPUTE, "gpu", 1.0)  # id gap before the DAG
    late = SimOp("late", OpKind.GPU_COMPUTE, "gpu", 1.5)
    SimOp("burn1", OpKind.GPU_COMPUTE, "gpu", 1.0)  # id gap inside the DAG
    early = SimOp("early", OpKind.CPU_UPDATE, "cpu", 0.5)
    fan_in = SimOp(
        "fan_in", OpKind.D2H, "pcie.d2h", 0.25, deps=(late.op_id, early.op_id)
    )
    tail = SimOp("tail", OpKind.H2D, "pcie.h2d", 0.0, deps=(fan_in.op_id,))
    # Submission order deliberately disagrees with id order (late has a lower
    # id than early but is submitted after it).
    submissions = [early, late, fan_in, tail]
    assert sorted(op.op_id for op in submissions) != [op.op_id for op in submissions]
    triples = assert_all_schedulers_agree(submissions, {early.op_id: 0.75})
    assert triples[-1] == (tail.op_id, 1.75, 1.75)


@settings(max_examples=25, deadline=None)
@given(_dags(max_ops=20), st.data())
def test_schedulers_match_with_shuffled_id_allocation(case, data):
    """Randomized DAGs whose id allocation order differs from submission order.

    Ids are assigned in a permuted order (with gaps skipped in between), so
    the eager heap path and the reference see arbitrary ids on every example
    while the batch legs see the same DAG by row index.
    """
    submissions, release_times, resources = case
    order = data.draw(st.permutations(range(len(submissions))))
    new_ids: dict[int, int] = {}
    next_id = 0
    for index in order:
        next_id += 1 + data.draw(st.integers(0, 1))  # gaps as well as shuffling
        new_ids[index] = next_id
    id_map = {submissions[i].op_id: new_ids[i] for i in range(len(submissions))}
    rebuilt = [
        SimOp(name=op.name, kind=op.kind, resource=op.resource, duration=op.duration,
              deps=tuple(id_map[dep] for dep in op.deps), op_id=new_ids[index])
        for index, op in enumerate(submissions)
    ]
    releases = {id_map[op_id]: value for op_id, value in release_times.items()}
    assert_all_schedulers_agree(rebuilt, releases, resources)


def test_schedulers_match_on_zero_duration_diamond():
    """A zero-duration diamond (fan-out + fan-in ties) matches exactly."""
    top = SimOp("top", OpKind.GPU_COMPUTE, "gpu", 0.0)
    left = SimOp("left", OpKind.CPU_UPDATE, "cpu", 0.0, deps=(top.op_id,))
    right = SimOp("right", OpKind.H2D, "pcie.h2d", 1.0, deps=(top.op_id,))
    bottom = SimOp(
        "bottom", OpKind.GPU_COMPUTE, "gpu", 0.5, deps=(left.op_id, right.op_id)
    )
    triples = assert_all_schedulers_agree([top, left, right, bottom])
    assert triples[-1] == (bottom.op_id, 1.0, 1.5)


# ------------------------------------------------ pipeline-shaped topologies
#
# The ``repro.pipeline`` lowering emits a characteristic DAG shape the random
# generator above rarely produces: long cross-resource chains (a microbatch's
# forward walks every stage resource with a SEND/RECV link hop between each)
# and send/recv fan-in (a compute op depending on both its same-stage
# predecessor chain and a zero-duration RECV barrier fed from another
# resource).  These cases pin that shape explicitly — first as a randomized
# synthetic topology, then through the real lowering.


@st.composite
def _pipeline_dags(draw, max_stages: int = 4, max_microbatches: int = 5):
    """A synthetic pipeline topology over stage + link resources.

    Per microbatch: an F chain down the stages and a B chain back up, each hop
    via SEND (on a link resource) -> RECV (zero-duration, on the consuming
    stage) -> compute, so every compute op past stage 0 is a fan-in of its
    RECV and the per-stage FIFO order.
    """
    stages = draw(st.integers(2, max_stages))
    microbatches = draw(st.integers(1, max_microbatches))
    resources = tuple(f"stage{i}" for i in range(stages)) + tuple(
        f"link{i}" for i in range(stages - 1)
    )
    durations = [draw(_DURATIONS) for _ in range(3)]  # f, b, comm
    f_dur, b_dur, comm_dur = durations
    ops: list[SimOp] = []

    def emit(name, kind, resource, duration, deps):
        op = SimOp(name=name, kind=kind, resource=resource,
                   duration=duration, deps=deps)
        ops.append(op)
        return op

    for mb in range(microbatches):
        previous = None
        for stage in range(stages):  # forward chain down the stages
            deps: tuple[int, ...] = ()
            if previous is not None:
                send = emit(f"sendF{mb}@{stage - 1}", OpKind.D2D,
                            f"link{stage - 1}", comm_dur, (previous.op_id,))
                recv = emit(f"recvF{mb}@{stage}", OpKind.BARRIER,
                            f"stage{stage}", 0.0, (send.op_id,))
                deps = (recv.op_id,)
            previous = emit(f"F{mb}@{stage}", OpKind.GPU_COMPUTE,
                            f"stage{stage}", f_dur, deps)
        for stage in reversed(range(stages)):  # backward chain back up
            deps = (previous.op_id,)
            if stage < stages - 1:
                send = emit(f"sendB{mb}@{stage + 1}", OpKind.D2D,
                            f"link{stage}", comm_dur, (previous.op_id,))
                recv = emit(f"recvB{mb}@{stage}", OpKind.BARRIER,
                            f"stage{stage}", 0.0, (send.op_id,))
                deps = (recv.op_id,)
            previous = emit(f"B{mb}@{stage}", OpKind.GPU_COMPUTE,
                            f"stage{stage}", b_dur, deps)
    return ops, resources


@settings(max_examples=40, deadline=None)
@given(_pipeline_dags())
def test_schedulers_match_on_pipeline_shaped_topologies(case):
    """Long cross-resource chains with send/recv fan-in agree bit for bit."""
    ops, resources = case
    assert_all_schedulers_agree(ops, {}, resources)


def test_schedulers_match_on_lowered_pipeline_schedules():
    """The real ``repro.pipeline`` lowering agrees across all four schedulers."""
    from repro.pipeline import (
        PipelineTiming,
        build_schedule,
        lower_schedule,
        pipeline_resource_names,
    )

    timing = PipelineTiming(f_seconds=1.0, b_seconds=1.5, w_seconds=0.5,
                            comm_seconds=0.25, comm_bytes=1 << 20)
    for name in ("gpipe", "1f1b", "zb"):
        schedule = build_schedule(name, stages=3, microbatches=4, timing=timing)
        lowered = lower_schedule(schedule, timing)
        resources = tuple(pipeline_resource_names(3))
        assert_all_schedulers_agree(lowered.batch.expand(), {}, resources)


# --------------------------------------------------- policy resolution paths
#
# The harness above proves the kernels identical on raw DAGs; this section
# extends it through ``simulate_job``: however a caller resolves its policy —
# defaults, an explicit policy, a configure() context, the environment — the
# vector-kernel schedule must equal what the heap oracles compute from the same
# job, through both the eager builder and the row builder.


def _policy_resolution_paths(monkeypatch):
    """(label, callable) pairs covering every policy-resolution path."""
    from repro.runtime import ExecutionPolicy, configure

    def via_env(job):
        monkeypatch.setenv("REPRO_MIDDLEWARE", "timing")
        try:
            return simulate_job(job, 1)
        finally:
            monkeypatch.delenv("REPRO_MIDDLEWARE")

    def via_context(job):
        with configure(middleware="timing,logging"):
            return simulate_job(job, 1)

    return [
        ("default", lambda job: simulate_job(job, 1)),
        ("policy", lambda job: simulate_job(job, 1, policy=ExecutionPolicy(trace=True))),
        ("env", via_env),
        ("context", via_context),
    ]


def _heap_oracles(job):
    """(label, triples) of the heap engine fed by the eager and the row builder."""
    from repro.sim.engine import standard_resources
    from repro.sim.ops import reset_op_counter
    from repro.training.simulation import build_iteration, prepare_simulation

    reset_op_counter()
    eager = SimEngine()
    standard_resources(eager)
    build_iteration(eager, job, 0)
    reset_op_counter()
    rows = SimEngine()
    standard_resources(rows)
    batch = prepare_simulation(job, 1).batch
    return [
        ("heap-eager", [(i.op.op_id, i.start, i.end) for i in eager.run().ops]),
        ("heap-rows", [(i.op.op_id, i.start, i.end) for i in rows.run_batch(batch).ops]),
    ]


def test_simulate_job_resolution_paths_are_schedule_identical(monkeypatch):
    """All resolution paths agree bit for bit with both heap oracles."""
    from repro.obs.trace import reset_tracing
    from repro.sim.ops import reset_op_counter
    from repro.training.config import TrainingJobConfig

    monkeypatch.delenv("REPRO_MIDDLEWARE", raising=False)
    job = TrainingJobConfig(model="7B", strategy="deep-optimizer-states",
                            check_memory=False).resolve()
    oracles = _heap_oracles(job)
    reference = oracles[0][1]
    for label, triples in oracles[1:]:
        assert triples == reference, f"oracle {label!r} diverged from heap-eager"
    try:
        for label, run in _policy_resolution_paths(monkeypatch):
            reset_op_counter()
            result = run(job)
            triples = [(item.op.op_id, item.start, item.end) for item in result.schedule.ops]
            assert triples == reference, f"path {label!r} diverged from the heap oracles"
            assert result.resolved_policy.scheduler == "vector"
    finally:
        reset_tracing()
