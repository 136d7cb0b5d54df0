"""Golden-equivalence tests for the array-batched op-construction path.

Two layers of guarantees:

* **engine layer** — ``SimEngine.run_batch`` over an :class:`OpBatch` must produce a
  byte-identical :class:`Schedule` to expanding the same batch through
  ``submit()``/``run()`` (same op ids, names, dependency tuples and exact floats);
* **simulation layer** — ``simulate_job`` (row builders on the vector kernel)
  must match the eager ``SimOp`` builders scheduled on the heap engine bit for
  bit, for every offloading strategy, including all the per-iteration
  bookkeeping the metrics are derived from.  Row ids are row indices; the
  eager builders match them after :func:`~repro.sim.ops.reset_op_counter`.

Exact float equality is intentional: both paths must compute start times through
identical ``max()`` chains, not merely close ones.
"""

import random

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.sim.engine import SimEngine, standard_resources
from repro.sim.opbatch import ROW_FIELDS, OpBatch
from repro.sim.ops import OpKind, SimOp, reset_op_counter
from repro.training.config import TrainingJobConfig
from repro.training.simulation import (
    SimulationResult,
    _initial_gpu_bytes,
    build_iteration,
    simulate_job,
)

RESOURCES = ("cpu", "gpu", "link", "pcie.h2d", "pcie.d2h")


def _random_batch(rng: random.Random, size: int) -> OpBatch:
    batch = OpBatch()
    ids: list[int] = []
    for index in range(size):
        deps = tuple(rng.choice(ids) for _ in range(rng.randint(0, 3))) if ids else ()
        not_before = rng.random() * 2 if rng.random() < 0.3 else 0.0
        op_id = batch.add_op(
            f"op{index}",
            OpKind.GPU_COMPUTE,
            rng.choice(RESOURCES),
            rng.random() * 3,
            deps,
            phase=f"phase{index % 3}",
            subgroup=index % 5,
            payload_bytes=index * 10,
            gpu_mem_delta=(-1) ** index * index,
            not_before=not_before,
        )
        ids.append(op_id)
    return batch


def _engine() -> SimEngine:
    engine = SimEngine()
    for name in RESOURCES:
        engine.add_resource(name)
    return engine


def _schedule_tuples(schedule):
    return [(item.op, item.start, item.end) for item in schedule.ops]


# ---------------------------------------------------------------------- engine layer


@pytest.mark.parametrize("seed", range(12))
def test_run_batch_matches_eager_run_on_random_dags(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 150)
    state = rng.getstate()

    reset_op_counter()
    batch = _random_batch(rng, size)
    eager_engine = _engine()
    batch.submit_to(eager_engine)
    eager = eager_engine.run()

    rng.setstate(state)
    reset_op_counter()
    batch = _random_batch(rng, size)
    schedule = _engine().run_batch(batch, validate=True)

    assert _schedule_tuples(schedule) == _schedule_tuples(eager)


def test_run_batch_schedule_passes_validate_and_queries():
    reset_op_counter()
    batch = _random_batch(random.Random(99), 80)
    schedule = _engine().run_batch(batch)
    schedule.validate()
    assert schedule.makespan > 0
    first = schedule.ops[0]
    assert schedule.by_id(first.op.op_id) is first
    assert schedule.filter(resource=first.op.resource)


def test_run_batch_rejects_unknown_resource_and_negative_duration():
    batch = OpBatch()
    batch.add_op("x", OpKind.CPU_UPDATE, "not-a-resource", 1.0)
    with pytest.raises(ConfigurationError):
        _engine().run_batch(batch)

    bad = OpBatch()
    bad.rows.append(("neg", OpKind.CPU_UPDATE, "cpu", -1.0, (), "", None, 0, 0))
    with pytest.raises(ConfigurationError):
        _engine().run_batch(bad)


def test_run_batch_detects_deadlock_like_run():
    batch = OpBatch()
    # Head of "cpu" waits on an op queued *behind* the head of "gpu" and vice versa.
    first = batch.add_op("a", OpKind.CPU_UPDATE, "cpu", 1.0, deps=(10**9,))
    batch.add_op("b", OpKind.GPU_COMPUTE, "gpu", 1.0, deps=(first,))
    with pytest.raises(SimulationError, match="deadlock"):
        _engine().run_batch(batch)


def test_run_batch_refuses_mixed_admission():
    engine = _engine()
    engine.submit(SimOp("eager", OpKind.CPU_UPDATE, "cpu", 1.0))
    with pytest.raises(ConfigurationError):
        engine.run_batch(OpBatch())


def test_opbatch_expand_and_columns_round_trip():
    reset_op_counter()
    batch = OpBatch()
    batch.add_op("a", OpKind.H2D, "pcie.h2d", 2.0, phase="update", payload_bytes=64)
    batch.add_op("b", OpKind.CPU_UPDATE, "cpu", 1.0, not_before=3.0)
    ops = batch.expand()
    assert [op.name for op in ops] == ["a", "b"]
    assert ops[0].payload_bytes == 64 and ops[0].kind is OpKind.H2D
    assert batch.column("resource") == ["pcie.h2d", "cpu"]
    assert batch.release_times == {ops[1].op_id: 3.0}
    assert len(batch) == 2
    with pytest.raises(ConfigurationError):
        batch.column("no-such-field")
    with pytest.raises(ConfigurationError):
        batch.add_op("c", OpKind.CPU_UPDATE, "cpu", 1.0, not_before=-1.0)
    # Row layout is the SimOp field order minus the id, which is the row index
    # (the expand() contract).
    assert ROW_FIELDS + ("op_id",) == tuple(ops[0].__dict__.keys())
    assert [op.op_id for op in ops] == [0, 1]


# ------------------------------------------------------------------ simulation layer


JOB_VARIANTS = [
    pytest.param({"model": "7B", "strategy": "zero3-offload"}, id="zero3"),
    pytest.param({"model": "7B", "strategy": "twinflow", "static_gpu_fraction": 0.3}, id="twinflow"),
    pytest.param({"model": "7B", "strategy": "deep-optimizer-states"}, id="dos"),
    pytest.param(
        {"model": "20B", "strategy": "deep-optimizer-states", "static_gpu_fraction": 0.2},
        id="dos-static",
    ),
    pytest.param(
        {"model": "7B", "strategy": "deep-optimizer-states", "update_stride": 3,
         "model_contention": True},
        id="dos-contention",
    ),
]


def _eager_simulation(job, iterations):
    """The eager builders on the heap engine: the oracle ``simulate_job`` must match."""
    engine = SimEngine()
    standard_resources(engine)
    records = []
    start_deps: tuple[int, ...] = ()
    for index in range(iterations):
        record = build_iteration(engine, job, index, start_deps)
        records.append(record)
        start_deps = tuple(record.update.params_ready_ops)
    return SimulationResult(job=job, schedule=engine.run(), iterations=records,
                            initial_gpu_bytes=_initial_gpu_bytes(job))


def _assert_simulations_identical(job, iterations):
    reset_op_counter()
    eager = _eager_simulation(job, iterations)
    reset_op_counter()
    batched = simulate_job(job, iterations=iterations)

    assert _schedule_tuples(batched.schedule) == _schedule_tuples(eager.schedule)
    batched.schedule.validate()
    assert batched.initial_gpu_bytes == eager.initial_gpu_bytes
    for got, expected in zip(batched.iterations, eager.iterations):
        assert got.forward_ops == expected.forward_ops
        assert got.forward_compute_ops == expected.forward_compute_ops
        assert got.backward_compute_ops == expected.backward_compute_ops
        assert got.blocks_backward == expected.blocks_backward
        assert got.flush.grad_ready_ops == expected.flush.grad_ready_ops
        assert got.flush.blocking_ops == expected.flush.blocking_ops
        assert got.flush.op_ids == expected.flush.op_ids
        assert got.flush.d2h_bytes == expected.flush.d2h_bytes
        assert got.update.op_ids == expected.update.op_ids
        assert got.update.params_ready_ops == expected.update.params_ready_ops
        assert got.update.per_subgroup_done == expected.update.per_subgroup_done
        assert got.update.h2d_bytes == expected.update.h2d_bytes
        assert got.update.d2h_bytes == expected.update.d2h_bytes
    assert [b.__dict__ for b in batched.breakdowns()] == [
        b.__dict__ for b in eager.breakdowns()
    ]


@pytest.mark.parametrize("kwargs", JOB_VARIANTS)
def test_simulate_job_backends_are_byte_identical(kwargs):
    job = TrainingJobConfig(check_memory=False, **kwargs).resolve()
    _assert_simulations_identical(job, iterations=2)


def test_simulate_job_backends_identical_at_10k_subgroups():
    """The acceptance-scale case: ~80k ops for one iteration of 10k+ subgroups."""
    job = TrainingJobConfig(
        model="20B",
        strategy="deep-optimizer-states",
        subgroup_size=500_000,
        check_memory=False,
    ).resolve()
    assert job.num_subgroups >= 10_000
    _assert_simulations_identical(job, iterations=1)


def test_op_ids_do_not_depend_on_process_history():
    """The same job simulated twice, around an unrelated simulation and eager
    ``SimOp`` construction, yields the same ids from 0 and the same export."""
    from repro.obs.export import schedule_trace

    job = TrainingJobConfig(model="7B", strategy="deep-optimizer-states",
                            check_memory=False).resolve()
    other = TrainingJobConfig(model="20B", strategy="zero3-offload",
                              check_memory=False).resolve()
    first = simulate_job(job, 2)
    simulate_job(other, 1)
    SimOp("unrelated", OpKind.CPU_UPDATE, "cpu", 1.0)
    second = simulate_job(job, 2)

    ids = [item.op.op_id for item in first.schedule.ops]
    assert sorted(ids) == list(range(len(ids)))
    assert [item.op.op_id for item in second.schedule.ops] == ids
    assert schedule_trace(second.schedule) == schedule_trace(first.schedule)


def test_strategies_without_row_builders_are_rejected():
    """Simulation needs the row builders; a strategy without them fails loudly."""
    job = TrainingJobConfig(model="7B", strategy="zero3-offload", check_memory=False).resolve()
    job.strategy.supports_op_batch = lambda: False  # simulate a third-party strategy
    with pytest.raises(ConfigurationError, match="row builders"):
        simulate_job(job, 1)
