"""The vector admission path and the removal of the scheduler knob.

Covers the plumbing around :mod:`repro.sim.veckernel` (the kernel's
byte-identical-schedule guarantee itself lives in the three-way differential
harness, ``tests/test_engine_equivalence.py``):

* the scheduler is no longer a policy field, runner keyword or CLI flag — every
  such spelling is rejected — and its environment variable is ignored;
* the vector kernel fed by the row builders matches the heap oracle fed by the
  eager ``SimOp`` builders, and ``run_vector`` takes a batch only;
* the :class:`~repro.sim.engine.VectorSchedule` surface: lazy materialisation,
  array-backed ``makespan``, inherited queries, validation;
* sweeps, serial and pooled, simulate on the vector kernel and still ship the
  resolved policy to their workers.
"""

import os

import pytest

from repro.cli import build_parser
from repro.common.errors import ConfigurationError
from repro.runtime import ExecutionPolicy
from repro.sim.engine import SimEngine, VectorSchedule, standard_resources
from repro.sim.opbatch import OpBatch
from repro.sim.ops import OpKind, SimOp, reset_op_counter
from repro.sweep import SweepRunner, SweepSpec
from repro.training.config import TrainingJobConfig
from repro.training.simulation import build_iteration, prepare_simulation, simulate_job


@pytest.fixture(scope="module")
def job():
    return TrainingJobConfig(model="7B", strategy="deep-optimizer-states",
                             check_memory=False).resolve()


def _schedule_tuples(schedule):
    return [(item.op.op_id, item.op.name, item.start, item.end) for item in schedule.ops]


# ----------------------------------------------------------------- validation


def test_policy_rejects_unknown_scheduler_backend():
    with pytest.raises(ConfigurationError, match="scheduler"):
        ExecutionPolicy.resolve(scheduler="warp-drive")
    with pytest.raises(TypeError):
        ExecutionPolicy(scheduler="vector")


def test_simulate_job_ignores_the_removed_scheduler_env_var(job, monkeypatch):
    # $REPRO_SIM_SCHEDULER is no longer read: garbage in it neither raises nor
    # moves simulate_job off the vector kernel or changes its schedule.
    clean = simulate_job(job, 1)
    monkeypatch.setenv("REPRO_SIM_SCHEDULER", "quantum")
    dirty = simulate_job(job, 1)
    assert dirty.resolved_policy.scheduler == "vector"
    assert _schedule_tuples(dirty.schedule) == _schedule_tuples(clean.schedule)


# ------------------------------------------------------ builder-pair parity


def test_vector_kernel_on_row_builders_matches_heap_on_eager_builders(job):
    """Two chained iterations: eager ``SimOp`` builders on the heap, row
    builders on the kernel — same ids, names and floats."""
    reset_op_counter()
    eager = SimEngine()
    standard_resources(eager)
    record = build_iteration(eager, job, 0)
    build_iteration(eager, job, 1, tuple(record.update.params_ready_ops))
    engine = SimEngine()
    standard_resources(engine)
    vector = engine.run_vector(prepare_simulation(job, 2).batch)
    assert isinstance(vector, VectorSchedule)
    assert _schedule_tuples(eager.run()) == _schedule_tuples(vector)


# ----------------------------------------------------------- VectorSchedule


def test_run_vector_returns_lazy_vector_schedule():
    engine = SimEngine()
    standard_resources(engine)
    batch = OpBatch()
    first = batch.add_op("first", OpKind.GPU_COMPUTE, "gpu.compute", 2.0)
    batch.add_op("second", OpKind.CPU_UPDATE, "cpu", 1.0, deps=(first,))
    schedule = engine.run_vector(batch)
    assert isinstance(schedule, VectorSchedule)
    # Array-backed makespan works before any op materialisation...
    assert schedule._ops_cache is None
    assert schedule.makespan == 3.0
    assert schedule._ops_cache is None
    # ...and the inherited queries materialise on demand.
    assert schedule.by_id(first).end == 2.0
    assert [item.op.name for item in schedule.ops] == ["first", "second"]
    assert schedule.busy_time("cpu") == 1.0
    schedule.validate()


def test_vector_schedule_compares_equal_across_backends():
    """Schedule equality spans subclasses: vector == heap on the same batch."""
    engine = SimEngine()
    standard_resources(engine)
    batch = OpBatch()
    first = batch.add_op("first", OpKind.GPU_COMPUTE, "gpu.compute", 2.0)
    batch.add_op("second", OpKind.CPU_UPDATE, "cpu", 1.0, deps=(first,))
    assert engine.run_vector(batch) == engine.run_batch(batch)
    assert engine.run_batch(batch) == engine.run_vector(batch)
    other = OpBatch()
    other.add_op("other", OpKind.GPU_COMPUTE, "gpu.compute", 1.0)
    assert engine.run_vector(batch) != engine.run_vector(other)


def test_run_vector_empty_engine_returns_empty_schedule():
    engine = SimEngine()
    standard_resources(engine)
    schedule = engine.run_vector(OpBatch())
    assert schedule.ops == [] and schedule.makespan == 0.0


def test_run_vector_requires_a_batch():
    """Eager submissions (arbitrary ids) go to run(); the kernel takes rows."""
    engine = SimEngine()
    standard_resources(engine)
    with pytest.raises(TypeError):
        engine.run_vector()


def test_run_vector_deadlock_preserves_submissions_like_run():
    """A deadlock leaves the submissions intact on both admission paths."""
    from repro.common.errors import SimulationError

    heap_engine = SimEngine()
    standard_resources(heap_engine)
    heap_engine.submit(SimOp("blocked", OpKind.GPU_COMPUTE, "gpu.compute", 1.0,
                             deps=(10**9,)))
    with pytest.raises(SimulationError):
        heap_engine.run()
    assert heap_engine.pending_ops == 1  # submissions survive the failed run

    vector_engine = SimEngine()
    standard_resources(vector_engine)
    batch = OpBatch()
    batch.add_op("blocked", OpKind.GPU_COMPUTE, "gpu.compute", 1.0, deps=(10**9,))
    batch.add_op("free", OpKind.CPU_UPDATE, "cpu", 1.0)
    with pytest.raises(SimulationError, match="blocked"):
        vector_engine.run_vector(batch)
    assert len(batch) == 2 and vector_engine.pending_ops == 0


def test_run_vector_rejects_mixed_admission():
    engine = SimEngine()
    standard_resources(engine)
    engine.submit(SimOp("eager", OpKind.GPU_COMPUTE, "gpu.compute", 1.0))
    batch = OpBatch()
    batch.add_op("batched", OpKind.CPU_UPDATE, "cpu", 1.0)
    with pytest.raises(ConfigurationError):
        engine.run_vector(batch)


def test_run_vector_rejects_unknown_resource():
    engine = SimEngine()
    engine.add_resource("cpu")
    batch = OpBatch()
    batch.add_op("lost", OpKind.GPU_COMPUTE, "not-a-resource", 1.0)
    with pytest.raises(ConfigurationError, match="not-a-resource"):
        engine.run_vector(batch)


# ---------------------------------------------------------------- SweepRunner


def _spy_resolved_pipeline_schedule(**params):
    """Module-level worker reporting the pipeline schedule its context yields."""
    return ExecutionPolicy.resolve().pipeline_schedule


def _spy_simulated_kernel(**params):
    """Module-level worker reporting the kernel ``simulate_job`` ran on."""
    from repro.training.simulation import simulate_job

    job = TrainingJobConfig(model="7B", strategy="deep-optimizer-states",
                            check_memory=False).resolve()
    return simulate_job(job, 1).resolved_policy.scheduler


def test_sweep_runner_rejects_unknown_scheduler():
    with pytest.raises(TypeError, match="scheduler"):
        SweepRunner(_spy_resolved_pipeline_schedule, scheduler="warp")


@pytest.mark.parametrize("shorthand,knob", [
    ("run_sweep", "sweep_mode"), ("training_sweep", "scheduler"),
    ("pipeline_sweep", "scheduler"),
])
def test_sweep_shorthands_reject_the_removed_knobs(shorthand, knob):
    from repro.experiments.base import training_sweep
    from repro.pipeline import pipeline_sweep
    from repro.sweep import run_sweep

    calls = {
        "run_sweep": lambda **kw: run_sweep(_spy_resolved_pipeline_schedule, {"x": (1,)}, **kw),
        "training_sweep": lambda **kw: training_sweep({"strategy": ("zero3-offload",)}, **kw),
        "pipeline_sweep": lambda **kw: pipeline_sweep({"stages": (2,)}, **kw),
    }
    with pytest.raises(TypeError, match=knob):
        calls[shorthand](**{knob: "vector"})


def test_sweep_runner_policy_beats_worker_side_env(monkeypatch):
    # The serialized policy wins over the worker's own environment (context >
    # env in the resolution order) — and the environment itself is untouched.
    monkeypatch.setenv("REPRO_PIPELINE_SCHEDULE", "gpipe")
    runner = SweepRunner(_spy_resolved_pipeline_schedule,
                         policy=ExecutionPolicy(pipeline_schedule="zb"))
    result = runner.run(SweepSpec.build({"x": (1,)}))
    assert result.records[0].value == "zb"
    assert os.environ["REPRO_PIPELINE_SCHEDULE"] == "gpipe"


def test_parallel_sweep_runs_on_vector_backend(tmp_path):
    """Pool workers simulate on the vector kernel too."""
    runner = SweepRunner(_spy_simulated_kernel, jobs=2, use_cache=False,
                         cache_dir=tmp_path)
    result = runner.run(SweepSpec.build({"x": (1, 2)}))
    assert [record.value for record in result.records] == ["vector", "vector"]


# ------------------------------------------------------------------------ CLI


@pytest.mark.parametrize("command", [
    ["sweep", "--scheduler", "vector"],
    ["compare", "--scheduler", "vector"],
    ["experiment", "fig7", "--scheduler", "vector"],
    ["sweep", "--scheduler", "heap"],
    ["sweep", "--scheduler", "auto"],
])
def test_cli_rejects_the_removed_scheduler_flag(command, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(command)
    assert "unrecognized arguments: --scheduler" in capsys.readouterr().err


def test_cli_rejects_unknown_scheduler_value(capsys):
    for command in (["sweep", "--scheduler", "vector"], ["--scheduler", "vector", "config"],
                    ["--op-backend", "objects", "config"], ["sweep", "--sweep-mode", "batch"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command)
        assert "error:" in capsys.readouterr().err
