"""Shape-compiled scenario batching: keys, stacked schedules, sweep equality.

Three layers of guarantees:

* **key layer** — :func:`~repro.sim.shapebatch.shape_key` fingerprints exactly
  the scheduling topology: duration and release-time *value* changes never
  change a key; resource, dependency-edge or release-*structure* changes
  always do; building the same shape later in the process's life does not.
  The training adapter's topology key, computed before any row exists,
  partitions scenarios exactly as ``shape_key`` of their freshly built rows
  does, and the duration column a template evaluates for each member equals
  the member's own rows' durations byte for byte.
* **kernel layer** — :func:`~repro.sim.shapebatch.schedule_group` over one
  compiled :func:`~repro.sim.shapebatch.compile_plan` must be byte-identical,
  scenario for scenario, to solo runs of both scheduler kernels (vector and
  heap) on random same-shape batches.
* **sweep layer** — a grouped sweep (:func:`~repro.sweep.batching.run_scenario_group`
  behind ``SweepRunner``) must return scenario values byte-identical (as JSON)
  to calling ``worker(**params)`` once per scenario, across serial and pool
  executors, on fig14-style shared-shape grids and fig16-style mixed grids, on
  either side of the stacking threshold, and its cache entries must be
  interchangeable with per-scenario values.
"""

import json
import random
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.experiments.base import run_training
from repro.runtime import ExecutionPolicy
from repro.sim.engine import SimEngine
from repro.sim.opbatch import OpBatch
from repro.sim.ops import OpKind, SimOp
from repro.sim.shapebatch import (
    ScenarioColumn,
    ShapeKey,
    compile_plan,
    scenario_column,
    schedule_group,
    shape_key,
    stack_solo,
    template_columns,
)
from repro.runtime import SIMULATION_FIELDS
from repro.sweep import Scenario, SweepRunner, SweepSpec
from repro.sweep import batching, cache, runner
from repro.sweep.batching import (
    STACK_MIN_SCENARIOS,
    PreparedCase,
    is_batchable,
    run_scenario_group,
)
from repro.sweep.result import SweepRecord, SweepResult

RESOURCES = ("cpu", "gpu", "link", "pcie.h2d", "pcie.d2h")

# Small-but-real training grid: 7B at data-parallel 4 resolves in milliseconds
# while still exercising the full prepare/schedule/report pipeline.
TRAIN_BASE = {"model": "7B", "strategy": "deep-optimizer-states", "iterations": 2}


# ------------------------------------------------------------------ fixtures


def random_topology(rng: random.Random, size: int) -> list[tuple]:
    """(resource, dep positions, has release) per op — the durations-free shape."""
    topology = []
    for index in range(size):
        count = rng.randint(0, min(3, index))
        deps = tuple(sorted(rng.sample(range(index), count))) if count else ()
        topology.append((rng.choice(RESOURCES), deps, rng.random() < 0.3))
    return topology


def batch_from(topology, rng: random.Random) -> OpBatch:
    """One scenario of a topology: same shape, freshly drawn float inputs."""
    batch = OpBatch()
    ids: list[int] = []
    for index, (resource, deps, has_release) in enumerate(topology):
        op_id = batch.add_op(
            f"op{index}", OpKind.GPU_COMPUTE, resource, rng.random() * 3,
            tuple(ids[position] for position in deps),
            phase=f"phase{index % 3}", subgroup=index % 5,
            not_before=rng.uniform(0.1, 2.0) if has_release else 0.0,
        )
        ids.append(op_id)
    return batch


def _engine() -> SimEngine:
    engine = SimEngine()
    for name in RESOURCES:
        engine.add_resource(name)
    return engine


def _triples(schedule) -> list[tuple[int, float, float]]:
    return [(item.op.op_id, item.start, item.end) for item in schedule.ops]


def _projection(result) -> str:
    """The JSON identity a sweep mode must preserve (params, hash, value)."""
    return json.dumps(
        [
            {key: scenario[key] for key in ("params", "config_hash", "value")}
            for scenario in result.to_dict()["scenarios"]
        ],
        sort_keys=True,
    )


def _per_scenario(worker, spec) -> SweepResult:
    """The reference a grouped sweep must match: ``worker(**params)`` per scenario."""
    scenarios = spec.scenarios() if isinstance(spec, SweepSpec) else spec
    records = [SweepRecord(scenario=scenario, value=worker(**scenario.as_dict()),
                           from_cache=False)
               for scenario in scenarios]
    return SweepResult(records=records, cache_hits=0, cache_misses=len(records), jobs=1)


def plain_worker(*, x: int = 0) -> int:
    """A module-level worker with no batching adapter."""
    return x * 2


# ------------------------------------------------------------------ shape keys


def test_duration_changes_never_change_the_key():
    topology = random_topology(random.Random(7), 40)
    keys = {shape_key(batch_from(topology, random.Random(seed))) for seed in range(5)}
    assert len(keys) == 1


def test_release_time_values_do_not_enter_the_key():
    batch_a, batch_b = OpBatch(), OpBatch()
    for batch, release in ((batch_a, 0.5), (batch_b, 2.5)):
        first = batch.add_op("a", OpKind.GPU_COMPUTE, "gpu", 1.0, ())
        batch.add_op("b", OpKind.CPU_UPDATE, "cpu", 2.0, (first,), not_before=release)
    assert shape_key(batch_a) == shape_key(batch_b)


def test_release_time_structure_does_enter_the_key():
    batch_a, batch_b = OpBatch(), OpBatch()
    for batch, release in ((batch_a, 0.5), (batch_b, 0.0)):
        first = batch.add_op("a", OpKind.GPU_COMPUTE, "gpu", 1.0, ())
        batch.add_op("b", OpKind.CPU_UPDATE, "cpu", 2.0, (first,), not_before=release)
    assert shape_key(batch_a) != shape_key(batch_b)


def test_resource_and_dependency_changes_change_the_key():
    def build(resource: str, with_dep: bool) -> OpBatch:
        batch = OpBatch()
        first = batch.add_op("a", OpKind.GPU_COMPUTE, "gpu", 1.0, ())
        batch.add_op("b", OpKind.CPU_UPDATE, resource, 2.0,
                     (first,) if with_dep else ())
        return batch

    base = shape_key(build("cpu", True))
    assert shape_key(build("link", True)) != base
    assert shape_key(build("cpu", False)) != base


def test_keys_are_invariant_to_process_history():
    topology = random_topology(random.Random(11), 25)
    first = batch_from(topology, random.Random(0))
    # Unrelated op construction in between: another batch and an eager op.
    OpBatch().add_op("other", OpKind.GPU_COMPUTE, "gpu", 1.0, ())
    SimOp("eager", OpKind.GPU_COMPUTE, "gpu", 1.0)
    second = batch_from(topology, random.Random(0))
    assert second.rows == first.rows
    assert second.release_times == first.release_times
    assert shape_key(first) == shape_key(second)


def test_shape_key_is_structured():
    topology = random_topology(random.Random(3), 10)
    key = shape_key(batch_from(topology, random.Random(0)))
    assert isinstance(key, ShapeKey)
    assert key.op_count == 10
    assert shape_key(OpBatch()).op_count == 0


def test_training_scenarios_differing_in_knob_values_share_a_key():
    cases = [_prepared(**TRAIN_BASE, cpu_cores_per_gpu=cores) for cores in (4, 16)]
    assert cases[0].key == cases[1].key
    assert cases[0].terms.tobytes() != cases[1].terms.tobytes()
    batches = [_fresh_rows(case) for case in cases]
    assert shape_key(batches[0]) == shape_key(batches[1])


# ------------------------------------------------------- topology-key soundness
# The group runner trusts the training adapter's topology key to stand for the
# shape of rows it never builds.  The reference is what the runner grouped by
# before templates: the strategy, iteration count and op count, plus
# shape_key() of each scenario's freshly built rows.


def _prepared(**params) -> PreparedCase:
    from repro.experiments.base import _prepare_training_case

    policy = ExecutionPolicy.resolve(env_fields=SIMULATION_FIELDS)
    return _prepare_training_case(policy, **params)


def _fresh_rows(case: PreparedCase) -> OpBatch:
    from repro.experiments.base import _build_training_case

    return _build_training_case(case.payload)


def assert_key_is_sound(scenarios) -> int:
    """Check the topology key against fresh rows; return the group count.

    The key must partition the prepared scenarios exactly like the reference,
    and each group's template (its first member's rows) must evaluate every
    member's duration column to the bytes of that member's own rows.
    """
    refs_of_key = defaultdict(set)
    keys_of_ref = defaultdict(set)
    members = defaultdict(list)
    for params in scenarios:
        case = _prepared(**params)
        if not isinstance(case, PreparedCase):  # out of memory: never grouped
            continue
        batch = _fresh_rows(case)
        salt = (case.payload.job.strategy.name, case.payload.iterations, len(batch.rows))
        ref = (salt, shape_key(batch))
        key = (case.key, case.resource_names)
        refs_of_key[key].add(ref)
        keys_of_ref[ref].add(key)
        members[key].append((case.terms, batch))
    assert all(len(refs) == 1 for refs in refs_of_key.values()), "key merges shapes"
    assert all(len(keys) == 1 for keys in keys_of_ref.values()), "key splits a shape"
    for group in members.values():
        template = group[0][1]
        columns = template_columns(template, [terms for terms, _ in group])
        for column, (_, batch) in zip(columns, group):
            assert column.durations.tobytes() == scenario_column(batch).durations.tobytes()
    return len(members)


@pytest.fixture(scope="module")
def experiment_scenarios():
    """Every scenario the 21 experiments' sweeps hand to the group runner."""
    from repro.experiments import EXPERIMENT_MODULES
    from repro.experiments.base import run_experiment

    captured = []
    original = runner.run_scenario_group

    def capturing(*, worker, scenarios):
        captured.extend(dict(params) for params in scenarios)
        return original(worker=worker, scenarios=scenarios)

    policy = ExecutionPolicy.resolve(jobs=1, use_cache=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "run_scenario_group", capturing)
        for experiment_id in EXPERIMENT_MODULES:
            run_experiment(experiment_id, policy=policy)
    return captured


#: Deep Optimizer States at stride 2 over 7B's 17 subgroups: static fractions
#: 0.1 and 0.12 pin {16} and {15, 16}.  Subgroup 15 is a stride hit, so both
#: plans put the same subgroups on the GPU; only the residents tell apart two
#: different op graphs (a resident is not prefetched).
RESIDENT_ONLY_PAIR = [
    {"model": "7B", "strategy": "deep-optimizer-states", "update_stride": 2,
     "static_gpu_fraction": fraction, "iterations": 2}
    for fraction in (0.1, 0.12)
]


def test_topology_key_partitions_the_experiment_sweeps_like_fresh_rows(
    experiment_scenarios,
):
    assert len(experiment_scenarios) > 100
    groups = assert_key_is_sound(experiment_scenarios)
    assert groups < len(experiment_scenarios)


def test_topology_key_tells_static_residents_apart():
    first, second = (_prepared(**params) for params in RESIDENT_ONLY_PAIR)
    assert first.key[3] == second.key[3]  # the same GPU/CPU targets
    assert first.key != second.key
    assert assert_key_is_sound(RESIDENT_ONLY_PAIR) == 2


_TRAINING_PARAMS = st.fixed_dictionaries({
    "model": st.sampled_from(["7B", "10B"]),
    "strategy": st.sampled_from(["deep-optimizer-states", "twinflow", "zero3-offload"]),
    "static_gpu_fraction": st.sampled_from([0.0, 0.06, 0.1, 0.12, 0.3]),
    "update_stride": st.sampled_from([0, 2, 3]),
    "microbatch_size": st.sampled_from([1, 2, 16]),
    "cpu_cores_per_gpu": st.sampled_from([None, 4, 16]),
    "iterations": st.just(2),
})


@settings(max_examples=25, deadline=None)
@given(st.lists(_TRAINING_PARAMS, min_size=2, max_size=6))
@example(RESIDENT_ONLY_PAIR)
def test_topology_key_partitions_drawn_scenarios_like_fresh_rows(scenarios):
    assert_key_is_sound(scenarios)


# ----------------------------------------------------------- stacked schedules


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacked_schedules_match_solo_kernels_bit_for_bit(seed):
    topology = random_topology(random.Random(seed), 60)
    batches = [batch_from(topology, random.Random(100 + index)) for index in range(6)]
    keys = {shape_key(batch) for batch in batches}
    assert len(keys) == 1

    plan = compile_plan(batches[0], RESOURCES)
    stacked = schedule_group(plan, [scenario_column(batch) for batch in batches])
    engine = _engine()
    for index, batch in enumerate(batches):
        stacked_triples = _triples(stacked.schedule_for(index, rows=batch.rows))
        assert stacked_triples == _triples(engine.run_vector(batch))
        assert stacked_triples == _triples(engine.run_batch(batch))


@pytest.mark.parametrize("seed", [1, 2])
def test_solo_stack_equals_a_one_scenario_stacked_pass(seed):
    """A group too small to stack reaches the finalizer as ``stack_solo`` of its
    own kernel run: same columns, ids and schedule as a stacked pass of one."""
    batch = batch_from(random_topology(random.Random(seed), 60), random.Random(seed))
    solo = stack_solo(_engine().run_vector(batch))
    stacked = schedule_group(compile_plan(batch, RESOURCES), [scenario_column(batch)])
    assert solo.num_scenarios == stacked.num_scenarios == 1
    assert solo.plan.op_count == stacked.plan.op_count == len(batch)
    assert solo.starts.tobytes() == stacked.starts.tobytes()
    assert solo.ends.tobytes() == stacked.ends.tobytes()
    assert _triples(solo.schedule_for(0)) == _triples(_engine().run_batch(batch))


def test_stacked_columns_are_exact_per_scenario():
    topology = random_topology(random.Random(5), 30)
    batches = [batch_from(topology, random.Random(index)) for index in range(4)]
    plan = compile_plan(batches[0], RESOURCES)
    stacked = schedule_group(plan, [scenario_column(batch) for batch in batches])
    assert stacked.num_scenarios == 4
    engine = _engine()
    for index, batch in enumerate(batches):
        solo = engine.run_vector(batch)
        starts, ends = stacked.columns_for(index)
        for op_id in range(len(batch)):  # an op's id is its row
            assert starts[op_id] == solo.op_start(op_id)
            assert ends[op_id] == solo.op_end(op_id)


def test_schedule_group_rejects_mismatched_columns():
    topology = random_topology(random.Random(9), 12)
    batch = batch_from(topology, random.Random(0))
    other = batch_from(random_topology(random.Random(10), 13), random.Random(0))
    plan = compile_plan(batch, RESOURCES)
    with pytest.raises(ConfigurationError, match="group batches by shape_key"):
        schedule_group(plan, [scenario_column(batch), scenario_column(other)])
    with pytest.raises(ConfigurationError, match="at least one"):
        schedule_group(plan, [])


def test_schedule_for_requires_rows():
    topology = random_topology(random.Random(4), 8)
    batch = batch_from(topology, random.Random(0))
    plan = compile_plan(batch, RESOURCES)
    stacked = schedule_group(plan, [scenario_column(batch)])
    with pytest.raises(ConfigurationError, match="rows"):
        stacked.schedule_for(0)
    stacked.rows = batch.rows
    assert stacked.schedule_for(0).makespan > 0


def test_scenario_column_detaches_the_float_inputs():
    batch = OpBatch()
    first = batch.add_op("a", OpKind.GPU_COMPUTE, "gpu", 1.5, ())
    batch.add_op("b", OpKind.CPU_UPDATE, "cpu", 2.5, (first,), not_before=0.75)
    column = scenario_column(batch)
    assert isinstance(column, ScenarioColumn)
    assert column.durations.tolist() == [1.5, 2.5]
    assert first == 0
    assert column.release_times == {1: 0.75}


# ------------------------------------------------------------ sweep equality


def _grid(axis_values) -> SweepSpec:
    return SweepSpec.build({"cpu_cores_per_gpu": list(axis_values)}, TRAIN_BASE)


def test_batch_sweep_is_byte_identical_to_scenario_sweep():
    spec = _grid(range(2, 8))
    batch = SweepRunner(run_training, use_cache=False).run(spec)
    assert _projection(batch) == _projection(_per_scenario(run_training, spec))


def test_mixed_strategy_grid_splits_into_groups_and_stays_identical():
    # fig16-style: two strategies = two DAG shapes in one grid, plus an OOM-free
    # knob axis; every scenario must still match its per-scenario twin.
    spec = SweepSpec.build(
        {
            "strategy": ["deep-optimizer-states", "zero3-offload"],
            "cpu_cores_per_gpu": [4, 8],
        },
        {"model": "7B", "iterations": 2},
    )
    batch = SweepRunner(run_training, use_cache=False).run(spec)
    assert _projection(batch) == _projection(_per_scenario(run_training, spec))


def test_pool_batch_sweep_matches_serial(tmp_path):
    spec = _grid(range(2, 6))
    serial = SweepRunner(run_training, use_cache=False).run(spec)
    pool = SweepRunner(run_training, jobs=2, use_cache=False).run(spec)
    assert _projection(pool) == _projection(serial)


@pytest.fixture
def stacked_groups(monkeypatch):
    """Sizes of the groups the in-process group runner stacks, in order."""
    sizes = []

    def counting_schedule_group(plan, columns):
        sizes.append(len(columns))
        return schedule_group(plan, columns)

    monkeypatch.setattr(batching, "schedule_group", counting_schedule_group)
    return sizes


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
@pytest.mark.parametrize("size", [STACK_MIN_SCENARIOS - 1, STACK_MIN_SCENARIOS],
                         ids=["below-threshold", "at-threshold"])
def test_groups_either_side_of_the_stacking_threshold_match_per_scenario(
    stacked_groups, jobs, size
):
    # One shape group of ``size`` scenarios per chunk: serial runs one chunk,
    # a two-process pool two.  Below the threshold each member is scheduled
    # alone on the vector kernel; at it, the group takes one stacked pass.
    spec = _grid(range(2, 2 + size * jobs))
    result = SweepRunner(run_training, jobs=jobs, use_cache=False).run(spec)
    assert _projection(result) == _projection(_per_scenario(run_training, spec))
    if jobs == 1:  # pool children count in their own processes
        assert stacked_groups == ([size] if size >= STACK_MIN_SCENARIOS else [])


def test_one_chunk_mixes_stacked_and_solo_groups(stacked_groups):
    # Four deep-optimizer-states points stack; two zero3-offload points share
    # another shape but stay below the threshold and run solo.  An OOM point
    # is declined in prepare and keeps its position.
    base = {"model": "20B", "iterations": 2}
    scenarios = (
        [{"strategy": "deep-optimizer-states", "cpu_cores_per_gpu": cores}
         for cores in (2, 3, 4, 5)]
        + [{"strategy": "zero3-offload", "microbatch_size": 16}]
        + [{"strategy": "zero3-offload", "cpu_cores_per_gpu": cores} for cores in (2, 3)]
    )
    spec = [Scenario.from_params({**base, **params}) for params in scenarios]
    result = SweepRunner(run_training, use_cache=False).run(spec)
    assert stacked_groups == [STACK_MIN_SCENARIOS]
    assert result.records[4].value.oom
    assert _projection(result) == _projection(_per_scenario(run_training, spec))


def test_batch_cache_entries_serve_scenario_runs(tmp_path):
    spec = _grid(range(2, 6))
    first = SweepRunner(run_training, use_cache=True, cache_dir=tmp_path).run(spec)
    total = len(list(spec.scenarios()))
    assert first.cache_misses == total
    # Every entry holds exactly what the plain worker returns for its scenario.
    runner = SweepRunner(run_training, use_cache=True, cache_dir=tmp_path)
    cached = SweepResult(
        records=[SweepRecord(scenario=scenario, value=runner._cache_load(scenario),
                             from_cache=True) for scenario in spec.scenarios()],
        cache_hits=total, cache_misses=0, jobs=1,
    )
    assert _projection(cached) == _projection(_per_scenario(run_training, spec))
    second = runner.run(spec)
    assert second.cache_hits == total
    assert second.cache_misses == 0
    assert _projection(second) == _projection(first)


def test_auto_mode_batches_training_and_leaves_plain_workers_alone():
    assert is_batchable(run_training)
    assert not is_batchable(plain_worker)
    assert SweepRunner(run_training, use_cache=False)._dispatches_groups()
    assert SweepRunner(run_training, jobs=2, use_cache=False)._dispatches_groups()
    # The cluster executor keeps one task per scenario.
    assert not SweepRunner(run_training, executor="cluster")._dispatches_groups()
    plain = SweepRunner(plain_worker, use_cache=False)
    assert not plain._dispatches_groups()
    result = plain.run(SweepSpec.build({"x": [1, 2, 3]}, None))
    assert [record.value for record in result.records] == [2, 4, 6]


def test_sweep_mode_is_validated():
    # The knob is gone: grouping is the code's decision, not the policy's.
    with pytest.raises(ConfigurationError, match="sweep_mode"):
        ExecutionPolicy.resolve(sweep_mode="batch")
    with pytest.raises(TypeError, match="sweep_mode"):
        SweepRunner(run_training, sweep_mode="batch")


def test_group_trampoline_falls_back_without_an_adapter():
    values = run_scenario_group(
        worker=f"{plain_worker.__module__}:{plain_worker.__qualname__}",
        scenarios=[{"x": 5}, {"x": 7}],
    )
    assert values == [10, 14]


def test_batch_mode_emits_one_progress_event_per_scenario():
    events = []
    spec = _grid(range(2, 6))
    SweepRunner(run_training, use_cache=False, progress=events.append).run(spec)
    assert [event["completed"] for event in events] == [1, 2, 3, 4]
    assert all(event["total"] == 4 for event in events)
    assert all(not event["cached"] for event in events)
    assert all(event["wall_time"] >= 0.0 for event in events)


def test_topology_key_tells_template_slot_choices_apart():
    # Flushing gradients to the host stages them back with p/m/v: the same op
    # graph as keeping them on the GPU, but the prefetch divides 4 * p instead
    # of 3 * p, so the two must not share a template.
    from repro.core.engine import DeepOptimizerStates, DeepOptimizerStatesConfig
    from repro.training.config import TrainingJobConfig
    from repro.training.simulation import duration_terms, prepare_simulation, topology_key

    jobs = [
        TrainingJobConfig(
            model="7B", iterations=2, warmup_iterations=0,
            strategy=DeepOptimizerStates(DeepOptimizerStatesConfig(
                update_stride=2, keep_gpu_scheduled_gradients_on_gpu=keep)),
        ).resolve()
        for keep in (True, False)
    ]
    batches = [prepare_simulation(job, 2).batch for job in jobs]
    assert shape_key(batches[0]) == shape_key(batches[1])
    assert topology_key(jobs[0], 2) != topology_key(jobs[1], 2)
    for job, batch in zip(jobs, batches):
        (column,) = template_columns(batch, [duration_terms(job)])
        assert column.durations.tobytes() == scenario_column(batch).durations.tobytes()


def test_stacked_members_never_build_rows(monkeypatch):
    from repro.experiments import base

    built = []
    original = base.prepare_simulation

    def counting(job, iterations, **kwargs):
        prepared = original(job, iterations, **kwargs)
        built.append(prepared.op_count)
        return prepared

    monkeypatch.setattr(base, "prepare_simulation", counting)
    spec = _grid(range(2, 10))
    result = SweepRunner(run_training, use_cache=False).run(spec)
    assert len(built) == 1  # the template only
    assert _projection(result) == _projection(_per_scenario(run_training, spec))


def test_a_batched_chunk_resolves_the_policy_once(monkeypatch):
    calls = []
    original = ExecutionPolicy.resolve.__func__

    def counting(cls, *args, **kwargs):
        calls.append(kwargs.get("env_fields"))
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(ExecutionPolicy, "resolve", classmethod(counting))
    scenarios = [{**TRAIN_BASE, "cpu_cores_per_gpu": cores} for cores in range(2, 66)]
    values = run_scenario_group(
        worker=f"{run_training.__module__}:{run_training.__qualname__}",
        scenarios=scenarios,
    )
    assert len(values) == 64
    assert calls == [SIMULATION_FIELDS]


def _manifest_without_timestamps(cache_dir) -> dict:
    manifest = cache.load_manifest(cache_dir)
    for entry in manifest["entries"].values():
        entry.pop("created_at")
    return manifest


def test_batched_sweep_merges_the_manifest_once_per_chunk(tmp_path, monkeypatch):
    merges = []
    original = cache.record_entries

    def counting(cache_dir, entries):
        entries = list(entries)
        merges.append(len(entries))
        return original(cache_dir, entries)

    monkeypatch.setattr(runner, "record_entries", counting)
    spec = _grid(range(2, 42))
    SweepRunner(run_training, use_cache=True, cache_dir=tmp_path / "grouped").run(spec)
    assert merges == [40]  # one serial chunk

    # The per-scenario path streams records in batches of 32; the manifest
    # it leaves is the same but for the creation stamps.
    merges.clear()
    monkeypatch.setattr(SweepRunner, "_dispatches_groups", lambda self: False)
    SweepRunner(run_training, use_cache=True, cache_dir=tmp_path / "single").run(spec)
    assert merges == [32, 8]
    assert _manifest_without_timestamps(tmp_path / "grouped") == \
        _manifest_without_timestamps(tmp_path / "single")


def test_template_columns_need_a_slot_pair_per_row_and_no_release_times():
    topology = random_topology(random.Random(6), 10)
    batch = batch_from(topology, random.Random(0))  # add_op records no slots
    with pytest.raises(ConfigurationError, match="one term-slot pair per row"):
        template_columns(batch, [[1.0, 2.0]])
    batch.term_slots.extend([(0, 1)] * len(batch))
    batch.release_times[3] = 0.5
    with pytest.raises(ConfigurationError, match="no release times"):
        template_columns(batch, [[1.0, 2.0]])
    batch.release_times.clear()
    (column,) = template_columns(batch, [[1.0, 2.0]])
    assert column.durations.tolist() == [0.5] * len(batch)
