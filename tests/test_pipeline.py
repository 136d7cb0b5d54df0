"""repro.pipeline: stage-graph IR, schedule passes, lowering and simulation.

The contract under test (``docs/pipeline.md``):

* every schedule pass emits a valid IR — one ``F``/``B``/``W`` per
  ``(stage, microbatch)`` in F->B->W order, with derivable SEND/RECV pairing
  (:func:`repro.pipeline.validate_schedule`, exercised property-style over
  random grids);
* lowering produces op rows the ordinary engine schedules without ever
  double-booking a stage resource (``Schedule.validate``), byte-identically
  on the vector kernel and on the heap oracle fed through either admission
  path (eager objects or batched rows);
* the zero-bubble pass never loses to 1F1B on the same grid, and on the
  paper-preset acceptance grid (4 stages, 4..32 microbatches) it wins
  *strictly* at every point;
* the family is a first-class scenario axis: registry discovery, policy
  fields (``scenario_family``, ``pipeline_schedule``), CLI subcommand and the
  sweep worker all agree, and sweep results are byte-identical across
  serial/pool executors and to the heap oracle.
"""

import json
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import STRATEGIES, build_strategy
from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.common.registry import Registry
from repro.pipeline import (
    SCHEDULES,
    PipeOp,
    PipelineSchedule,
    PipelineTiming,
    ScheduledNode,
    available_schedules,
    build_pipeline_strategy,
    build_schedule,
    insert_comm_nodes,
    lower_schedule,
    pipeline_sweep,
    run_pipeline,
    simulate_pipeline,
    validate_schedule,
)
from repro.runtime import ExecutionPolicy, configure
from repro.sim.engine import SimEngine, VectorSchedule

FAMILIES = ("gpipe", "1f1b", "zb")

#: The acceptance grid: paper-preset timing, 4 stages, microbatches 4..32.
ACCEPTANCE_MICROBATCHES = (4, 8, 16, 32)


# ---------------------------------------------------------------- registry


def test_registry_canonicalizes_names_and_aliases():
    registry = Registry("test family")
    registry.register("My-Thing", lambda: "built", aliases=("Other_Name",),
                      description="a thing")
    assert registry.names() == ["my-thing"]
    for variant in ("my-thing", "MY_THING", "other-name", "other_name"):
        assert variant in registry
        assert registry.get(variant).name == "my-thing"
    assert registry.build("Other_Name") == "built"
    with pytest.raises(ConfigurationError, match="test family"):
        registry.get("unknown")
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.register("my_thing", lambda: None)


def test_schedule_registry_lists_all_families_with_aliases():
    assert available_schedules() == list(FAMILIES)
    assert SCHEDULES.get("zero-bubble").name == "zb"
    assert SCHEDULES.get("pipedream-flush").name == "1f1b"
    assert SCHEDULES.get("fill-drain").name == "gpipe"


def test_offload_strategies_share_the_registry_mechanism():
    assert STRATEGIES.names() == [
        "zero3-offload", "twinflow", "deep-optimizer-states",
    ]
    # Historical aliases keep resolving through the registry.
    assert type(build_strategy("dos")).__name__ == "DeepOptimizerStates"
    assert type(build_strategy("zero3")).__name__ == "Zero3OffloadBaseline"
    assert type(build_strategy("zero-offload++")).__name__ == "TwinFlowBaseline"
    with pytest.raises(ConfigurationError, match="offload strategy"):
        build_strategy("fsdp")


def test_build_pipeline_strategy_rejects_unknown_schedules():
    with pytest.raises(ConfigurationError, match="pipeline schedule"):
        build_pipeline_strategy("interleaved")


# ---------------------------------------------------------------------- IR


def test_scheduled_node_renders_compute_and_comm_forms():
    assert str(ScheduledNode(PipeOp.F, stage=0, microbatch=3)) == "F3@0"
    send = ScheduledNode(PipeOp.SEND, stage=0, microbatch=3, peer=1,
                         payload=PipeOp.F)
    assert str(send) == "SEND[F]3@0->1"


def test_insert_comm_nodes_is_idempotent_and_validates():
    schedule = build_schedule("1f1b", stages=3, microbatches=4)
    assert not schedule.has_comm_nodes
    full = insert_comm_nodes(schedule)
    assert full.has_comm_nodes
    validate_schedule(full)
    assert insert_comm_nodes(full) is full


def test_validate_schedule_rejects_broken_orders():
    nodes = lambda *pairs: tuple(
        ScheduledNode(op, stage, mb) for op, stage, mb in pairs
    )
    # B before F violates the per-microbatch F->B->W order.
    bad_order = PipelineSchedule(
        name="bad", stages=1, microbatches=1,
        orders=(nodes((PipeOp.B, 0, 0), (PipeOp.F, 0, 0), (PipeOp.W, 0, 0)),),
    )
    with pytest.raises(ConfigurationError, match="F->B->W"):
        validate_schedule(bad_order)
    # A missing W is incomplete.
    incomplete = PipelineSchedule(
        name="bad", stages=1, microbatches=1,
        orders=(nodes((PipeOp.F, 0, 0), (PipeOp.B, 0, 0)),),
    )
    with pytest.raises(ConfigurationError, match="missing a compute node"):
        validate_schedule(incomplete)
    # A duplicated F double-books the stage.
    duplicated = PipelineSchedule(
        name="bad", stages=1, microbatches=1,
        orders=(nodes((PipeOp.F, 0, 0), (PipeOp.F, 0, 0), (PipeOp.B, 0, 0),
                      (PipeOp.W, 0, 0)),),
    )
    with pytest.raises(ConfigurationError, match="duplicate"):
        validate_schedule(duplicated)


# ------------------------------------------------------- schedule properties

_GRIDS = st.tuples(st.integers(1, 6), st.integers(1, 12))


@st.composite
def _timings(draw):
    """Random timings under the greedy pass's comm model: light links.

    ``comm <= min(f, b) / 2`` (or exactly zero) keeps the inter-stage hop off
    the critical path the same way the presets do, which is the regime the
    zero-bubble pass's ready-time model matches the engine exactly.
    """
    f = draw(st.floats(0.1, 3.0, allow_nan=False))
    b = draw(st.floats(0.1, 3.0, allow_nan=False))
    w = draw(st.floats(0.0, 3.0, allow_nan=False))
    if draw(st.booleans()):
        comm = 0.0
    else:
        comm = draw(st.floats(0.0, min(f, b) / 2, allow_nan=False))
    return PipelineTiming(f_seconds=f, b_seconds=b, w_seconds=w,
                          comm_seconds=comm)


@settings(max_examples=60, deadline=None)
@given(_GRIDS, st.sampled_from(FAMILIES))
def test_every_pass_emits_a_valid_schedule(grid, family):
    """IR invariants hold on every grid: F->B->W per microbatch, completeness,
    comm pairing after insertion."""
    stages, microbatches = grid
    schedule = build_schedule(family, stages=stages, microbatches=microbatches)
    validate_schedule(schedule)
    validate_schedule(insert_comm_nodes(schedule))


@settings(max_examples=30, deadline=None)
@given(_GRIDS, st.sampled_from(FAMILIES), _timings())
def test_lowered_schedules_never_double_book_resources(grid, family, timing):
    """The engine-level schedule passes ``Schedule.validate`` (per-resource
    non-overlap) and runs every emitted op exactly once."""
    stages, microbatches = grid
    result = simulate_pipeline(
        schedule=family, stages=stages, microbatches=microbatches,
        timing=timing,
    )
    result.sim_schedule.validate()
    assert len(result.sim_schedule.ops) == result.op_count
    comm_hops = 2 * (stages - 1) * microbatches  # F and B cross every boundary
    assert result.op_count == 3 * stages * microbatches + 2 * comm_hops


@settings(max_examples=40, deadline=None)
@given(_GRIDS, _timings())
def test_zero_bubble_never_loses_to_1f1b(grid, timing):
    """zb makespan <= 1f1b makespan on the same grid, for any light-link timing."""
    stages, microbatches = grid
    zb = simulate_pipeline(schedule="zb", stages=stages,
                           microbatches=microbatches, timing=timing)
    baseline = simulate_pipeline(schedule="1f1b", stages=stages,
                                 microbatches=microbatches, timing=timing)
    assert zb.makespan_seconds <= baseline.makespan_seconds + 1e-9
    assert zb.bubble_fraction <= baseline.bubble_fraction + 1e-9


def test_zb_wins_strictly_on_the_acceptance_grid():
    """Paper-preset timing, 4 stages, 4..32 microbatches: zb < 1f1b everywhere."""
    for microbatches in ACCEPTANCE_MICROBATCHES:
        results = {
            name: simulate_pipeline(schedule=name, stages=4,
                                    microbatches=microbatches)
            for name in ("1f1b", "zb")
        }
        assert results["zb"].makespan_seconds < results["1f1b"].makespan_seconds, (
            f"zb must beat 1f1b strictly at microbatches={microbatches}"
        )
        assert results["zb"].bubble_fraction < results["1f1b"].bubble_fraction
        # And the bound stays a bound: no schedule beats the bubble-free ideal.
        for result in results.values():
            assert result.makespan_seconds >= result.ideal_seconds - 1e-9


def test_bubble_fraction_decays_with_microbatch_count():
    previous = None
    for microbatches in (2, 4, 8, 16):
        result = simulate_pipeline(schedule="1f1b", stages=4,
                                   microbatches=microbatches)
        if previous is not None:
            assert result.bubble_fraction < previous
        previous = result.bubble_fraction


# -------------------------------------------------------------- lowering


def test_lowering_emits_expected_rows_and_deps():
    timing = PipelineTiming(f_seconds=1.0, b_seconds=1.5, w_seconds=0.5,
                            comm_seconds=0.25, comm_bytes=1 << 20)
    schedule = build_schedule("zb", stages=3, microbatches=2, timing=timing)
    lowered = lower_schedule(schedule, timing)
    by_id = dict(enumerate(lowered.batch.rows))  # an op's id is its row
    # Every node owns exactly one row: ids unique and dense.
    assert sorted(lowered.node_ids.values()) == list(range(lowered.op_count))
    durations = {"F": 1.0, "B": 1.5, "W": 0.5}
    for row in lowered.batch.rows:
        name, kind, resource, duration, deps, phase = row[:6]
        assert all(dep in by_id for dep in deps)
        if phase in durations:
            assert duration == durations[phase]
            assert resource.startswith("stage")
        elif phase == "SEND":
            assert duration == 0.25
            assert resource.startswith("link")
            assert row[7] == 1 << 20  # payload_bytes rides on the link op
        elif phase == "RECV":
            assert duration == 0.0  # a barrier on the consuming stage clock
            assert resource.startswith("stage")


# ------------------------------------------- backend / executor byte-identity


def _heap_batch(engine, batch=None, *, validate=False):
    return engine.run_batch(batch, validate=validate)


def _heap_objects(engine, batch=None, *, validate=False):
    batch.submit_to(engine)
    return engine.run()


@contextmanager
def _kernel_replaced_by(oracle):
    """Route ``simulate_pipeline``'s vector-kernel call to a heap oracle:
    ``_heap_batch`` (batched rows) or ``_heap_objects`` (eager ``SimOp``
    admission), so its metrics derive from the oracle's schedule."""
    original = SimEngine.run_vector
    SimEngine.run_vector = oracle
    try:
        yield
    finally:
        SimEngine.run_vector = original


def _payload(**kwargs) -> str:
    return json.dumps(simulate_pipeline(**kwargs).to_dict(), sort_keys=True)


def test_simulate_pipeline_heap_and_vector_serialize_identically():
    for family in FAMILIES:
        vector = _payload(schedule=family, stages=4, microbatches=8)
        with _kernel_replaced_by(_heap_batch):
            heap = _payload(schedule=family, stages=4, microbatches=8)
        assert heap == vector


def test_simulate_pipeline_runs_on_the_vector_kernel():
    result = simulate_pipeline(schedule="zb", stages=3, microbatches=4)
    assert result.resolved.scheduler == "vector"
    assert isinstance(result.sim_schedule, VectorSchedule)
    assert result.resolved.op_count == result.op_count


def test_objects_and_batch_admission_paths_agree():
    payloads = {}
    for label, oracle in (("batch", _heap_batch), ("objects", _heap_objects)):
        with _kernel_replaced_by(oracle):
            payloads[label] = _payload(schedule="zb", stages=3, microbatches=4)
    assert payloads["batch"] == payloads["objects"]
    assert payloads["batch"] == _payload(schedule="zb", stages=3, microbatches=4)


def _sweep_payload(policy: ExecutionPolicy) -> str:
    results = pipeline_sweep(
        {"schedule": list(FAMILIES), "microbatches": list(ACCEPTANCE_MICROBATCHES)},
        base={"stages": 4},
        policy=policy,
    )
    return json.dumps(sorted((list(key), value) for key, value in results.items()),
                      sort_keys=True)


def test_acceptance_sweep_is_byte_identical_across_executors_and_schedulers():
    """The acceptance grid (schedule x microbatch): identical bytes under
    serial/pool executors and on the heap oracle, with zb strictly under
    1f1b at every grid point."""
    with _kernel_replaced_by(_heap_batch):
        reference = _sweep_payload(ExecutionPolicy(executor="serial", use_cache=False))
    for executor, jobs in (("serial", 1), ("pool", 2)):
        policy = ExecutionPolicy(executor=executor, jobs=jobs, use_cache=False)
        assert _sweep_payload(policy) == reference, (
            f"{executor} diverged from the heap reference bytes"
        )
    grid = {tuple(key): value for key, value in json.loads(reference)}
    for microbatches in ACCEPTANCE_MICROBATCHES:
        zb = grid[("zb", microbatches)]
        baseline = grid[("1f1b", microbatches)]
        assert zb["bubble_fraction"] < baseline["bubble_fraction"]


# ------------------------------------------------------------------ policy


def test_pipeline_schedule_resolves_from_policy_when_omitted(monkeypatch):
    monkeypatch.delenv("REPRO_PIPELINE_SCHEDULE", raising=False)
    assert simulate_pipeline(stages=2, microbatches=2).schedule == "1f1b"
    with configure(pipeline_schedule="zb"):
        assert simulate_pipeline(stages=2, microbatches=2).schedule == "zb"
    monkeypatch.setenv("REPRO_PIPELINE_SCHEDULE", "gpipe")
    assert simulate_pipeline(stages=2, microbatches=2).schedule == "gpipe"
    # An explicit schedule always outranks the ambient policy.
    assert simulate_pipeline(schedule="zb", stages=2,
                             microbatches=2).schedule == "zb"


def test_run_pipeline_ignores_ambient_schedule_policy(monkeypatch):
    """The sweep worker's schedule is cache-keyed, so it must never default
    from the environment: same params => same result, whatever the env says."""
    monkeypatch.setenv("REPRO_PIPELINE_SCHEDULE", "gpipe")
    steered = run_pipeline(stages=2, microbatches=2)
    monkeypatch.delenv("REPRO_PIPELINE_SCHEDULE")
    clean = run_pipeline(stages=2, microbatches=2)
    assert steered["schedule"] == clean["schedule"] == "1f1b"
    assert json.dumps(steered, sort_keys=True) == json.dumps(clean, sort_keys=True)


# --------------------------------------------------------------------- CLI


def test_cli_pipeline_prints_metrics(capsys):
    assert main(["pipeline", "--schedule", "zb", "--stages", "4",
                 "--microbatches", "8"]) == 0
    output = capsys.readouterr().out
    assert "bubble_fraction" in output
    assert "makespan_s" in output


def test_cli_pipeline_json_round_trips(capsys):
    assert main(["pipeline", "--schedule", "zero-bubble", "--stages", "2",
                 "--microbatches", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schedule"] == "zb"  # alias resolved to the canonical name
    assert payload["stages"] == 2
    assert payload["op_count"] == 3 * 2 * 4 + 2 * 2 * 4
    assert 0.0 <= payload["bubble_fraction"] < 1.0


def test_cli_pipeline_list_schedules_covers_both_registries(capsys):
    assert main(["pipeline", "--list-schedules"]) == 0
    output = capsys.readouterr().out
    for name in (*FAMILIES, "zero-bubble", "zero3-offload",
                 "deep-optimizer-states", "twinflow"):
        assert name in output


def test_cli_sweep_pipeline_worker(tmp_path, capsys):
    assert main([
        "sweep", "--worker", "pipeline", "--strategies", "1f1b,zb",
        "--axis", "microbatches=2,4", "--cache-dir", str(tmp_path),
    ]) == 0
    output = capsys.readouterr().out
    assert "bubble_fraction" in output
    assert "zb" in output and "1f1b" in output


def test_cli_sweep_defaults_to_pipeline_worker_via_scenario_family(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.setenv("REPRO_SCENARIO_FAMILY", "pipeline")
    assert main(["sweep", "--axis", "microbatches=2", "--strategies", "zb",
                 "--cache-dir", str(tmp_path)]) == 0
    output = capsys.readouterr().out
    assert "bubble_fraction" in output


def test_cli_config_reports_pipeline_fields(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_PIPELINE_SCHEDULE", "zb")
    assert main(["config", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario_family"] == {"value": "offload", "source": "default"}
    assert payload["pipeline_schedule"] == {"value": "zb", "source": "env"}
