"""Tests for the experiment harness: every table/figure runner produces the paper's shapes.

Heavier experiments are run with a reduced model set so the suite stays fast; the
full-scale versions live in ``benchmarks/``.
"""

import pytest

from repro.experiments import EXPERIMENT_MODULES
from repro.experiments.base import ExperimentResult, run_experiment
from repro.common.errors import ConfigurationError


def test_registry_covers_every_table_and_figure():
    expected = ({"table1", "table2", "eq1"} | {f"fig{i}" for i in range(2, 18)}
                | {"pipe1", "pipe2"})
    assert set(EXPERIMENT_MODULES) == expected


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigurationError):
        run_experiment("fig99")


def test_table1_matches_paper_throughputs():
    result = run_experiment("table1")
    assert isinstance(result, ExperimentResult)
    by_kind = {row["transfer"]: row for row in result.rows}
    assert by_kind["G32<->G16"]["measured_gbps"] > by_kind["H32<->H16"]["measured_gbps"]
    assert by_kind["H16<->G16"]["measured_gbps"] > by_kind["H32->G16"]["measured_gbps"]
    for row in result.rows:
        assert 0.5 <= row["ratio_vs_paper"] <= 1.5


def test_table2_sizes_track_paper_within_15_percent():
    result = run_experiment("table2")
    for row in result.rows:
        assert row["fp16_model_gib"] == pytest.approx(row["paper_fp16_gb"], rel=0.15)
        assert row["fp32_optimizer_gib"] == pytest.approx(row["paper_fp32_opt_gb"], rel=0.15)


def test_eq1_selects_stride_2_on_both_testbeds():
    result = run_experiment("eq1", num_subgroups=20)
    selected = {row["machine"]: row["selected_stride"] for row in result.rows}
    assert all(stride == 2 for stride in selected.values())
    h100_rows = [row for row in result.rows if row["machine"] == "jlse-4xh100"]
    throughputs = {row["candidate_stride"]: row["update_throughput_bpps"] for row in h100_rows}
    assert throughputs[2] > throughputs[3] > throughputs[4] > throughputs[5]


def test_fig2_subgroup_size_insensitivity():
    result = run_experiment("fig2", models=("7B",), iterations=2)
    assert result.rows[0]["max_relative_spread"] < 0.05


def test_fig3_memory_fluctuation():
    result = run_experiment("fig3", model="7B")
    by_config = {row["configuration"]: row for row in result.rows}
    full = by_config["full_activations"]
    ckpt = by_config["activation_checkpointing"]
    assert full["forward_peak_gib"] > ckpt["forward_peak_gib"]
    assert full["update_phase_gib"] < full["forward_peak_gib"]
    assert ckpt["memory_freed_by_backward_gib"] > 0


def test_fig4_pcie_underutilised():
    result = run_experiment("fig4", model="7B")
    for row in result.rows:
        assert row["h2d_fraction_of_peak"] < 0.5
        assert row["d2h_fraction_of_peak"] < 0.5


def test_fig5_interleaving_faster_than_twinflow():
    result = run_experiment("fig5")
    by_strategy = {row["strategy"]: row for row in result.rows}
    assert (
        by_strategy["deep-optimizer-states"]["update_complete_s"]
        < by_strategy["twinflow"]["update_complete_s"]
    )
    assert by_strategy["deep-optimizer-states"]["d2h_busy_s"] > 0


def test_fig6_flush_gap_order_of_magnitude():
    result = run_experiment("fig6", model="7B")
    baseline, dos = result.rows
    assert baseline["per_subgroup_ms"] / dos["per_subgroup_ms"] > 5
    assert baseline["backward_phase_s"] > dos["backward_phase_s"]


def test_fig7_speedup_band():
    result = run_experiment("fig7", models=("7B", "20B"), iterations=3)
    for row in result.rows:
        assert 1.7 <= row["speedup"] <= 3.0
        assert row["dos_backward_s"] < row["zero3_backward_s"]
        assert row["dos_update_s"] < row["zero3_update_s"]


def test_fig8_update_throughput_improvement():
    result = run_experiment("fig8", models=("7B",), iterations=3)
    row = result.rows[0]
    assert row["dos_bpps"] > row["zero3_bpps"]
    assert 1.3 <= row["improvement"] <= 2.6


def test_fig9_end_to_end_speedup_matches_iteration_speedup():
    result = run_experiment("fig9", models=("7B",))
    row = result.rows[0]
    assert row["speedup"] == pytest.approx(row["per_iteration_speedup"], rel=0.1)
    assert row["speedup"] > 1.7


def test_fig10_and_fig11_twinflow_ratio_sweep():
    update = run_experiment("fig10", model="7B", fractions=(0.0, 0.3))
    assert update.rows[1]["twinflow_update_s"] < update.rows[0]["twinflow_update_s"]
    assert all(row["speedup"] > 1.3 for row in update.rows)
    iteration = run_experiment("fig11", model="7B", fractions=(0.0, 0.3))
    assert all(row["speedup"] > 1.3 for row in iteration.rows)


def test_fig12_twinflow_20_percent_band():
    result = run_experiment("fig12", models=("7B",))
    assert 1.3 <= result.rows[0]["speedup"] <= 2.6


def test_fig13_microbatch_oom_at_16():
    result = run_experiment("fig13", model="20B", microbatches=(1, 8, 16))
    by_mb = {row["microbatch"]: row for row in result.rows}
    assert by_mb[16]["zero3_iteration_s"] == "OOM"
    assert by_mb[8]["zero3_iteration_s"] != "OOM"
    assert by_mb[8]["zero3_tflops"] > by_mb[1]["zero3_tflops"]
    assert by_mb[1]["speedup"] > 1.6


def test_fig14_cpu_scaling_plateau():
    result = run_experiment(
        "fig14", model="7B", cores=(10, 38, 48), machines=("jlse-4xh100",)
    )
    rows = {row["cpu_cores_per_gpu"]: row for row in result.rows}
    assert rows[10]["zero3_iteration_s"] > rows[38]["zero3_iteration_s"]
    assert rows[48]["zero3_iteration_s"] == pytest.approx(rows[38]["zero3_iteration_s"], rel=0.02)
    # Deep Optimizer States stays well ahead at every core count and is much less
    # sensitive to the number of CPU cores than the CPU-bound baseline.
    assert all(row["speedup"] > 1.8 for row in result.rows)
    zero3_sensitivity = rows[10]["zero3_iteration_s"] - rows[38]["zero3_iteration_s"]
    dos_sensitivity = rows[10]["dos_iteration_s"] - rows[38]["dos_iteration_s"]
    assert zero3_sensitivity > dos_sensitivity


def test_fig14_declares_a_machine_grid():
    result = run_experiment("fig14", model="7B", cores=(10, 38))
    machines = {row["machine"] for row in result.rows}
    assert machines == {"jlse-4xh100", "polaris-4xa100"}
    # Interleaving beats the blocking baseline on every machine in the grid, and the
    # better-provisioned H100 node runs the same job faster than the A100 node.
    assert all(row["speedup"] > 1.0 for row in result.rows)
    by_key = {(row["machine"], row["cpu_cores_per_gpu"]): row for row in result.rows}
    assert (
        by_key[("jlse-4xh100", 38)]["dos_iteration_s"]
        < by_key[("polaris-4xa100", 38)]["dos_iteration_s"]
    )


def test_fig15_resource_utilisation_ordering():
    result = run_experiment("fig15", model="7B")
    rows = {row["gpu_update_fraction"]: row for row in result.rows}
    assert rows["50%"]["gpu_utilization"] > rows["0%"]["gpu_utilization"]
    assert rows["50%"]["pcie_d2h_gbps"] > rows["0%"]["pcie_d2h_gbps"]
    assert rows["50%"]["tflops"] > rows["33%"]["tflops"] > rows["0%"]["tflops"]


def test_fig16_50_percent_is_optimal():
    result = run_experiment("fig16", models=("7B",))
    row = result.rows[0]
    assert row["machine"] == "jlse-4xh100"
    assert row["best_fraction"] == "50%"
    assert row["dos_50%_bpps"] >= row["dos_33%_bpps"] >= row["dos_25%_bpps"]
    assert row["dos_50%_bpps"] > row["zero3_bpps"]


def test_fig16_validates_on_both_testbeds():
    result = run_experiment("fig16", models=("7B",))
    by_machine = {row["machine"]: row for row in result.rows}
    assert set(by_machine) == {"jlse-4xh100", "4xv100"}
    v100 = by_machine["4xv100"]
    # Paper reference columns exist only for the machine the paper measured.
    assert "paper_50%_bpps" not in v100
    # The §5.4 machine still prefers interleaving over the blocking baseline.
    assert v100["dos_50%_bpps"] > v100["zero3_bpps"]


def test_fig17_speedup_decreases_with_data_parallelism():
    result = run_experiment("fig17", models=("7B",), degrees=(1, 4))
    row = result.rows[0]
    assert row["speedup_dp1"] > row["speedup_dp4"]
    assert row["speedup_dp1"] >= 3.0
    assert row["speedup_dp4"] >= 1.8


def test_experiment_result_formatting():
    result = run_experiment("table2")
    text = result.format()
    assert "[table2]" in text
    assert "model" in text
    assert result.column("model") == ["7B", "8.3B", "10B", "13B", "20B"]


def test_paper_evaluation_and_serve_simulate_never_touch_the_heap_or_eager_paths(monkeypatch):
    """The heap engine and the eager ``SimOp`` builders survive only as test
    oracles: the whole evaluation and a serve ``simulate`` run without them,
    and without drawing a single id from ``SimOp``'s default-id counter (op
    ids are row indices)."""
    from repro.serve import ServeClient, ServerThread
    from repro.sim import ops
    from repro.sim.engine import SimEngine

    def forbidden(*args, **kwargs):
        raise AssertionError("production code reached a test-oracle path")

    class NoDefaultIds:
        def __next__(self):
            raise AssertionError("production code drew a SimOp default id")

    for name in ("run", "run_batch", "submit"):
        monkeypatch.setattr(SimEngine, name, forbidden)
    monkeypatch.setattr(ops, "_op_counter", NoDefaultIds())
    with pytest.raises(AssertionError, match="default id"):
        ops.SimOp("probe", ops.OpKind.CPU_UPDATE, "cpu", 1.0)  # the guard bites
    for experiment_id in sorted(EXPERIMENT_MODULES):
        assert run_experiment(experiment_id).format()
    with ServerThread() as running, ServeClient(running.address) as client:
        report = client.request("simulate", {"model": "7B", "strategy": "twinflow",
                                             "cpu_cores_per_gpu": 8})
    assert report["breakdowns"] and not report["oom"]


@pytest.mark.parametrize("strategy", ["twinflow", "deep-optimizer-states"])
def test_fig5_rows_match_the_eager_update_builders_on_the_heap(strategy):
    """fig5 runs the row builders on the vector kernel; the eager builders on
    the heap engine are the oracle it must reproduce op for op."""
    from repro.core.sim_executor import build_blocking_offload_update, build_interleaved_update
    from repro.experiments.fig05_update_timeline import _simulate
    from repro.hardware.contention import HostContentionModel
    from repro.hardware.presets import get_machine_preset
    from repro.hardware.throughput import ThroughputProfile
    from repro.sim.engine import SimEngine, standard_resources
    from repro.sim.ops import reset_op_counter

    profile = ThroughputProfile.from_machine(get_machine_preset("jlse-4xh100"))
    reset_op_counter()
    plan, schedule, ops, ready = _simulate(strategy, profile, 8, 100_000_000, 3)
    reset_op_counter()
    engine = SimEngine()
    standard_resources(engine)
    sizes = {index: 100_000_000 for index in range(8)}
    if strategy == "twinflow":
        eager_ops = build_blocking_offload_update(engine, profile, plan, sizes)
    else:
        eager_ops = build_interleaved_update(engine, profile, plan, sizes,
                                             contention=HostContentionModel())
    eager = engine.run()
    assert [(item.op.name, item.start, item.end) for item in schedule.ops] == \
        [(item.op.name, item.start, item.end) for item in eager.ops]
    assert ops.params_ready_ops == eager_ops.params_ready_ops
    assert ready == max(eager.by_id(op).end for op in eager_ops.params_ready_ops)
