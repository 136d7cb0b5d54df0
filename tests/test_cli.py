"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_presets_runs(capsys):
    assert main(["list-presets"]) == 0
    output = capsys.readouterr().out
    assert "20B" in output
    assert "jlse-4xh100" in output
    assert "deep-optimizer-states" in output
    assert "fig7" in output


def test_stride_command_reports_equation1(capsys):
    assert main(["stride", "--machine", "jlse-4xh100"]) == 0
    output = capsys.readouterr().out
    assert "Equation 1 ratio" in output
    assert "Selected stride    : 2" in output


def test_stride_command_with_core_override(capsys):
    assert main(["stride", "--machine", "jlse-4xh100", "--cores-per-gpu", "10"]) == 0
    output = capsys.readouterr().out
    assert "B params/s" in output


def test_compare_command_prints_speedup(capsys):
    code = main(
        [
            "compare",
            "--model", "7B",
            "--iterations", "3",
            "--strategies", "zero3-offload", "deep-optimizer-states",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "iteration_s" in output
    assert "speedup over ZeRO-3 offload" in output


def test_experiment_command_runs_table2(capsys):
    assert main(["experiment", "table2"]) == 0
    output = capsys.readouterr().out
    assert "[table2]" in output
    assert "fp32_optimizer_gib" in output


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "fig99"])


def test_parser_requires_a_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_sweep_command_runs_grid_and_hits_cache(tmp_path, capsys):
    args = [
        "sweep",
        "--models", "7B",
        "--strategies", "zero3-offload,deep-optimizer-states",
        "--iterations", "2",
        "--cache-dir", str(tmp_path),
        "--json", str(tmp_path / "result.json"),
    ]
    assert main(args) == 0
    output = capsys.readouterr().out
    assert "2 scenarios (0 cached, 2 computed)" in output
    assert "iteration_s" in output
    assert (tmp_path / "result.json").exists()

    # A second invocation with the same grid is served entirely from the cache.
    assert main(args[:-2]) == 0
    output = capsys.readouterr().out
    assert "2 scenarios (2 cached, 0 computed)" in output


def test_sweep_command_with_extra_axis_and_jobs(tmp_path, capsys):
    assert main([
        "sweep",
        "--models", "7B",
        "--strategies", "deep-optimizer-states",
        "--axis", "microbatch_size=1,2",
        "--iterations", "2",
        "--jobs", "2",
        "--no-cache",
        "--cache-dir", str(tmp_path),
    ]) == 0
    output = capsys.readouterr().out
    assert "microbatch_size" in output
    assert "2 scenarios (0 cached, 2 computed) with jobs=2" in output


def test_experiment_command_forwards_kwargs(capsys):
    assert main(["experiment", "fig2", "--models", "7B", "--set", "iterations=2"]) == 0
    output = capsys.readouterr().out
    assert "[fig2]" in output
    # Only the requested model ran.
    assert "20B" not in output


def test_experiment_command_rejects_malformed_set():
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        main(["experiment", "fig2", "--set", "iterations"])


def test_sweep_command_with_machine_axis_and_cache_stats(tmp_path, capsys):
    assert main([
        "sweep",
        "--models", "7B",
        "--strategies", "deep-optimizer-states",
        "--machines", "jlse-4xh100,4xv100",
        "--iterations", "2",
        "--cache-dir", str(tmp_path),
        "--cache-stats",
    ]) == 0
    output = capsys.readouterr().out
    assert "4xv100" in output and "jlse-4xh100" in output
    assert "2 scenarios (0 cached, 2 computed)" in output
    assert "live entries: 2" in output
    assert "repro.experiments.base.run_training: 2" in output
    # --axis machine=... is the equivalent generic spelling.
    assert main([
        "sweep",
        "--models", "7B",
        "--strategies", "deep-optimizer-states",
        "--axis", "machine=jlse-4xh100,4xv100",
        "--iterations", "2",
        "--cache-dir", str(tmp_path),
    ]) == 0
    assert "2 cached, 0 computed" in capsys.readouterr().out


def test_sweep_command_cache_evict(tmp_path, capsys):
    args = ["sweep", "--models", "7B", "--strategies", "zero3-offload",
            "--iterations", "2", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    # Eviction is a maintenance mode: no sweep runs, stats can be chained.
    assert main(["sweep", "--cache-evict", "all", "--cache-stats",
                 "--cache-dir", str(tmp_path)]) == 0
    output = capsys.readouterr().out
    assert "evicted 1 cache files" in output
    assert "live entries: 0" in output
    assert "scenarios" not in output
    assert list(tmp_path.glob("*.pkl")) == []
    # Bare --cache-evict defaults to the 'stale' mode and removes nothing live.
    assert main(args) == 0
    capsys.readouterr()
    assert main(["sweep", "--cache-evict", "--cache-dir", str(tmp_path)]) == 0
    assert "[stale]" in capsys.readouterr().out
    assert len(list(tmp_path.glob("*.pkl"))) == 1


def test_sweep_command_numeric_executor(tmp_path, capsys):
    assert main([
        "sweep",
        "--worker", "numeric",
        "--models", "nano",
        "--strategies", "zero3-offload,deep-optimizer-states",
        "--iterations", "2",
        "--cache-dir", str(tmp_path),
    ]) == 0
    output = capsys.readouterr().out
    assert "final_loss" in output
    assert "2 scenarios" in output
    # The numerical-equivalence claim, visible from the CLI: both strategies
    # produce the same loss column.
    lines = [line for line in output.splitlines() if line.startswith("nano")]
    assert len(lines) == 2
    assert lines[0].split()[-2] == lines[1].split()[-2]  # final_loss column


def test_sweep_command_numeric_rejects_machines():
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        main(["sweep", "--worker", "numeric", "--machines", "jlse-4xh100"])


def test_sweep_worker_flag_replaces_executor_alias(tmp_path, capsys):
    """--worker numeric is the only spelling; --executor names dispatch backends."""
    assert main([
        "sweep",
        "--worker", "numeric",
        "--models", "nano",
        "--strategies", "zero3-offload",
        "--iterations", "2",
        "--cache-dir", str(tmp_path),
    ]) == 0
    output = capsys.readouterr().out
    assert "final_loss" in output
    for alias in ("numeric", "training"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--executor", alias])
    assert "invalid choice" in capsys.readouterr().err


def test_sweep_parser_accepts_cluster_flags():
    args = build_parser().parse_args([
        "sweep", "--executor", "cluster", "--workers", "2",
        "--bind", "127.0.0.1:7931", "--lease-timeout", "5", "--progress",
    ])
    assert args.executor == "cluster"
    assert args.workers == 2
    assert args.bind == "127.0.0.1:7931"
    assert args.lease_timeout == 5.0
    assert args.progress
    # The retry bound is declared as policy (--middleware retry:attempts=N).
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--max-retries", "1"])


def test_worker_parser_accepts_daemon_flags():
    args = build_parser().parse_args([
        "worker", "--connect", "127.0.0.1:7931", "--id", "w1",
        "--heartbeat", "0", "--retry-for", "30",
    ])
    assert args.connect == "127.0.0.1:7931"
    assert args.worker_id == "w1"
    assert args.heartbeat == 0.0
    assert args.retry_for == 30.0
    with pytest.raises(SystemExit):
        build_parser().parse_args(["worker"])  # --connect is required


def test_sweep_progress_streams_completion_lines(tmp_path, capsys):
    command = [
        "sweep", "--worker", "numeric", "--models", "nano",
        "--strategies", "zero3-offload", "--iterations", "2",
        "--cache-dir", str(tmp_path), "--progress",
    ]
    assert main(command) == 0
    output = capsys.readouterr().out
    assert "[1/1]" in output
    assert "worker=local" in output and "cache=miss" in output
    # A repeat invocation streams the cache hit the same way.
    assert main(command) == 0
    output = capsys.readouterr().out
    assert "worker=cache" in output and "cache=hit" in output


def test_config_json_reports_executor_fields(monkeypatch, capsys):
    import json

    from repro.runtime import POLICY_FIELDS

    # A malformed REPRO_* variable in the invoking shell makes `config` exit 1
    # by design; scrub them all so only the two set below are in play.
    for spec in POLICY_FIELDS.values():
        monkeypatch.delenv(spec.env_var, raising=False)
    monkeypatch.setenv("REPRO_EXECUTOR", "cluster")
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert main(["config", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executor"] == {"value": "cluster", "source": "env"}
    assert payload["workers"] == {"value": 4, "source": "env"}


def test_compare_command_with_no_cache(tmp_path, capsys):
    assert main([
        "compare",
        "--model", "7B",
        "--iterations", "2",
        "--strategies", "zero3-offload", "deep-optimizer-states",
        "--no-cache",
        "--cache-dir", str(tmp_path),
    ]) == 0
    output = capsys.readouterr().out
    assert "speedup over ZeRO-3 offload" in output
    # --no-cache leaves the cache directory untouched.
    assert list(tmp_path.glob("*.pkl")) == []
