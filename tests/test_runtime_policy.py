"""ExecutionPolicy: the four-level resolution order and its consumers.

The contract under test (``docs/runtime.md``): every execution knob resolves
through **explicit argument > active ``repro.configure`` context > ``REPRO_*``
environment > default**, in exactly one place
(:meth:`repro.runtime.ExecutionPolicy.resolve`), for every field.  On top of
that order sit the consumers: ``simulate_job`` (and the record of what it
ran), ``Trainer``, ``SweepRunner`` (explicit worker-side serialization) and the
CLI (global flags, the ``repro config`` subcommand).  The path knobs removed
from the policy (``op_backend``, ``scheduler``, ``auto_vector_threshold``,
``sweep_mode``) stay rejected everywhere.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.runtime import POLICY_FIELDS, ExecutionPolicy, configure, policy_context
from repro.sim.engine import VectorSchedule
from repro.sweep import SweepRunner, SweepSpec
from repro.training.config import TrainingJobConfig
from repro.training.simulation import simulate_job
from repro.training.trainer import Trainer

ENV_VARS = [spec.env_var for spec in POLICY_FIELDS.values()]


@pytest.fixture(autouse=True)
def _clean_policy_env(monkeypatch):
    """Policy env vars from the developer's shell must not steer these tests."""
    for env_var in ENV_VARS:
        monkeypatch.delenv(env_var, raising=False)


@pytest.fixture(scope="module")
def job():
    return TrainingJobConfig(model="7B", strategy="deep-optimizer-states",
                             check_memory=False).resolve()


# ------------------------------------------------------------------ precedence

# (field, env text, value the env text parses to, context value, arg value).
# Context values deliberately differ from the env values (and arg from context)
# so each assertion can only pass if the documented level won.
FIELD_CASES = [
    ("jobs", "3", 3, 2, 4),
    ("executor", "cluster", "cluster", "pool", "serial"),
    ("workers", "3", 3, 2, 4),
    ("use_cache", "1", True, False, True),
    ("cache_dir", "/tmp/env-cache", Path("/tmp/env-cache"),
     Path("/tmp/ctx-cache"), Path("/tmp/arg-cache")),
    ("middleware", "timing,logging", ("timing", "logging"),
     ("logging",), ("noop",)),
    ("scenario_family", "pipeline", "pipeline", "offload", "pipeline"),
    ("pipeline_schedule", "zb", "zb", "gpipe", "zb"),
    ("trace", "1", True, False, True),
    ("trace_out", "/tmp/env-trace.json", Path("/tmp/env-trace.json"),
     Path("/tmp/ctx-trace.json"), Path("/tmp/arg-trace.json")),
]

DEFAULTS = {
    "jobs": 1,
    "executor": "auto",
    "workers": 1,
    "use_cache": False,
    "cache_dir": Path.home() / ".cache" / "repro" / "sweeps",
    "middleware": (),
    "scenario_family": "offload",
    "pipeline_schedule": "1f1b",
    "trace": False,
    "trace_out": None,
}


@pytest.mark.parametrize("name,env_text,env_value,ctx_value,arg_value", FIELD_CASES)
def test_field_resolves_arg_over_context_over_env_over_default(
    monkeypatch, name, env_text, env_value, ctx_value, arg_value
):
    spec = POLICY_FIELDS[name]

    resolved = ExecutionPolicy.resolve()
    assert getattr(resolved, name) == DEFAULTS[name]
    assert resolved.sources[name] == "default"

    monkeypatch.setenv(spec.env_var, env_text)
    resolved = ExecutionPolicy.resolve()
    assert getattr(resolved, name) == env_value
    assert resolved.sources[name] == "env"

    with configure(**{name: ctx_value}):
        resolved = ExecutionPolicy.resolve()
        assert getattr(resolved, name) == ctx_value
        assert resolved.sources[name] == "context"

        resolved = ExecutionPolicy.resolve(**{name: arg_value})
        assert getattr(resolved, name) == arg_value
        assert resolved.sources[name] == "arg"


def test_contexts_nest_with_inner_wins_and_fields_merge():
    with configure(pipeline_schedule="zb", jobs=3):
        with configure(pipeline_schedule="gpipe"):
            inner = ExecutionPolicy.resolve()
            assert inner.pipeline_schedule == "gpipe"
            assert inner.jobs == 3  # outer field shows through
        outer = ExecutionPolicy.resolve()
        assert outer.pipeline_schedule == "zb"
    assert ExecutionPolicy.resolve().pipeline_schedule == "1f1b"


def test_context_value_beats_env_even_when_equal_to_default(monkeypatch):
    # A context explicitly pinning the default value must still outvote env.
    monkeypatch.setenv("REPRO_PIPELINE_SCHEDULE", "zb")
    with configure(pipeline_schedule="1f1b"):
        resolved = ExecutionPolicy.resolve()
    assert resolved.pipeline_schedule == "1f1b"
    assert resolved.sources["pipeline_schedule"] == "context"


def test_explicit_argument_shields_a_broken_env_value(monkeypatch):
    # Only the winning level is validated: garbage below it cannot raise.
    monkeypatch.setenv("REPRO_PIPELINE_SCHEDULE", "quantum")
    assert ExecutionPolicy.resolve(pipeline_schedule="zb").pipeline_schedule == "zb"
    with pytest.raises(ConfigurationError, match="quantum"):
        ExecutionPolicy.resolve()


# ------------------------------------------------------------------ validation


def test_falsey_env_booleans_parse(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_USE_CACHE", "off")
    assert ExecutionPolicy.resolve().use_cache is False
    monkeypatch.setenv("REPRO_SWEEP_USE_CACHE", "true")
    assert ExecutionPolicy.resolve().use_cache is True


@pytest.mark.parametrize("kwargs", [
    {"executor": 3},
    {"jobs": "2"},
    {"pipeline_schedule": 5},
    {"middleware": ("retry:attempts=lots",)},
    {"jobs": 0},
    {"jobs": 2.5},
    {"executor": "mainframe"},
    {"workers": 0},
    {"workers": True},
    {"use_cache": "yes"},
    {"cache_dir": 42},
    {"middleware": ("warp",)},
    {"middleware": 42},
    {"scenario_family": "tensor"},
    {"pipeline_schedule": "interleaved-1f1b"},
    {"trace": "yes"},
    {"trace_out": 42},
])
def test_bad_values_raise_at_construction_and_resolution(kwargs):
    with pytest.raises(ConfigurationError):
        ExecutionPolicy(**kwargs)
    with pytest.raises(ConfigurationError):
        ExecutionPolicy.resolve(**kwargs)
    with pytest.raises(ConfigurationError):
        configure(**kwargs)


@pytest.mark.parametrize("env_var,text", [
    ("REPRO_SWEEP_JOBS", "many"),
    ("REPRO_SWEEP_USE_CACHE", "maybe"),
    ("REPRO_WORKERS", "several"),
    ("REPRO_MIDDLEWARE", "warp"),
    ("REPRO_MIDDLEWARE", "retry:attempts=lots"),
    ("REPRO_SCENARIO_FAMILY", "tensor"),
    ("REPRO_PIPELINE_SCHEDULE", "interleaved-1f1b"),
    ("REPRO_TRACE", "maybe"),
])
def test_unparseable_env_values_raise(monkeypatch, env_var, text):
    monkeypatch.setenv(env_var, text)
    with pytest.raises(ConfigurationError):
        ExecutionPolicy.resolve()


def test_pipeline_schedule_aliases_resolve_to_canonical_names(monkeypatch):
    # The validator folds registry aliases ("zero-bubble", "pipedream-flush")
    # to their canonical schedule names, at every resolution level.
    assert ExecutionPolicy.resolve(pipeline_schedule="zero-bubble").pipeline_schedule == "zb"
    monkeypatch.setenv("REPRO_PIPELINE_SCHEDULE", "pipedream-flush")
    assert ExecutionPolicy.resolve().pipeline_schedule == "1f1b"


def test_unknown_fields_are_rejected_everywhere():
    with pytest.raises(ConfigurationError, match="warp_speed"):
        configure(warp_speed=9)
    with pytest.raises(ConfigurationError):
        ExecutionPolicy.resolve(warp_speed=9)


def test_context_level_is_the_configure_stack_alone():
    """No process-global default sits under the ``configure()`` stack (the
    ``repro.sweep.configure_defaults`` shim and its overlay are gone), so a
    context entered on one thread never reaches another thread's resolution."""
    import threading

    import repro.runtime
    import repro.sweep

    assert not hasattr(repro.sweep, "configure_defaults")
    assert not hasattr(repro.runtime, "set_global_defaults")
    inside = threading.Event()
    seen = []

    def resolve_elsewhere():
        inside.wait(10)
        policy = ExecutionPolicy.resolve(env_fields=())
        seen.append((policy.jobs, policy.sources["jobs"]))

    thread = threading.Thread(target=resolve_elsewhere)
    thread.start()
    with configure(jobs=7):
        assert ExecutionPolicy.resolve(env_fields=()).jobs == 7
        inside.set()
        thread.join(10)
    assert seen == [(1, "default")]


REMOVED_FIELDS = {
    "op_backend": ("objects", "REPRO_SIM_OP_BACKEND"),
    "scheduler": ("vector", "REPRO_SIM_SCHEDULER"),
    "auto_vector_threshold": (1, "REPRO_AUTO_VECTOR_THRESHOLD"),
    "sweep_mode": ("scenario", "REPRO_SWEEP_MODE"),
}


@pytest.mark.parametrize("name", sorted(REMOVED_FIELDS))
def test_removed_path_fields_are_rejected(monkeypatch, capsys, name):
    """The path knobs are gone: the code picks the path, not the policy."""
    value, env_var = REMOVED_FIELDS[name]
    assert name not in POLICY_FIELDS
    with pytest.raises(ConfigurationError, match=name):
        ExecutionPolicy.resolve(**{name: value})
    with pytest.raises(ConfigurationError, match=name):
        configure(**{name: value})
    with pytest.raises(ConfigurationError, match=name):
        ExecutionPolicy.resolve().with_overrides(**{name: value})
    # Their environment variables are no longer read, even with garbage in them.
    monkeypatch.setenv(env_var, "garbage")
    assert ExecutionPolicy.resolve() == ExecutionPolicy()
    assert main(["config", "--json"]) == 0
    assert name not in json.loads(capsys.readouterr().out)


def test_policies_compare_by_value_not_by_source(monkeypatch):
    assert ExecutionPolicy.resolve() == ExecutionPolicy()
    monkeypatch.setenv("REPRO_PIPELINE_SCHEDULE", "zb")
    assert ExecutionPolicy.resolve() == ExecutionPolicy(pipeline_schedule="zb")


def test_with_overrides_replaces_fields_as_arg_sources():
    base = ExecutionPolicy.resolve()
    derived = base.with_overrides(pipeline_schedule="zb")
    assert derived.pipeline_schedule == "zb"
    assert derived.sources["pipeline_schedule"] == "arg"
    assert derived.jobs == base.jobs
    with pytest.raises(ConfigurationError):
        base.with_overrides(pipeline_schedule="warp")


def test_describe_is_json_ready():
    described = ExecutionPolicy.resolve().describe()
    assert set(described) == set(POLICY_FIELDS)
    payload = json.loads(json.dumps(described))
    assert payload["executor"] == {"value": "auto", "source": "default"}
    assert isinstance(payload["cache_dir"]["value"], str)


def test_directly_constructed_policy_infers_honest_sources():
    described = ExecutionPolicy(pipeline_schedule="zb").describe()
    assert described["pipeline_schedule"]["source"] == "arg"
    assert described["jobs"]["source"] == "default"  # never passed, not an arg


def test_env_errors_name_the_offending_variable(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "garbage")
    with pytest.raises(ConfigurationError, match=r"REPRO_SWEEP_JOBS"):
        ExecutionPolicy.resolve()


def test_resolution_report_rejects_unknown_fields():
    from repro.runtime import resolution_report

    with pytest.raises(ConfigurationError, match="schedular"):
        resolution_report(schedular="vector")


# ------------------------------------------------------------ middleware field


def test_middleware_resolves_comma_strings_to_canonical_tuples():
    resolved = ExecutionPolicy.resolve(middleware="timing, logging")
    assert resolved.middleware == ("timing", "logging")
    assert resolved.sources["middleware"] == "arg"
    # Sequences canonicalize too, argument forms preserved verbatim.
    assert ExecutionPolicy.resolve(
        middleware=["retry:attempts=3:backoff=0.1"]
    ).middleware == ("retry:attempts=3:backoff=0.1",)


def test_broken_middleware_env_names_the_variable_and_the_spec(monkeypatch):
    monkeypatch.setenv("REPRO_MIDDLEWARE", "warp")
    with pytest.raises(ConfigurationError, match=r"REPRO_MIDDLEWARE.*warp"):
        ExecutionPolicy.resolve()
    # An explicit argument shields the broken env, like every other field.
    assert ExecutionPolicy.resolve(middleware="timing").middleware == ("timing",)


def test_timing_middleware_metrics_math(monkeypatch):
    """Counts, totals and min/max/last derive from monotonic clock deltas."""
    import repro.middleware.builtin as builtin
    from repro.middleware import (
        MiddlewareChain,
        MiddlewareContext,
        TimingMiddleware,
        middleware_metrics,
        reset_middleware_metrics,
    )

    reset_middleware_metrics()
    # Two perf_counter reads per interception: entry, then exit.  Durations
    # 0.5s, 0.25s and 1.0s, with the error raised inside the third call.
    ticks = iter([0.0, 0.5, 10.0, 10.25, 20.0, 21.0])
    monkeypatch.setattr(builtin.time, "perf_counter", lambda: next(ticks))
    timing = TimingMiddleware()
    chain = MiddlewareChain((timing,))
    context = MiddlewareContext(seam="dispatch", name="probe", started=0.0)

    assert chain.run(context, lambda: "a") == "a"
    assert chain.run(context, lambda: "b") == "b"
    with pytest.raises(RuntimeError, match="boom"):
        chain.run(context, lambda: (_ for _ in ()).throw(RuntimeError("boom")))

    expected = {"count": 3, "errors": 1, "total_s": 1.75,
                "min_s": 0.25, "max_s": 1.0, "last_s": 1.0}
    assert timing.metrics["dispatch"] == pytest.approx(expected)
    # The process-wide registry (what ``repro config --json`` surfaces)
    # mirrors the instance numbers exactly.
    assert middleware_metrics()["dispatch"] == pytest.approx(expected)
    reset_middleware_metrics()
    assert middleware_metrics() == {}


# ----------------------------------------------------- simulate_job consumers


# The op count at which the removed ``scheduler="auto"`` used to switch from
# the heap to the vector kernel; scenarios on both sides of it now take one path.
FORMER_AUTO_VECTOR_THRESHOLD = 50_000


@pytest.mark.parametrize("iterations,above_threshold", [
    pytest.param(1, False, id="few_ops"),
    pytest.param(340, True, id="many_ops"),
])
def test_simulate_job_schedules_on_the_vector_kernel(job, iterations, above_threshold):
    result = simulate_job(job, iterations)
    resolved = result.resolved_policy
    assert (resolved.op_count >= FORMER_AUTO_VECTOR_THRESHOLD) is above_threshold
    assert resolved.scheduler == "vector"
    assert isinstance(result.schedule, VectorSchedule)


def test_simulate_job_records_what_actually_ran(job):
    policy = ExecutionPolicy(middleware=("timing",))
    result = simulate_job(job, 1, policy=policy)
    resolved = result.resolved_policy
    assert resolved.policy == policy
    assert resolved.scheduler == "vector"
    assert resolved.op_count == len(result.schedule.ops)


def test_simulate_job_rejects_policy_plus_legacy_kwargs(job):
    # The op_backend=/scheduler_backend= shims are gone, with or without policy=.
    for legacy in ({"op_backend": "batch"}, {"scheduler_backend": "vector"}):
        with pytest.raises(TypeError):
            simulate_job(job, 1, policy=ExecutionPolicy(), **legacy)
        with pytest.raises(TypeError):
            simulate_job(job, 1, **legacy)


def test_simulate_job_rejects_non_policy(job):
    with pytest.raises(ConfigurationError, match="ExecutionPolicy"):
        simulate_job(job, 1, policy="heap")


def test_trainer_accepts_a_policy():
    config = TrainingJobConfig(model="7B", strategy="deep-optimizer-states",
                               iterations=2, warmup_iterations=1, check_memory=False)
    pinned = Trainer(config, policy=ExecutionPolicy(middleware=("timing",))).run()
    ambient = Trainer(config).run()
    # Observe-only middleware never changes a schedule, so the reports agree.
    assert pinned.breakdowns == ambient.breakdowns
    assert pinned.end_to_end_seconds == ambient.end_to_end_seconds


# ----------------------------------------------------- SweepRunner serialization


def _policy_probe(**params):
    """Module-level worker reporting the policy its resolution context yields."""
    resolved = ExecutionPolicy.resolve()
    return {
        "pipeline_schedule": resolved.pipeline_schedule,
        "workers": resolved.workers,
        "sources": dict(resolved.sources),
    }


def test_runner_binds_policy_at_construction():
    policy = ExecutionPolicy(jobs=2, executor="serial", use_cache=False)
    runner = SweepRunner(_policy_probe, policy=policy)
    assert (runner.jobs, runner.executor, runner.use_cache) == (2, "serial", False)
    assert runner.policy is policy


def test_runner_rejects_policy_plus_individual_kwargs():
    with pytest.raises(ConfigurationError, match="not both"):
        SweepRunner(_policy_probe, policy=ExecutionPolicy(), jobs=2)
    with pytest.raises(ConfigurationError, match="ExecutionPolicy"):
        SweepRunner(_policy_probe, policy="vector")


def test_runner_resolves_construction_context_not_run_context():
    with configure(pipeline_schedule="zb"):
        runner = SweepRunner(_policy_probe)
    # The policy was bound under the construction context; running outside it
    # still ships the bound decisions to the workers.
    result = runner.run(SweepSpec.build({"x": (1,)}))
    assert result.records[0].value["pipeline_schedule"] == "zb"


@pytest.mark.parametrize("jobs", [1, 2])
def test_workers_resolve_the_serialized_policy_at_context_level(monkeypatch, jobs, tmp_path):
    # Worker-side env (inherited by fork or present in-process) must lose to
    # the explicitly serialized policy: context > env.
    monkeypatch.setenv("REPRO_PIPELINE_SCHEDULE", "gpipe")
    monkeypatch.setenv("REPRO_WORKERS", "7")
    with configure(pipeline_schedule="zb"):
        runner = SweepRunner(_policy_probe, jobs=jobs, cache_dir=tmp_path)
    values = [record.value for record in runner.run(SweepSpec.build({"x": (1, 2)})).records]
    for value in values:
        assert value["pipeline_schedule"] == "zb"
        # Un-overridden fields were resolved at the parent (workers=7 from its
        # env) and shipped whole: the worker sees them at the *context* level.
        assert value["workers"] == 7
        assert set(value["sources"].values()) == {"context"}


def test_policy_context_requires_a_policy():
    with pytest.raises(ConfigurationError):
        policy_context({"jobs": 2})


# ------------------------------------------------------------------------ CLI


def test_cli_config_prints_fields_and_sources(capsys):
    assert main(["config"]) == 0
    out = capsys.readouterr().out
    for name in POLICY_FIELDS:
        assert name in out
    assert "auto" in out and "default" in out and "source" in out


def test_cli_config_json_marks_global_flags_as_args(capsys):
    assert main(["--middleware", "noop", "config", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["middleware"] == {"value": ["noop"], "source": "arg"}
    assert payload["jobs"]["source"] == "default"


def test_cli_config_reports_env_sources(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_PIPELINE_SCHEDULE", "zb")
    assert main(["config", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pipeline_schedule"] == {"value": "zb", "source": "env"}


def test_cli_config_reports_trace_fields_with_sources(monkeypatch, capsys):
    assert main(["config", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"] == {"value": False, "source": "default"}
    assert payload["trace_out"] == {"value": None, "source": "default"}

    monkeypatch.setenv("REPRO_TRACE", "1")
    assert main(["config", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"] == {"value": True, "source": "env"}
    monkeypatch.delenv("REPRO_TRACE")

    assert main(["--trace", "config", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"] == {"value": True, "source": "arg"}


def test_cli_trace_out_implies_trace(capsys):
    # Naming an export file turns tracing on: an empty trace file would be
    # the only other possible outcome, and nobody asks for that.
    assert main(["--trace-out", "/tmp/t.json", "config", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # The implication rides on the command's policy context (so every
    # subcommand's own resolution sees it), hence "context" not "arg".
    assert payload["trace"]["value"] is True
    assert payload["trace"]["source"] in ("arg", "context")
    assert payload["trace_out"]["value"] == "/tmp/t.json"
    assert payload["trace_out"]["source"] == "arg"


def test_cli_global_flags_do_not_outlive_the_command(capsys):
    assert main(["--middleware", "noop", "list-presets"]) == 0
    assert ExecutionPolicy.resolve().middleware == ()


# ------------------------------------------- unrelated broken env isolation


def test_simulate_job_ignores_broken_sweep_env_vars(monkeypatch, job):
    # simulate_job consumes only the simulation fields; garbage in the
    # sweep-level variables must not fail it (it did before env_fields).
    monkeypatch.setenv("REPRO_SWEEP_USE_CACHE", "maybe")
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "garbage")
    result = simulate_job(job, 1)
    assert result.schedule.ops
    assert result.resolved_policy.policy.use_cache is False  # default, env skipped


def test_simulate_job_still_rejects_broken_simulation_env(monkeypatch, job):
    monkeypatch.setenv("REPRO_MIDDLEWARE", "quantum")
    with pytest.raises(ConfigurationError, match="quantum"):
        simulate_job(job, 1)


def test_env_fields_restriction_still_honours_context_and_args(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "garbage")
    with configure(jobs=5):
        assert ExecutionPolicy.resolve(env_fields=("trace",)).jobs == 5
    assert ExecutionPolicy.resolve(env_fields=("trace",), jobs=7).jobs == 7


def test_cli_help_survives_broken_env(monkeypatch, capsys):
    # Parser construction must never resolve the policy: --help (and every
    # other command) has to work in the very environment config diagnoses.
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "garbage")
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert "usage: repro" in capsys.readouterr().out


def test_cli_config_reports_broken_env_as_error_rows(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "garbage")
    assert main(["config"]) == 1
    out = capsys.readouterr().out
    assert "<error:" in out and "garbage" in out
    assert "pipeline_schedule" in out  # healthy fields still report

    assert main(["config", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["jobs"]["source"] == "error" and "garbage" in payload["jobs"]["error"]
    assert payload["pipeline_schedule"] == {"value": "1f1b", "source": "default"}
