"""The middleware layer, proven two ways.

**Unit layer** — the chain mechanics themselves: onion ordering, short-circuit,
error propagation, frozen contexts, the spec grammar, retry/fault arithmetic,
and a hypothesis property that *any* stack of observe-only middleware is
value-preserving and invokes the wrapped operation exactly once.

**Differential layer** — the headline guarantee of this whole subsystem: at
every seam (engine, dispatch, CLI) and on every backend (serial, pool, cluster
daemons; scenario and batch sweep modes), installing a no-op or observe-only
chain yields **byte-identical** schedules, sweep JSON and cache entries versus
no middleware at all.  Middleware observe the mechanism; they never become
part of it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import socket
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import dispatch_workers
from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.middleware import (
    SEAM_CLI,
    SEAM_DISPATCH,
    SEAM_ENGINE,
    SEAM_SERVE,
    ConcurrencyLimitError,
    ConcurrencyMiddleware,
    FaultInjectionMiddleware,
    InjectedFault,
    LoggingMiddleware,
    Middleware,
    MiddlewareChain,
    MiddlewareContext,
    QuotaExceededError,
    QuotaMiddleware,
    RetryMiddleware,
    TimingMiddleware,
    build_chain,
    build_middleware,
    middleware_metrics,
    normalize_middleware_specs,
    parse_middleware_spec,
    reset_middleware_metrics,
    retry_attempts_from_specs,
)
from repro.experiments.base import run_training
from repro.obs import metrics as obs_metrics
from repro.obs.trace import TraceMiddleware, reset_tracing, snapshot_spans
from repro.common.serialization import to_dict
from repro.dispatch import worker_spec
from repro.runtime import ExecutionPolicy, configure
from repro.sim.engine import SimEngine, standard_resources
from repro.sim.ops import reset_op_counter
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep.batching import run_scenario_group
from repro.training.config import TrainingJobConfig
from repro.training.simulation import prepare_simulation, simulate_job

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The observe-only stack every differential test installs: all three
#: built-in observers at once, so identity holds for the composition too.
OBSERVERS = ("noop", "timing", "logging")

#: Chains the byte-identity harness runs beyond the classic observer stack:
#: the span tracer alone, and the tracer composed with the other observers.
TRACED_CHAINS = [("trace",), ("trace", "timing", "logging")]


@pytest.fixture(autouse=True)
def _fresh_metrics():
    """Each test sees empty process-wide metric and span registries.

    ``obs_metrics.reset()`` clears both the obs registry and the legacy seam
    timing table, so metric assertions never depend on test order; span state
    is cleared separately because tracing has its own buffer.
    """
    obs_metrics.reset()
    reset_tracing()
    yield
    obs_metrics.reset()
    reset_tracing()


# --------------------------------------------------------------- chain mechanics


class Recorder(Middleware):
    """Observe-only middleware that journals its traversal order."""

    def __init__(self, tag: str, journal: list) -> None:
        self.tag = tag
        self.journal = journal

    def handle(self, context, call_next):
        self.journal.append(("enter", self.tag))
        try:
            result = call_next(context)
        except BaseException:
            self.journal.append(("error", self.tag))
            raise
        self.journal.append(("exit", self.tag))
        return result


def _context(seam=SEAM_DISPATCH, **payload):
    return MiddlewareContext(seam=seam, name="test", payload=payload)


def test_chain_runs_first_middleware_outermost():
    journal: list = []
    chain = MiddlewareChain((Recorder("outer", journal), Recorder("inner", journal)))
    result = chain.run(_context(), lambda: journal.append(("body", "-")) or 41)
    assert result == 41
    assert journal == [("enter", "outer"), ("enter", "inner"), ("body", "-"),
                       ("exit", "inner"), ("exit", "outer")]


def test_middleware_can_short_circuit_everything_deeper():
    journal: list = []

    class ShortCircuit(Middleware):
        def handle(self, context, call_next):
            return "substituted"  # never calls call_next

    chain = MiddlewareChain((Recorder("outer", journal), ShortCircuit(),
                             Recorder("unreached", journal)))
    result = chain.run(_context(), lambda: journal.append(("body", "-")))
    assert result == "substituted"
    # The outer middleware completed normally; nothing deeper ever ran.
    assert journal == [("enter", "outer"), ("exit", "outer")]


def test_operation_error_propagates_outward_through_every_middleware():
    journal: list = []
    chain = MiddlewareChain((Recorder("outer", journal), Recorder("inner", journal)))

    def body():
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        chain.run(_context(), body)
    assert journal == [("enter", "outer"), ("enter", "inner"),
                       ("error", "inner"), ("error", "outer")]


def test_context_is_frozen():
    context = _context()
    with pytest.raises(dataclasses.FrozenInstanceError):
        context.seam = "tampered"


def test_chain_rejects_objects_without_a_handle_method():
    with pytest.raises(ConfigurationError, match="handle"):
        MiddlewareChain((object(),))


def test_empty_chain_is_falsy_and_build_chain_returns_none_for_it():
    assert not MiddlewareChain(())
    assert len(MiddlewareChain((Middleware(),))) == 1
    assert build_chain(()) is None
    assert build_chain(None) is None


def test_chains_are_cached_per_spec_tuple():
    assert build_chain(("timing", "logging")) is build_chain(("timing", "logging"))
    assert build_chain(("timing",)) is not build_chain(("logging",))


# ------------------------------------------------------------------ spec grammar


def test_spec_parsing_splits_name_and_colon_args():
    assert parse_middleware_spec("retry:attempts=3:backoff=0.1") == (
        "retry", {"attempts": "3", "backoff": "0.1"})
    assert parse_middleware_spec("timing") == ("timing", {})


@pytest.mark.parametrize("spec, message", [
    ("", "non-empty"),
    ("retry:attempts", "key=value"),
    ("warp", "unknown middleware 'warp'"),
    ("timing:speed=11", "unknown argument"),
    ("retry:attempts=lots", "must be an integer"),
    ("fault:ratio=often", "must be a number"),
    ("fault:mode=blackhole", "unknown fault middleware mode"),
    ("logging:level=shout", "unknown logging middleware level"),
])
def test_bad_specs_fail_at_declaration_time(spec, message):
    with pytest.raises(ConfigurationError, match=message):
        build_middleware(spec)


def test_normalize_accepts_comma_strings_and_sequences():
    assert normalize_middleware_specs("timing, logging") == ("timing", "logging")
    assert normalize_middleware_specs(["retry:attempts=1"]) == ("retry:attempts=1",)
    assert normalize_middleware_specs("") == ()
    with pytest.raises(ConfigurationError, match="spec string"):
        normalize_middleware_specs(42)
    with pytest.raises(ConfigurationError, match="unknown middleware"):
        normalize_middleware_specs(("timing", "warp"))


def test_retry_attempts_extraction_from_spec_stacks():
    assert retry_attempts_from_specs(None) == 2
    assert retry_attempts_from_specs(("timing",), default=5) == 5
    assert retry_attempts_from_specs(("timing", "retry:attempts=7")) == 7
    assert retry_attempts_from_specs(("retry",)) == 2  # spec default


# ------------------------------------------------------------------ retry logic


class Flaky:
    """Callable that fails ``failures`` times, then succeeds forever."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"transient #{self.calls}")
        return "recovered"


def test_retry_reinvokes_until_the_bound_then_succeeds():
    body = Flaky(failures=2)
    chain = MiddlewareChain((RetryMiddleware(attempts=2),))
    assert chain.run(_context(), body) == "recovered"
    assert body.calls == 3  # 1 try + 2 retries


def test_retry_exhaustion_reraises_the_last_error():
    body = Flaky(failures=5)
    chain = MiddlewareChain((RetryMiddleware(attempts=1),))
    with pytest.raises(RuntimeError, match="transient #2"):
        chain.run(_context(), body)
    assert body.calls == 2


def test_retry_is_inert_off_the_dispatch_seam():
    body = Flaky(failures=1)
    chain = MiddlewareChain((RetryMiddleware(attempts=3),))
    with pytest.raises(RuntimeError, match="transient #1"):
        chain.run(_context(seam=SEAM_ENGINE), body)
    assert body.calls == 1


def test_retry_backoff_doubles_per_failure(monkeypatch):
    import repro.middleware.builtin as builtin

    naps: list = []
    monkeypatch.setattr(builtin.time, "sleep", naps.append)
    chain = MiddlewareChain((RetryMiddleware(attempts=3, backoff=0.1),))
    assert chain.run(_context(), Flaky(failures=2)) == "recovered"
    assert naps == pytest.approx([0.1, 0.2])


def test_retry_rejects_negative_bounds():
    with pytest.raises(ConfigurationError, match=">= 0"):
        RetryMiddleware(attempts=-1)
    with pytest.raises(ConfigurationError, match=">= 0"):
        RetryMiddleware(backoff=-0.5)


# -------------------------------------------------------------- fault injection


def test_fault_index_targeting_fires_only_on_that_task():
    fault = FaultInjectionMiddleware(mode="raise", index=2)
    chain = MiddlewareChain((fault,))
    assert chain.run(_context(index=0, attempts=1), lambda: "ok") == "ok"
    with pytest.raises(InjectedFault, match=r"index=2"):
        chain.run(_context(index=2, attempts=1), lambda: "ok")


def test_fault_times_gate_disarms_after_k_attempts():
    fault = FaultInjectionMiddleware(mode="raise", index=0, times=2)
    chain = MiddlewareChain((fault,))
    for attempt in (1, 2):
        with pytest.raises(InjectedFault):
            chain.run(_context(index=0, attempts=attempt), lambda: "ok")
    assert chain.run(_context(index=0, attempts=3), lambda: "ok") == "ok"
    # times=0 means every attempt, forever.
    relentless = MiddlewareChain((FaultInjectionMiddleware(mode="raise", times=0),))
    with pytest.raises(InjectedFault):
        relentless.run(_context(index=9, attempts=99), lambda: "ok")


def test_fault_ratio_selection_is_seed_deterministic():
    fault = FaultInjectionMiddleware(mode="raise", ratio=0.5, seed=42)
    picks = [fault._selected(index) for index in range(200)]
    again = [fault._selected(index) for index in range(200)]
    assert picks == again, "the same seed must pick the same tasks"
    assert 40 < sum(picks) < 160, "ratio=0.5 selects roughly half"
    assert not any(FaultInjectionMiddleware(ratio=0.0)._selected(i) for i in range(50))
    assert all(FaultInjectionMiddleware(ratio=1.0)._selected(i) for i in range(50))
    shifted = FaultInjectionMiddleware(mode="raise", ratio=0.5, seed=43)
    assert [shifted._selected(i) for i in range(200)] != picks


def test_fault_is_inert_off_the_dispatch_seam():
    fault = FaultInjectionMiddleware(mode="raise", times=0)
    chain = MiddlewareChain((fault,))
    assert chain.run(_context(seam=SEAM_ENGINE), lambda: "ok") == "ok"
    assert chain.run(_context(seam=SEAM_CLI), lambda: "ok") == "ok"


def test_fault_constructor_validates_its_knobs():
    with pytest.raises(ConfigurationError, match="mode"):
        FaultInjectionMiddleware(mode="meltdown")
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        FaultInjectionMiddleware(ratio=1.5)
    with pytest.raises(ConfigurationError, match=">= 0"):
        FaultInjectionMiddleware(times=-1)


# ------------------------------------------------- admission control (serve)


def _serve_context(client="c1"):
    return MiddlewareContext(seam=SEAM_SERVE, name="sweep",
                             payload={"method": "sweep", "client": client})


def test_quota_admits_up_to_the_limit_then_raises_with_retry_hint():
    quota = QuotaMiddleware(limit=2, window=60.0)
    chain = MiddlewareChain((quota,))
    assert chain.run(_serve_context(), lambda: "ok") == "ok"
    assert chain.run(_serve_context(), lambda: "ok") == "ok"
    with pytest.raises(QuotaExceededError, match="retry in"):
        chain.run(_serve_context(), lambda: "ok")


def test_quota_buckets_are_per_client():
    quota = QuotaMiddleware(limit=1)
    chain = MiddlewareChain((quota,))
    chain.run(_serve_context("alice"), lambda: None)
    # A different client has its own window; alice is throttled, bob is not.
    chain.run(_serve_context("bob"), lambda: None)
    with pytest.raises(QuotaExceededError, match="alice"):
        chain.run(_serve_context("alice"), lambda: None)


def test_quota_window_slides_and_admits_again():
    import time as time_module

    quota = QuotaMiddleware(limit=1, window=0.2)
    chain = MiddlewareChain((quota,))
    chain.run(_serve_context(), lambda: None)
    with pytest.raises(QuotaExceededError):
        chain.run(_serve_context(), lambda: None)
    time_module.sleep(0.25)
    chain.run(_serve_context(), lambda: None)  # the old admission expired


def test_quota_is_inert_off_its_seam_and_a_throttled_call_never_runs():
    quota = QuotaMiddleware(limit=1)
    chain = MiddlewareChain((quota,))
    calls: list = []
    for _ in range(3):  # dispatch-seam traffic is not serve traffic
        chain.run(_context(), lambda: calls.append("ran"))
    assert calls == ["ran"] * 3
    chain.run(_serve_context(), lambda: calls.append("ran"))
    with pytest.raises(QuotaExceededError):
        chain.run(_serve_context(), lambda: calls.append("ran"))
    assert calls == ["ran"] * 4  # the throttled call never reached the body


def test_concurrency_reject_mode_sheds_load_beyond_the_limit():
    import threading

    limiter = ConcurrencyMiddleware(limit=1, mode="reject")
    chain = MiddlewareChain((limiter,))
    entered = threading.Event()
    release = threading.Event()

    def slow():
        entered.set()
        release.wait(timeout=10.0)
        return "slow"

    results: list = []
    worker = threading.Thread(
        target=lambda: results.append(chain.run(_serve_context(), slow)))
    worker.start()
    try:
        assert entered.wait(timeout=10.0)
        with pytest.raises(ConcurrencyLimitError, match="limit of 1"):
            chain.run(_serve_context(), lambda: "fast")
    finally:
        release.set()
        worker.join(timeout=10.0)
    assert results == ["slow"]
    # The slot was released on exit; the next call is admitted again.
    assert chain.run(_serve_context(), lambda: "after") == "after"


def test_concurrency_wait_mode_blocks_until_a_slot_frees():
    import threading

    limiter = ConcurrencyMiddleware(limit=1, mode="wait")
    chain = MiddlewareChain((limiter,))
    entered = threading.Event()
    release = threading.Event()
    order: list = []

    def slow():
        entered.set()
        release.wait(timeout=10.0)
        order.append("slow")

    worker = threading.Thread(target=lambda: chain.run(_serve_context(), slow))
    worker.start()
    assert entered.wait(timeout=10.0)
    waiter = threading.Thread(
        target=lambda: chain.run(_serve_context(), lambda: order.append("waited")))
    waiter.start()
    waiter.join(timeout=0.2)
    assert waiter.is_alive()  # blocked on the held slot, not failed
    release.set()
    worker.join(timeout=10.0)
    waiter.join(timeout=10.0)
    assert order == ["slow", "waited"]


def test_admission_specs_parse_and_validate():
    quota = build_middleware("quota:limit=3:window=1.5")
    limiter = build_middleware("concurrency:limit=2:mode=reject")
    assert (quota.limit, quota.window, quota.seam) == (3, 1.5, SEAM_SERVE)
    assert (limiter.limit, limiter.mode) == (2, "reject")
    for spec, message in [
        ("quota", "requires a limit"),
        ("quota:limit=0", ">= 1"),
        ("quota:limit=2:window=0", "positive"),
        ("quota:limit=2:seam=warp", "seam"),
        ("concurrency", "requires a limit"),
        ("concurrency:limit=2:mode=drop", "mode"),
    ]:
        with pytest.raises(ConfigurationError, match=message):
            build_middleware(spec)


# --------------------------------------------------------------------- pickling


def test_policy_with_middleware_pickles_and_chains_rebuild():
    """Spec strings — not instances — cross process boundaries."""
    policy = ExecutionPolicy.resolve(
        middleware=("timing", "retry:attempts=3:backoff=0.1"))
    clone = pickle.loads(pickle.dumps(policy))
    assert clone == policy
    assert clone.middleware == ("timing", "retry:attempts=3:backoff=0.1")
    chain = build_chain(clone.middleware)
    assert [type(m).__name__ for m in chain.middlewares] == [
        "TimingMiddleware", "RetryMiddleware"]


# --------------------------------------------------- hypothesis: observe-only


_OBSERVER_FACTORIES = {
    "noop": Middleware,
    "timing": TimingMiddleware,
    "logging": LoggingMiddleware,
    "trace": TraceMiddleware,
}


@given(
    stack=st.lists(st.sampled_from(sorted(_OBSERVER_FACTORIES)), max_size=6),
    value=st.one_of(st.integers(), st.floats(allow_nan=False), st.text(),
                    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3)),
    seam=st.sampled_from([SEAM_ENGINE, SEAM_DISPATCH, SEAM_CLI]),
)
def test_observe_only_stacks_preserve_values(stack, value, seam):
    """Any composition of observe-only middleware is an identity wrapper."""
    chain = MiddlewareChain(tuple(_OBSERVER_FACTORIES[name]() for name in stack))
    calls: list = []

    def body():
        calls.append(1)
        return value

    assert chain.run(_context(seam=seam), body) == value
    assert len(calls) == 1, "the wrapped operation runs exactly once"


# ------------------------------------------------- differential: engine seam


@pytest.fixture(scope="module")
def job():
    return TrainingJobConfig(model="7B", strategy="deep-optimizer-states",
                             check_memory=False).resolve()


def _schedule_triples(schedule):
    return [(item.op.op_id, item.start, item.end) for item in schedule.ops]


@pytest.mark.parametrize("chain", [OBSERVERS] + TRACED_CHAINS)
@pytest.mark.parametrize("scheduler", ["heap", "vector"])
def test_engine_seam_chain_yields_byte_identical_schedules(job, scheduler, chain):
    if scheduler == "vector":  # the production path: simulate_job's kernel
        reset_op_counter()
        bare = simulate_job(job, 2).schedule
        reset_op_counter()
        chained = simulate_job(job, 2, policy=ExecutionPolicy(middleware=chain)).schedule
    else:  # the heap oracle, chain installed on the engine directly
        batch = prepare_simulation(job, 2).batch
        engines = []
        for specs in ((), chain):
            engine = SimEngine()
            standard_resources(engine)
            engine.install_middleware(build_chain(specs), policy=ExecutionPolicy())
            engines.append(engine)
        bare, chained = (engine.run_batch(batch) for engine in engines)
    assert _schedule_triples(chained) == _schedule_triples(bare)
    assert chained.makespan == bare.makespan
    # The chain genuinely intercepted: the observers saw the engine seam.
    if "timing" in chain:
        assert middleware_metrics()["engine"]["count"] >= 1
    if "trace" in chain:
        assert any(record["seam"] == "engine" for record in snapshot_spans())


# ------------------------------------------------ differential: dispatch seam


def _result_json(result) -> bytes:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True).encode()


def _cache_files(cache_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted(cache_dir.glob("*.pkl"))}


GRID = {"x": (1, 2, 3), "y": (10, 20)}


@pytest.mark.parametrize("chain", [OBSERVERS] + TRACED_CHAINS)
def test_serial_sweep_with_observers_is_byte_identical(tmp_path, chain):
    spec = SweepSpec.build(GRID)
    bare_dir, chained_dir = tmp_path / "bare", tmp_path / "chained"
    bare = SweepRunner(dispatch_workers.echo_params, executor="serial",
                       use_cache=True, cache_dir=bare_dir).run(spec)
    chained = SweepRunner(dispatch_workers.echo_params, executor="serial",
                          use_cache=True, cache_dir=chained_dir,
                          middleware=chain).run(spec)
    assert _result_json(chained) == _result_json(bare)
    # Cache entries too: same file names (policy-free key) and same bytes.
    assert _cache_files(chained_dir) == _cache_files(bare_dir)
    if "timing" in chain:
        assert middleware_metrics()["dispatch"]["count"] == spec.num_scenarios
    if "trace" in chain:
        # One span per scenario, plus the sweep-root span on the same seam.
        assert sum(1 for record in snapshot_spans()
                   if record["seam"] == "dispatch"
                   and record["name"] != "sweep") == spec.num_scenarios


@pytest.mark.parametrize("chain", [OBSERVERS] + TRACED_CHAINS)
def test_pool_sweep_with_observers_is_byte_identical(chain):
    spec = SweepSpec.build(GRID)
    bare = SweepRunner(dispatch_workers.echo_params, executor="pool", jobs=2,
                       use_cache=False).run(spec)
    chained = SweepRunner(dispatch_workers.echo_params, executor="pool", jobs=2,
                          use_cache=False, middleware=chain).run(spec)
    assert _result_json(chained) == _result_json(bare)


TRAIN_GRID = {"cpu_cores_per_gpu": (2, 3, 4)}
TRAIN_BASE = {"model": "7B", "strategy": "deep-optimizer-states", "iterations": 2}


def _projection(result) -> str:
    """The JSON identity a sweep must preserve (params, hash, value)."""
    return json.dumps(
        [{key: scenario[key] for key in ("params", "config_hash", "value")}
         for scenario in result.to_dict()["scenarios"]],
        sort_keys=True,
    )


def test_batch_mode_sweep_with_observers_is_byte_identical():
    """Shape-batched dispatch under a chain matches the unchained sweep and
    ``run_scenario_group`` under the chain matches ``run_training`` per scenario."""
    spec = SweepSpec.build(TRAIN_GRID, TRAIN_BASE)
    bare_batch = SweepRunner(run_training, use_cache=False).run(spec)
    chained_batch = SweepRunner(run_training, use_cache=False,
                                middleware=OBSERVERS).run(spec)
    assert _projection(chained_batch) == _projection(bare_batch)
    params = [scenario.as_dict() for scenario in spec.scenarios()]
    with configure(middleware=OBSERVERS):
        grouped = run_scenario_group(worker=worker_spec(run_training), scenarios=params)
        solo = [run_training(**item) for item in params]
    assert [to_dict(value) for value in grouped] == [to_dict(value) for value in solo]
    assert [to_dict(record.value) for record in bare_batch.records] == \
        [to_dict(value) for value in solo]


@pytest.mark.parametrize("chain", [("timing", "logging"),
                                   ("trace", "timing", "logging")])
def test_cluster_sweep_with_observers_is_byte_identical(tmp_path, chain):
    """One real daemon, chain shipped inside the pickled policy."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REPRO_MIDDLEWARE", None)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", f"127.0.0.1:{port}", "--id", "mw-1", "--retry-for", "30"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
    try:
        spec = SweepSpec.build(GRID)
        options = {"bind": f"127.0.0.1:{port}", "lease_timeout": 5.0,
                   "worker_wait_timeout": 30.0}
        chained = SweepRunner(dispatch_workers.echo_params, executor="cluster",
                              workers=1, executor_options=options,
                              use_cache=False, middleware=chain).run(spec)
        bare = SweepRunner(dispatch_workers.echo_params, executor="serial",
                           use_cache=False).run(spec)
        assert _result_json(chained) == _result_json(bare)
    finally:
        if daemon.poll() is None:
            daemon.terminate()
        daemon.wait(timeout=10)


# ----------------------------------------------------- differential: CLI seam


def test_cli_seam_intercepts_and_reports_metrics(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_MIDDLEWARE", raising=False)
    assert main(["--middleware", "timing", "config", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["middleware"]["value"] == ["timing"]
    assert payload["middleware"]["source"] == "arg"
    # The config command itself ran under the chain: entry counts are live.
    assert payload["middleware_metrics"]["cli"]["count"] >= 1


def test_cli_without_middleware_prints_no_metrics(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_MIDDLEWARE", raising=False)
    assert main(["config", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["middleware"]["value"] == []
    assert "middleware_metrics" not in payload
