"""Cluster executor integration tests: real daemons, real kills, real leases.

Every test here launches genuine ``repro worker`` subprocesses against an
in-process coordinator (the same :class:`~repro.dispatch.ClusterExecutor` a
``repro sweep --executor cluster`` run uses) and asserts the one invariant the
dispatch layer exists to uphold: **placement and failure never change
values**.  The fault-injection matrix from the issue:

* a worker process hard-killed mid-task → task re-queued on a survivor,
  sweep result byte-identical to serial;
* a silent worker (heartbeats disabled, task wedged) → lease expiry, retry on
  the second worker;
* deterministic task exception → immediate :class:`DispatchTaskError` with
  the remote traceback (no retry: it would fail identically);
* infrastructure retries exhausted → :class:`DispatchError`;
* a sweep interrupted mid-run → completed scenarios already in the cache
  manifest, and a re-run resumes from them.

Faults are injected by :class:`repro.middleware.FaultInjectionMiddleware`,
declared as a ``fault:...`` spec on the sweep's middleware stack: the chain
ships to the daemons inside the pickled policy and fires deterministically on
whichever worker draws the targeted task index.  The workers themselves
(``tests/dispatch_workers.py``) are plain deterministic functions, so the
armed cluster run and the unarmed serial baseline share identical scenario
parameters *and* identical worker code — which is what makes byte-identical
JSON a meaningful assertion.
"""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import dispatch_workers
from repro.dispatch import (
    ClusterExecutor,
    DispatchError,
    DispatchTaskError,
    Task,
    WorkerClient,
)
from repro.runtime import ExecutionPolicy, configure
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep.cache import load_manifest

REPO_ROOT = Path(__file__).resolve().parents[1]
FAST_LEASE = 1.0  # seconds; every test keeps leases short so expiry is quick


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture
def daemons():
    """Launch ``repro worker`` subprocesses; terminate whatever survives."""
    procs: list[subprocess.Popen] = []

    def spawn(port: int, worker_id: str, *, heartbeat: float | None = None,
              host: str = "127.0.0.1") -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # Daemons never arm middleware from their own environment: the chain
        # (fault injection included) arrives inside the coordinator's policy.
        env.pop("REPRO_MIDDLEWARE", None)
        connect = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        command = [sys.executable, "-m", "repro", "worker",
                   "--connect", connect,
                   "--id", worker_id, "--retry-for", "30"]
        if heartbeat is not None:
            command += ["--heartbeat", str(heartbeat)]
        proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        procs.append(proc)
        return proc

    yield spawn
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            proc.kill()
            proc.wait(timeout=10)


def _cluster_runner(worker, port: int, *, workers: int = 2, events: list | None = None,
                    lease_timeout: float = FAST_LEASE,
                    progress=None, **kwargs) -> SweepRunner:
    options = {
        "bind": f"127.0.0.1:{port}",
        "lease_timeout": lease_timeout,
        "worker_wait_timeout": 30.0,
    }
    if events is not None:
        options["on_event"] = events.append
    kwargs.setdefault("use_cache", False)
    return SweepRunner(worker, executor="cluster", workers=workers,
                       executor_options=options, progress=progress, **kwargs)


def _result_json(result) -> bytes:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True).encode()


# ----------------------------------------------------------------- happy path


def test_cluster_sweep_is_byte_identical_to_serial(daemons, tmp_path):
    spec = SweepSpec.build({"x": (1, 2, 3), "y": (10, 20)})
    port = _free_port()
    daemons(port, "w1")
    daemons(port, "w2")
    progress: list = []
    result = _cluster_runner(dispatch_workers.echo_params, port,
                             progress=progress.append).run(spec)
    serial = SweepRunner(dispatch_workers.echo_params, executor="serial",
                         use_cache=False).run(spec)
    assert _result_json(result) == _result_json(serial)
    # Provenance: every scenario was computed remotely, by the fleet we launched.
    assert {event["worker"] for event in progress} <= {"w1", "w2"}
    assert all(not event["cached"] for event in progress)
    assert len(progress) == spec.num_scenarios


def test_cluster_ships_the_policy_to_daemons(daemons):
    spec = SweepSpec.build({"x": (1, 2)})
    port = _free_port()
    daemons(port, "w1")
    with configure(pipeline_schedule="zb"):
        runner = _cluster_runner(dispatch_workers.policy_probe, port, workers=1)
    result = runner.run(spec)
    for value in result.values():
        # The daemon resolved the coordinator's decisions at the context level.
        assert value["pipeline_schedule"] == "zb"
        assert value["workers"] == 1
        assert value["sources"] == ["context"]


# ------------------------------------------------------------ fault injection


def test_worker_killed_mid_task_is_retried_elsewhere(daemons):
    """One daemon hard-exits mid-task; the sweep still matches serial, byte for byte.

    The fault is a middleware spec: ``index=1`` targets the x=2 scenario and
    the default ``times=1`` arms it for the first delivery attempt only, so
    the re-queued attempt (shipped as ``attempts=2`` in the task frame)
    passes straight through to the worker on the surviving daemon.
    """
    spec = SweepSpec.build({"x": (1, 2, 3, 4)})
    port = _free_port()
    daemons(port, "w1")
    daemons(port, "w2")
    events: list = []
    progress: list = []
    result = _cluster_runner(dispatch_workers.survivor, port,
                             middleware=("fault:mode=crash:index=1",),
                             events=events, progress=progress.append).run(spec)
    # The serial baseline is unarmed: no fault spec on its policy.
    serial = SweepRunner(dispatch_workers.survivor, executor="serial",
                         use_cache=False).run(spec)
    assert _result_json(result) == _result_json(serial)
    kinds = {event["event"] for event in events}
    assert "worker-disconnected" in kinds and "task-requeued" in kinds, \
        "the fault was actually injected"
    retried = [event for event in progress if event["label"].endswith("x=2")]
    assert retried and retried[0]["attempts"] >= 2


def test_silent_worker_lease_expires_and_second_worker_completes(daemons):
    """Heartbeat loss on a wedged task: lease expiry re-queues to the live worker."""
    spec = SweepSpec.build({"x": (1, 2, 3)})
    port = _free_port()
    # Both daemons run without heartbeats, so whichever draws the wedged task
    # loses its lease; only the retry (``attempts=2`` disarms the ``times=1``
    # hang fault) completes promptly — on the other worker.
    daemons(port, "silent-1", heartbeat=0)
    daemons(port, "silent-2", heartbeat=0)
    events: list = []
    progress: list = []
    result = _cluster_runner(dispatch_workers.survivor, port,
                             middleware=("fault:mode=hang:index=0:seconds=30",),
                             events=events, progress=progress.append).run(spec)
    serial = SweepRunner(dispatch_workers.survivor, executor="serial",
                         use_cache=False).run(spec)
    assert _result_json(result) == _result_json(serial)
    expiries = [event for event in events if event["event"] == "lease-expired"]
    assert expiries and expiries[0]["index"] == 0  # the targeted scenario
    hung = [event for event in progress if event["label"].endswith("x=1")]
    assert hung[0]["attempts"] >= 2
    assert hung[0]["worker"] != expiries[0]["worker"], \
        "the retry completed on a different worker than the wedged one"


def test_heartbeats_keep_long_tasks_alive(daemons):
    """A task longer than the lease survives when heartbeats are on."""
    spec = SweepSpec.build({"x": (5,)}, {"delay": 2.5 * FAST_LEASE})
    port = _free_port()
    daemons(port, "steady")  # default heartbeat: lease_timeout / 3
    events: list = []
    result = _cluster_runner(dispatch_workers.slow_echo, port, workers=1,
                             events=events).run(spec)
    assert result.values() == [{"x": 5, "squared": 25}]
    assert not [event for event in events if event["event"] == "lease-expired"]


def test_task_exception_propagates_with_remote_traceback(daemons):
    spec = SweepSpec.build({"x": (7,)})
    port = _free_port()
    daemons(port, "w1")
    with pytest.raises(DispatchTaskError) as excinfo:
        _cluster_runner(dispatch_workers.always_raise, port, workers=1).run(spec)
    assert "x=7" in str(excinfo.value)
    assert "ValueError" in excinfo.value.remote_traceback
    assert excinfo.value.worker_id == "w1"


def test_unserializable_result_fails_fast_with_the_cause(daemons):
    """An unpicklable value is an application error, not worker death.

    Regression: the daemon used to crash on the result send, so the
    coordinator burned the whole retry budget on identical crashes and
    reported a misleading 'worker disconnected' instead of the real cause.
    """
    spec = SweepSpec.build({"x": (3,)})
    port = _free_port()
    proc = daemons(port, "w1")
    with pytest.raises(DispatchTaskError, match="not serializable"):
        _cluster_runner(dispatch_workers.unpicklable_result, port,
                        workers=1).run(spec)
    assert proc.poll() is None, "the daemon survived the bad result"


def test_retry_bound_exhausted_raises_dispatch_error(daemons):
    """``times=0`` crashes every attempt; the bound comes from the retry spec.

    No ``max_retries`` anywhere: the coordinator derives its re-queue bound
    from the policy's ``retry:attempts=1`` middleware spec — one knob for
    worker-side application retries and coordinator-side re-queues alike.
    """
    spec = SweepSpec.build({"x": (1,)})
    port = _free_port()
    daemons(port, "doomed-1")
    daemons(port, "doomed-2")
    with pytest.raises(DispatchError, match="retry bound of 1 exhausted"):
        _cluster_runner(dispatch_workers.survivor, port,
                        middleware=("fault:mode=crash:index=0:times=0",
                                    "retry:attempts=1")).run(spec)


def test_interrupted_sweep_resumes_from_cache_manifest(daemons, tmp_path):
    """Scenarios completed before an interruption are durable and replayed.

    The interruption is a ``fault:mode=raise`` spec targeting the last index:
    an :class:`~repro.middleware.InjectedFault` is an application error, so
    the coordinator fails fast instead of retrying.  The resume run simply
    drops the fault spec from its middleware stack — no marker files.
    """
    cache_dir = tmp_path / "cache"
    spec = SweepSpec.build({"x": (1, 2, 3, 4)})
    port = _free_port()
    daemons(port, "w1")
    daemons(port, "w2")
    with pytest.raises(DispatchTaskError, match="injected fault"):
        _cluster_runner(dispatch_workers.cubed, port,
                        middleware=("fault:mode=raise:index=3:times=0",),
                        use_cache=True, cache_dir=cache_dir).run(spec)
    # Completed scenarios were streamed into the cache *and* its manifest
    # before the failure tore the sweep down.
    durable = load_manifest(cache_dir)["entries"]
    assert durable, "nothing was durable at interruption time"
    assert all(entry["params"]["x"] != 4 for entry in durable.values())

    # Resume serially with the fault spec removed from the stack.  Cached
    # entries replay — cross-executor, thanks to the policy-free cache key —
    # and the final result matches a pure serial run with no cache at all.
    resumed = SweepRunner(dispatch_workers.cubed, executor="serial",
                          use_cache=True, cache_dir=cache_dir).run(spec)
    assert resumed.cache_hits == len(durable)
    assert resumed.cache_misses == spec.num_scenarios - len(durable)
    baseline = SweepRunner(dispatch_workers.cubed, executor="serial",
                           use_cache=False).run(spec)
    assert resumed.values() == baseline.values()


def test_fully_wedged_fleet_raises_instead_of_hanging(daemons):
    """Every worker silent on an expired lease: the sweep must error, not block.

    Regression: a wedged worker keeps its socket open and its lease slot
    occupied, so neither the no-worker failsafe nor dispatch could ever fire —
    the sweep hung forever.
    """
    spec = SweepSpec.build({"x": (1, 2)})
    port = _free_port()
    # One heartbeat-less daemon: it wedges on the targeted scenario, its lease
    # expires, and there is no second worker for the re-queue (or for x=2).
    daemons(port, "wedged", heartbeat=0)
    options = {"bind": f"127.0.0.1:{port}", "lease_timeout": FAST_LEASE,
               "worker_wait_timeout": 2.0}
    runner = SweepRunner(dispatch_workers.survivor, executor="cluster",
                         workers=1, executor_options=options, use_cache=False,
                         middleware=("fault:mode=hang:index=0:seconds=60",))
    with pytest.raises(DispatchError, match="unresponsive"):
        runner.run(spec)


def test_worker_survives_coordinator_vanishing_mid_result():
    """A stale-result send against a closed socket is a clean end of service.

    Regression: the daemon used to crash with an unhandled BrokenPipeError
    when it finished a task after the coordinator had shut down (the exact
    shape of a lease-expired task delivered late).
    """
    client = WorkerClient("127.0.0.1:9", worker_id="stale")  # never dialed
    left, right = socket.socketpair()
    right.close()  # the "coordinator" is gone
    try:
        ok = client._serve_task(left, {
            "type": "task", "task_id": 1, "index": 0,
            "worker": "dispatch_workers:echo_params", "params": {"x": 1},
            "policy": None,
        }, interval=0)
        assert ok is False  # reported as "coordinator went away", not a crash
        assert client.tasks_completed == 0
    finally:
        left.close()


# ------------------------------------------------------------------ lifecycle


def test_unserializable_task_fails_fast_with_the_cause(daemons):
    """A task frame that cannot pickle fails the sweep once, not per-retry."""
    port = _free_port()
    daemons(port, "w1")
    policy = ExecutionPolicy(executor="cluster", workers=1)
    with ClusterExecutor(dispatch_workers.echo_params, policy,
                         bind=f"127.0.0.1:{port}",
                         lease_timeout=FAST_LEASE) as executor:
        with pytest.raises(DispatchError, match="serialize"):
            list(executor.submit([Task(index=0, params={"x": lambda: 1})]))


def test_send_task_against_a_concluded_task_releases_the_worker():
    """Regression: the claimed worker must not starve when its task concluded
    (stale first-wins delivery) between the synchronous claim and the send."""
    import asyncio

    from repro.dispatch.cluster import _Conn, _Round

    executor = ClusterExecutor(dispatch_workers.echo_params, ExecutionPolicy())
    round_ = _Round()
    round_.tasks[0] = Task(index=0, params={"x": 1})
    round_.attempts[0] = 2
    round_.done.add(0)
    executor._round = round_
    conn = _Conn(worker_id="claimed", writer=None, task_id=0)
    asyncio.run(executor._send_task(conn, 0))
    assert conn.task_id is None, "the worker is dispatchable again"


def test_stale_error_from_revoked_lease_defers_to_the_retry():
    """An error frame from a worker whose lease was revoked must not fail the sweep.

    White-box: the coordinator's reaction is pure state-machine logic, so the
    round state is fabricated directly — task re-queued after a lease expiry,
    original holder then reports a (possibly host-local) failure.
    """
    from repro.dispatch.cluster import _Conn, _Round

    executor = ClusterExecutor(dispatch_workers.echo_params, ExecutionPolicy())
    round_ = _Round()
    round_.tasks[0] = Task(index=0, params={"x": 1})
    round_.attempts[0] = 1
    round_.pending.append(0)  # re-queued: no live lease
    executor._round = round_
    conn = _Conn(worker_id="slow", writer=None, task_id=0)
    executor._on_error(conn, {"type": "error", "task_id": 0, "message": "OOM"})
    assert not executor._failed, "stale error must not abort the sweep"
    assert 0 not in round_.done and list(round_.pending) == [0]
    assert conn.task_id is None  # the slow worker is dispatchable again


def test_dispatch_gate_times_out_without_workers():
    policy = ExecutionPolicy(executor="cluster", workers=1)
    with ClusterExecutor(dispatch_workers.echo_params, policy,
                         worker_wait_timeout=0.5, lease_timeout=FAST_LEASE) as executor:
        with pytest.raises(DispatchError, match="waited"):
            list(executor.submit([Task(index=0, params={"x": 1})]))


def test_submit_requires_entered_executor():
    executor = ClusterExecutor(dispatch_workers.echo_params, ExecutionPolicy())
    with pytest.raises(DispatchError, match="context manager"):
        list(executor.submit([Task(index=0, params={})]))


def test_retry_bound_derives_from_the_retry_middleware_spec():
    """The coordinator's re-queue bound is the policy's ``retry`` spec."""
    from repro.dispatch.cluster import DEFAULT_MAX_RETRIES

    policy = ExecutionPolicy(executor="cluster", workers=1,
                             middleware=("timing", "retry:attempts=7"))
    executor = ClusterExecutor(dispatch_workers.echo_params, policy)
    assert executor._max_retries == 7
    bare = ClusterExecutor(dispatch_workers.echo_params, ExecutionPolicy())
    assert bare._max_retries == DEFAULT_MAX_RETRIES


def test_workers_exit_cleanly_on_coordinator_shutdown(daemons):
    spec = SweepSpec.build({"x": (1, 2)})
    port = _free_port()
    first = daemons(port, "w1")
    second = daemons(port, "w2")
    _cluster_runner(dispatch_workers.echo_params, port).run(spec)
    # The runner closed the executor; the coordinator broadcast shutdown.
    assert first.wait(timeout=10) == 0
    assert second.wait(timeout=10) == 0
    assert "shutdown" in first.stdout.read() + second.stdout.read()


# -------------------------------------------------- bind parsing and teardown


def _ipv6_loopback_available() -> bool:
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
            return True
    except OSError:
        return False


@pytest.mark.skipif(not _ipv6_loopback_available(),
                    reason="no IPv6 loopback on this host")
def test_cluster_round_trips_over_ipv6_loopback(daemons):
    """Regression for bracket-mangled binds: ``[::1]:PORT`` must carry a real
    sweep end to end — coordinator listening on IPv6, daemon dialing it with
    the same bracketed string the CLI accepts."""
    with socket.socket(socket.AF_INET6) as probe:
        probe.bind(("::1", 0))
        port = probe.getsockname()[1]
    daemons(port, "w6", host="::1")
    spec = SweepSpec.build({"x": (1, 2, 3)})
    runner = SweepRunner(
        dispatch_workers.echo_params, executor="cluster", workers=1,
        use_cache=False,
        executor_options={"bind": f"[::1]:{port}", "worker_wait_timeout": 30.0},
    )
    result = runner.run(spec)
    serial = SweepRunner(dispatch_workers.echo_params, executor="serial",
                         use_cache=False).run(spec)
    assert _result_json(result) == _result_json(serial)


def test_overlapping_submit_raises_a_real_error_not_an_assert():
    """Regression: the overlap guard was a bare ``assert``, stripped under
    ``python -O`` — an overlapping submit() would silently interleave two
    rounds' tasks.  It must be a DispatchError regardless of optimization."""
    policy = ExecutionPolicy(executor="cluster", workers=1)
    with ClusterExecutor(dispatch_workers.echo_params, policy,
                         worker_wait_timeout=30.0,
                         lease_timeout=FAST_LEASE) as executor:
        # No workers ever connect, so the first round stays fully pending.
        executor.submit([Task(index=0, params={"x": 1})])
        with pytest.raises(DispatchError, match="drained"):
            executor.submit([Task(index=1, params={"x": 2})])


def test_close_always_closes_the_loop_and_is_idempotent():
    """Regression: ``close()`` used to re-check ``loop.is_running()`` after the
    join and skip ``loop.close()`` — leaking the loop's selector fd every time
    the thread needed more than an instant to stop."""
    policy = ExecutionPolicy(executor="cluster", workers=1)
    executor = ClusterExecutor(dispatch_workers.echo_params, policy)
    with executor:
        pass
    assert not executor._thread.is_alive()
    assert executor._loop.is_closed()
    executor.close()  # second close is a no-op, not an error


def test_close_warns_and_still_closes_when_the_thread_is_wedged(monkeypatch):
    """A coordinator callback that never returns must not wedge ``close()``:
    it warns, abandons the thread, and still tries to reclaim the loop."""
    import time as time_module

    from repro.dispatch import cluster as cluster_module

    monkeypatch.setattr(cluster_module, "_CLOSE_JOIN_TIMEOUT", 0.2)
    policy = ExecutionPolicy(executor="cluster", workers=1)
    executor = ClusterExecutor(dispatch_workers.echo_params, policy)
    executor.__enter__()
    # Wedge the loop: a blocking callback ignores loop.stop() until it ends.
    executor._loop.call_soon_threadsafe(time_module.sleep, 2.0)
    with pytest.warns(RuntimeWarning, match="did not stop"):
        executor.close()
    # The thread eventually unwedges and the stop takes effect.
    executor._thread.join(timeout=10.0)
    assert not executor._thread.is_alive()
