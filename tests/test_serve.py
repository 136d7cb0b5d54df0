"""The serve layer: coalescing, policy merging, both wire fronts, admission.

**Unit layer** — :class:`CoalescingMap` leader/follower mechanics and
per-request policy resolution (client overrides on server defaults,
``cache_dir`` excluded).

**Differential layer** — the serve counterpart of the dispatch suite's
headline guarantee: a ``sweep`` served over HTTP or frames is **byte-identical**
to the ``repro sweep --json`` export of the same grid, on the serial and pool
backends alike.  The service is a transport, never a second implementation.

**Concurrency layer** — two identical in-flight requests trigger exactly one
computation (the follower counter proves it), and the admission middleware
(``quota``, ``concurrency``) throttle with the right wire statuses.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

import dispatch_workers
from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.dispatch import framing
from repro.middleware import reset_middleware_metrics
from repro.middleware.builtin import ConcurrencyLimitError, QuotaExceededError
from repro.runtime import ExecutionPolicy
from repro.serve import (
    CLIENT_POLICY_FIELDS,
    CoalescingMap,
    ServeClient,
    ServeRequestError,
    ServerThread,
    UnknownMethodError,
    error_status,
    resolve_request_policy,
)
from repro.sweep import SweepRunner, SweepSpec


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_middleware_metrics()
    yield
    reset_middleware_metrics()


def _get(address: tuple, path: str) -> tuple[int, dict]:
    host, port = address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(address: tuple, path: str, body: dict,
          headers: dict | None = None) -> tuple[int, bytes]:
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


# ------------------------------------------------------------------ coalescing


def test_coalescing_map_shares_one_computation_between_identical_calls():
    coalescer = CoalescingMap()
    entered = threading.Event()
    release = threading.Event()
    calls: list = []

    def compute():
        calls.append("computed")
        entered.set()
        release.wait(timeout=10.0)
        return {"value": 42}

    results: list = []
    leader = threading.Thread(
        target=lambda: results.append(coalescer.run("k", compute)))
    leader.start()
    assert entered.wait(timeout=10.0)
    assert coalescer.stats()["inflight"] == 1
    follower = threading.Thread(
        target=lambda: results.append(coalescer.run("k", compute)))
    follower.start()
    release.set()
    leader.join(timeout=10.0)
    follower.join(timeout=10.0)
    assert calls == ["computed"]  # one execution, two results
    assert results == [{"value": 42}, {"value": 42}]
    assert results[0] is results[1]  # shared, not recomputed
    assert coalescer.stats() == {"inflight": 0, "leaders_total": 1,
                                 "followers_total": 1}


def test_coalescing_delivers_the_leaders_exception_to_followers():
    coalescer = CoalescingMap()
    entered = threading.Event()
    release = threading.Event()
    errors: list = []

    def explode():
        entered.set()
        release.wait(timeout=10.0)
        raise ValueError("boom")

    def lead():
        with pytest.raises(ValueError):
            coalescer.run("k", explode)

    def follow():
        try:
            coalescer.run("k", explode)
        except ValueError as exc:
            errors.append(str(exc))

    leader = threading.Thread(target=lead)
    leader.start()
    assert entered.wait(timeout=10.0)
    follower = threading.Thread(target=follow)
    follower.start()
    release.set()
    leader.join(timeout=10.0)
    follower.join(timeout=10.0)
    assert errors == ["boom"]  # failures are shared too, never retried silently


def test_coalescing_scope_is_in_flight_only():
    coalescer = CoalescingMap()
    assert coalescer.run("k", lambda: 1) == 1
    assert coalescer.run("k", lambda: 2) == 2  # past results are not a cache
    assert coalescer.stats() == {"inflight": 0, "leaders_total": 2,
                                 "followers_total": 0}


# -------------------------------------------------------------- policy merging


def test_request_policy_overrides_ride_on_the_servers_policy():
    server_policy = ExecutionPolicy.resolve(jobs=1, use_cache=False)
    merged = resolve_request_policy(server_policy, {"jobs": 4, "executor": "pool"})
    assert (merged.jobs, merged.executor) == (4, "pool")
    assert merged.use_cache is False  # server defaults survive underneath
    assert resolve_request_policy(server_policy, None) is server_policy
    assert resolve_request_policy(server_policy, {}) is server_policy


def test_request_policy_rejects_cache_dir_and_unknown_fields():
    server_policy = ExecutionPolicy.resolve()
    assert "cache_dir" not in CLIENT_POLICY_FIELDS
    with pytest.raises(ConfigurationError, match="cache_dir"):
        resolve_request_policy(server_policy, {"cache_dir": "/tmp/elsewhere"})
    with pytest.raises(ConfigurationError, match="wormhole"):
        resolve_request_policy(server_policy, {"wormhole": True})
    with pytest.raises(ConfigurationError, match="JSON object"):
        resolve_request_policy(server_policy, ["jobs", 4])


def test_error_status_maps_every_failure_class():
    assert error_status(UnknownMethodError("x")) == 404
    assert error_status(ConfigurationError("x")) == 400
    assert error_status(QuotaExceededError("x")) == 429
    assert error_status(ConcurrencyLimitError("x")) == 503
    assert error_status(RuntimeError("x")) == 500


# ------------------------------------------------------------- framed requests


def test_framed_client_round_trips_ping_health_and_errors():
    with ServerThread() as running:
        with ServeClient(running.address) as client:
            assert client.request("ping") == {"pong": True}
            health = client.request("health")
            assert health["status"] == "ok"
            assert "sweep" in health["methods"]
            with pytest.raises(ServeRequestError) as unknown:
                client.request("warp")
            assert unknown.value.status == 404
            assert unknown.value.error_type == "UnknownMethodError"
            with pytest.raises(ServeRequestError) as bad_policy:
                client.request("ping", policy={"cache_dir": "/tmp/x"})
            assert bad_policy.value.status == 400
            # The connection survives errors: the next request still works.
            assert client.request("ping") == {"pong": True}


class _CreatesFile:
    """Unpickling this object would create ``path`` (a code-execution probe)."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def test_pickle_frames_are_refused_at_the_header_and_never_run(tmp_path):
    marker = tmp_path / "unpickled"
    frame = framing.encode_frame(_CreatesFile(str(marker)), framing.CODEC_PICKLE)
    with ServerThread() as running:
        with socket.create_connection(running.address, timeout=10) as sock:
            sock.sendall(frame)
            reply = framing.recv_message(sock)
            assert reply["ok"] is False
            assert reply["error"]["status"] == 400
            assert reply["error"]["type"] == "FramingError"
            with pytest.raises(framing.ConnectionClosed):
                framing.recv_message(sock)  # refused, then closed
        with ServeClient(running.address) as client:
            assert client.request("ping") == {"pong": True}
    assert not marker.exists()


@pytest.mark.parametrize("field,value", [
    ("op_backend", "objects"), ("scheduler", "heap"),
    ("auto_vector_threshold", 1), ("sweep_mode", "scenario"),
])
def test_removed_path_fields_get_a_4xx_and_the_daemon_keeps_serving(field, value):
    """A request still naming a removed path knob is malformed, on both fronts."""
    with ServerThread() as running:
        with ServeClient(running.address) as client:
            with pytest.raises(ServeRequestError) as framed:
                client.request("simulate", {"model": "7B"}, policy={field: value})
            assert framed.value.status == 400
            assert field in str(framed.value)
            assert client.request("ping") == {"pong": True}
        status, raw = _post(running.address, "/v1/ping",
                            {"params": {}, "policy": {field: value}})
        assert status == 400 and field.encode() in raw
        status, raw = _post(running.address, "/v1/ping", {"params": {}})
        assert (status, json.loads(raw)) == (200, {"pong": True})


def test_framed_sweep_matches_a_local_run_exactly():
    axes = {"x": [1, 2, 3]}
    with ServerThread(policy=ExecutionPolicy.resolve(use_cache=False)) as running:
        with ServeClient(running.address) as client:
            served = client.request("sweep", {
                "worker": "dispatch_workers:echo_params", "axes": axes,
            }, policy={"executor": "serial"})
    # Built through the same stack, so the dict (and hence any serialization
    # of it) must match a direct SweepRunner run.
    local = SweepRunner(dispatch_workers.echo_params, use_cache=False,
                        executor="serial").run(
        SweepSpec.build({"x": (1, 2, 3)})).to_dict()
    assert served == local


# ----------------------------------------------------- HTTP front + routing


def test_http_front_serves_health_metrics_and_404s():
    with ServerThread() as running:
        status, health = _get(running.address, "/health")
        assert (status, health["status"]) == (200, "ok")
        status, metrics = _get(running.address, "/metrics")
        assert status == 200
        assert metrics["coalescing"] == {"inflight": 0, "leaders_total": 0,
                                         "followers_total": 0}
        status, body = _get(running.address, "/nope")
        assert (status, body["error"]["status"]) == (404, 404)
        status, raw = _post(running.address, "/v1/warp", {})
        assert status == 404
        status, raw = _post(running.address, "/v1/sweep", {"params": {}})
        assert status == 400  # no axes
        host, port = running.address
        request = urllib.request.Request(f"http://{host}:{port}/v1/sweep")
        with pytest.raises(urllib.error.HTTPError) as wrong_verb:
            urllib.request.urlopen(request)  # GET on a POST endpoint
        assert wrong_verb.value.code == 405


@pytest.mark.parametrize("request_policy,cli_flags", [
    ({"executor": "serial"}, []),
    ({"executor": "pool", "jobs": 2}, ["--executor", "pool", "--jobs", "2"]),
])
def test_http_sweep_is_byte_identical_to_the_cli_export(tmp_path, capsys,
                                                        request_policy, cli_flags):
    """The tentpole differential: the HTTP response body for a grid equals the
    ``repro sweep --json`` export of that grid byte for byte, per backend."""
    grid = {
        "worker": "training",
        "axes": {"model": "7B", "strategy": "deep-optimizer-states",
                 "machine": "jlse-4xh100", "cpu_cores_per_gpu": [4, 8]},
        "base": {"iterations": 2},
    }
    with ServerThread(policy=ExecutionPolicy.resolve(use_cache=False)) as running:
        status, served = _post(running.address, "/v1/sweep",
                               {"params": grid, "policy": request_policy})
    assert status == 200
    out = tmp_path / "cli.json"
    assert main(["sweep", "--models", "7B",
                 "--strategies", "deep-optimizer-states",
                 "--machines", "jlse-4xh100",
                 "--axis", "cpu_cores_per_gpu=4,8",
                 "--iterations", "2",
                 "--no-cache", "--json", str(out)] + cli_flags) == 0
    capsys.readouterr()
    assert served == out.read_bytes()


# ------------------------------------------------------- concurrent coalescing


def _poll(predicate, timeout: float = 10.0) -> bool:
    import time as time_module

    deadline = time_module.monotonic() + timeout
    while time_module.monotonic() < deadline:
        if predicate():
            return True
        time_module.sleep(0.01)
    return False


def test_identical_inflight_requests_coalesce_into_one_computation():
    params = {"worker": "dispatch_workers:slow_echo",
              "axes": {"x": [1, 2]}, "base": {"delay": 0.4}}
    with ServerThread(policy=ExecutionPolicy.resolve(use_cache=False)) as running:
        server = running.server
        results: list = []
        with ServeClient(running.address, client_id="one") as first, \
                ServeClient(running.address, client_id="two") as second:
            leader = threading.Thread(
                target=lambda: results.append(first.request("sweep", params)))
            leader.start()
            # Only after the leader is registered can a second request follow
            # instead of leading its own computation.
            assert _poll(lambda: server.coalescer.stats()["inflight"] == 1)
            results.append(second.request("sweep", params))
            leader.join(timeout=30.0)
        stats = server.coalescer.stats()
    assert stats["leaders_total"] == 1
    assert stats["followers_total"] == 1
    assert results[0] == results[1]
    assert json.dumps(results[0], sort_keys=True) == \
        json.dumps(results[1], sort_keys=True)


def test_different_policies_do_not_coalesce():
    params = {"worker": "dispatch_workers:echo_params", "axes": {"x": [1]}}
    with ServerThread(policy=ExecutionPolicy.resolve(use_cache=False)) as running:
        with ServeClient(running.address) as client:
            client.request("sweep", params, policy={"executor": "serial"})
            client.request("sweep", params, policy={"executor": "serial", "jobs": 2})
        stats = running.server.coalescer.stats()
    # Sequential here, so both led — the point is the *keys* differ: a jobs=2
    # response records jobs=2 in its export and must never alias a jobs=1 run.
    assert stats["leaders_total"] == 2


# --------------------------------------------------------- admission control


def test_quota_middleware_throttles_with_429_over_the_wire():
    policy = ExecutionPolicy.resolve(use_cache=False,
                                     middleware=("quota:limit=2",))
    with ServerThread(policy=policy) as running:
        with ServeClient(running.address, client_id="greedy") as client:
            client.request("ping")
            client.request("ping")
            with pytest.raises(ServeRequestError) as throttled:
                client.request("ping")
        assert throttled.value.status == 429
        assert throttled.value.error_type == "QuotaExceededError"
        # Introspection bypasses the chain: a throttled client can still ask
        # the server how throttled it is.
        status, _ = _get(running.address, "/metrics")
        assert status == 200
        # And quota is per client: a different identity is admitted.
        status, _ = _post(running.address, "/v1/ping", {},
                          headers={"X-Repro-Client": "modest"})
        assert status == 200


def test_quota_429_maps_onto_http_too():
    policy = ExecutionPolicy.resolve(use_cache=False,
                                     middleware=("quota:limit=1",))
    with ServerThread(policy=policy) as running:
        status, _ = _post(running.address, "/v1/ping", {},
                          headers={"X-Repro-Client": "c"})
        assert status == 200
        status, body = _post(running.address, "/v1/ping", {},
                             headers={"X-Repro-Client": "c"})
    assert status == 429
    assert json.loads(body)["error"]["type"] == "QuotaExceededError"
