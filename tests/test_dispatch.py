"""Dispatch subsystem unit tests: protocol, framing, backend selection, runner wiring.

The cluster backend's process-level behaviour (real daemons, kills, lease
expiry) lives in ``tests/test_dispatch_cluster.py``; this module covers
everything that runs in one process:

* framing round-trips and bounds;
* worker-spec referencing (``module:qualname``) both ways;
* ``select_backend`` policy mapping and ``create_executor`` validation;
* serial/pool executors through ``SweepRunner``: value-identical results,
  provenance (worker ids), progress events from every path including cache
  hits;
* the **cache-key regression**: no execution-policy field may ever reach the
  cache key — a cluster-run sweep and a serial re-run must alias the same
  entries.
"""

import pickle
import socket

import pytest

import dispatch_workers
from repro.common.errors import ConfigurationError
from repro.dispatch import (
    AUTO_EXECUTOR,
    EXECUTOR_BACKENDS,
    EXECUTOR_CHOICES,
    ClusterExecutor,
    PoolExecutor,
    SerialExecutor,
    Task,
    WorkerClient,
    create_executor,
    resolve_worker_spec,
    select_backend,
    worker_spec,
)
from repro.dispatch import framing
from repro.runtime import ExecutionPolicy, POLICY_FIELDS
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep.cache import load_manifest

# ------------------------------------------------------------------- framing


def test_frame_round_trips_json_and_pickle():
    for codec, message in [
        (framing.CODEC_JSON, {"type": "hello", "worker_id": "w1", "n": 3}),
        (framing.CODEC_PICKLE, {"type": "task", "policy": ExecutionPolicy(),
                                "params": {"x": 1.5}}),
    ]:
        frame = framing.encode_frame(message, codec)
        length_codec, payload = frame[:5], frame[5:]
        assert len(payload) == int.from_bytes(length_codec[:4], "big")
        assert framing.decode_payload(length_codec[4], payload) == message


def test_frame_round_trips_over_a_real_socket_pair():
    left, right = socket.socketpair()
    try:
        framing.send_message(left, {"type": "heartbeat", "task_id": 7})
        framing.send_message(left, {"value": [1, 2, 3]}, framing.CODEC_PICKLE)
        assert framing.recv_message(right) == {"type": "heartbeat", "task_id": 7}
        assert framing.recv_message(right) == {"value": [1, 2, 3]}
        left.close()
        with pytest.raises(framing.ConnectionClosed):
            framing.recv_message(right)
    finally:
        right.close()


def test_frame_rejects_unknown_codec_and_oversize():
    with pytest.raises(framing.FramingError):
        framing.encode_frame({}, codec=9)
    with pytest.raises(framing.FramingError):
        framing.decode_payload(9, b"")
    oversize = (framing.MAX_FRAME_BYTES + 1).to_bytes(4, "big") + bytes([framing.CODEC_JSON])
    left, right = socket.socketpair()
    try:
        left.sendall(oversize)
        with pytest.raises(framing.FramingError, match="exceeds"):
            framing.recv_message(right)
    finally:
        left.close()
        right.close()


def test_undecodable_payloads_raise_framing_errors():
    with pytest.raises(framing.FramingError, match="JSON"):
        framing.decode_payload(framing.CODEC_JSON, b"\xff\xfe")
    with pytest.raises(framing.FramingError, match="pickle"):
        framing.decode_payload(framing.CODEC_PICKLE, b"not a pickle")


def test_read_frame_refuses_a_codec_outside_its_allowlist_at_the_header():
    """A refused codec fails on the header alone: the payload is never read
    (here it never even arrives, and no "mid-frame" error surfaces)."""
    import asyncio

    async def read(data: bytes, codecs):
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await framing.read_frame(reader, codecs=codecs)

    pickle_frame = framing.encode_frame({"x": 1}, framing.CODEC_PICKLE)
    with pytest.raises(framing.FramingError, match="not accepted"):
        asyncio.run(read(pickle_frame[:5], (framing.CODEC_JSON,)))
    json_frame = framing.encode_frame({"x": 1})
    assert asyncio.run(read(json_frame, (framing.CODEC_JSON,))) == {"x": 1}
    # The default allowlist (the cluster wire) still reads both codecs.
    assert asyncio.run(read(pickle_frame, framing.ALL_CODECS)) == {"x": 1}


# --------------------------------------------------------------- worker specs


def test_worker_spec_round_trips_module_level_callables():
    spec = worker_spec(dispatch_workers.echo_params)
    assert spec == "dispatch_workers:echo_params"
    assert resolve_worker_spec(spec) is dispatch_workers.echo_params


def test_worker_spec_rejects_locals_and_uncallables():
    def local_worker(**params):
        return params

    with pytest.raises(ConfigurationError, match="module-level"):
        worker_spec(local_worker)
    with pytest.raises(ConfigurationError, match="malformed"):
        resolve_worker_spec("no-colon")
    with pytest.raises(ConfigurationError, match="cannot import"):
        resolve_worker_spec("no.such.module:fn")
    with pytest.raises(ConfigurationError, match="does not resolve"):
        resolve_worker_spec("dispatch_workers:missing_fn")
    with pytest.raises(ConfigurationError, match="non-callable"):
        resolve_worker_spec("dispatch_workers:__doc__")


# --------------------------------------------------------- backend resolution


def test_executor_choices_are_registered_in_the_policy_layer():
    assert EXECUTOR_CHOICES == (AUTO_EXECUTOR,) + EXECUTOR_BACKENDS
    assert "executor" in POLICY_FIELDS and "workers" in POLICY_FIELDS
    assert POLICY_FIELDS["executor"].env_var == "REPRO_EXECUTOR"
    assert POLICY_FIELDS["workers"].env_var == "REPRO_WORKERS"


def test_select_backend_auto_follows_jobs():
    assert select_backend(ExecutionPolicy()) == "serial"
    assert select_backend(ExecutionPolicy(jobs=2)) == "pool"
    assert select_backend(ExecutionPolicy(executor="cluster")) == "cluster"
    assert select_backend(ExecutionPolicy(executor="serial", jobs=8)) == "serial"


def test_create_executor_instantiates_and_validates():
    policy = ExecutionPolicy()
    assert isinstance(create_executor("serial", dispatch_workers.echo_params, policy),
                      SerialExecutor)
    assert isinstance(create_executor("pool", dispatch_workers.echo_params, policy),
                      PoolExecutor)
    assert isinstance(create_executor("cluster", dispatch_workers.echo_params, policy),
                      ClusterExecutor)
    with pytest.raises(ConfigurationError, match="warp"):
        create_executor("warp", dispatch_workers.echo_params, policy)
    with pytest.raises(ConfigurationError, match="auto"):
        # "auto" is a policy value, not a backend: it must be resolved through
        # select_backend before instantiation.
        create_executor("auto", dispatch_workers.echo_params, policy)


def test_policy_validates_executor_and_workers_fields():
    with pytest.raises(ConfigurationError, match="warp"):
        ExecutionPolicy(executor="warp")
    with pytest.raises(ConfigurationError, match="workers"):
        ExecutionPolicy(workers=0)
    with pytest.raises(ConfigurationError, match="workers"):
        ExecutionPolicy(workers="two")


def test_capabilities_describe_the_backends():
    policy = ExecutionPolicy(jobs=3)
    serial = SerialExecutor(dispatch_workers.echo_params, policy).capabilities()
    pool = PoolExecutor(dispatch_workers.echo_params, policy).capabilities()
    cluster = ClusterExecutor(dispatch_workers.echo_params, policy).capabilities()
    assert (serial.distributed, serial.fault_tolerant, serial.max_parallelism) == \
        (False, False, 1)
    assert (pool.distributed, pool.max_parallelism) == (False, 3)
    assert (cluster.distributed, cluster.fault_tolerant, cluster.max_parallelism) == \
        (True, True, None)


def test_cluster_executor_validates_options():
    policy = ExecutionPolicy()
    with pytest.raises(ConfigurationError, match="HOST:PORT"):
        ClusterExecutor(dispatch_workers.echo_params, policy, bind="7931")
    with pytest.raises(ConfigurationError, match="lease_timeout"):
        ClusterExecutor(dispatch_workers.echo_params, policy, lease_timeout=0)
    with pytest.raises(ConfigurationError, match="min_workers"):
        ClusterExecutor(dispatch_workers.echo_params, policy, min_workers=0)
    with pytest.raises(ConfigurationError, match="module-level"):
        ClusterExecutor(lambda **kw: kw, policy)


def test_parse_bind_handles_ipv4_hostnames_and_bracketed_ipv6():
    from repro.dispatch.cluster import parse_bind

    assert parse_bind("127.0.0.1:7931") == ("127.0.0.1", 7931)
    assert parse_bind("localhost:0") == ("localhost", 0)
    # RFC 3986 bracket form; brackets are stripped for the socket layer,
    # zone identifiers survive.
    assert parse_bind("[::1]:8000") == ("::1", 8000)
    assert parse_bind("[fe80::1%eth0]:7931") == ("fe80::1%eth0", 7931)


def test_parse_bind_rejects_malformed_and_ambiguous_addresses():
    """Regression: ``::1:8000`` used to parse as host ``::1`` — silently wrong
    for any other bare IPv6 address (``fe80::1:7931`` would split at the last
    colon and mangle both halves), so the ambiguous form is an error now."""
    from repro.dispatch.cluster import parse_bind

    for bad, match in [
        ("::1:8000", "ambiguous"),
        ("fe80::1:7931", "ambiguous"),
        ("[::1]", "IPV6-HOST"),
        ("[::1]8000", "IPV6-HOST"),
        ("[]:8000", "IPV6-HOST"),
        ("7931", "HOST:PORT"),
        (":7931", "HOST:PORT"),
        ("host:", "invalid port"),
        ("host:http", "invalid port"),
        ("host:70000", "out of range"),
        ("host:-1", "out of range"),
    ]:
        with pytest.raises(ConfigurationError, match=match):
            parse_bind(bad)


def test_worker_client_validates_arguments():
    with pytest.raises(ConfigurationError, match="HOST:PORT"):
        WorkerClient("nocolon")
    with pytest.raises(ConfigurationError, match="port"):
        WorkerClient("localhost:0")
    with pytest.raises(ConfigurationError, match="heartbeat"):
        WorkerClient("localhost:1234", heartbeat=-1)


# ------------------------------------------------- runner × executor parity


SPEC = SweepSpec.build({"x": (1, 2, 3), "y": (10, 20)})


def _serial_reference(spec=SPEC):
    return [record.value for record in
            SweepRunner(dispatch_workers.echo_params, executor="serial").run(spec).records]


@pytest.mark.parametrize("kwargs", [
    {"executor": "serial"},
    {"executor": "pool", "jobs": 2},
    {"jobs": 2},            # auto -> pool
    {"jobs": 1},            # auto -> serial
    {"executor": "pool"},   # pool with jobs=1 downgrades to serial internally
])
def test_runner_values_identical_across_local_backends(kwargs):
    runner = SweepRunner(dispatch_workers.echo_params, **kwargs)
    values = [record.value for record in runner.run(SPEC).records]
    assert values == _serial_reference()


def test_runner_progress_events_cover_misses_and_hits(tmp_path):
    events = []
    runner = SweepRunner(dispatch_workers.echo_params, use_cache=True,
                         cache_dir=tmp_path, progress=events.append)
    runner.run(SPEC)
    assert len(events) == len(list(SPEC.scenarios()))
    assert all(not event["cached"] and event["worker"] == "local" for event in events)
    assert [event["completed"] for event in events] == list(range(1, len(events) + 1))

    events.clear()
    SweepRunner(dispatch_workers.echo_params, use_cache=True,
                cache_dir=tmp_path, progress=events.append).run(SPEC)
    assert all(event["cached"] and event["worker"] == "cache" for event in events)
    assert all(event["total"] == len(events) for event in events)
    assert all(isinstance(event["label"], str) and "x=" in event["label"]
               for event in events)


def test_runner_pool_progress_reports_pool_workers(tmp_path):
    events = []
    runner = SweepRunner(dispatch_workers.echo_params, jobs=2, use_cache=False,
                         cache_dir=tmp_path, progress=events.append)
    runner.run(SPEC)
    assert len(events) == SPEC.num_scenarios
    assert all(event["worker"].startswith("pool-") for event in events)


def test_runner_streams_cache_pickles_per_outcome(tmp_path):
    """Entry pickles are durable per completion; the manifest catches up by run end.

    The pickle is what a resumed sweep loads (cache probes never consult the
    manifest), so it must stream; manifest records may batch (quadratic to
    rewrite per scenario) but the run must leave none behind.
    """
    seen_pickle_counts = []

    def spy(event):
        seen_pickle_counts.append(len(list(tmp_path.glob("*.pkl"))))

    SweepRunner(dispatch_workers.echo_params, use_cache=True, cache_dir=tmp_path,
                progress=spy).run(SPEC)
    # By the time the progress hook for scenario k fires, k pickles are durable.
    assert seen_pickle_counts == list(range(1, SPEC.num_scenarios + 1))
    assert len(load_manifest(tmp_path)["entries"]) == SPEC.num_scenarios


def test_runner_rejects_policy_plus_executor_kwargs():
    with pytest.raises(ConfigurationError, match="not both"):
        SweepRunner(dispatch_workers.echo_params, policy=ExecutionPolicy(),
                    executor="pool")
    with pytest.raises(ConfigurationError, match="not both"):
        SweepRunner(dispatch_workers.echo_params, policy=ExecutionPolicy(), workers=2)


def test_runner_rejects_local_worker_for_distributed_backends():
    def local_worker(**params):
        return params

    with pytest.raises(ConfigurationError, match="module-level"):
        SweepRunner(local_worker, executor="cluster")
    # Serial is fine with locals, as before.
    runner = SweepRunner(local_worker, executor="serial")
    assert runner.run(SweepSpec.build({"x": (1,)})).values() == [{"x": 1}]


# ------------------------------------------------------ cache-key regression


def test_cache_key_composition_is_pinned(tmp_path):
    """The cache filename is worker id + cache version + salt + scenario hash.

    Pinned so a future field cannot sneak into the key unnoticed: the exact
    byte layout below is what keeps serial and cluster runs aliasing the same
    entries.
    """
    from repro.sweep.cache import CACHE_VERSION

    runner = SweepRunner(dispatch_workers.echo_params, use_cache=True,
                         cache_dir=tmp_path)
    scenario = next(iter(SweepSpec.build({"x": (1,)}).scenarios()))
    path = runner._cache_path(scenario)
    assert path.parent == tmp_path
    assert path.name == (
        f"dispatch_workers.echo_params-v{CACHE_VERSION}-"
        f"{runner._worker_salt}-{scenario.config_hash()}.pkl"
    )


def test_no_execution_policy_field_reaches_the_cache_key(tmp_path):
    """Same worker + scenario => same cache entry under *any* policy.

    A grid computed on a cluster must be a cache hit for a serial re-run (and
    vice versa), so jobs/executor/workers/middleware/trace must all stay out
    of the key.
    """
    scenario = next(iter(SweepSpec.build({"x": (1,)}).scenarios()))
    policies = [
        ExecutionPolicy(use_cache=True, cache_dir=tmp_path),
        ExecutionPolicy(use_cache=True, cache_dir=tmp_path, jobs=8),
        ExecutionPolicy(use_cache=True, cache_dir=tmp_path, executor="cluster",
                        workers=4),
        ExecutionPolicy(use_cache=True, cache_dir=tmp_path, executor="pool",
                        jobs=2, middleware=("timing",)),
        ExecutionPolicy(use_cache=True, cache_dir=tmp_path, trace=True),
    ]
    paths = {
        SweepRunner(dispatch_workers.echo_params, policy=policy)._cache_path(scenario)
        for policy in policies
    }
    assert len(paths) == 1


def test_cluster_computed_entries_hit_for_serial_reruns(tmp_path):
    """End-to-end aliasing: populate with one backend, hit with another."""
    spec = SweepSpec.build({"x": (1, 2, 3, 4)})
    first = SweepRunner(dispatch_workers.echo_params, jobs=2, use_cache=True,
                        cache_dir=tmp_path).run(spec)
    assert (first.cache_hits, first.cache_misses) == (0, 4)
    second = SweepRunner(dispatch_workers.echo_params, executor="serial",
                         use_cache=True, cache_dir=tmp_path).run(spec)
    assert (second.cache_hits, second.cache_misses) == (4, 0)
    assert second.values() == first.values()
