"""The three benchmark workloads and their output checks.

Each workload runs closed-loop operations until its window ends and returns
an :class:`Outcome`: per-operation latencies, the throughput, the
attempted/failed tally (a wrong output counts as failed) and, for a traced
run, the spans the per-layer table is computed from.

* ``paper_eval`` — one operation is a full pass over all 21 paper
  experiments, in a seeded order, under the default policy.
* ``grid_shared`` — one operation is the 256-scenario shared-shape grid
  through ``SweepRunner`` (serial executor, cache on in a fresh directory).
* ``serve_mix`` — one operation is one request to a ``repro serve`` daemon
  from one of two closed-loop framed clients.

A traced run of an in-process workload alternates untraced and traced
passes, so the tracing overhead is measured against passes run at the same
time; ``serve_mix`` runs an untraced daemon, then a probed one.  The traced
operations' spans are the run's per-layer record (see ``probes.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.common.serialization import to_dict
# Called through the module so the probes' rebinding reaches these calls.
import repro.experiments.base as experiments_base
from repro.experiments import EXPERIMENT_MODULES
from repro.experiments.base import run_training
from repro.obs.trace import absorb_spans, drain_spans, span
from repro.runtime import ExecutionPolicy, configure
from repro.serve import ServeClient
from repro.serve.client import ServeRequestError
from repro.sweep import SweepRunner, SweepSpec

from probes import check_complete, installed
from tails import median

#: sha256 of the 21 experiments' ``ExperimentResult.format()`` renders,
#: concatenated in ``EXPERIMENT_MODULES`` order.
EVAL_DIGEST = "4b622322d27204b063cf737fa921094dbd0bc0ef75e22dc8f7c49cc93908362d"

#: The fig14-style grid: one DAG shape for every point.
GRID_BASE = {"model": "20B", "strategy": "deep-optimizer-states",
             "subgroup_size": 70_000_000}
GRID_CORES = tuple(range(2, 258))

#: sha256 of the grid's sorted ``(params, config_hash, value)`` projection.
GRID_DIGEST = "6eeae8e67990485ccf1df33469378b2865fb2c945b278bf301da82a382e99770"

#: Untraced passes an in-process run makes at least (10 beyond the p50).
MIN_PASSES = 20

#: The reference loop's time, in ms, on the 2-vCPU VM the benchmark was
#: built on when that host ran at its fastest.  Timed metrics are reported
#: at this host speed (see :func:`ref_loop_ms`).
NOMINAL_REF_MS = 30.0

# No record of real ``repro serve`` traffic exists, so the serve_mix inputs
# are chosen, not observed.  The request kinds get equal weight, and every
# other number below is set by the path it has to reach.

#: The serve window is cut into segments this long.  Between segments the
#: clients pause while the host's speed is measured; each segment opens with
#: one fresh grid both clients send at once, so coalescing fires once per
#: segment (a miss is still in flight when the second copy arrives).
SERVE_SEGMENT_S = 1.0

#: The request kinds, drawn with equal weight.
SERVE_METHODS = ("simulate", "sweep", "ping")
#: Figure 9's models (``PAPER_MODEL_ORDER``) and strategies: the paper's
#: end-to-end comparison.
SERVE_MODELS = ("7B", "8.3B", "10B", "13B", "20B")
SERVE_STRATEGIES = ("zero3-offload", "deep-optimizer-states")
#: Figure 14's default cores-per-GPU axis.
SERVE_CORES = (10, 20, 30, 38, 44, 48)
#: Sweep grids in the repeat pool.  A third of 1000 requests makes about
#: 330 pool sweeps, about 20 per grid: the first of each misses and writes
#: the cache, the rest read it.
SERVE_POOL_SIZE = 16
#: A serve run makes at least this many requests, so p99 has 10 beyond it.
SERVE_MIN_REQUESTS = 1000
SERVE_CLIENTS = 2
#: Seam of the benchmark's client-side request spans.
SEAM_CLIENT = "perfbench.client"


@dataclass
class Outcome:
    """What one workload run measured."""

    latencies_s: list[float]
    #: Work units per second: at the median pass for the in-process
    #: workloads, over the whole window for ``serve_mix``.
    throughput: float
    unit_name: str
    attempted: int
    failed: int
    peak_rss_mb: float
    #: Operations an untraced run makes however short its window: fixes the
    #: rung of the tail percentile (``tails.fixed_tail``).
    min_ops: int
    #: :func:`ref_loop_ms` readings taken between the untraced operations.
    refs_ms: list[float]
    report: dict[str, float] = field(default_factory=dict)
    #: Every span of the traced operations, the probes' and the program's.
    spans: list[dict] = field(default_factory=list)
    #: Latencies of the traced operations (``latencies_s`` are untraced).
    traced_s: list[float] = field(default_factory=list)
    serve: dict[str, Any] = field(default_factory=dict)


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ref_loop_ms() -> float:
    """How slow this host runs Python right now: the thread CPU time of a
    fixed pure-Python + numpy loop, in ms.

    On a shared VM the vCPU itself speeds up and slows down (CPU time drifts
    as much as wall time), so the benchmark times this loop between its
    operations and scales its timed metrics to :data:`NOMINAL_REF_MS`.  It
    is CPU time, not wall time, so a thread of the program that keeps
    running on the shared CPU slows the program's operations, not the loop.
    """
    import numpy as np

    started = time.thread_time()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    array = np.arange(100_000, dtype=np.float64)
    for _ in range(50):
        array = np.sqrt(array * array + 1.0)
    return (time.thread_time() - started) * 1e3


def _traced_spans(traced: bool) -> list[dict]:
    """The spans a traced run recorded; untraced runs record none."""
    if not traced:
        return []
    check_complete()
    return drain_spans()


@dataclass
class _Passes:
    untraced: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    refs_ms: list[float] = field(default_factory=list)


def _alternate(run_pass: Callable[[bool], tuple[float, Any]], seconds: float,
               traced: bool) -> _Passes:
    """Run passes until the window ends; ``run_pass`` returns its own timing
    (the operation only, not its output check) and its output.

    Untraced, every pass is timed, and at least :data:`MIN_PASSES` run so the
    tail percentile is defined.  Traced, passes alternate untraced and traced:
    the traced ones give the spans, and comparing the two sets gives the
    tracing overhead.  The host's speed is read before every untraced pass
    and once after the last.
    """
    min_ops = 2 if traced else MIN_PASSES
    passes = _Passes()
    deadline = time.perf_counter() + seconds
    turn = 0
    while time.perf_counter() < deadline or len(passes.untraced) < min_ops:
        with_trace = traced and turn % 2 == 1
        if not with_trace:
            passes.refs_ms.append(ref_loop_ms())
        elapsed, output = run_pass(with_trace)
        (passes.traced if with_trace else passes.untraced).append(elapsed)
        passes.outputs.append(output)
        turn += 1
    passes.refs_ms.append(ref_loop_ms())
    return passes


# ---------------------------------------------------------------- paper_eval


def paper_accuracy(results: dict) -> dict[str, float]:
    """Mean relative error against the paper: fig9 speedups, fig16 B params/s."""
    fig9 = results["fig9"].rows
    fig9_err = sum(abs(row["speedup"] - row["paper_speedup"]) / row["paper_speedup"]
                   for row in fig9) / len(fig9)
    errors = []
    for row in results["fig16"].rows:
        for label in ("zero3", "50%", "33%", "25%"):
            measured = row.get("zero3_bpps" if label == "zero3" else f"dos_{label}_bpps")
            paper = row.get(f"paper_{label}_bpps")
            if isinstance(measured, (int, float)) and paper:
                errors.append(abs(measured - paper) / paper)
    return {"fig9_speedup_err_pct": 100.0 * fig9_err,
            "fig16_bpps_err_pct": 100.0 * sum(errors) / len(errors)}


def paper_pass(order: list[str], traced: bool = False) -> tuple[float, dict]:
    """Run every experiment once in ``order``; returns the seconds taken and
    the results.  ``traced`` turns the probes and the program's seam tracing
    on for the pass."""
    started = time.perf_counter()
    if not traced:
        results = {eid: experiments_base.run_experiment(eid) for eid in order}
    else:
        with installed(), configure(trace=True), \
                span("perfbench.pass", seam="perfbench"):
            results = {eid: experiments_base.run_experiment(eid) for eid in order}
    return time.perf_counter() - started, results


def eval_digest(results: dict) -> str:
    render = "".join(results[eid].format() for eid in EXPERIMENT_MODULES)
    return hashlib.sha256(render.encode()).hexdigest()


def paper_eval(seed: int, seconds: float, traced: bool, work: Path) -> Outcome:
    rng = random.Random(seed)
    last: dict = {}

    def one_pass(with_trace: bool) -> tuple[float, str]:
        order = list(EXPERIMENT_MODULES)
        rng.shuffle(order)
        elapsed, results = paper_pass(order, with_trace)
        last.update(results)
        return elapsed, eval_digest(results)

    paper_pass(list(EXPERIMENT_MODULES))  # warm-up: first-use imports and tables
    passes = _alternate(one_pass, seconds, traced)
    failed = sum(1 for digest in passes.outputs if digest != EVAL_DIGEST)
    untraced = passes.untraced
    return Outcome(
        latencies_s=untraced, throughput=len(EXPERIMENT_MODULES) / median(untraced),
        unit_name="experiments", attempted=len(passes.outputs), failed=failed,
        peak_rss_mb=_self_peak_rss_mb(), min_ops=MIN_PASSES, refs_ms=passes.refs_ms,
        report={"eval_wall_s": median(untraced), **paper_accuracy(last)},
        spans=_traced_spans(traced), traced_s=passes.traced,
    )


# --------------------------------------------------------------- grid_shared


def grid_projection(result) -> str:
    """Digest of a grid's ``(params, config_hash, value)`` records, by hash."""
    rows = sorted(
        ([record.scenario.as_dict(), record.scenario.config_hash(), to_dict(record.value)]
         for record in result.records),
        key=lambda row: row[1],
    )
    return _digest(rows)


def grid_pass(cores: list[int], work: Path, traced: bool = False) -> tuple[float, str]:
    """Run the grid once with the cache on in a fresh directory; returns the
    seconds taken and the projection digest.  ``traced`` turns the probes and
    the program's seam tracing on for the pass."""
    spec = SweepSpec.build({"cpu_cores_per_gpu": tuple(cores)}, GRID_BASE)
    cache_dir = tempfile.mkdtemp(prefix="grid-", dir=work)
    try:
        policy = ExecutionPolicy.resolve(use_cache=True, cache_dir=cache_dir,
                                         executor="serial", jobs=1)
        started = time.perf_counter()
        if not traced:
            result = SweepRunner(run_training, policy=policy).run(spec)
        else:
            with installed(), span("perfbench.pass", seam="perfbench"):
                runner = SweepRunner(run_training, policy=policy.with_overrides(trace=True))
                result = runner.run(spec)
        elapsed = time.perf_counter() - started
        return elapsed, grid_projection(result)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def grid_shared(seed: int, seconds: float, traced: bool, work: Path) -> Outcome:
    rng = random.Random(seed)

    def one_pass(with_trace: bool) -> tuple[float, str]:
        cores = list(GRID_CORES)
        rng.shuffle(cores)
        return grid_pass(cores, work, with_trace)

    grid_pass(list(GRID_CORES), work)  # warm-up
    passes = _alternate(one_pass, seconds, traced)
    failed = sum(1 for digest in passes.outputs if digest != GRID_DIGEST)
    throughput = len(GRID_CORES) / median(passes.untraced)
    return Outcome(
        latencies_s=passes.untraced, throughput=throughput, unit_name="scenarios",
        attempted=len(passes.outputs), failed=failed, peak_rss_mb=_self_peak_rss_mb(),
        min_ops=MIN_PASSES, refs_ms=passes.refs_ms, report={"scenarios_per_s": throughput},
        spans=_traced_spans(traced), traced_s=passes.traced,
    )


# ----------------------------------------------------------------- serve_mix


def child_env() -> dict[str, str]:
    """Environment for child processes: ``src`` importable, no ``REPRO_*``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path.cwd() / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Daemon:
    """One ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, work: Path, *, spans_out: Path | None = None) -> None:
        cache_dir = tempfile.mkdtemp(prefix="serve-", dir=work)
        serve_args = ["serve", "--bind", "127.0.0.1:0", "--cache-dir", cache_dir]
        if spans_out is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            command = [sys.executable, str(Path(__file__).with_name("daemon.py")),
                       "--spans-out", str(spans_out), "--", "--trace"] + serve_args
        self.log = open(work / f"{Path(cache_dir).name}.log", "wb")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self.log, env=child_env(), text=True)
        try:
            self.address = self._await_listening(timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _await_listening(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("[serve] listening"):
                    fields = dict(part.split("=", 1) for part in line.split()[2:])
                    return fields["host"], int(fields["port"])
        raise RuntimeError(f"serve daemon did not start (exit code {self.proc.poll()})")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the serve daemon")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _pool(rng: random.Random) -> list[dict]:
    return [
        {"axes": {"cpu_cores_per_gpu": sorted(rng.sample(SERVE_CORES, 4))},
         "base": {"model": rng.choice(SERVE_MODELS), "strategy": rng.choice(SERVE_STRATEGIES)}}
        for _ in range(SERVE_POOL_SIZE)
    ]


def _shared_grid(seed: int, index: int) -> dict:
    """The grid both clients send at once to open segment ``index``: unseen
    by the daemon for the first 64 segments, more than a 60 s window has."""
    start = 100 + 4 * ((seed * 37 + index) % 64)
    return {"axes": {"cpu_cores_per_gpu": list(range(start, start + 4))},
            "base": {"model": SERVE_MODELS[index % len(SERVE_MODELS)],
                     "strategy": "deep-optimizer-states"}}


def _next_request(rng: random.Random, pool: list[dict]) -> tuple[str, dict]:
    method = rng.choice(SERVE_METHODS)
    if method == "simulate":
        return method, {"model": rng.choice(SERVE_MODELS),
                        "strategy": rng.choice(SERVE_STRATEGIES),
                        "cpu_cores_per_gpu": rng.choice(SERVE_CORES)}
    if method == "sweep":
        return method, rng.choice(pool)
    return method, {}


@dataclass
class _Tally:
    """Client-side record of one serve phase."""

    latencies: list[float] = field(default_factory=list)
    by_method: dict[str, list[float]] = field(default_factory=dict)
    #: ``(method, params, result)`` per answered request, checked by
    #: :func:`_check` once the clients have stopped.
    replies: list[tuple[str, dict, Any]] = field(default_factory=list)
    errors: int = 0
    #: A transport failure that ended a client; the phase re-raises it.
    fatal: Exception | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)

    def count(self) -> int:
        with self.lock:
            return len(self.latencies) + self.errors


def _client_loop(address, seed: int, client: int, segments: int, tally: _Tally,
                 gate: threading.Barrier, traced: bool) -> None:
    """Send requests segment by segment, pausing at ``gate`` between them.
    The last segment runs on until the phase has :data:`SERVE_MIN_REQUESTS`."""
    rng = random.Random(seed * 1009 + client)
    pool = _pool(random.Random(seed))
    try:
        with ServeClient(address, client_id=f"perfbench-{client}") as conn:
            for segment in range(segments):
                gate.wait()
                deadline = time.perf_counter() + SERVE_SEGMENT_S
                last = segment == segments - 1
                method, params = "sweep", _shared_grid(seed, segment)
                while True:
                    started = time.perf_counter()
                    try:
                        if traced:
                            with span(f"request.{method}", seam=SEAM_CLIENT):
                                result = conn.request(method, params)
                        else:
                            result = conn.request(method, params)
                    except ServeRequestError:
                        with tally.lock:
                            tally.errors += 1
                    else:
                        elapsed = time.perf_counter() - started
                        with tally.lock:
                            tally.latencies.append(elapsed)
                            tally.by_method.setdefault(method, []).append(elapsed)
                            tally.replies.append((method, params, result))
                    if time.perf_counter() >= deadline and not (
                            last and tally.count() < SERVE_MIN_REQUESTS):
                        break
                    method, params = _next_request(rng, pool)
                gate.wait()
    except threading.BrokenBarrierError:
        pass  # another thread failed; it reports why
    except Exception as exc:  # handed to the joining thread
        tally.fatal = exc
        gate.abort()


def _projection(method: str, result: Any) -> Any:
    """The part of a response the in-process call must reproduce exactly."""
    if method == "sweep":
        return [[row["params"], row["config_hash"], row["value"]]
                for row in result["scenarios"]]
    return result


def _reference(method: str, params: dict) -> Any:
    """The same call made in-process, JSON round-tripped like a response."""
    if method == "simulate":
        value = to_dict(run_training(**params))
    elif method == "sweep":
        axes = {name: tuple(values) for name, values in params["axes"].items()}
        runner = SweepRunner(run_training,
                             policy=ExecutionPolicy.resolve(use_cache=False, executor="serial"))
        value = runner.run(SweepSpec.build(axes, params["base"])).to_dict()
    else:
        value = {"pong": True}
    return _projection(method, json.loads(json.dumps(value)))


def _check(tally: _Tally) -> int:
    """Responses that differ from the in-process call, plus request errors.
    Runs after the window, so none of its work is timed."""
    expected: dict[str, str] = {}
    failed = tally.errors
    for method, params, result in tally.replies:
        key = _digest([method, params])
        if key not in expected:
            expected[key] = _digest(_reference(method, params))
        failed += _digest(_projection(method, result)) != expected[key]
    return failed


@dataclass
class _Phase:
    """One serve daemon's run: the client tally and what the daemon reported."""

    tally: _Tally
    server_metrics: dict
    peak_rss_mb: float
    #: Seconds the clients were sending, without the pauses between segments.
    busy_s: float
    refs_ms: list[float]


def _serve_phase(work: Path, seed: int, seconds: float, *,
                 spans_out: Path | None = None) -> _Phase:
    segments = max(1, round(seconds / SERVE_SEGMENT_S))
    daemon = Daemon(work, spans_out=spans_out)
    try:
        tally = _Tally()
        gate = threading.Barrier(SERVE_CLIENTS + 1, timeout=120)
        threads = [
            threading.Thread(target=_client_loop, args=(
                daemon.address, seed, client, segments, tally, gate,
                spans_out is not None))
            for client in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        refs_ms: list[float] = []
        busy = 0.0
        try:
            for _ in range(segments):
                refs_ms.append(ref_loop_ms())
                gate.wait()  # the clients start the segment
                started = time.perf_counter()
                gate.wait()  # every client has finished it
                busy += time.perf_counter() - started
            refs_ms.append(ref_loop_ms())
        except threading.BrokenBarrierError:
            pass  # a client failed; tally.fatal says why
        finally:
            gate.abort()
            for thread in threads:
                thread.join()
        if tally.fatal is not None:
            raise RuntimeError("a serve client failed") from tally.fatal
        with ServeClient(daemon.address) as conn:
            server_metrics = conn.request("metrics")
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return _Phase(tally, server_metrics, rss, busy, refs_ms)


def serve_mix(seed: int, seconds: float, traced: bool, work: Path) -> Outcome:
    phase_seconds = seconds / 2 if traced else seconds
    phase = _serve_phase(work, seed, phase_seconds)
    latencies = phase.tally.latencies
    throughput = len(latencies) / phase.busy_s
    outcome = Outcome(
        latencies_s=latencies, throughput=throughput, unit_name="requests",
        attempted=len(latencies) + phase.tally.errors, failed=_check(phase.tally),
        peak_rss_mb=phase.peak_rss_mb, min_ops=SERVE_MIN_REQUESTS, refs_ms=phase.refs_ms,
        report={"throughput_rps": throughput,
                "coalesce_followers": phase.server_metrics["coalescing"]["followers_total"]},
    )
    if traced:
        spans_out = work / "serve-spans.json"
        probed = _serve_phase(work, seed, phase_seconds, spans_out=spans_out)
        absorb_spans(json.loads(spans_out.read_text()))
        outcome.spans = _traced_spans(True)
        # The probed daemon runs after the untraced one, maybe at another
        # host speed: scale its latencies to the untraced phase's speed.
        speed = median(phase.refs_ms) / median(probed.refs_ms)
        outcome.traced_s = [latency * speed for latency in probed.tally.latencies]
        outcome.serve = {
            "followers": probed.server_metrics["coalescing"]["followers_total"],
            "requests": len(probed.tally.latencies),
            "client_by_method": probed.tally.by_method,
        }
        outcome.failed += _check(probed.tally)
        outcome.attempted += len(probed.tally.latencies) + probed.tally.errors
    return outcome


WORKLOADS: dict[str, Callable[[int, float, bool, Path], Outcome]] = {
    "paper_eval": paper_eval,
    "grid_shared": grid_shared,
    "serve_mix": serve_mix,
}
