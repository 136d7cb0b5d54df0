"""The repository's benchmark: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that prints the per-layer table, writes it and a
Chrome trace-event file under ``.perfbench_out/``, and reports the tracing
overhead.  Human-readable lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, layers and metric definitions are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 3


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------- set-up


def setup_probe(workload: str) -> None:
    """Body of one set-up child: import, build the inputs, run one warm-up
    operation, then report ready.  ``serve_mix`` times a daemon instead."""
    import workloads

    if workload == "paper_eval":
        workloads.paper_pass(list(workloads.EXPERIMENT_MODULES))
    else:
        with tempfile.TemporaryDirectory(dir=WORK) as work:
            workloads.grid_pass(list(workloads.GRID_CORES), Path(work))
    print("ready", flush=True)


def measure_setup(workload: str, work: Path) -> tuple[list[float], list[float]]:
    """Wall seconds of each set-up, and the host's reference-loop time
    before the first set-up and after each one."""
    import workloads

    times = []
    refs_ms = [workloads.ref_loop_ms()]
    for _ in range(SETUP_REPEATS):
        if times:
            refs_ms.append(workloads.ref_loop_ms())
        started = time.perf_counter()
        if workload == "serve_mix":
            daemon = workloads.Daemon(work)
            try:
                with workloads.ServeClient(daemon.address) as client:
                    client.request("ping")
                times.append(time.perf_counter() - started)
            finally:
                daemon.stop()
            continue
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--setup-probe", workload],
            stdout=subprocess.PIPE, env=workloads.child_env(), text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed ({proc.returncode})")
    refs_ms.append(workloads.ref_loop_ms())
    return times, refs_ms


# ------------------------------------------------------------------ metrics


def end_to_end(outcome, setup_times: list[float],
               setup_refs_ms: list[float]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics.  Times are scaled to the nominal host speed:
    by ``NOMINAL_REF_MS`` over the median reference loop read between the
    operations, and for each set-up, over the mean of the readings around it."""
    from tails import fixed_tail, median
    from workloads import NOMINAL_REF_MS

    slowness = median(outcome.refs_ms) / NOMINAL_REF_MS
    setups = [seconds * NOMINAL_REF_MS / ((before + after) / 2)
              for seconds, before, after in zip(setup_times, setup_refs_ms,
                                                setup_refs_ms[1:])]
    _, tail_s = fixed_tail(outcome.latencies_s, outcome.min_ops)
    return {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "latency_p50_ms": (median(outcome.latencies_s) * 1e3 / slowness, "ms"),
        "latency_tail_ms": (tail_s * 1e3 / slowness, "ms"),
        "throughput_per_s": (outcome.throughput * slowness, "1/s"),
    }


def per_layer(outcome, ref_ms: float) -> dict[str, tuple[float, str]]:
    from probes import span_breakdown, totals
    from tails import median
    from workloads import EXPERIMENT_MODULES

    layers = totals(outcome.spans)
    serve = bool(outcome.serve)
    units = outcome.serve["requests"] if serve else len(outcome.traced_s)

    def per_unit(value: float) -> float:
        return value / units

    def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    def calls(name: str) -> float:
        return per_unit(layers[(name,)].calls)

    def items(name: str) -> float:
        return per_unit(layers[(name,)].sums["items"])

    def us(name: str) -> float:
        return per_unit(layers[(name,)].seconds) * 1e6

    def is_root(record) -> bool:
        # Roots are the spans whose wall time the layers should account for:
        # the daemon's serve-seam request spans, or the benchmark's passes.
        if serve:
            return record.get("seam") == "serve"
        return record.get("name") == "perfbench.pass"

    breakdown = span_breakdown(outcome.spans, is_root)
    rows = layers[("training.rows",)]
    stacked = layers[("sim.stacked",)]
    sweep = layers[("sweep.run",)]
    kernels = [layers[(name,)] for name in ("sim.heap", "sim.vector", "sim.stacked")]
    by_hit = totals(outcome.spans, "all_hit")
    hit, miss = by_hit[("sweep.run", True)], by_hit[("sweep.run", False)]
    metrics = {
        "runtime.resolve_calls": (calls("runtime.resolve"), "count"),
        "runtime.resolve_us": (us("runtime.resolve"), "us"),
        "training.resolve_calls": (calls("training.resolve"), "count"),
        "training.resolve_us": (us("training.resolve"), "us"),
        "training.rows_built": (items("training.rows"), "count"),
        "training.build_ns_per_op": (
            ratio(rows.seconds, rows.sums["items"], 1e9), "ns"),
        "sim.heap_ops": (items("sim.heap"), "count"),
        "sim.vector_ops": (items("sim.vector"), "count"),
        "sim.stacked_ops": (items("sim.stacked"), "count"),
        "sim.schedule_ns_per_op": (ratio(
            sum(group.seconds for group in kernels),
            sum(group.sums["items"] for group in kernels), 1e9), "ns"),
        "sim.compile_us": (us("sim.compile"), "us"),
        "sim.shape_groups": (calls("sim.stacked"), "count"),
        "sim.scenarios_per_group": (
            ratio(stacked.sums["scenarios"], stacked.calls), "count"),
        "training.analyse_us": (us("training.analyse"), "us"),
        "sweep.scenarios": (items("sweep.run"), "count"),
        "sweep.cache_hit_ratio": (ratio(sweep.sums["hits"], sweep.sums["items"]), "ratio"),
        "sweep.hit_us": (ratio(hit.seconds, hit.sums["items"], 1e6), "us"),
        "sweep.miss_us": (ratio(miss.seconds, miss.sums["items"], 1e6), "us"),
        "dispatch.tasks": (per_unit(breakdown["dispatch_tasks"]), "count"),
        "dispatch.task_overhead_us": (
            ratio(breakdown["dispatch_self_s"], breakdown["dispatch_tasks"], 1e6), "us"),
    }
    execute = layers[("serve.execute",)]
    execute_ms = ratio(execute.seconds, execute.calls, 1e3)
    client = outcome.serve.get("client_by_method", {})
    client_all = [value for values in client.values() for value in values]
    metrics.update({
        "serve.execute_ms": (execute_ms, "ms"),
        "serve.transport_ms": (
            ratio(sum(client_all), len(client_all), 1e3) - execute_ms, "ms"),
        "serve.ping_p50_ms": (
            median(client["ping"]) * 1e3 if client.get("ping") else 0.0, "ms"),
        "serve.coalesce_followers": (float(outcome.serve.get("followers", 0)), "count"),
    })
    by_id = totals(outcome.spans, "experiment")
    for eid in EXPERIMENT_MODULES:
        samples = by_id[("experiments", eid)].durations
        metrics[f"experiments.{eid}_s"] = (median(samples) if samples else 0.0, "s")
    # Means, not medians: serve_mix requests are of mixed kinds, and its
    # median moves with how pings queue behind simulations, not with tracing.
    metrics["obs.trace_overhead_pct"] = ((
        (sum(outcome.traced_s) / len(outcome.traced_s))
        / (sum(outcome.latencies_s) / len(outcome.latencies_s)) - 1.0) * 100.0, "%")
    metrics["obs.unaccounted_pct"] = (
        100.0 * (1.0 - ratio(breakdown["work_s"], breakdown["root_s"])), "%")
    metrics["host.ref_loop_ms"] = (ref_ms, "ms")
    return metrics


def write_trace(outcome, name: str, metrics: dict) -> Path:
    from repro.obs.export import validate_trace_events
    from repro.obs.trace import trace_events

    OUT.mkdir(exist_ok=True)
    payload = trace_events(outcome.spans)
    validate_trace_events(payload)
    trace_path = OUT / f"{name}-trace.json"
    trace_path.write_text(json.dumps(payload, default=str))
    (OUT / f"{name}-layers.json").write_text(json.dumps(
        {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        indent=2))
    return trace_path


# --------------------------------------------------------------------- main


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail("run from the repository root: src/repro is missing")
    # A shell that started us in the background may have set SIGINT to
    # ignored, which children inherit; the serve daemons stop on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # The run and every process it starts share one CPU.  Spread over the
    # two vCPUs of a shared VM, the serve clients' and daemon's wake-ups
    # crossed CPUs and their latencies followed the host's load: serve_mix
    # run medians spread about 0.3 of their median across seeds, against
    # about 0.12 on one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    WORK.mkdir(exist_ok=True)

    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0

    import workloads
    from tails import fixed_tail, median

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(workloads.WORKLOADS)}")
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_times, setup_refs_ms = measure_setup(args.workload, work)
        outcome = workloads.WORKLOADS[args.workload](
            seed=args.seed, seconds=args.seconds, traced=bool(args.trace), work=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ref_ms = median(outcome.refs_ms)
    print(f"workload {args.workload}  seed {args.seed}  ops {len(outcome.latencies_s)}  "
          f"{outcome.unit_name}/s {outcome.throughput:.6g} (wall clock)")
    print(f"  error_rate {outcome.failed / outcome.attempted:.6f}  "
          f"host.ref_loop_ms {ref_ms:.3f} (nominal {workloads.NOMINAL_REF_MS:g})  "
          f"setup runs {[round(t, 3) for t in setup_times]} s wall")
    for key, value in outcome.report.items():
        print(f"  {key} {value:.6g}")
    if args.trace:
        metrics = per_layer(outcome, ref_ms)
        trace_path = write_trace(outcome, f"{args.workload}-seed{args.seed}", metrics)
        print(f"  trace: {trace_path.relative_to(ROOT)} ({len(outcome.spans)} spans)")
    else:
        pct, tail_s = fixed_tail(outcome.latencies_s, outcome.min_ops)
        print(f"  latency_tail_ms is p{pct:g} of {len(outcome.latencies_s)} samples "
              f"(at least {outcome.min_ops} per run)")
        if pct >= 99.0:
            print(f"  latency_p99_ms {tail_s * 1e3:.6g}")
        metrics = end_to_end(outcome, setup_times, setup_refs_ms)
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
