"""Command-line interface for the reproduction.

Usage (after ``pip install -e .``)::

    python -m repro list-presets
    python -m repro config
    python -m repro --trace config --json
    python -m repro --middleware timing,logging config --json
    python -m repro compare --model 20B --strategies zero3-offload deep-optimizer-states
    python -m repro experiment fig7
    python -m repro experiment fig2 --models 7B,20B --set iterations=2
    python -m repro sweep --models 7B,20B --strategies zero3-offload,deep-optimizer-states --jobs 4
    python -m repro sweep --models 20B --machines jlse-4xh100,4xv100 --strategies deep-optimizer-states
    python -m repro sweep --worker numeric --models nano --axis seed=0,1,2
    python -m repro pipeline --schedule zb --stages 8 --microbatches 16
    python -m repro pipeline --list-schedules
    python -m repro sweep --worker pipeline --strategies gpipe,1f1b,zb --axis microbatches=4,8,16
    python -m repro sweep --executor cluster --workers 2 --bind 127.0.0.1:7931 --progress
    python -m repro worker --connect 127.0.0.1:7931 --retry-for 60
    python -m repro serve --bind 127.0.0.1:7940
    python -m repro --middleware timing,quota:limit=60 serve --bind 127.0.0.1:7940 --jobs 4
    python -m repro sweep --cache-stats --models 7B --strategies deep-optimizer-states
    python -m repro sweep --cache-evict stale
    python -m repro stride --machine jlse-4xh100

The CLI is a thin wrapper over the public API so that the headline results can be
regenerated without writing any Python.  Execution policy is handled globally:
``--middleware`` / ``--trace`` / ``--trace-out`` before the subcommand apply
to *every* command by entering a ``repro.configure`` context around dispatch
— the resolved middleware chain also wraps the subcommand itself at the CLI
seam (:mod:`repro.middleware`) — and ``repro config`` prints the fully resolved
:class:`~repro.runtime.ExecutionPolicy` with each field's source.  ``sweep``
exposes the scenario-sweep subsystem directly: any
:func:`repro.experiments.base.run_training` keyword (or, with ``--worker
numeric``, any :func:`repro.training.numeric.run_numeric_training` keyword)
can become an axis; ``--executor`` picks the dispatch backend
(``serial``/``pool``/``cluster``; ``--jobs`` drives the default choice), with
``--executor cluster`` dispatching over TCP to ``repro worker`` daemons
(``--workers`` of them gate dispatch, ``--bind`` sets the coordinator
address); and results are cached on disk so a repeated invocation is instant
(disable with ``--no-cache``).  ``--progress`` streams one completion line
per scenario from any executor.  The cache is inspectable
(``--cache-stats``) and evictable (``--cache-evict stale|all``) through its
JSON manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext

from repro.baselines.registry import available_strategies
from repro.common.errors import ConfigurationError
from repro.core.performance_model import cpu_to_gpu_update_ratio, optimal_update_stride
from repro.experiments import EXPERIMENT_MODULES
from repro.experiments.base import run_experiment, run_training, training_sweep
from repro.hardware.presets import get_machine_preset, list_machine_presets
from repro.hardware.throughput import ThroughputProfile
from repro.middleware import (
    SEAM_CLI,
    MiddlewareContext,
    build_chain,
    effective_middleware_specs,
    middleware_metrics,
)
from repro.obs.trace import tracing_enabled
from repro.model.presets import list_model_presets
from repro.runtime import EXECUTOR_CHOICES, ExecutionPolicy, configure, resolution_report
from repro.sweep import SweepRunner, SweepSpec, default_cache_dir
from repro.sweep.cache import cache_stats, evict_cache, format_stats
from repro.training.metrics import format_table
from repro.training.numeric import run_numeric_training
from repro.training.trainer import compare_strategies  # noqa: F401  (public re-export)


def _parse_scalar(text: str):
    """Best-effort scalar parsing for --set/--axis values: int, float, bool, None, str."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_values(text: str) -> tuple:
    """Parse a comma-separated value list into a tuple of scalars."""
    return tuple(_parse_scalar(part) for part in text.split(",") if part != "")


def _parse_assignment(item: str) -> tuple[str, str]:
    """Split one KEY=VALUE argument."""
    key, separator, value = item.partition("=")
    if not separator or not key:
        raise ConfigurationError(f"expected KEY=VALUE, got {item!r}")
    return key.replace("-", "_"), value


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """Execution-policy flags shared by ``sweep`` and ``compare``."""
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for scenario execution (default: serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    # The default is described, not resolved: parser construction must never
    # run the policy resolver (a broken REPRO_* variable would kill --help).
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: ~/.cache/repro/sweeps "
                             "or $REPRO_SWEEP_CACHE_DIR)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deep Optimizer States reproduction (MIDDLEWARE 2024)",
    )
    # Global execution-policy flags: apply to every subcommand by entering a
    # repro.configure context around dispatch.  Distinct dests keep subcommand
    # flags (e.g. `compare --trace-out`) from clobbering them — a classic
    # argparse shared-dest pitfall.
    parser.add_argument("--middleware", dest="global_middleware", default=None,
                        metavar="SPEC[,SPEC...]",
                        help="middleware chain for every command, e.g. "
                             "timing,logging or retry:attempts=3:backoff=0.1 "
                             "(overrides $REPRO_MIDDLEWARE; see docs/middleware.md)")
    # store_const rather than store_true: the default must stay None so an
    # unset flag falls through to context/$REPRO_TRACE/default resolution.
    parser.add_argument("--trace", dest="global_trace", action="store_const",
                        const=True, default=None,
                        help="record one span per seam crossing (CLI dispatch, "
                             "serve request, dispatched task, engine run) for "
                             "this command (overrides $REPRO_TRACE; see "
                             "docs/observability.md)")
    parser.add_argument("--trace-out", dest="global_trace_out", default=None,
                        metavar="PATH",
                        help="write the recorded spans as Chrome trace-event "
                             "JSON when the command finishes (implies --trace; "
                             "overrides $REPRO_TRACE_OUT)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-presets", help="list model, machine and strategy presets")

    config = subparsers.add_parser(
        "config", help="print the fully resolved execution policy and each field's source"
    )
    config.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the resolved policy as JSON")

    compare = subparsers.add_parser("compare", help="compare offloading strategies on one job")
    compare.add_argument("--model", default="20B", help="model preset (Table 2 name)")
    compare.add_argument("--machine", default="jlse-4xh100", help="machine preset")
    compare.add_argument("--microbatch", type=int, default=1, help="microbatch size per GPU")
    compare.add_argument("--data-parallel", type=int, default=None, help="data-parallel degree")
    compare.add_argument("--static-gpu-fraction", type=float, default=0.0,
                         help="TwinFlow-style fraction of optimizer state pinned to the GPU")
    compare.add_argument("--iterations", type=int, default=10, help="training iterations")
    compare.add_argument("--strategies", nargs="+", default=available_strategies(),
                         help="strategies to compare")
    compare.add_argument("--trace-out", default=None, dest="trace_out", metavar="PATH",
                         help="export each strategy's simulated schedule as one "
                              "Chrome trace-event file, one process group per "
                              "strategy (re-simulates each non-OOM strategy)")
    _add_sweep_flags(compare)

    experiment = subparsers.add_parser("experiment", help="run one paper experiment (table/figure)")
    experiment.add_argument("experiment_id", choices=sorted(EXPERIMENT_MODULES),
                            help="experiment identifier, e.g. fig7")
    experiment.add_argument("--models", default=None,
                            help="comma-separated model presets forwarded to the experiment")
    experiment.add_argument("--set", action="append", default=[], dest="overrides",
                            metavar="KEY=VALUE",
                            help="forward any run() keyword, e.g. --set iterations=2 "
                                 "(comma-separated values become tuples)")
    experiment.add_argument("--jobs", type=int, default=None,
                            help="worker processes for the experiment's internal sweeps")

    pipeline = subparsers.add_parser(
        "pipeline", help="simulate one pipeline-parallel iteration (gpipe/1f1b/zb)"
    )
    pipeline.add_argument("--schedule", default=None,
                          help="schedule family (gpipe, 1f1b, zb or an alias; "
                               "default: the resolved pipeline_schedule policy field)")
    pipeline.add_argument("--stages", type=int, default=4,
                          help="pipeline depth (stage count)")
    pipeline.add_argument("--microbatches", type=int, default=8,
                          help="microbatches in flight per iteration")
    pipeline.add_argument("--model", default="20B", help="model preset (Table 2 name)")
    pipeline.add_argument("--machine", default="jlse-4xh100", help="machine preset")
    pipeline.add_argument("--microbatch-size", type=int, default=1,
                          help="samples per microbatch")
    pipeline.add_argument("--backward-split", type=float, default=None,
                          help="fraction of the backward pass on the input-gradient "
                               "half (B); the rest is the deferrable W half "
                               "(default 0.5)")
    pipeline.add_argument("--no-activation-checkpointing", action="store_true",
                          help="disable activation checkpointing in the timing model")
    pipeline.add_argument("--list-schedules", action="store_true",
                          help="list the registered schedule families and offload "
                               "strategies, then exit")
    pipeline.add_argument("--json", action="store_true", dest="as_json",
                          help="emit the result as JSON")
    pipeline.add_argument("--trace-out", default=None, dest="trace_out", metavar="PATH",
                          help="export the simulated schedule as Chrome trace-event "
                               "JSON (one track per stage/link resource; open in "
                               "Perfetto or chrome://tracing)")

    sweep = subparsers.add_parser(
        "sweep", help="run a declarative training-scenario grid, parallel and cached"
    )
    sweep.add_argument("--worker", choices=("training", "numeric", "pipeline"),
                       default=None,
                       dest="worker_kind",
                       help="worker behind the grid: 'training' simulates paper-scale "
                            "jobs (run_training, the default), 'numeric' trains tiny "
                            "models for real (run_numeric_training), 'pipeline' "
                            "simulates pipeline-parallel iterations (run_pipeline; "
                            "--strategies becomes the schedule axis)")
    sweep.add_argument("--executor", default=None, choices=EXECUTOR_CHOICES,
                       help="dispatch backend: 'serial', 'pool' (local processes), "
                            "'cluster' (TCP to repro worker daemons) or 'auto' "
                            "(pool when --jobs > 1; the default)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="cluster executor: wait for this many connected "
                            "worker daemons before dispatching (default 1, "
                            "or $REPRO_WORKERS)")
    sweep.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="cluster executor: coordinator listen address "
                            "(port 0 picks a free port and prints it)")
    sweep.add_argument("--lease-timeout", type=float, default=None, metavar="SECONDS",
                       help="cluster executor: task lease duration; a worker silent "
                            "for this long has its task re-queued elsewhere")
    sweep.add_argument("--progress", action="store_true",
                       help="stream one line per completed scenario (id, worker, "
                            "wall time, cache hit/miss, rate/ETA) from any executor")
    sweep.add_argument("--models", default=None,
                       help="comma-separated model presets (one sweep axis; default "
                            "7B,20B for training, nano,tiny-1M for numeric)")
    sweep.add_argument("--strategies", default=None,
                       help="comma-separated strategies (one sweep axis; default: all "
                            "registered offload strategies, or all schedule families "
                            "with --worker pipeline, where this is the schedule axis)")
    sweep.add_argument("--machines", default=None,
                       help="comma-separated machine presets (adds a machine axis, "
                            "training and pipeline workers only), e.g. jlse-4xh100,4xv100")
    sweep.add_argument("--axis", action="append", default=[], dest="axes",
                       metavar="KEY=V1,V2",
                       help="extra axis over a worker keyword, "
                            "e.g. --axis microbatch_size=1,2,4 or --axis machine=jlse-4xh100,4xv100")
    sweep.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE",
                       help="fixed worker keyword applied to every scenario")
    sweep.add_argument("--iterations", type=int, default=4,
                       help="training iterations (numeric worker: steps)")
    sweep.add_argument("--json", default=None, dest="json_path",
                       help="write the structured sweep result to this JSON file")
    sweep.add_argument("--cache-stats", action="store_true",
                       help="print result-cache statistics (entries, bytes, stale "
                            "entries) after the sweep")
    sweep.add_argument("--cache-evict", nargs="?", const="stale",
                       choices=("stale", "all"), default=None,
                       help="evict cache entries instead of sweeping: 'stale' removes "
                            "orphaned/version-mismatched entries, 'all' clears the cache")
    _add_sweep_flags(sweep)

    worker = subparsers.add_parser(
        "worker", help="run a dispatch worker daemon serving cluster sweeps"
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="address of the sweep coordinator "
                             "(repro sweep --executor cluster --bind ...)")
    worker.add_argument("--id", default=None, dest="worker_id",
                        help="worker identity shown in progress lines "
                             "(default: <hostname>-<pid>)")
    worker.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS",
                        help="lease heartbeat interval; 0 disables heartbeats "
                             "(default: what the coordinator suggests)")
    worker.add_argument("--retry-for", type=float, default=0.0, metavar="SECONDS",
                        help="keep retrying the initial connect for this long, so "
                             "daemons can start before the coordinator is listening")

    serve = subparsers.add_parser(
        "serve", help="run the simulation service daemon (framed + HTTP on one port)"
    )
    serve.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="listen address; port 0 picks a free port and prints it "
                            "(IPv6 hosts bracketed, as in [::1]:7940)")
    _add_sweep_flags(serve)

    stride = subparsers.add_parser("stride", help="evaluate Equation 1 for a machine preset")
    stride.add_argument("--machine", default="jlse-4xh100", help="machine preset")
    stride.add_argument("--cores-per-gpu", type=int, default=None, help="CPU cores per GPU")
    return parser


def _cmd_config(args: argparse.Namespace) -> int:
    """Print the resolved execution policy; global flags count as explicit args.

    Fields resolve independently (``resolution_report``), so a broken
    ``REPRO_*`` variable prints as an error row — the command stays usable as
    the tool for diagnosing exactly that — and the exit code turns non-zero.
    """
    described = resolution_report(
        middleware=args.global_middleware,
        trace=args.global_trace, trace_out=args.global_trace_out,
    )
    errors = sum(1 for item in described.values() if "error" in item)
    # TimingMiddleware feeds a process-wide per-seam registry; surface it here.
    # A timing chain on this very invocation is already visible: counts are
    # incremented at seam entry, so the in-flight cli interception shows up.
    metrics = middleware_metrics()
    if args.as_json:
        payload: dict = dict(described)
        if metrics:
            payload["middleware_metrics"] = metrics
        print(json.dumps(payload, indent=2))
        return 1 if errors else 0
    rendered = {
        name: str(item["value"]) if "value" in item else f"<error: {item['error']}>"
        for name, item in described.items()
    }
    width = max(len(name) for name in described)
    value_width = max(len(text) for text in rendered.values())
    print(f"{'field':<{width}}  {'value':<{value_width}}  source")
    for name, item in described.items():
        print(f"{name:<{width}}  {rendered[name]:<{value_width}}  {item['source']}")
    if metrics:
        print("\nmiddleware metrics (this process):")
        for seam, entry in sorted(metrics.items()):
            print(f"  {seam}: count={int(entry['count'])} errors={int(entry['errors'])} "
                  f"total={entry['total_s']:.6f}s last={entry['last_s']:.6f}s")
    return 1 if errors else 0


def _cmd_list_presets() -> int:
    from repro.pipeline import available_schedules

    print("Models    :", ", ".join(list_model_presets(include_tiny=True)))
    print("Machines  :", ", ".join(list_machine_presets()))
    print("Strategies:", ", ".join(available_strategies()))
    print("Schedules :", ", ".join(available_schedules()))
    print("Experiments:", ", ".join(sorted(EXPERIMENT_MODULES)))
    return 0


_REPORT_COLUMNS = ["forward_s", "backward_s", "update_s", "iteration_s",
                   "update_throughput_bpps", "tflops", "end_to_end_s", "oom"]


def _cmd_compare(args: argparse.Namespace) -> int:
    reports = training_sweep(
        {"strategy": tuple(args.strategies)},
        base={
            "model": args.model,
            "machine": args.machine,
            "microbatch_size": args.microbatch,
            "data_parallel_degree": args.data_parallel,
            "static_gpu_fraction": args.static_gpu_fraction,
            "iterations": args.iterations,
            # compare has always averaged steady state over two warmup iterations.
            "warmup_iterations": min(2, args.iterations - 1),
        },
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
    )
    rows = [report.as_row() for report in reports.values()]
    columns = ["strategy"] + _REPORT_COLUMNS
    print(format_table(rows, columns=[c for c in columns if any(c in row for row in rows)]))
    valid = {name: report for name, report in reports.items() if not report.oom}
    if "zero3-offload" in valid and "deep-optimizer-states" in valid:
        speedup = valid["deep-optimizer-states"].speedup_over(valid["zero3-offload"])
        print(f"\nDeep Optimizer States speedup over ZeRO-3 offload: {speedup:.2f}x")
    if args.trace_out is not None:
        # Reports carry metrics, not schedules; re-simulate each comparable
        # strategy once to render its timeline (cheap next to the sweep above,
        # and byte-identical to what the sweep scheduled).
        from repro.experiments.base import _training_trainer
        from repro.obs.export import write_schedules_trace

        schedules = {}
        for name in valid:
            trainer = _training_trainer(
                model=args.model, strategy=name, machine=args.machine,
                static_gpu_fraction=args.static_gpu_fraction,
                microbatch_size=args.microbatch,
                data_parallel_degree=args.data_parallel,
                iterations=args.iterations,
            )
            schedules[name] = trainer.simulate(trainer.config.resolve()).schedule
        path = write_schedules_trace(args.trace_out, schedules)
        print(f"schedule trace written to {path}", file=sys.stderr)
    return 0


def _print_registry(title: str, registry) -> None:
    print(f"{title}:")
    for entry in registry.entries():
        aliases = f"  (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        print(f"  {entry.name:<22} {entry.description}{aliases}")


_PIPELINE_COLUMNS = (
    "schedule", "stages", "microbatches", "op_count", "makespan_s", "ideal_s",
    "bubble_fraction", "f_s", "b_s", "w_s", "comm_s",
    "min_stage_utilization", "max_stage_utilization",
)


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.baselines.registry import STRATEGIES
    from repro.pipeline import SCHEDULES, simulate_pipeline

    if args.list_schedules:
        # Both scenario families share the registry mechanism; list them
        # together so one command answers "what can I plug in here".
        _print_registry("Pipeline schedules", SCHEDULES)
        _print_registry("Offload strategies", STRATEGIES)
        return 0
    result = simulate_pipeline(
        schedule=args.schedule,
        stages=args.stages,
        microbatches=args.microbatches,
        model=args.model,
        machine=args.machine,
        microbatch_size=args.microbatch_size,
        activation_checkpointing=not args.no_activation_checkpointing,
        **({} if args.backward_split is None
           else {"backward_split": args.backward_split}),
    )
    payload = result.to_dict()
    if args.trace_out is not None:
        from repro.obs.export import write_schedule_trace

        path = write_schedule_trace(
            args.trace_out, result.sim_schedule,
            label=f"pipeline:{payload['schedule']}",
        )
        print(f"schedule trace written to {path}", file=sys.stderr)
    if args.as_json:
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(name) for name in _PIPELINE_COLUMNS)
    for name in _PIPELINE_COLUMNS:
        value = payload[name]
        rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"{name:<{width}}  {rendered}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    kwargs: dict = {}
    if args.models is not None:
        kwargs["models"] = _parse_values(args.models)
    for item in args.overrides:
        key, raw = _parse_assignment(item)
        values = _parse_values(raw)
        if not values:
            raise ConfigurationError(f"--set {key} has no value")
        kwargs[key] = values if len(values) > 1 else values[0]
    # Scoped: the override must not outlive this command.
    with configure(jobs=args.jobs):
        result = run_experiment(args.experiment_id, **kwargs)
    print(result.format())
    return 0


class _ProgressPrinter:
    """One completion line per scenario, with live throughput and an ETA.

    Identical for every executor.  Throughput counts *computed*
    scenarios only — cache hits return in microseconds and would otherwise
    inflate the rate the ETA of the remaining computed work is based on; hits
    are tallied separately in each line instead.
    """

    def __init__(self) -> None:
        # Anchored at construction (just before the sweep starts), not at the
        # first event: batched chunks report all their scenarios in one burst
        # after computing, so event-to-event spacing measures nothing.
        self._started = time.perf_counter()
        self._computed = 0
        self._cache_hits = 0

    def _pace(self, event: dict, now: float) -> str:
        elapsed = now - self._started
        if self._computed == 0 or elapsed <= 0:
            return ""
        rate = self._computed / elapsed
        remaining = event["total"] - event["completed"]
        return f" rate={rate:.1f}/s eta={remaining / rate:.0f}s"

    def __call__(self, event: dict) -> None:
        now = time.perf_counter()
        if event["cached"]:
            self._cache_hits += 1
        else:
            self._computed += 1
        status = "hit" if event["cached"] else "miss"
        hits = f" hits={self._cache_hits}" if self._cache_hits else ""
        retried = f" attempts={event['attempts']}" if event["attempts"] > 1 else ""
        print(
            f"[{event['completed']}/{event['total']}] {event['label']} "
            f"worker={event['worker']} wall={event['wall_time']:.2f}s "
            f"cache={status}{self._pace(event, now)}{hits}{retried}",
            flush=True,
        )


def _dispatch_event_printer(event: dict) -> None:
    """Coordinator lifecycle lines (worker joins, lease expiries, re-queues)."""
    kind = event.pop("event")
    detail = " ".join(f"{key}={value}" for key, value in event.items())
    print(f"[dispatch] {kind} {detail}".rstrip(), flush=True)


def _sweep_worker_kind(args: argparse.Namespace) -> str:
    """The worker behind the grid: ``--worker``, else the scenario family.

    With no ``--worker`` flag, the worker kind follows the resolved
    ``scenario_family`` policy field (``$REPRO_SCENARIO_FAMILY`` /
    ``configure(scenario_family=...)``): the ``offload`` family sweeps
    training jobs, ``pipeline`` sweeps schedules.
    """
    if args.worker_kind is not None:
        return args.worker_kind
    family = ExecutionPolicy.resolve(env_fields=("scenario_family",)).scenario_family
    return "pipeline" if family == "pipeline" else "training"


def _cmd_sweep(args: argparse.Namespace) -> int:
    cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()

    # Maintenance mode: evict and report without running a sweep.
    if args.cache_evict is not None:
        report = evict_cache(cache_dir, mode=args.cache_evict)
        print(
            f"evicted {report['removed_files']} cache files "
            f"({report['freed_bytes']} bytes), dropped {report['dropped_entries']} "
            f"manifest entries [{args.cache_evict}]"
        )
        if args.cache_stats:
            print(format_stats(cache_stats(cache_dir)))
        return 0

    worker_kind = _sweep_worker_kind(args)
    numeric = worker_kind == "numeric"
    pipeline = worker_kind == "pipeline"
    if args.models is not None:
        models = args.models
    elif numeric:
        models = "nano,tiny-1M"
    elif pipeline:
        models = "20B"
    else:
        models = "7B,20B"
    axes: dict[str, tuple] = {}
    if models:
        axes["model"] = _parse_values(models)
    # The pipeline worker's pluggable axis is the schedule family, so the
    # --strategies flag feeds the "schedule" axis there; both default to every
    # registered member of their registry.
    if args.strategies is not None:
        strategy_values = _parse_values(args.strategies)
    elif pipeline:
        from repro.pipeline import available_schedules

        strategy_values = tuple(available_schedules())
    else:
        strategy_values = tuple(available_strategies())
    if strategy_values:
        axes["schedule" if pipeline else "strategy"] = strategy_values
    if args.machines:
        if numeric:
            raise ConfigurationError(
                "--machines applies to the training and pipeline workers only"
            )
        axes["machine"] = _parse_values(args.machines)
    for item in args.axes:
        key, raw = _parse_assignment(item)
        axes[key] = _parse_values(raw)
    # run_pipeline simulates a single iteration; it takes no iteration count.
    base: dict = {} if pipeline else {"steps" if numeric else "iterations": args.iterations}
    for item in args.overrides:
        key, raw = _parse_assignment(item)
        values = _parse_values(raw)
        if len(values) != 1:
            raise ConfigurationError(
                f"--set {key} must be a single value; use --axis for value lists"
            )
        base[key] = values[0]

    # Cluster-backend options; the runner forwards them only when the policy
    # actually resolves to the cluster executor (which can also happen via
    # $REPRO_EXECUTOR, so they are prepared unconditionally).  The listen
    # address always prints — with --bind HOST:0 it is the only way to learn
    # the port workers should dial; --progress adds the full event stream.
    executor_options: dict = {"bind": args.bind}
    if args.lease_timeout is not None:
        executor_options["lease_timeout"] = args.lease_timeout
    if args.progress:
        executor_options["on_event"] = _dispatch_event_printer
    else:
        executor_options["on_event"] = lambda event: (
            _dispatch_event_printer(event)
            if event.get("event") == "coordinator-listening" else None
        )

    if pipeline:
        from repro.pipeline import run_pipeline

        worker = run_pipeline
    elif numeric:
        worker = run_numeric_training
    else:
        worker = run_training

    spec = SweepSpec.build(axes, base)
    runner = SweepRunner(
        worker,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=cache_dir,
        executor=args.executor,
        workers=args.workers,
        executor_options=executor_options,
        progress=_ProgressPrinter() if args.progress else None,
    )
    result = runner.run(spec)

    if numeric or pipeline:
        # These workers return flat JSON dicts; drop the axis duplicates and
        # inline the rest as value columns.
        axis_columns = list(spec.axis_names)
        rows = result.rows(value_columns=lambda summary: {
            column: value for column, value in summary.items()
            if column not in axis_columns
        })
        value_columns = [c for c in rows[0] if c not in axis_columns and c != "cached"]
    else:
        rows = result.rows(value_columns=lambda report: {
            column: value for column, value in report.as_row().items()
            if column in _REPORT_COLUMNS
        })
        axis_columns = list(spec.axis_names)
        value_columns = [c for c in _REPORT_COLUMNS if any(c in row for row in rows)]
    print(format_table(rows, columns=axis_columns + value_columns + ["cached"]))
    print(
        f"\n{len(result)} scenarios ({result.cache_hits} cached, "
        f"{result.cache_misses} computed) with jobs={result.jobs}"
    )
    if args.json_path:
        path = result.save_json(args.json_path)
        print(f"wrote {path}")
    if args.cache_stats:
        print()
        print(format_stats(cache_stats(cache_dir)))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dispatch import WorkerClient

    client = WorkerClient(
        args.connect,
        worker_id=args.worker_id,
        heartbeat=args.heartbeat,
        retry_for=args.retry_for,
        log=lambda line: print(line, flush=True),
    )
    return client.run()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service until interrupted.

    The server's policy resolves here, inside the ``configure`` context the
    global flags entered — so ``--middleware quota:limit=60`` (or
    ``$REPRO_MIDDLEWARE``) becomes the serve-seam admission chain, and the
    sweep flags (``--jobs``, ``--no-cache``, ...) become the defaults every
    request inherits unless it carries its own policy overrides.
    """
    import asyncio

    from repro.serve import ReproServer

    policy = ExecutionPolicy.resolve(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
    )
    server = ReproServer(args.bind, policy=policy)

    async def _serve() -> None:
        host, port = await server.start()
        # The only way to learn the port under --bind HOST:0, and the line
        # scripts wait for before sending requests.
        print(f"[serve] listening host={host} port={port}", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("[serve] interrupted; shutting down", flush=True)
    return 0


def _cmd_stride(args: argparse.Namespace) -> int:
    machine = get_machine_preset(args.machine)
    profile = ThroughputProfile.from_machine(machine, cores_per_gpu=args.cores_per_gpu)
    ratio = cpu_to_gpu_update_ratio(profile)
    stride = optimal_update_stride(profile)
    print(f"machine            : {machine.name}")
    print(f"PCIe (B)           : {profile.pcie_pps / 1e9:.2f} B params/s")
    print(f"GPU update (U_g)   : {profile.gpu_update_pps / 1e9:.2f} B params/s")
    print(f"CPU update (U_c)   : {profile.cpu_update_pps / 1e9:.2f} B params/s")
    print(f"CPU downscale (D_c): {profile.cpu_downscale_pps / 1e9:.2f} B params/s")
    print(f"Equation 1 ratio   : {ratio:.2f}")
    print(f"Selected stride    : {stride}  (every {stride}-th subgroup updates on the GPU)")
    return 0


def _run_command(args: argparse.Namespace) -> int:
    """Route one parsed invocation to its subcommand handler."""
    if args.command == "list-presets":
        return _cmd_list_presets()
    if args.command == "config":
        return _cmd_config(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "stride":
        return _cmd_stride(args)
    return 1  # pragma: no cover - argparse enforces the choices above


def _dispatch_command(args: argparse.Namespace) -> int:
    """Run the subcommand through the CLI-seam middleware chain.

    Only the observability fields resolve here (``env_fields``), so an
    unrelated broken ``REPRO_*`` variable cannot stop command dispatch.  A
    broken ``$REPRO_MIDDLEWARE`` itself degrades to no chain instead of
    raising: ``repro config`` must stay usable as the tool that diagnoses it
    (its middleware row reports the error and the exit code turns non-zero).

    When tracing is on, the CLI-seam span is the root of the command's trace
    and ``trace_out`` names the Chrome trace-event file written after the
    command finishes — success or failure, so a crashed sweep still leaves
    its trace behind.
    """
    try:
        policy = ExecutionPolicy.resolve(env_fields=("middleware", "trace", "trace_out"))
        if policy.trace_out is not None and not policy.trace:
            # Asking for a trace file is asking for a trace.
            policy = policy.with_overrides(trace=True)
        chain = build_chain(effective_middleware_specs(policy))
    except ConfigurationError:
        return _run_command(args)
    if chain is None:
        return _run_command(args)
    context = MiddlewareContext(
        seam=SEAM_CLI,
        name=args.command,
        policy=policy,
        payload={"command": args.command},
    )
    try:
        return chain.run(context, lambda: _run_command(args))
    finally:
        if policy.trace_out is not None and tracing_enabled(policy):
            from repro.obs.trace import write_trace

            path = write_trace(policy.trace_out)
            print(f"trace written to {path}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    overrides = {
        "middleware": args.global_middleware,
        # --trace-out implies --trace, and the implication must land at the
        # context level: subcommands resolve their own policies, and only the
        # context reaches all of them.
        "trace": args.global_trace or (True if args.global_trace_out else None),
        "trace_out": args.global_trace_out,
    }
    context = (
        configure(**overrides)
        if any(value is not None for value in overrides.values())
        else nullcontext()
    )
    with context:
        return _dispatch_command(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
