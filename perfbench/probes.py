"""Per-layer probes: spans around each layer's public calls.

The benchmark measures layers from outside the program.  :func:`installed`
swaps a wrapper in for each public entry point listed in :data:`PROBES` —
on the class for methods, and in every loaded ``repro`` module that bound a
function by name — and restores the originals on exit, so untraced passes
run the program untouched.  Each wrapper opens one ``repro.obs.trace`` span
(seam ``perfbench``) named after its layer, with the call's work items and
grouping keys in its attrs, so the benchmark's spans and the program's own
seam spans land in one trace.

Everything the per-layer table reports is read back from that trace:
:func:`totals` groups the benchmark's spans, and :func:`span_breakdown`
gives the dispatch layer's per-task self time and the share of wall time no
work-layer span accounts for.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.obs.trace import dropped_spans, span

#: Seam name on every span the probes open.
SEAM = "perfbench"

#: Layers whose spans count as accounted work in :func:`span_breakdown`.
WORK_LAYERS = frozenset({
    "runtime.resolve", "training.resolve", "training.rows", "sim.heap",
    "sim.vector", "sim.compile", "sim.stacked", "training.analyse",
})

# ------------------------------------------------------------- span attrs
# ``before(args, kwargs)`` reads attrs from the arguments before the call;
# ``after(result)`` reads them from its result.  ``items`` is the layer's
# work-item count for the call.


def _engine_ops(args, kwargs) -> dict:
    """Ops an engine run schedules: the batch's rows, else the submitted ops."""
    engine = args[0]
    batch = args[1] if len(args) > 1 else kwargs.get("batch")
    return {"items": int(len(batch.rows) if batch is not None else engine.pending_ops)}


def _stacked(args, kwargs) -> dict:
    plan, scenarios = args[0], len(args[1])
    return {"items": int(plan.op_count) * scenarios, "scenarios": scenarios}


def _sweep(result) -> dict:
    return {"items": len(result), "hits": int(result.cache_hits),
            "all_hit": result.cache_misses == 0}


def _experiment(args, kwargs) -> dict:
    return {"experiment": args[0] if args else kwargs["experiment_id"]}


# (module, class or None, attribute, layer span name, before, after)
PROBES: tuple[tuple, ...] = (
    ("repro.runtime.policy", "ExecutionPolicy", "resolve", "runtime.resolve", None, None),
    ("repro.training.config", "TrainingJobConfig", "resolve", "training.resolve",
     None, None),
    ("repro.training.simulation", None, "prepare_simulation", "training.rows",
     None, lambda result: {"items": int(result.op_count)}),
    ("repro.sim.engine", "SimEngine", "run", "sim.heap", _engine_ops, None),
    ("repro.sim.engine", "SimEngine", "run_batch", "sim.heap", _engine_ops, None),
    ("repro.sim.engine", "SimEngine", "run_vector", "sim.vector", _engine_ops, None),
    ("repro.sim.shapebatch", None, "compile_plan", "sim.compile", None, None),
    ("repro.sim.shapebatch", None, "schedule_group", "sim.stacked", _stacked, None),
    ("repro.training.simulation", None, "finalize_simulation", "training.analyse",
     None, None),
    ("repro.training.simulation", None, "stacked_breakdowns", "training.analyse",
     None, None),
    ("repro.training.trainer", "Trainer", "report_from_simulation",
     "training.analyse", None, None),
    ("repro.sweep.runner", "SweepRunner", "run", "sweep.run", None, _sweep),
    ("repro.experiments.base", None, "run_experiment", "experiments",
     _experiment, None),
)


def _wrap(fn: Callable, layer: str, before=None, after=None) -> Callable:
    # A layer re-entered on the same thread (a public call reached from
    # inside itself) is timed once, at its outermost call.
    local = threading.local()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if getattr(local, "active", False):
            return fn(*args, **kwargs)
        attrs = before(args, kwargs) if before is not None else {}
        local.active = True
        try:
            with span(layer, seam=SEAM, attrs=attrs) as record:
                result = fn(*args, **kwargs)
                if after is not None:
                    record["attrs"].update(after(result))
        finally:
            local.active = False
        return result

    return wrapper


def _wrap_dispatch(fn: Callable) -> Callable:
    """``run_task_with_middleware(worker, ...)``: time the worker call itself
    as the task body, so a dispatch task's self time is the dispatch layer's."""

    @functools.wraps(fn)
    def wrapper(worker, *args, **kwargs):
        return fn(_wrap(worker, "sweep.task"), *args, **kwargs)

    return wrapper


def _wrap_execute(fn: Callable) -> Callable:
    """``ReproServer.execute`` is a coroutine: time it to completion."""

    @functools.wraps(fn)
    async def wrapper(self, method, *args, **kwargs):
        with span("serve.execute", seam=SEAM, attrs={"method": method}):
            return await fn(self, method, *args, **kwargs)

    return wrapper


def _rebind(original: Any, replacement: Any) -> None:
    """Point every loaded ``repro`` module's name for ``original`` at
    ``replacement`` (functions imported with ``from x import f``)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


@contextmanager
def _patched(module_name: str, owner_name: str | None, attr: str, wrapper_of):
    module = importlib.import_module(module_name)
    if owner_name is None:
        original = getattr(module, attr)
        wrapped = wrapper_of(original)
        _rebind(original, wrapped)
        try:
            yield
        finally:
            _rebind(wrapped, original)
        return
    owner = getattr(module, owner_name)
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        setattr(owner, attr, classmethod(wrapper_of(original.__func__)))
    else:
        setattr(owner, attr, wrapper_of(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def installed():
    """Install every :data:`PROBES` entry, the dispatch task-body span and
    the server-side execute span for the duration of a ``with`` block."""
    with ExitStack() as stack:
        for module_name, owner, attr, layer, before, after in PROBES:
            stack.enter_context(_patched(
                module_name, owner, attr,
                lambda fn, layer=layer, before=before, after=after:
                    _wrap(fn, layer, before, after),
            ))
        stack.enter_context(_patched(
            "repro.dispatch.base", None, "run_task_with_middleware", _wrap_dispatch))
        stack.enter_context(_patched(
            "repro.serve.server", "ReproServer", "execute", _wrap_execute))
        yield


def check_complete() -> None:
    """Fail loudly if the span collector's cap discarded any span: every
    per-layer figure is read from the spans."""
    dropped = dropped_spans()
    if dropped:
        raise RuntimeError(f"the span collector dropped {dropped} spans; "
                           "the per-layer table would undercount")


# ------------------------------------------------------------ trace analysis


@dataclass
class Totals:
    """The benchmark spans of one group: calls, seconds, durations, and the
    sum of each numeric attr (``items``, ``hits``, ``scenarios``)."""

    calls: int = 0
    seconds: float = 0.0
    durations: list[float] = field(default_factory=list)
    sums: Counter = field(default_factory=Counter)


def totals(records: Iterable[Mapping[str, Any]],
           *attrs: str) -> defaultdict[tuple, Totals]:
    """Group the benchmark's spans (seam :data:`SEAM`) by name and by the
    values of ``attrs``: the key is ``(name, *values)``."""
    groups: defaultdict[tuple, Totals] = defaultdict(Totals)
    for record in records:
        if record.get("seam") != SEAM:
            continue
        record_attrs = record.get("attrs") or {}
        group = groups[(record["name"], *(record_attrs.get(attr) for attr in attrs))]
        group.calls += 1
        group.seconds += float(record["duration_s"])
        group.durations.append(float(record["duration_s"]))
        group.sums.update({key: value for key, value in record_attrs.items()
                           if isinstance(value, int) and not isinstance(value, bool)})
    return groups


def _interval(record: Mapping[str, Any]) -> tuple[float, float]:
    start = float(record["start_unix_s"])
    return start, start + float(record["duration_s"])


def covered_seconds(intervals: Iterable[tuple[float, float]],
                    window: tuple[float, float]) -> float:
    """Length of the union of ``intervals`` clipped to ``window``."""
    low, high = window
    clipped = sorted((max(a, low), min(b, high)) for a, b in intervals
                     if min(b, high) > max(a, low))
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def span_breakdown(records: list[Mapping[str, Any]],
                   is_root: Callable[[Mapping[str, Any]], bool]) -> dict[str, float]:
    """Dispatch-task self time and the unaccounted share of root wall time.

    ``dispatch_tasks``/``dispatch_self_s`` cover the program's own dispatch
    seam spans: a task's self time is its duration minus the part of it its
    child spans cover.  ``root_s``/``work_s`` sum, over the spans
    ``is_root`` selects, their duration and the part of it covered by
    descendant spans of a :data:`WORK_LAYERS` layer.
    """
    children: dict[Any, list[Mapping[str, Any]]] = defaultdict(list)
    for record in records:
        children[record.get("parent_id")].append(record)

    dispatch_tasks = 0
    dispatch_self = 0.0
    root_total = 0.0
    work_total = 0.0
    for record in records:
        window = _interval(record)
        # Task spans carry the task's sweep index; the runner's whole-sweep
        # span shares the seam but not the attribute.
        if record.get("seam") == "dispatch" and "index" in (record.get("attrs") or {}):
            dispatch_tasks += 1
            kids = [_interval(kid) for kid in children[record["span_id"]]]
            dispatch_self += (window[1] - window[0]) - covered_seconds(kids, window)
        if is_root(record):
            work: list[tuple[float, float]] = []
            stack = list(children[record["span_id"]])
            while stack:
                node = stack.pop()
                if node.get("seam") == SEAM and node.get("name") in WORK_LAYERS:
                    work.append(_interval(node))
                stack.extend(children[node["span_id"]])
            root_total += window[1] - window[0]
            work_total += covered_seconds(work, window)
    return {"dispatch_tasks": dispatch_tasks, "dispatch_self_s": dispatch_self,
            "root_s": root_total, "work_s": work_total}
