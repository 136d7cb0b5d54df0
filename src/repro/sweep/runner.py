"""Process-parallel scenario execution with a deterministic on-disk result cache.

The runner is the policy layer of the sweep subsystem: it takes a declarative
:class:`~repro.sweep.spec.SweepSpec` (or an explicit scenario list), a picklable
worker callable, and decides how to execute — serially in-process, or fanned out over
a :class:`concurrent.futures.ProcessPoolExecutor`.  Results come back in scenario
order regardless of completion order, so a parallel sweep is indistinguishable from
the nested loops it replaces.  That indistinguishability is an invariant the tests
enforce (``tests/test_sweep.py``): for a fixed worker, ``jobs`` and ``use_cache``
may change *performance*, never *values*.

**Cache key.**  An entry's filename is deterministic and content-addressed::

    <worker module.qualname>-v<CACHE_VERSION>-<worker salt>-<scenario hash>.pkl

* the *worker identity* keeps different workers from aliasing each other;
* the *cache version* (:data:`CACHE_VERSION`, re-exported from
  :mod:`repro.sweep.cache`) invalidates every entry when the storage format — not
  the simulated physics — changes;
* the *worker salt* hashes the worker's signature, so changing a keyword default
  invalidates entries instead of silently serving results computed under the old
  default (scenario hashes only cover explicitly-passed parameters);
* the *scenario hash* is :meth:`~repro.sweep.spec.Scenario.config_hash` — canonical
  over parameter order, so two declarations of the same grid point share one entry.

A cache entry is a pickle of the worker's return value, written atomically
(temp file + ``os.replace``) so a killed sweep never leaves a truncated entry
behind; unreadable or stale pickles load as misses, never as errors.  Every store
is also recorded in a JSON manifest next to the pickles
(:mod:`repro.sweep.cache`), which powers ``repro sweep --cache-stats`` and
``--cache-evict``.

**Execution policy.**  A runner carries one resolved
:class:`~repro.runtime.ExecutionPolicy` — ``jobs``, ``use_cache``,
``cache_dir``, the middleware stack and the dispatch decision (``executor``,
``workers``) all come from it.  Pass ``policy=`` explicitly, or pass the
individual keywords and the runner resolves the rest through the standard
order (``repro.configure`` context > ``REPRO_*`` environment > defaults).
The resolved policy travels to workers **explicitly**: it is serialized
alongside the scenario parameters and activated as a
:func:`repro.runtime.policy_context` around each worker call — in-process for
serial runs, inside each pool process, on each cluster daemon — so
worker-side resolution sees the parent's decisions at the context level and
no environment variables are exported anywhere.  Executors are
byte-identical, so the policy deliberately does **not** enter the cache key:
a grid computed on one executor is a valid cache hit for another.

**Dispatch.**  Scheduling and IPC live in :mod:`repro.dispatch`, not here:
the runner resolves a backend name from the policy
(:func:`repro.dispatch.select_backend` — ``serial``, ``pool`` or
``cluster``), instantiates it, and drains one stream of
:class:`~repro.dispatch.base.TaskOutcome` objects, identical for every
backend.  Completed results are cached **as they arrive** — the entry pickle
per outcome (that is what a resumed sweep loads), manifest records in small
batches (every 32 scenario outcomes, or once per scenario-group chunk) — so a
sweep killed halfway resumes from everything that finished.

**Shape batching.**  A worker that registered a batching adapter
(:func:`repro.sweep.batching.register_batchable`) is dispatched in scenario
*groups* on the local executors (serial and pool): each task runs
:func:`repro.sweep.batching.run_scenario_group`, which stacks same-shape
scenarios into one scheduling pass when the shape group is large enough to
pay for it.  The cluster executor keeps one task per scenario, because its
fault-tolerance granularity is a scenario.  Values and cache entries are
byte-identical either way.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.common.errors import ConfigurationError
from repro.dispatch import Task, create_executor, select_backend, worker_spec
from repro.obs.trace import maybe_span, tracing_enabled
from repro.runtime import ExecutionPolicy
from repro.sweep.batching import is_batchable, run_scenario_group
from repro.sweep.cache import CACHE_VERSION, record_entries
from repro.sweep.result import SweepRecord, SweepResult
from repro.sweep.spec import Scenario, SweepSpec

_MISS = object()

#: Worker id reported in progress events for scenarios served from the cache.
CACHE_WORKER_ID = "cache"

#: Manifest records buffered before a merge-and-rewrite of manifest.json.
_MANIFEST_FLUSH_EVERY = 32


def default_jobs() -> int:
    """Worker parallelism the current resolution context yields."""
    return ExecutionPolicy.resolve(env_fields=("jobs",)).jobs


def default_cache_dir() -> Path:
    """Cache directory the current resolution context yields."""
    return ExecutionPolicy.resolve(env_fields=("cache_dir",)).cache_dir


class SweepRunner:
    """Executes scenarios through a worker callable, parallel and cached.

    ``worker`` must be a module-level callable accepting every scenario parameter as
    a keyword argument (a requirement of every distributed backend: pool processes
    pickle the callable by reference, cluster daemons import it by name).
    Execution is governed by one resolved
    :class:`~repro.runtime.ExecutionPolicy`, bound at construction: pass
    ``policy=`` whole, or pass ``jobs``/``use_cache``/``cache_dir``/
    ``executor``/``workers``/``middleware`` as explicit arguments and let the
    runner resolve the rest.  ``executor`` names the dispatch backend
    (``"auto"`` by default: ``pool`` when ``jobs`` > 1, ``serial`` otherwise;
    ``"cluster"`` dispatches over TCP-connected ``repro worker`` daemons,
    gated on ``workers`` of them connecting); ``use_cache`` enables the
    on-disk result cache under ``cache_dir``.  The policy is serialized to
    every worker explicitly; no environment variables are exported.
    ``middleware`` declares the interception chain (spec
    strings — see :mod:`repro.middleware`) that wraps each task on whatever
    side executes it; observe-only chains never change values or cache
    entries (``tests/test_middleware.py`` proves byte-identity), and the
    middleware field — like every policy field — does not enter the cache key.

    A worker with a registered batching adapter runs in scenario groups on
    the serial and pool executors (see the module docs); values and cache
    entries are byte-identical to one task per scenario — a grouped run fills
    the same per-scenario pickles a per-scenario run reads.

    ``executor_options`` are backend-specific keywords forwarded to
    :func:`repro.dispatch.create_executor` (the cluster backend takes
    ``bind``, ``lease_timeout``, ``on_event``, ...).
    ``progress`` is an optional callable receiving one event dict per
    completed scenario — cache hits included — with keys ``index``,
    ``scenario``, ``label``, ``cached``, ``worker``, ``wall_time``,
    ``attempts``, ``completed`` and ``total``; it powers
    ``repro sweep --progress`` for every backend alike.
    """

    def __init__(
        self,
        worker: Callable[..., Any],
        *,
        jobs: int | None = None,
        use_cache: bool | None = None,
        cache_dir: str | Path | None = None,
        executor: str | None = None,
        workers: int | None = None,
        middleware: Sequence[str] | str | None = None,
        policy: ExecutionPolicy | None = None,
        executor_options: Mapping[str, Any] | None = None,
        progress: Callable[[dict], None] | None = None,
    ) -> None:
        if not callable(worker):
            raise ConfigurationError("worker must be callable")
        self.worker = worker
        if policy is not None:
            if not isinstance(policy, ExecutionPolicy):
                raise ConfigurationError("policy must be an ExecutionPolicy")
            if any(value is not None for value in
                   (jobs, use_cache, cache_dir, executor, workers, middleware)):
                raise ConfigurationError(
                    "pass either policy= or individual jobs/use_cache/cache_dir/"
                    "executor/workers/middleware arguments, not both"
                )
            self.policy = policy
        else:
            self.policy = ExecutionPolicy.resolve(
                jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
                executor=executor, workers=workers, middleware=middleware,
            )
        self.jobs = self.policy.jobs
        self.use_cache = self.policy.use_cache
        self.cache_dir = self.policy.cache_dir
        self.executor = self.policy.executor
        self._executor_options = dict(executor_options or {})
        self._progress = progress
        if select_backend(self.policy) != "serial" and \
                "<locals>" in getattr(worker, "__qualname__", ""):
            raise ConfigurationError(
                "parallel sweeps need a module-level worker (locally defined "
                "functions cannot be shipped to worker processes)"
            )
        # Scenario hashes only cover explicitly-passed parameters, so fold the
        # worker's signature (names, defaults, annotations) into the cache key:
        # changing a default invalidates entries instead of silently aliasing them.
        try:
            signature = str(inspect.signature(worker))
        except (TypeError, ValueError):
            signature = ""
        self._worker_salt = hashlib.sha256(signature.encode()).hexdigest()[:8]

    # ------------------------------------------------------------------ cache

    def _cache_path(self, scenario: Scenario) -> Path:
        return self.cache_dir / self.cache_entry_name(scenario)

    def cache_entry_name(self, scenario: Scenario) -> str:
        """The content-addressed cache filename of one scenario (module docs
        describe the key).  Public because the serve layer coalesces identical
        in-flight requests on exactly this identity: two requests whose
        scenarios map to the same entry names would compute — and cache — the
        same values."""
        worker_id = f"{self.worker.__module__}.{self.worker.__qualname__}"
        safe = worker_id.replace("<", "").replace(">", "").replace("/", "_")
        return f"{safe}-v{CACHE_VERSION}-{self._worker_salt}-{scenario.config_hash()}.pkl"

    def _cache_load(self, scenario: Scenario) -> Any:
        path = self._cache_path(scenario)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError, ImportError):
            # A stale entry referencing moved/renamed classes is a miss, not a crash.
            return _MISS

    def _cache_store(self, scenario: Scenario, value: Any) -> Path | None:
        """Atomically persist one entry; returns its path, or None when storing failed."""
        path = self._cache_path(scenario)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=path.parent, prefix=path.name, suffix=".tmp", delete=False
        )
        try:
            with handle:
                pickle.dump(value, handle)
            os.replace(handle.name, path)
            return path
        except OSError:
            # Caching is best-effort: a read-only or full disk must not fail the sweep.
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            return None

    def _manifest_entry(self, path: Path, scenario: Scenario) -> dict:
        """Manifest record for one freshly stored cache entry."""
        worker_id = f"{self.worker.__module__}.{self.worker.__qualname__}"
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        return {
            "file": path.name,
            "worker": worker_id,
            "cache_version": CACHE_VERSION,
            "worker_salt": self._worker_salt,
            "config_hash": scenario.config_hash(),
            "params": scenario.as_dict(),
            "size_bytes": size,
        }

    def _flush_manifest(self, entries: list[dict]) -> None:
        """Merge buffered records into the manifest (best-effort) and clear them."""
        if not entries:
            return
        try:
            record_entries(self.cache_dir, entries)
        except OSError:  # pragma: no cover - same best-effort rule as the stores
            pass
        entries.clear()

    # ------------------------------------------------------------------ execution

    def _emit_progress(self, *, index: int, scenario: Scenario, cached: bool,
                       worker: str, wall_time: float, attempts: int,
                       completed: int, total: int) -> None:
        if self._progress is None:
            return
        self._progress({
            "index": index,
            "scenario": scenario,
            "label": scenario.label(),
            "cached": cached,
            "worker": worker,
            "wall_time": wall_time,
            "attempts": attempts,
            "completed": completed,
            "total": total,
        })

    def _make_executor(self, pending_count: int, worker: Callable[..., Any] | None = None):
        """Instantiate the dispatch backend this run resolves to.

        ``pool`` quietly downgrades to ``serial`` when there is nothing to
        parallelise (one pending task, or ``jobs == 1`` under an explicit
        ``executor="pool"``) — same values either way, without paying for a
        process pool that could never overlap work.  ``worker`` overrides the
        dispatched callable (the batched path ships the group trampoline
        instead of the worker itself).
        """
        name = select_backend(self.policy)
        if name == "pool" and (self.jobs <= 1 or pending_count <= 1):
            name = "serial"
        options = self._executor_options if name == "cluster" else {}
        return create_executor(name, worker or self.worker, self.policy, **options)

    def _dispatches_groups(self) -> bool:
        """Whether this run dispatches scenario groups instead of scenarios.

        Exactly when the worker registered a batching adapter and the
        executor is local (serial or pool); cluster stays per-scenario,
        because its per-task fault-tolerance granularity is a scenario.
        """
        return select_backend(self.policy) in ("serial", "pool") and \
            is_batchable(self.worker)

    def _group_chunks(self, pending: list[int]) -> list[list[int]]:
        """Split pending scenario indices into one chunk per parallel slot.

        A pool of ``jobs`` processes receives ``jobs`` tasks of
        ``⌈pending/jobs⌉`` scenarios each — per-task pickle overhead is paid
        per *chunk*, and each chunk is large enough for shape compilation to
        amortise.  Serial runs get one chunk (maximum sharing).
        """
        parallelism = 1
        if select_backend(self.policy) == "pool":
            parallelism = max(1, min(self.jobs, len(pending)))
        size = -(-len(pending) // parallelism)
        return [pending[start:start + size] for start in range(0, len(pending), size)]

    def _run_batched(self, scenarios: Sequence[Scenario], pending: list[int],
                     complete: Callable[..., None],
                     flush: Callable[[], None]) -> None:
        """Dispatch ``pending`` as scenario-group tasks through the trampoline.

        Each task carries the worker's ``module:qualname`` spec plus a chunk
        of scenario parameter dicts; :func:`repro.sweep.batching.run_scenario_group`
        re-resolves both on the executing side, so the same task payload works
        in-process and in pool processes.  Group outcomes
        fan back out into per-scenario completions — the cache and progress
        surfaces never see the difference (each scenario's ``wall_time`` is
        its chunk's share).  A chunk's values arrive at once, so its
        manifest records are merged in one ``flush`` after the chunk.
        """
        spec_name = worker_spec(self.worker)
        chunks = self._group_chunks(pending)
        tasks = [
            Task(index=number, params={
                "worker": spec_name,
                "scenarios": [scenarios[index].as_dict() for index in chunk],
            })
            for number, chunk in enumerate(chunks)
        ]
        with self._make_executor(len(tasks), worker=run_scenario_group) as executor:
            for outcome in executor.submit(tasks):
                chunk = chunks[outcome.index]
                share = outcome.wall_time / max(1, len(chunk))
                for position, index in enumerate(chunk):
                    complete(index, outcome.value[position],
                             worker=outcome.worker_id, wall_time=share,
                             attempts=outcome.attempts)
                flush()

    def run(self, spec: SweepSpec | Iterable[Scenario]) -> SweepResult:
        """Execute every scenario and return results in scenario order."""
        if isinstance(spec, SweepSpec):
            scenarios: Sequence[Scenario] = list(spec.scenarios())
        else:
            scenarios = list(spec)
        total = len(scenarios)

        values: dict[int, Any] = {}
        pending: list[int] = []
        for index, scenario in enumerate(scenarios):
            if self.use_cache:
                cached = self._cache_load(scenario)
                if cached is not _MISS:
                    values[index] = cached
                    self._emit_progress(
                        index=index, scenario=scenario, cached=True,
                        worker=CACHE_WORKER_ID, wall_time=0.0, attempts=0,
                        completed=len(values), total=total,
                    )
                    continue
            pending.append(index)

        if pending:
            # Entry pickles stream to disk per outcome (that is what a killed
            # sweep resumes from — loads never consult the manifest), while
            # manifest records batch in memory: one rewrite of a growing JSON
            # file per scenario would be quadratic on cluster-scale grids.
            # Per-scenario outcomes flush every _MANIFEST_FLUSH_EVERY records,
            # a grouped run once per chunk.  The finally flush covers failed
            # sweeps; a hard kill loses at most one batch of records, which
            # then surface as orphaned (and evictable) entries in
            # --cache-stats.
            manifest_buffer: list[dict] = []

            def flush() -> None:
                self._flush_manifest(manifest_buffer)

            def complete(index: int, value: Any, *, worker: str,
                         wall_time: float, attempts: int) -> None:
                values[index] = value
                scenario = scenarios[index]
                if self.use_cache:
                    path = self._cache_store(scenario, value)
                    if path is not None:
                        manifest_buffer.append(self._manifest_entry(path, scenario))
                self._emit_progress(
                    index=index, scenario=scenario, cached=False, worker=worker,
                    wall_time=wall_time, attempts=attempts,
                    completed=len(values), total=total,
                )

            try:
                # The sweep-level root span: every dispatch-task span of this
                # run — serial, pool child or cluster daemon — parents under
                # it, so a distributed sweep stitches into one trace.
                with maybe_span(
                    tracing_enabled(self.policy), "sweep", seam="dispatch",
                    attrs={"scenarios": total, "pending": len(pending)},
                ):
                    if self._dispatches_groups():
                        self._run_batched(scenarios, pending, complete, flush)
                    else:
                        tasks = [Task(index=index, params=scenarios[index].as_dict())
                                 for index in pending]
                        with self._make_executor(len(pending)) as executor:
                            for outcome in executor.submit(tasks):
                                complete(outcome.index, outcome.value,
                                         worker=outcome.worker_id,
                                         wall_time=outcome.wall_time,
                                         attempts=outcome.attempts)
                                if len(manifest_buffer) >= _MANIFEST_FLUSH_EVERY:
                                    flush()
            finally:
                flush()

        fresh = set(pending)
        records = [
            SweepRecord(scenario=scenario, value=values[index], from_cache=index not in fresh)
            for index, scenario in enumerate(scenarios)
        ]
        return SweepResult(
            records=records,
            cache_hits=len(scenarios) - len(pending),
            cache_misses=len(pending),
            jobs=self.jobs,
        )


def run_sweep(
    worker: Callable[..., Any],
    axes: dict[str, Sequence[Any]],
    *,
    base: dict[str, Any] | None = None,
    jobs: int | None = None,
    use_cache: bool | None = None,
    cache_dir: str | Path | None = None,
    executor: str | None = None,
    workers: int | None = None,
    middleware: Sequence[str] | str | None = None,
    policy: ExecutionPolicy | None = None,
    executor_options: Mapping[str, Any] | None = None,
    progress: Callable[[dict], None] | None = None,
) -> SweepResult:
    """One-call convenience: build a spec and run it."""
    spec = SweepSpec.build(axes, base)
    runner = SweepRunner(
        worker, jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
        executor=executor, workers=workers, middleware=middleware, policy=policy,
        executor_options=executor_options, progress=progress,
    )
    return runner.run(spec)
