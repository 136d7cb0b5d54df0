"""The :class:`Executor` protocol: what every dispatch backend implements.

An executor is constructed around a *worker callable* and a resolved
:class:`~repro.runtime.ExecutionPolicy`, is entered as a context manager
(which starts whatever machinery the backend needs — nothing for serial, a
process pool for ``pool``, a listening TCP coordinator for ``cluster``), and
then accepts batches of :class:`Task` objects through :meth:`Executor.submit`,
yielding one :class:`TaskOutcome` per task **as tasks complete** — completion
order, not submission order.  The caller (``SweepRunner``) reassembles
scenario order by ``Task.index``; that split is what lets every backend share
one streaming consumption loop (cache stores, manifest records and progress
lines happen per outcome, so a killed sweep resumes from whatever completed).

Two error channels are deliberately distinct:

* a task that *raises* is an application failure — deterministic, so no
  backend retries it.  In-process backends (serial, pool) propagate the
  original exception unchanged; the cluster backend, which only has the
  remote traceback *text*, raises :class:`DispatchTaskError` carrying it.
  Either way the sweep fails immediately at the raising scenario.
* a worker that *dies or goes silent* is an infrastructure failure — the
  cluster backend re-queues the leased task on another worker, bounded by
  the policy's ``retry:attempts=N`` middleware spec, and only raises
  :class:`DispatchError` when the bound is exhausted.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.common.errors import ConfigurationError, ReproError
from repro.middleware import (
    SEAM_DISPATCH,
    MiddlewareContext,
    build_chain,
    effective_middleware_specs,
)

# The backend names are declared in repro.runtime.policy (the policy layer
# validates the `executor` field, and importing them from here would cycle
# dispatch -> runtime -> dispatch); re-exported here as the canonical
# dispatch-facing names.
from repro.runtime.policy import AUTO_EXECUTOR, EXECUTOR_BACKENDS, EXECUTOR_CHOICES


class DispatchError(ReproError):
    """Infrastructure failure the dispatch layer could not mask.

    Raised when fault tolerance is exhausted: a task exceeded its retry bound,
    or the coordinator ran out of workers while work was still pending.
    """


class DispatchTaskError(ReproError):
    """A task raised inside a worker; carries the remote traceback text."""

    def __init__(self, message: str, *, index: int = -1, worker_id: str = "",
                 remote_traceback: str = ""):
        super().__init__(message)
        self.index = index
        self.worker_id = worker_id
        self.remote_traceback = remote_traceback


@dataclass(frozen=True)
class Task:
    """One unit of work: the scenario's index in the sweep and its parameters."""

    index: int
    params: Mapping[str, Any]


@dataclass(frozen=True)
class TaskOutcome:
    """One completed task: its value plus execution provenance.

    ``worker_id`` identifies who computed it (``"local"`` for serial,
    ``"pool-<pid>"`` for pool processes, the daemon's id for cluster
    workers); ``attempts`` counts lease grants, so anything above 1 means the
    fault-tolerance path ran.  Provenance feeds progress reporting and the
    fault-injection tests — it never influences the value or the cache key.
    """

    index: int
    value: Any
    worker_id: str
    wall_time: float
    attempts: int = 1


@dataclass(frozen=True)
class ExecutorCapabilities:
    """What a backend can do, for callers that need to introspect.

    ``max_parallelism`` is ``None`` when the backend's width is unbounded or
    unknown up front (cluster: workers join at runtime).
    """

    name: str
    distributed: bool
    fault_tolerant: bool
    max_parallelism: int | None


class Executor(ABC):
    """Lifecycle + submit: the whole contract between runner and backend.

    Subclasses receive the worker callable and the resolved policy at
    construction, allocate real resources in :meth:`__enter__` and release
    them in :meth:`close`.  ``submit`` may be called multiple times within one
    lifecycle; outcomes of one submission are fully drained before the next.
    """

    name: str = "abstract"

    def __init__(self, worker: Callable[..., Any], policy) -> None:
        if not callable(worker):
            raise ConfigurationError("executor worker must be callable")
        self.worker = worker
        self.policy = policy

    @abstractmethod
    def submit(self, tasks: Sequence[Task]) -> Iterator[TaskOutcome]:
        """Execute ``tasks``, yielding outcomes as they complete."""

    @abstractmethod
    def capabilities(self) -> ExecutorCapabilities:
        """Static description of the backend."""

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_task_with_middleware(
    worker: Callable[..., Any],
    params: Mapping[str, Any],
    policy,
    *,
    index: int,
    attempts: int = 1,
    worker_id: str = "",
) -> Any:
    """Invoke ``worker(**params)`` through the policy's dispatch-seam chain.

    The one dispatch-seam entry point every backend shares on its *executing*
    side — the serial loop, the pool-process trampoline, and the cluster
    worker daemon all land here, so a chain declared on the policy runs
    wherever the task does.  The payload carries the task's sweep ``index``,
    its 1-based delivery ``attempts`` (above 1 on cluster re-dispatch) and
    the executing ``worker_id`` — what :class:`~repro.middleware.FaultInjectionMiddleware`
    keys its deterministic targeting on.  With an empty stack this is a plain
    call: no context, no chain, no overhead.
    """
    chain = build_chain(effective_middleware_specs(policy))
    if chain is None:
        return worker(**dict(params))
    context = MiddlewareContext(
        seam=SEAM_DISPATCH,
        name=getattr(worker, "__qualname__", None) or repr(worker),
        policy=policy,
        payload={"index": index, "attempts": attempts, "worker_id": worker_id},
    )
    return chain.run(context, lambda: worker(**dict(params)))


def worker_spec(worker: Callable[..., Any]) -> str:
    """``module:qualname`` reference for a module-level worker callable.

    The cluster backend ships workers *by reference*, never by pickled code:
    worker daemons import the callable themselves, so both sides must agree on
    the deployed codebase (see the security note in ``docs/dispatch.md``).
    Locally-defined callables have no importable name and are rejected.
    """
    module = getattr(worker, "__module__", None)
    qualname = getattr(worker, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise ConfigurationError(
            "distributed execution needs a module-level worker callable "
            "(worker daemons import it by name; locally defined functions "
            "have no importable reference)"
        )
    return f"{module}:{qualname}"


def resolve_worker_spec(spec: str) -> Callable[..., Any]:
    """Import the callable a ``module:qualname`` spec names (worker side)."""
    module_name, separator, qualname = spec.partition(":")
    if not separator or not module_name or not qualname:
        raise ConfigurationError(f"malformed worker spec {spec!r}; expected 'module:qualname'")
    try:
        obj: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(f"cannot import worker module {module_name!r}: {exc}") from exc
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise ConfigurationError(
                f"worker spec {spec!r} does not resolve: {module_name!r} has no {qualname!r}"
            ) from None
    if not callable(obj):
        raise ConfigurationError(f"worker spec {spec!r} resolves to a non-callable")
    return obj
