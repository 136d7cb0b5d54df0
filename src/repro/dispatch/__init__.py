"""Pluggable distributed execution: the middleware layer under the sweep runner.

The sweep subsystem's job is *what* to run (a declarative grid) and *what came
back* (ordered, cached results).  This package owns *where and how* scenarios
execute, behind one small protocol — :class:`~repro.dispatch.base.Executor`:
``submit(tasks)`` yields :class:`~repro.dispatch.base.TaskOutcome` objects as
tasks complete, and a context-manager lifecycle brackets whatever real
machinery (process pool, TCP coordinator) the backend needs.  Three backends
implement it:

* ``serial`` — in-process, in scenario order; the reference semantics every
  other backend must reproduce value-for-value.
* ``pool`` — one host, many processes (:class:`concurrent.futures.ProcessPoolExecutor`);
  the pre-dispatch ``jobs > 1`` path refactored behind the protocol.
* ``cluster`` — many hosts: an :mod:`asyncio` TCP coordinator
  (:class:`~repro.dispatch.cluster.ClusterExecutor`) plus ``repro worker``
  daemons (:class:`~repro.dispatch.worker.WorkerClient`), with task leases,
  heartbeats, automatic re-queue from dead or slow workers and bounded
  retries.  See ``docs/dispatch.md`` for the wire protocol and failure model.

Backend choice is execution *policy*, not code: the runner resolves it from
:class:`~repro.runtime.ExecutionPolicy` (``executor``/``workers`` fields,
``$REPRO_EXECUTOR``/``$REPRO_WORKERS``) through the standard resolution
order.  Every backend is value-identical by contract — the differential tests
in ``tests/test_dispatch.py`` / ``tests/test_dispatch_cluster.py`` enforce
byte-identical :class:`~repro.sweep.result.SweepResult` JSON across all
three, including under fault injection.
"""

from repro.dispatch.base import (
    AUTO_EXECUTOR,
    EXECUTOR_BACKENDS,
    EXECUTOR_CHOICES,
    DispatchError,
    DispatchTaskError,
    Executor,
    ExecutorCapabilities,
    Task,
    TaskOutcome,
    resolve_worker_spec,
    worker_spec,
)
from repro.dispatch.cluster import ClusterExecutor
from repro.dispatch.pool import PoolExecutor
from repro.dispatch.serial import SerialExecutor
from repro.dispatch.worker import WorkerClient


def select_backend(policy) -> str:
    """Map a resolved :class:`~repro.runtime.ExecutionPolicy` to a backend name.

    ``executor="auto"`` (the default) preserves the pre-dispatch behaviour:
    ``pool`` when ``jobs > 1``, ``serial`` otherwise.  Explicit names pass
    through unchanged.
    """
    if policy.executor != AUTO_EXECUTOR:
        return policy.executor
    return "pool" if policy.jobs > 1 else "serial"


def create_executor(name: str, worker, policy, **options) -> Executor:
    """Instantiate the named backend (``serial``/``pool``/``cluster``).

    ``options`` are backend-specific keywords (the cluster backend takes
    ``bind``, ``min_workers``, ``lease_timeout``, ...);
    backends reject options they do not understand.
    """
    from repro.common.errors import ConfigurationError

    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown executor backend {name!r}; expected one of "
            f"{', '.join(repr(key) for key in _BACKENDS)}"
        )
    return _BACKENDS[name](worker, policy, **options)


_BACKENDS = {
    "serial": SerialExecutor,
    "pool": PoolExecutor,
    "cluster": ClusterExecutor,
}

__all__ = [
    "AUTO_EXECUTOR",
    "EXECUTOR_BACKENDS",
    "EXECUTOR_CHOICES",
    "DispatchError",
    "DispatchTaskError",
    "Executor",
    "ExecutorCapabilities",
    "Task",
    "TaskOutcome",
    "SerialExecutor",
    "PoolExecutor",
    "ClusterExecutor",
    "WorkerClient",
    "create_executor",
    "select_backend",
    "worker_spec",
    "resolve_worker_spec",
]
