"""The cluster executor: a TCP coordinator dispatching to ``repro worker`` daemons.

The coordinator runs inside the sweep process: an :mod:`asyncio` server on a
background thread, speaking the length-prefixed framing of
:mod:`repro.dispatch.framing`.  Worker daemons (:mod:`repro.dispatch.worker`,
``repro worker --connect HOST:PORT``) dial in, introduce themselves, and are
handed one task at a time: the worker callable *by importable reference*
(``module:qualname``), the scenario parameters, and the parent's resolved
:class:`~repro.runtime.ExecutionPolicy`, which the worker activates as a
context so remote resolution sees the coordinator's decisions — the exact
analogue of what the pool backend pickles into its processes.

**Fault model** (``docs/dispatch.md`` has the full protocol):

* every assignment is a **lease**: the worker must complete it or keep the
  lease alive with heartbeats before ``lease_timeout`` expires;
* a dropped connection or an expired lease **re-queues** the task on another
  worker; lease grants per task are bounded by the policy's
  ``retry:attempts=N`` middleware spec (default 2 re-tries), after which
  :class:`~repro.dispatch.base.DispatchError` propagates;
* results are deduplicated — first result wins — so a slow worker whose lease
  expired cannot double-deliver a task another worker re-ran;
* a task that *raises* is an application error, not an infrastructure one: it
  fails the sweep immediately — no retry, it would fail identically — as
  :class:`~repro.dispatch.base.DispatchTaskError` carrying the remote
  traceback text (the original exception object stays in the worker; an
  in-process backend would have propagated it unchanged).

Determinism: the coordinator affects *placement only*.  Values come from the
same worker callable under the same policy, and the runner reassembles
scenario order by task index, so a cluster sweep is byte-identical to a serial
one — the fault-injection tests assert this including under mid-task kills.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.common.errors import ConfigurationError
from repro.dispatch.base import (
    DispatchError,
    DispatchTaskError,
    Executor,
    ExecutorCapabilities,
    Task,
    TaskOutcome,
    worker_spec,
)
from repro.dispatch.framing import (
    CODEC_PICKLE,
    ConnectionClosed,
    FramingError,
    read_frame,
    write_frame,
)
from repro.middleware.builtin import retry_attempts_from_specs
from repro.obs.trace import absorb_spans, current_trace_context, tracing_enabled

#: Version stamped into the welcome message; workers refuse a mismatch.
PROTOCOL_VERSION = 1

#: Default lease duration.  Heartbeats (suggested to workers at a third of
#: this) keep long tasks alive, so the timeout only has to cover heartbeat
#: loss, not task duration.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Default bound on *re*-tries per task after its first lease.  The operative
#: bound now derives from the policy's ``retry:attempts=N`` middleware spec
#: when one is declared (one knob for worker-side retry and coordinator
#: re-queue); this constant is the fallback for chains without one.
DEFAULT_MAX_RETRIES = 2

#: How long the coordinator waits for the worker fleet (the initial
#: ``min_workers`` gate, and any later stretch with zero workers connected)
#: before declaring the sweep undispatchable.
DEFAULT_WORKER_WAIT = 60.0

#: How long ``close()`` waits for the coordinator thread to stop.  A module
#: constant (not a parameter) so tests can exercise the wedged-thread path
#: without a ten-second stall.
_CLOSE_JOIN_TIMEOUT = 10.0


def parse_bind(bind: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` bind/connect string (port 0 = ephemeral).

    IPv6 hosts use the bracketed RFC 3986 form — ``[::1]:8000`` — and the
    brackets are stripped from the returned host, which is what
    ``socket.create_connection`` and ``asyncio.start_server`` expect.  A bare
    IPv6 address (``::1``) is rejected rather than misparsed: every colon is a
    candidate port separator, so the form is ambiguous without brackets.
    """
    if bind.startswith("["):
        host, bracket, rest = bind[1:].partition("]")
        if not bracket or not rest.startswith(":") or not host:
            raise ConfigurationError(
                f"expected [IPV6-HOST]:PORT, got {bind!r}")
        port_text = rest[1:]
    else:
        host, separator, port_text = bind.rpartition(":")
        if not separator or not host:
            raise ConfigurationError(f"expected HOST:PORT, got {bind!r}")
        if ":" in host:
            raise ConfigurationError(
                f"ambiguous IPv6 address {bind!r}: bracket the host, "
                f"as in [{host}]:{port_text}")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(f"invalid port in {bind!r}") from None
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"port out of range in {bind!r}")
    return host, port


@dataclass
class _Conn:
    """Coordinator-side state of one connected worker."""

    worker_id: str
    writer: asyncio.StreamWriter
    task_id: int | None = None  # the task this worker is believed to be running
    last_seen: float = 0.0      # monotonic time of its last frame


@dataclass
class _Round:
    """One submit() batch in flight."""

    tasks: dict[int, Task] = field(default_factory=dict)
    pending: deque = field(default_factory=deque)
    attempts: dict[int, int] = field(default_factory=dict)
    done: set = field(default_factory=set)
    leases: dict[int, tuple[_Conn, float]] = field(default_factory=dict)


class ClusterExecutor(Executor):
    """Distributed execution over TCP-connected ``repro worker`` daemons.

    ``bind`` is the coordinator's listen address (``"127.0.0.1:0"`` picks an
    ephemeral port; :attr:`address` reports the bound one after ``__enter__``).
    ``min_workers`` (default: the policy's ``workers`` field) gates dispatch:
    tasks are held until that many workers have connected, so a fixed fleet is
    fully utilised instead of the first worker draining the queue.
    ``on_event`` receives protocol events (worker joins, lease expiries,
    re-queues) as dicts — the CLI's ``--progress`` plumbing and the
    fault-injection tests both hang off it; it is called from the coordinator
    thread.
    """

    name = "cluster"

    def __init__(
        self,
        worker: Callable[..., Any],
        policy,
        *,
        bind: str = "127.0.0.1:0",
        min_workers: int | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        worker_wait_timeout: float = DEFAULT_WORKER_WAIT,
        on_event: Callable[[dict], None] | None = None,
    ) -> None:
        super().__init__(worker, policy)
        self._spec = worker_spec(worker)  # validates importability up front
        self._host, self._port = parse_bind(bind)
        self._min_workers = int(policy.workers if min_workers is None else min_workers)
        if self._min_workers < 1:
            raise ConfigurationError("min_workers must be >= 1")
        if lease_timeout <= 0:
            raise ConfigurationError("lease_timeout must be positive")
        # One retry knob, declared as policy: a `retry:attempts=N` spec on the
        # middleware stack bounds coordinator re-queues too (the worker-side
        # RetryMiddleware covers application exceptions; this bound covers
        # infrastructure failures).
        self._max_retries = retry_attempts_from_specs(
            getattr(policy, "middleware", ()), default=DEFAULT_MAX_RETRIES
        )
        self._lease_timeout = float(lease_timeout)
        self._worker_wait = float(worker_wait_timeout)
        self._on_event = on_event

        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._conns: dict[int, _Conn] = {}
        self._conn_counter = 0
        self._next_task_id = 0
        self._round: _Round | None = None
        self._outcomes: queue.Queue = queue.Queue()
        self._failed = False
        self._gate_open = False
        self._waiting_since: float | None = None
        self._no_worker_since: float | None = None
        self._stalled_since: float | None = None
        self._watchdog: asyncio.Task | None = None
        self._closed = False
        self._trace_ctx: dict | None = None

    # ------------------------------------------------------------- lifecycle

    def capabilities(self) -> ExecutorCapabilities:
        return ExecutorCapabilities(
            name=self.name, distributed=True, fault_tolerant=True, max_parallelism=None
        )

    def __enter__(self) -> "ClusterExecutor":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-dispatch-coordinator", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._start(), self._loop)
        try:
            self.address = future.result(timeout=10.0)
        except BaseException:
            self.close()
            raise
        self._event("coordinator-listening", host=self.address[0], port=self.address[1])
        return self

    async def _start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._handle, self._host, self._port)
        self._watchdog = asyncio.get_running_loop().create_task(self._watch())
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def close(self) -> None:
        if self._closed or self._loop is None:
            return
        self._closed = True
        try:
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), self._loop).result(timeout=_CLOSE_JOIN_TIMEOUT)
        except BaseException:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=_CLOSE_JOIN_TIMEOUT)
            if self._thread.is_alive():
                # The loop was told to stop but the thread never came back —
                # some callback is wedged.  Closing the loop out from under it
                # raises in that thread eventually; leaking the loop object
                # forever (the old behaviour) is strictly worse.
                warnings.warn(
                    "coordinator thread did not stop within "
                    f"{_CLOSE_JOIN_TIMEOUT:.0f}s; closing its event loop anyway",
                    RuntimeWarning,
                    stacklevel=2,
                )
        try:
            self._loop.close()
        except RuntimeError:
            # The wedged callback still holds the loop in "running"; nothing
            # more can be done from this thread.  The warning above already
            # fired.
            pass

    async def _shutdown(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
        for conn in list(self._conns.values()):
            try:
                await write_frame(conn.writer, {"type": "shutdown"})
                conn.writer.close()
            except (OSError, RuntimeError):
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ---------------------------------------------------------------- submit

    def submit(self, tasks: Sequence[Task]) -> Iterator[TaskOutcome]:
        # Deliberately not a generator: the not-started guard and the enqueue
        # must fire at call time, not at first iteration of the result stream.
        if self._loop is None or self.address is None:
            raise DispatchError("cluster executor is not started; use it as a context manager")
        tasks = list(tasks)
        if not tasks:
            return iter(())
        # Captured here, on the submitting thread: the coordinator's event
        # loop runs on its own thread and never sees the caller's ContextVars,
        # so the ambient span context must ride in the task frames.  An empty
        # dict (tracing on, no open parent span) still asks workers to ship
        # their spans back.
        self._trace_ctx = None
        if tracing_enabled(self.policy):
            self._trace_ctx = current_trace_context() or {}
        asyncio.run_coroutine_threadsafe(self._enqueue(tasks), self._loop).result(timeout=10.0)
        return self._drain(len(tasks))

    def _drain(self, remaining: int) -> Iterator[TaskOutcome]:
        while remaining:
            try:
                item = self._outcomes.get(timeout=1.0)
            except queue.Empty:
                if self._thread is None or not self._thread.is_alive():
                    raise DispatchError("coordinator thread died") from None
                continue
            if isinstance(item, BaseException):
                raise item
            yield item
            remaining -= 1

    async def _enqueue(self, tasks: Sequence[Task]) -> None:
        # A real error, not an assert: `python -O` strips asserts, and an
        # overlapping submit() would silently interleave two rounds' tasks.
        if self._round is not None and self._round.pending:
            raise DispatchError(
                "previous submission must be fully drained before submit() "
                "is called again on this executor")
        round_ = _Round()
        for task in tasks:
            task_id = self._next_task_id
            self._next_task_id += 1
            round_.tasks[task_id] = task
            round_.pending.append(task_id)
            round_.attempts[task_id] = 0
        self._round = round_
        self._failed = False
        self._waiting_since = time.monotonic()
        self._maybe_dispatch()

    # ----------------------------------------------------------- coordination
    # Everything below runs on the coordinator thread's event loop.

    def _event(self, kind: str, **payload: Any) -> None:
        if self._on_event is not None:
            event = {"event": kind}
            event.update(payload)
            self._on_event(event)

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        key = self._conn_counter
        self._conn_counter += 1
        conn: _Conn | None = None
        try:
            hello = await read_frame(reader)
            if not isinstance(hello, dict) or hello.get("type") != "hello":
                return
            worker_id = str(hello.get("worker_id") or f"worker-{key}")
            await write_frame(writer, {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "lease_timeout": self._lease_timeout,
                "heartbeat_interval": self._lease_timeout / 3.0,
            })
            conn = _Conn(worker_id=worker_id, writer=writer, last_seen=time.monotonic())
            self._conns[key] = conn
            self._no_worker_since = None
            self._event("worker-connected", worker=worker_id, total=len(self._conns))
            if not self._gate_open and len(self._conns) >= self._min_workers:
                self._gate_open = True
                self._event("dispatch-gate-open", workers=len(self._conns))
            self._maybe_dispatch()
            while True:
                message = await read_frame(reader)
                conn.last_seen = time.monotonic()
                if not isinstance(message, dict):
                    continue
                kind = message.get("type")
                if kind == "heartbeat":
                    self._on_heartbeat(conn, message)
                elif kind == "result":
                    self._on_result(conn, message)
                elif kind == "error":
                    self._on_error(conn, message)
                elif kind == "goodbye":
                    break
        except (ConnectionClosed, FramingError, OSError):
            pass
        finally:
            self._drop(key)
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop tearing down
                pass

    def _drop(self, key: int) -> None:
        conn = self._conns.pop(key, None)
        if conn is None:
            return
        self._event("worker-disconnected", worker=conn.worker_id, total=len(self._conns))
        round_ = self._round
        if round_ is None:
            return
        task_id = conn.task_id
        if task_id is not None and task_id in round_.leases and \
                round_.leases[task_id][0] is conn:
            round_.leases.pop(task_id)
            self._requeue(task_id, f"worker {conn.worker_id} disconnected")
        self._maybe_dispatch()

    def _requeue(self, task_id: int, reason: str) -> None:
        round_ = self._round
        if round_ is None or task_id in round_.done:
            return
        task = round_.tasks[task_id]
        if round_.attempts[task_id] >= self._max_retries + 1:
            self._fail(DispatchError(
                f"scenario #{task.index} failed {round_.attempts[task_id]} "
                f"dispatch attempts (last: {reason}); retry bound of "
                f"{self._max_retries} exhausted"
            ))
            return
        round_.pending.append(task_id)
        self._event("task-requeued", index=task.index, reason=reason,
                    attempts=round_.attempts[task_id])

    def _fail(self, exc: BaseException) -> None:
        if not self._failed:
            self._failed = True
            self._outcomes.put(exc)

    def _maybe_dispatch(self) -> None:
        round_ = self._round
        if round_ is None or self._failed or not self._gate_open:
            return
        idle = [conn for conn in self._conns.values() if conn.task_id is None]
        for conn in idle:
            task_id = None
            while round_.pending:
                candidate = round_.pending.popleft()
                if candidate not in round_.done:
                    task_id = candidate
                    break
            if task_id is None:
                break
            # Claim lease state synchronously, *before* the send coroutine is
            # scheduled: a second _maybe_dispatch in the same loop step must
            # see this worker as busy, or it would double-assign it and lose
            # the popped task.
            conn.task_id = task_id
            round_.attempts[task_id] += 1
            round_.leases[task_id] = (conn, time.monotonic() + self._lease_timeout)
            asyncio.get_running_loop().create_task(self._send_task(conn, task_id))

    def _release(self, conn: _Conn, task_id: int) -> None:
        """Undo a claimed assignment that never reached the worker."""
        round_ = self._round
        if round_ is not None and round_.leases.get(task_id, (None,))[0] is conn:
            round_.leases.pop(task_id)
        if conn.task_id == task_id:
            conn.task_id = None

    async def _send_task(self, conn: _Conn, task_id: int) -> None:
        round_ = self._round
        if round_ is None or task_id in round_.done:
            # The task concluded between the synchronous claim and this
            # coroutine running (e.g. a stale first-wins delivery): nothing
            # was sent, so the worker must be released or it would starve.
            self._release(conn, task_id)
            self._maybe_dispatch()
            return
        task = round_.tasks[task_id]
        self._event("task-assigned", index=task.index, worker=conn.worker_id,
                    attempts=round_.attempts[task_id])
        try:
            await write_frame(conn.writer, {
                "type": "task",
                "task_id": task_id,
                "index": task.index,
                "attempts": round_.attempts[task_id],
                "worker": self._spec,
                "params": dict(task.params),
                "policy": self.policy,
                "trace": self._trace_ctx,
            }, codec=CODEC_PICKLE)
        except (OSError, RuntimeError):
            # The connection handler will observe the broken stream and drop
            # the worker; releasing the lease here re-queues without waiting
            # for the lease to expire.
            if round_.leases.get(task_id, (None,))[0] is conn:
                self._release(conn, task_id)
                self._requeue(task_id, f"send to {conn.worker_id} failed")
                self._maybe_dispatch()
        except Exception as exc:
            # A task frame that cannot serialize (params/policy unpicklable,
            # frame over the bound) is deterministic: it would fail on every
            # worker and every retry, so fail fast with the cause — the
            # coordinator-side mirror of the worker's unserializable-result
            # handling.
            self._release(conn, task_id)
            self._fail(DispatchError(
                f"cannot serialize the task for scenario #{task.index}: "
                f"{type(exc).__name__}: {exc}"
            ))

    def _on_heartbeat(self, conn: _Conn, message: dict) -> None:
        round_ = self._round
        if round_ is None:
            return
        task_id = message.get("task_id")
        lease = round_.leases.get(task_id)
        if lease is not None and lease[0] is conn:
            round_.leases[task_id] = (conn, time.monotonic() + self._lease_timeout)

    def _on_result(self, conn: _Conn, message: dict) -> None:
        round_ = self._round
        task_id = message.get("task_id")
        if conn.task_id == task_id:
            conn.task_id = None
        if round_ is None or task_id not in round_.tasks or task_id in round_.done:
            self._maybe_dispatch()
            return  # stale or duplicate delivery: first result won already
        task = round_.tasks[task_id]
        round_.done.add(task_id)
        round_.leases.pop(task_id, None)
        # A task re-queued after a lease expiry may still be in pending when
        # the original (slow, alive) worker delivers; first result wins.
        try:
            round_.pending.remove(task_id)
        except ValueError:
            pass
        absorb_spans(message.get("spans"))
        self._outcomes.put(TaskOutcome(
            index=task.index,
            value=message.get("value"),
            worker_id=conn.worker_id,
            wall_time=float(message.get("wall_time", 0.0)),
            attempts=round_.attempts[task_id],
        ))
        self._maybe_dispatch()

    def _on_error(self, conn: _Conn, message: dict) -> None:
        round_ = self._round
        task_id = message.get("task_id")
        if conn.task_id == task_id:
            conn.task_id = None
        if round_ is None or task_id not in round_.tasks or task_id in round_.done:
            self._maybe_dispatch()
            return
        lease = round_.leases.get(task_id)
        if lease is None or lease[0] is not conn:
            # Stale delivery: this worker's lease was revoked and the task
            # re-queued (or re-leased elsewhere).  The error may be host-local
            # (OOM, disk full), so let the retry decide — mirroring the
            # first-result-wins rule for successful stale deliveries.
            self._event("stale-error-ignored", index=round_.tasks[task_id].index,
                        worker=conn.worker_id)
            self._maybe_dispatch()
            return
        task = round_.tasks[task_id]
        round_.done.add(task_id)
        round_.leases.pop(task_id, None)
        self._fail(DispatchTaskError(
            f"scenario #{task.index} raised on worker {conn.worker_id}: "
            f"{message.get('message', '<unknown>')}",
            index=task.index,
            worker_id=conn.worker_id,
            remote_traceback=str(message.get("traceback", "")),
        ))

    async def _watch(self) -> None:
        tick = max(0.05, min(0.5, self._lease_timeout / 5.0))
        while True:
            await asyncio.sleep(tick)
            round_ = self._round
            if round_ is None or self._failed:
                continue
            now = time.monotonic()
            outstanding = bool(round_.pending or round_.leases)
            for task_id, (conn, deadline) in list(round_.leases.items()):
                if now > deadline:
                    round_.leases.pop(task_id)
                    # Deliberately leave conn.task_id set: a silent worker gets
                    # no further tasks until its in-flight attempt concludes
                    # (result or error frame), so a wedged daemon cannot eat
                    # the queue.  Its liveness is tracked via last_seen.
                    self._event("lease-expired", index=round_.tasks[task_id].index,
                                worker=conn.worker_id)
                    self._requeue(task_id, f"lease expired on worker {conn.worker_id}")
            if outstanding and not self._conns:
                if self._no_worker_since is None:
                    self._no_worker_since = now
                elif now - self._no_worker_since > self._worker_wait:
                    self._fail(DispatchError(
                        f"no workers connected for {self._worker_wait:.0f}s with "
                        f"{len(round_.pending) + len(round_.leases)} task(s) outstanding"
                    ))
                    continue
            else:
                self._no_worker_since = None
            # Wedged fleet: tasks are queued, no lease is live, yet every
            # connected worker still "holds" an expired lease (conn.task_id
            # set, socket open).  Nothing can ever dispatch, so without this
            # check the sweep would hang instead of raising.  A worker that
            # has sent *anything* within a lease period does not count as
            # wedged — it is alive and its in-flight result will clear its
            # slot (first result wins if the task was already re-queued).
            idle_exists = any(conn.task_id is None for conn in self._conns.values())
            all_silent = all(now - conn.last_seen > self._lease_timeout
                             for conn in self._conns.values())
            if round_.pending and not round_.leases and self._conns \
                    and not idle_exists and all_silent:
                if self._stalled_since is None:
                    self._stalled_since = now
                elif now - self._stalled_since > self._worker_wait:
                    self._fail(DispatchError(
                        f"all {len(self._conns)} connected worker(s) unresponsive "
                        f"for {self._worker_wait:.0f}s with "
                        f"{len(round_.pending)} task(s) queued"
                    ))
                    continue
            else:
                self._stalled_since = None
            if not self._gate_open and round_.pending and self._waiting_since is not None \
                    and now - self._waiting_since > self._worker_wait:
                self._fail(DispatchError(
                    f"waited {self._worker_wait:.0f}s for {self._min_workers} worker(s); "
                    f"only {len(self._conns)} connected"
                ))
                continue
            self._maybe_dispatch()
