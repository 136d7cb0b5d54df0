"""The ``repro serve`` daemon: simulation-as-a-service on the dispatch fabric.

One asyncio server, one port, two wire protocols, told apart by the first
byte of a connection: a length-prefixed frame's length prefix starts with a
zero byte (any payload under 16 MiB — request frames are small JSON), while
an HTTP method line starts with an uppercase ASCII letter.  Framed clients
(:class:`~repro.serve.client.ServeClient`) get a persistent multi-request
connection; HTTP clients get one request per connection through
:mod:`repro.serve.http`.

**Request path** — identical for both fronts:

1. parse into ``(method, params, policy overrides, client id)``;
2. merge overrides onto the server's policy
   (:func:`~repro.serve.handlers.resolve_request_policy`; client > server,
   ``cache_dir`` excluded);
3. run the *server's* middleware chain at the ``serve`` seam — admission
   control (``quota:limit=...``, ``concurrency:limit=...``) is server policy
   a client cannot override away;
4. inside the chain, coalesce: identical in-flight requests (keyed on the
   sweep cache's content-addressed entry names plus the resolved policy)
   share one computation through :class:`~repro.serve.coalesce.CoalescingMap`;
5. the computation runs on the event loop's thread pool through the ordinary
   ``SweepRunner``/executor stack, cache and all.

Values are the byte-identity invariant everywhere else in the stack, and the
serve layer preserves it: a ``sweep`` response body serialized by the HTTP
front equals the ``repro sweep --json`` export of the same grid byte for
byte.

**Security model**: inherited from ``docs/dispatch.md`` — the daemon trusts
its network.  Nothing authenticates requests, and a sweep request makes the
server import the named worker and burn CPU.  One hardening over the cluster
wire: serve clients speak JSON only; nothing a client sends is ever
unpickled.  Bind to loopback or a private network, never the open internet.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Mapping

from repro.common.errors import ConfigurationError
from repro.dispatch.cluster import parse_bind
from repro.dispatch.framing import (
    CODEC_JSON,
    ConnectionClosed,
    FramingError,
    make_error_response,
    make_response,
    parse_request,
    read_frame,
    write_frame,
)
from repro.middleware import (
    SEAM_SERVE,
    MiddlewareContext,
    build_chain,
    effective_middleware_specs,
    middleware_metrics,
)
from repro.obs.metrics import REGISTRY as OBS_REGISTRY
from repro.middleware.builtin import ConcurrencyLimitError, QuotaExceededError
from repro.runtime import ExecutionPolicy
from repro.serve.coalesce import CoalescingMap
from repro.serve.handlers import HANDLERS, UnknownMethodError, resolve_request_policy
from repro.serve.http import HttpError, HttpRequest, format_response, read_http_request

#: Version reported by ``health``; bump on incompatible request-frame changes.
SERVE_PROTOCOL_VERSION = 1

#: Frame codecs the framed front reads: JSON only, so nothing a client sends
#: is ever unpickled.
_SERVE_CODECS = (CODEC_JSON,)

#: Methods answered by the server itself, without a handler or the chain.
_INTROSPECTION_METHODS = ("health", "metrics")


def error_status(exc: BaseException) -> int:
    """Map an exception to the transport status both fronts report."""
    if isinstance(exc, UnknownMethodError):
        return 404
    if isinstance(exc, QuotaExceededError):
        return 429
    if isinstance(exc, ConcurrencyLimitError):
        return 503
    if isinstance(exc, (ConfigurationError, FramingError)):
        return 400
    return 500


def _json_body(payload: Any) -> bytes:
    # The exact serialization of SweepResult.save_json, so an HTTP sweep
    # response is byte-identical to the CLI's --json export.
    return json.dumps(payload, indent=2, sort_keys=True).encode()


class ReproServer:
    """The serve daemon.  Start with :meth:`start` inside a running loop.

    ``policy`` is the server's resolved :class:`ExecutionPolicy` (default:
    resolve through the standard order, so ``$REPRO_MIDDLEWARE`` and
    ``repro.configure`` contexts apply); its ``middleware`` field becomes the
    serve-seam admission chain.  ``on_event`` receives lifecycle dicts
    (listening, request, error) on whatever thread emits them.
    """

    def __init__(self, bind: str = "127.0.0.1:0", *,
                 policy: ExecutionPolicy | None = None,
                 on_event=None) -> None:
        self._host, self._port = parse_bind(bind)
        if policy is None:
            policy = ExecutionPolicy.resolve()
        if not isinstance(policy, ExecutionPolicy):
            raise ConfigurationError("policy must be an ExecutionPolicy")
        self.policy = policy
        self._chain = build_chain(effective_middleware_specs(policy))
        self.coalescer = CoalescingMap()
        self.address: tuple[str, int] | None = None
        self.requests_total = 0
        self.errors_total = 0
        self._started = time.monotonic()
        self._server: asyncio.base_events.Server | None = None
        self._on_event = on_event

    def _event(self, kind: str, **payload: Any) -> None:
        if self._on_event is not None:
            event = {"event": kind}
            event.update(payload)
            self._on_event(event)

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(self._handle, self._host, self._port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._event("serve-listening", host=self.address[0], port=self.address[1])
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------ execution

    async def execute(self, method: str, params: Mapping[str, Any] | None = None,
                      policy: Mapping[str, Any] | None = None,
                      client: str = "local") -> Any:
        """Run one request exactly as a remote caller would (tests use this).

        Raises on error; both fronts translate exceptions through
        :func:`error_status` into their wire's error shape.
        """
        self.requests_total += 1
        self._event("request", method=method, client=client)
        if method == "health":
            return self._health()
        if method == "metrics":
            return self._metrics()
        handler = HANDLERS.get(method)
        if handler is None:
            known = sorted(HANDLERS) + list(_INTROSPECTION_METHODS)
            raise UnknownMethodError(
                f"unknown method {method!r}; expected one of {', '.join(known)}"
            )
        request_policy = resolve_request_policy(self.policy, policy)
        key, thunk = handler.prepare(dict(params or {}), request_policy)

        def call() -> Any:
            # Chain outside, coalescing inside: quotas and timing count every
            # request (followers included); the computation itself runs once.
            guarded = thunk if key is None else \
                (lambda: self.coalescer.run(key, thunk))
            if self._chain is None:
                return guarded()
            context = MiddlewareContext(
                seam=SEAM_SERVE,
                name=method,
                policy=request_policy,
                payload={"method": method, "client": client},
            )
            return self._chain.run(context, guarded)

        # Handlers block (SweepRunner, pool executors); the loop's default
        # thread pool keeps the server responsive while they run.  Coalescing
        # cannot deadlock the pool: a follower only ever waits once it holds
        # a thread, and its leader by definition already holds one.
        return await asyncio.get_running_loop().run_in_executor(None, call)

    def _health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "protocol": SERVE_PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "requests_total": self.requests_total,
            "errors_total": self.errors_total,
            "methods": sorted(HANDLERS) + list(_INTROSPECTION_METHODS),
            "policy": self.policy.describe(),
        }

    def _metrics(self) -> dict[str, Any]:
        # middleware_metrics() is the process-wide per-seam registry fed by
        # TimingMiddleware — what the CI serve job reads to prove coalescing
        # (serve-seam count = requests, dispatch-seam count = computations).
        return {
            "requests_total": self.requests_total,
            "errors_total": self.errors_total,
            "coalescing": self.coalescer.stats(),
            "middleware": middleware_metrics(),
        }

    # -------------------------------------------------- connection handling

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            initial = await reader.readexactly(1)
        except (asyncio.IncompleteReadError, OSError):
            self._close_writer(writer)
            return
        try:
            if initial[0] == 0:
                # A frame header's first length byte: zero for any payload
                # under 16 MiB, which every request frame is.
                await self._serve_framed(initial, reader, writer)
            elif 0x41 <= initial[0] <= 0x5A:
                # An uppercase ASCII letter: an HTTP method line.
                await self._serve_http(initial, reader, writer)
            # Anything else is neither protocol: drop the connection.
        except (ConnectionClosed, FramingError, OSError,
                asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            self._close_writer(writer)

    @staticmethod
    def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except RuntimeError:  # pragma: no cover - loop tearing down
            pass

    @staticmethod
    def _peer_host(writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if peer else "unknown"

    # ----------------------------------------------------------- framed front

    async def _serve_framed(self, initial: bytes, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """A persistent framed connection: request frames in, responses out.

        Frames are read JSON-only: a header naming any other codec (pickle
        above all) is refused before its payload is read, answered with one
        ``status=400`` error frame, and the connection is closed — the
        unread payload leaves the stream out of step.
        """
        default_client = self._peer_host(writer)
        try:
            frame = await read_frame(reader, prefix=initial, codecs=_SERVE_CODECS)
        except FramingError as exc:
            await self._refuse_frame(writer, exc)
            return
        while True:
            try:
                request_id, method, params, overrides, client = parse_request(frame)
            except FramingError as exc:
                self.errors_total += 1
                response = make_error_response(None, type(exc).__name__,
                                               str(exc), error_status(exc))
            else:
                response = await self._respond(request_id, method, params,
                                               overrides, client or default_client)
            await write_frame(writer, response)
            try:
                frame = await read_frame(reader, codecs=_SERVE_CODECS)
            except ConnectionClosed:
                return
            except FramingError as exc:
                await self._refuse_frame(writer, exc)
                return

    async def _refuse_frame(self, writer: asyncio.StreamWriter, exc: FramingError) -> None:
        """Answer an unreadable frame with one 400 error frame (the caller closes)."""
        self.errors_total += 1
        await write_frame(writer, make_error_response(None, type(exc).__name__,
                                                      str(exc), error_status(exc)))

    async def _respond(self, request_id: Any, method: str, params: dict,
                       overrides: dict, client: str) -> dict:
        try:
            result = await self.execute(method, params, overrides, client)
        except Exception as exc:
            self.errors_total += 1
            self._event("request-error", method=method, client=client,
                        error=type(exc).__name__)
            return make_error_response(request_id, type(exc).__name__,
                                       str(exc), error_status(exc))
        return make_response(request_id, result)

    # ------------------------------------------------------------- HTTP front

    async def _serve_http(self, initial: bytes, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """One HTTP request, one JSON response, connection closed."""
        try:
            request = await read_http_request(reader, prefix=initial)
        except HttpError as exc:
            self.errors_total += 1
            status, payload = exc.status, self._error_payload(exc, exc.status)
        else:
            if request.method == "GET" and request.path == "/metrics" \
                    and self._wants_prometheus(request):
                # Content negotiation: a Prometheus scraper (Accept names
                # text/plain or openmetrics) gets the text exposition of the
                # obs registry; everything else keeps the JSON body.
                self.requests_total += 1
                body = OBS_REGISTRY.render_prometheus().encode()
                writer.write(format_response(
                    200, body, content_type="text/plain; version=0.0.4; charset=utf-8"))
                await writer.drain()
                return
            status, payload = await self._http_dispatch(request,
                                                        self._peer_host(writer))
        writer.write(format_response(status, _json_body(payload)))
        await writer.drain()

    @staticmethod
    def _wants_prometheus(request: HttpRequest) -> bool:
        accept = str(request.headers.get("accept", "")).lower()
        return "text/plain" in accept or "openmetrics" in accept

    @staticmethod
    def _error_payload(exc: BaseException, status: int) -> dict:
        return {"error": {"type": type(exc).__name__, "message": str(exc),
                          "status": status}}

    async def _http_dispatch(self, request: HttpRequest,
                             default_client: str) -> tuple[int, Any]:
        if request.method == "GET" and request.path in ("/", "/health"):
            return 200, await self.execute("health", client=default_client)
        if request.method == "GET" and request.path == "/metrics":
            return 200, await self.execute("metrics", client=default_client)
        if request.path.startswith("/v1/"):
            if request.method != "POST":
                return 405, {"error": {"type": "HttpError",
                                       "message": "method endpoints take POST",
                                       "status": 405}}
            method = request.path[len("/v1/"):]
            try:
                body = json.loads(request.body) if request.body else {}
            except json.JSONDecodeError as exc:
                self.errors_total += 1
                return 400, self._error_payload(
                    ConfigurationError(f"request body is not JSON: {exc}"), 400)
            if not isinstance(body, dict):
                self.errors_total += 1
                return 400, self._error_payload(
                    ConfigurationError("request body must be a JSON object"), 400)
            client = request.headers.get("x-repro-client") \
                or body.get("client") or default_client
            try:
                result = await self.execute(method, body.get("params"),
                                            body.get("policy"), str(client))
            except Exception as exc:
                self.errors_total += 1
                status = error_status(exc)
                self._event("request-error", method=method, client=str(client),
                            error=type(exc).__name__)
                return status, self._error_payload(exc, status)
            return 200, result
        return 404, {"error": {"type": "HttpError",
                               "message": f"no route for {request.method} {request.path}",
                               "status": 404}}


class ServerThread:
    """Run a :class:`ReproServer` on a background event-loop thread.

    The in-process harness used by tests, notebooks and scripts::

        with ServerThread(policy=policy) as running:
            client = ServeClient(running.address)
            ...

    ``__exit__`` follows the same stop-join-close discipline as
    :meth:`repro.dispatch.cluster.ClusterExecutor.close`: stop the loop,
    join the thread, close the loop unconditionally.
    """

    def __init__(self, bind: str = "127.0.0.1:0", *,
                 policy: ExecutionPolicy | None = None, on_event=None) -> None:
        self.server = ReproServer(bind, policy=policy, on_event=on_event)
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "ServerThread":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        try:
            self.address = asyncio.run_coroutine_threadsafe(
                self.server.start(), self._loop).result(timeout=10.0)
        except BaseException:
            self._teardown()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop).result(timeout=10.0)
        except BaseException:
            pass
        self._teardown()

    def _teardown(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        try:
            self._loop.close()
        except RuntimeError:  # pragma: no cover - wedged thread
            pass
