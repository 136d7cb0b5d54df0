"""Length-prefixed message framing shared by the coordinator and the workers.

One frame on the wire is::

    +----------------+-----------+----------------+
    | length (4B BE) | codec (1B)| payload        |
    +----------------+-----------+----------------+

``length`` counts the payload bytes only.  ``codec`` selects how the payload
decodes: :data:`CODEC_JSON` (UTF-8 JSON — control messages: hello, welcome,
heartbeat, shutdown) or :data:`CODEC_PICKLE` (task assignments and results,
which carry arbitrary picklable values such as :class:`~repro.runtime.ExecutionPolicy`
and worker return values).  Frames above :data:`MAX_FRAME_BYTES` are rejected
on both send and receive, so a corrupt length prefix cannot make a peer
allocate unbounded memory.

Both a blocking-socket API (worker daemons are synchronous) and an
``asyncio`` stream API (the coordinator) are provided; they are wire-compatible
by construction since both go through :func:`encode_frame` / :func:`decode_payload`.

**Security model**: pickle crosses the cluster wire.  The coordinator and its
workers mutually trust each other and the network between them — see the
security note in ``docs/dispatch.md``.  Nothing here authenticates peers.  A
reader that must not unpickle passes ``codecs=`` to :func:`read_frame`: a frame
whose header names any other codec is refused before its payload is read, so
its bytes are never decoded.  The serve daemon reads JSON frames only.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import socket
import struct
from typing import Any

from repro.common.errors import ReproError

CODEC_JSON = 0
CODEC_PICKLE = 1
ALL_CODECS = (CODEC_JSON, CODEC_PICKLE)

_HEADER = struct.Struct("!IB")

#: Upper bound on one frame's payload; a sweep value larger than this should
#: not be crossing a control channel in one message anyway.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FramingError(ReproError):
    """Raised on malformed frames or closed connections mid-frame."""


def encode_frame(message: Any, codec: int = CODEC_JSON) -> bytes:
    """Serialize one message into a complete frame (header + payload)."""
    if codec == CODEC_JSON:
        payload = json.dumps(message, separators=(",", ":")).encode()
    elif codec == CODEC_PICKLE:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    else:
        raise FramingError(f"unknown frame codec {codec!r}")
    if len(payload) > MAX_FRAME_BYTES:
        raise FramingError(f"frame payload of {len(payload)} bytes exceeds the "
                           f"{MAX_FRAME_BYTES}-byte bound")
    return _HEADER.pack(len(payload), codec) + payload


def decode_payload(codec: int, payload: bytes) -> Any:
    """Deserialize one frame's payload."""
    if codec == CODEC_JSON:
        try:
            return json.loads(payload.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FramingError(f"undecodable JSON frame: {exc}") from exc
    if codec == CODEC_PICKLE:
        try:
            return pickle.loads(payload)
        except Exception as exc:  # pickle raises a zoo of types
            raise FramingError(f"undecodable pickle frame: {exc}") from exc
    raise FramingError(f"unknown frame codec {codec!r}")


def _check_header(length: int, codec: int, codecs: tuple[int, ...] = ALL_CODECS) -> None:
    if length > MAX_FRAME_BYTES:
        raise FramingError(f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound")
    if codec not in ALL_CODECS:
        raise FramingError(f"unknown frame codec {codec!r}")
    if codec not in codecs:
        raise FramingError(f"frame codec {codec!r} is not accepted here")


# ------------------------------------------------------------- blocking socket


def send_message(sock: socket.socket, message: Any, codec: int = CODEC_JSON) -> None:
    """Write one complete frame to a blocking socket."""
    sock.sendall(encode_frame(message, codec))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise FramingError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Any:
    """Read one complete frame from a blocking socket.

    Raises :class:`FramingError` when the peer closes mid-frame; a clean close
    *between* frames raises :class:`ConnectionClosed` so callers can tell an
    orderly shutdown from a truncated message.
    """
    first = sock.recv(_HEADER.size)
    if not first:
        raise ConnectionClosed("connection closed")
    header = first if len(first) == _HEADER.size else \
        first + _recv_exact(sock, _HEADER.size - len(first))
    length, codec = _HEADER.unpack(header)
    _check_header(length, codec)
    return decode_payload(codec, _recv_exact(sock, length) if length else b"")


class ConnectionClosed(FramingError):
    """The peer closed the connection cleanly between frames."""


# ------------------------------------------------------------- asyncio streams


async def read_frame(reader: asyncio.StreamReader, *, prefix: bytes = b"",
                     codecs: tuple[int, ...] = ALL_CODECS) -> Any:
    """Read one complete frame from an asyncio stream.

    ``prefix`` replays bytes already consumed from the stream (the serve
    front sniffs the first byte to tell a frame from an HTTP request line and
    hands it back here) — they count as the start of the header.  ``codecs``
    lists the codecs this reader accepts; any other is refused at the header,
    before a byte of the payload is read.

    Raises :class:`ConnectionClosed` on clean EOF between frames and
    :class:`FramingError` on a truncated, malformed or refused frame.
    """
    try:
        header = prefix + await reader.readexactly(_HEADER.size - len(prefix))
    except asyncio.IncompleteReadError as exc:
        if not exc.partial and not prefix:
            raise ConnectionClosed("connection closed") from None
        raise FramingError("connection closed mid-frame") from None
    length, codec = _HEADER.unpack(header)
    _check_header(length, codec, codecs)
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise FramingError("connection closed mid-frame") from None
    return decode_payload(codec, payload)


async def write_frame(writer: asyncio.StreamWriter, message: Any,
                      codec: int = CODEC_JSON) -> None:
    """Write one complete frame to an asyncio stream and drain."""
    writer.write(encode_frame(message, codec))
    await writer.drain()


# ----------------------------------------------------- request/response frames
# The frame shapes spoken by the repro.serve daemon over this framing.  They
# live here, next to the wire format, because server, client and tests all
# need the same dict layout.  Serve frames are JSON-codec only: the server
# reads them with ``read_frame(codecs=(CODEC_JSON,))``, which refuses any
# other codec at the header, so no byte a serve client sends is unpickled.

MSG_REQUEST = "request"
MSG_RESPONSE = "response"


def make_request(request_id: Any, method: str, params: Any = None,
                 policy: Any = None, client: str | None = None) -> dict:
    """Build one serve request frame.

    ``params`` are the method's arguments; ``policy`` is a mapping of
    :class:`~repro.runtime.ExecutionPolicy` field overrides applied on top of
    the server's defaults; ``client`` identifies the caller for quota
    accounting (the server falls back to the peer address).
    """
    frame: dict = {"type": MSG_REQUEST, "id": request_id, "method": str(method)}
    if params:
        frame["params"] = dict(params)
    if policy:
        frame["policy"] = dict(policy)
    if client is not None:
        frame["client"] = str(client)
    return frame


def make_response(request_id: Any, result: Any) -> dict:
    """Build one successful serve response frame."""
    return {"type": MSG_RESPONSE, "id": request_id, "ok": True, "result": result}


def make_error_response(request_id: Any, error_type: str, message: str,
                        status: int = 500) -> dict:
    """Build one failed serve response frame.

    ``status`` doubles as the HTTP status code on the HTTP front, so both
    fronts classify errors identically.
    """
    return {"type": MSG_RESPONSE, "id": request_id, "ok": False,
            "error": {"type": str(error_type), "message": str(message),
                      "status": int(status)}}


def parse_request(frame: Any) -> tuple[Any, str, dict, dict, str | None]:
    """Validate one serve request frame into ``(id, method, params, policy, client)``.

    Raises :class:`FramingError` on anything that is not a well-formed request;
    the server answers those with a ``status=400`` error response rather than
    dropping the connection.
    """
    if not isinstance(frame, dict) or frame.get("type") != MSG_REQUEST:
        raise FramingError(f"expected a {MSG_REQUEST!r} frame, got {type(frame).__name__}")
    method = frame.get("method")
    if not isinstance(method, str) or not method:
        raise FramingError("request frame carries no method")
    params = frame.get("params") or {}
    policy = frame.get("policy") or {}
    if not isinstance(params, dict):
        raise FramingError("request params must be a JSON object")
    if not isinstance(policy, dict):
        raise FramingError("request policy must be a JSON object")
    client = frame.get("client")
    return frame.get("id"), method, dict(params), dict(policy), \
        None if client is None else str(client)
