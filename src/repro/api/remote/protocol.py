"""The remote subsystem's wire format: length-prefixed JSON frames.

Both endpoints — worker and remote executor — speak the same framing
over a plain TCP stream: a 4-byte big-endian unsigned length, then
that many bytes of UTF-8 JSON encoding one object.  JSON keeps the payloads debuggable and reuses the key-stable
``to_dict`` round-trips :class:`~repro.harness.config.SimConfig` /
:class:`~repro.api.spec.SweepSpec` / :class:`~repro.api.result.
SimResult` already guarantee; the length prefix makes message
boundaries explicit, so a reader never depends on TCP segmentation.

Frame payloads are dicts with an ``"op"`` discriminator.  The worker
dialect: ``run_batch`` (``items``: a list of ``{config, use_cache}``
objects sharing one trace identity; a lone point is a one-item list)
answered by heartbeats interleaved with exactly one ``point_done`` per
item (``index`` = the item's position in the batch, plus ``ok`` true
with stats/wall time/source, or false with an error string) and then
one trailing ``done`` with the ``completed`` count — per-point results
stream as they finish, so retry granularity and straggler detection
stay per point even though the batch shares one trace generation and
predecode; ``ping`` / ``pong``; ``shutdown``; anything else is
answered with an ``error`` frame.

:exc:`ProtocolError` covers everything malformed: torn frames,
oversized lengths, non-JSON payloads.  A clean EOF *between* frames is
not an error — :func:`recv_frame` returns ``None`` so accept loops can
distinguish an orderly disconnect from a mid-message failure.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

#: refuse frames larger than this (a corrupt length prefix must not
#: look like a 4 GiB allocation request)
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct("!I")


class ProtocolError(RuntimeError):
    """A malformed, torn or oversized frame on a remote connection."""


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` string into ``(host, port)``."""
    host, sep, port_text = text.rpartition(":")
    try:
        if not sep or not host:
            raise ValueError
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad address {text!r}: expected HOST:PORT, "
            f"e.g. 127.0.0.1:7777") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"bad address {text!r}: port out of range")
    return host, port


def format_address(address: Tuple[str, int]) -> str:
    """Render ``(host, port)`` back to the ``HOST:PORT`` spelling."""
    host, port = address
    return f"{host}:{port}"


def connect(address: Tuple[str, int],
            timeout: Optional[float] = None) -> socket.socket:
    """Open a TCP connection to *address* (Nagle disabled)."""
    sock = socket.create_connection(address, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Serialize *payload* and write one framed message."""
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(data) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds MAX_FRAME={MAX_FRAME}")
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes; ``None`` on EOF before the first."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if remaining == count:
                return None  # clean EOF at a message boundary
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one framed message; ``None`` on a clean EOF between frames.

    Raises :exc:`ProtocolError` on torn frames, oversized lengths or
    payloads that are not a JSON object; ``socket.timeout`` (an
    ``OSError``) propagates, which is how heartbeat timeouts surface.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME={MAX_FRAME}")
    data = _recv_exact(sock, length) if length else b""
    if data is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be an object, got "
            f"{type(payload).__name__}")
    return payload
