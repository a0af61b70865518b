"""Wire protocol of the distributed proof service.

Every message is one *frame* on a TCP stream::

    4 bytes   payload length, big-endian (excludes the header)
    1 byte    tag: b"J" (JSON, UTF-8); any other tag is rejected
    4 bytes   CRC32 over tag + payload, big-endian
    N bytes   the JSON-encoded message (a dict with a ``type`` key)

The checksum is verified *before* the payload is decoded: a frame
corrupted in flight (or by a fault injector — see
:mod:`repro.dist.chaos`) raises :class:`ProtocolError`, the receiving
side recycles the connection, and the corrupt bytes are never
deserialized.  Both fault-tolerance layers (worker reconnect, broker
requeue, client resubmission) already treat a dropped connection as a
recoverable event, so integrity checking composes with them for free.

Connections open with a versioned handshake: the dialing side sends a
``hello`` (protocol version, role), the broker answers ``welcome``
(echoing the version) or ``error`` — a version mismatch is rejected
*before* any obligation bytes are exchanged, so mixed deployments fail
fast with a clear reason instead of corrupting a sweep.

:class:`Connection` wraps a socket with framed ``send``/``recv`` (the
send side is lock-protected, so broker threads can deliver verdicts to a
client connection while its handler thread answers control messages).
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import zlib
from typing import Any, Dict, Optional, Tuple

from repro.engine.obligation import ProofObligation, decode_cnf, encode_cnf
from repro.errors import DistError

#: Bump on any incompatible message-shape change; handshakes between
#: different versions are rejected.  v2: the broker pushes ``cancel``
#: frames to workers mid-solve (cooperative preemption), so worker
#: replies are routed by type instead of strict request/response.
#: v3: the frame header grew a CRC32 of the tag + payload; a v2 peer
#: misparses the header before its handshake version check can fire,
#: which still surfaces as a loud :class:`ProtocolError` rather than
#: silent corruption.
PROTO_VERSION = 3

_HEADER = struct.Struct(">IBI")
_TAG_JSON = ord("J")


def _frame_crc(tag: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(bytes([tag])))

#: Sanity cap on a single frame (a corrupt length prefix must not make
#: the receiver try to allocate gigabytes).
MAX_FRAME_BYTES = 1 << 29


class ProtocolError(DistError):
    """Malformed frame, unknown frame tag, or a failed handshake."""


def _decode(tag: int, payload: bytes) -> Dict[str, Any]:
    if tag != _TAG_JSON:
        raise ProtocolError(f"unknown frame tag {tag!r}")
    message = json.loads(payload.decode("utf-8"))
    if not isinstance(message, dict):
        raise ProtocolError("message is not a mapping")
    return message


def frame_message(message: Dict[str, Any]) -> bytes:
    """One fully encoded wire frame (header + payload) — shared by the
    threaded :class:`Connection` and the broker's asyncio streams."""
    payload = json.dumps(message, separators=(",", ":")).encode()
    return _HEADER.pack(len(payload), _TAG_JSON,
                        _frame_crc(_TAG_JSON, payload)) + payload


async def read_message(reader: "asyncio.StreamReader") \
        -> Optional[Dict[str, Any]]:
    """Asyncio twin of :meth:`Connection.recv`: next framed message from
    a stream reader, or None when the peer closed at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    length, tag, crc = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte cap")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    if _frame_crc(tag, payload) != crc:
        raise ProtocolError("frame checksum mismatch (corrupt frame)")
    return _decode(tag, payload)


class Connection:
    """A framed message stream over one socket."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._send_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def send(self, message: Dict[str, Any]) -> None:
        frame = frame_message(message)
        with self._send_lock:
            self.sock.sendall(frame)

    def _recv_exact(self, count: int) -> Optional[bytes]:
        """Read exactly ``count`` bytes; None on EOF at a frame boundary."""
        chunks = []
        got = 0
        while got < count:
            chunk = self.sock.recv(count - got)
            if not chunk:
                if got:
                    raise ProtocolError("connection closed mid-frame")
                return None
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv(self) -> Optional[Dict[str, Any]]:
        """Next message, or None when the peer closed the stream."""
        header = self._recv_exact(_HEADER.size)
        if header is None:
            return None
        length, tag, crc = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds the "
                                f"{MAX_FRAME_BYTES}-byte cap")
        payload = self._recv_exact(length)
        if payload is None:
            raise ProtocolError("connection closed mid-frame")
        if _frame_crc(tag, payload) != crc:
            raise ProtocolError("frame checksum mismatch (corrupt frame)")
        return _decode(tag, payload)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
def dial(address: Tuple[str, int], role: str,
         name: str = "", timeout: Optional[float] = None) -> \
        Tuple[Connection, Dict[str, Any]]:
    """Connect to a broker, run the client side of the handshake.

    Returns the connection and the ``welcome`` message.
    Raises :class:`ProtocolError` on rejection, :class:`DistError`
    (with the address in the message) when the broker is unreachable.
    """
    try:
        sock = socket.create_connection(address, timeout=timeout)
    except OSError as exc:
        raise DistError(
            f"cannot reach broker at {address[0]}:{address[1]}: {exc}"
        ) from exc
    conn = Connection(sock)
    try:
        # The timeout stays armed through the handshake: a peer that
        # accepts the TCP connection but never answers (a black-holed
        # link, some unrelated service on the port) must fail loudly,
        # not hang the CLI.
        conn.send({
            "type": "hello",
            "proto": PROTO_VERSION,
            "role": role,
            "name": name,
        })
        try:
            reply = conn.recv()
        except OSError as exc:   # socket.timeout included
            raise ProtocolError(
                f"broker at {address[0]}:{address[1]} did not complete "
                f"the handshake: {exc}") from exc
        if reply is None:
            raise ProtocolError("broker closed the connection during the "
                                "handshake")
        if reply.get("type") == "error":
            raise ProtocolError(
                f"broker rejected the handshake: {reply.get('reason')}")
        if reply.get("type") != "welcome":
            raise ProtocolError(
                f"unexpected handshake reply {reply.get('type')!r}")
        sock.settimeout(None)
        return conn, reply
    except BaseException:
        conn.close()
        raise


def parse_address(spec: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` connect string."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise DistError(f"expected HOST:PORT, got {spec!r}")
    try:
        number = int(port)
    except ValueError:
        raise DistError(f"invalid port in {spec!r}") from None
    if not 1 <= number <= 65535:
        # getaddrinfo would silently wrap the port modulo 65536.
        raise DistError(f"port out of range in {spec!r}")
    return host, number


# ----------------------------------------------------------------------
# Obligation transport
# ----------------------------------------------------------------------
def obligation_to_wire(obligation: ProofObligation) -> Dict[str, Any]:
    """The shippable form of an obligation.

    The slice ``remap`` stays with the exporting context (a worker
    never needs it — the verdict's packed model is over the
    obligation's own numbering).
    """
    return {
        "name": obligation.name,
        "nvars": obligation.nvars,
        "clauses": decode_cnf(obligation.cnf),
        "assumptions": list(obligation.assumptions),
        "frozen": list(obligation.frozen),
        "conflict_limit": obligation.conflict_limit,
        "wall_budget": obligation.wall_budget,
        "meta": dict(obligation.meta),
    }


def obligation_from_wire(data: Dict[str, Any]) -> ProofObligation:
    """Inverse of :func:`obligation_to_wire`.  Unknown keys are ignored,
    among them the preprocessing flag older clients send: a verdict
    holds for its formula whether or not the formula was
    preprocessed.

    The wire's clause lists become the obligation's flat ``cnf``
    (:func:`~repro.engine.obligation.encode_cnf`).  A literal that is
    not an integer or does not fit a C ``int`` makes the payload
    malformed (:class:`ProtocolError`); a zero literal, which the flat
    form cannot hold, raises :class:`~repro.errors.FormalError`, as an
    out-of-range one does when the obligation is solved."""
    try:
        return ProofObligation(
            name=str(data["name"]),
            nvars=int(data["nvars"]),
            cnf=encode_cnf(data["clauses"]),
            assumptions=list(map(int, data["assumptions"])),
            frozen=list(map(int, data.get("frozen", ()))),
            conflict_limit=data.get("conflict_limit"),
            wall_budget=data.get("wall_budget"),
            meta=dict(data.get("meta", {})),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed obligation payload: {exc}") from exc
