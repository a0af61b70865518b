"""Deterministic, seeded fault injection for the distributed service.

:class:`ChaosProxy` is a TCP proxy that sits between the service's
peers (clients and workers on one side, the broker on the other) and
injects faults into the byte stream *at frame boundaries* — it parses
the wire protocol's length-prefixed headers, so every fault lands on a
whole frame:

* **stall** — hold a frame back for a while before forwarding it;
* **duplicate** — forward a frame twice;
* **bitflip** — flip one payload bit (the CRC32 frame checksum turns
  this into a :class:`~repro.dist.protocol.ProtocolError` on the
  receiving side, which recycles the connection);
* **truncate** — forward a partial frame, then drop the connection
  (the receiver sees "closed mid-frame");
* **reset** — drop the connection between frames.

Every decision comes from a :class:`ChaosPlan`: a seeded RNG schedule,
so a chaos run is *reproducible* — the same seed injects the same
faults at the same frame counts on the same connection indices, which
is what lets a failing soak be replayed and a fixed seed guard CI.
Process-level faults (worker SIGKILL, broker restart) draw from the
same plan through :meth:`ChaosPlan.process_faults`, so one seed
describes the entire fault schedule of a soak.

The proxy is failure-transparent by design: it never rewrites frames
(beyond the injected corruption) and forwards in order, so a run
through a zero-rate proxy is indistinguishable from a direct
connection.  Because every layer above the protocol already treats a
dropped/poisoned connection as a recoverable event (worker reconnect,
broker requeue, client resubmission), a methodology run through an
aggressive proxy must still produce verdicts bit-identical to a
sequential run — the acceptance bar of ``tests/test_chaos.py``.

``repro chaos-proxy --listen H:P --upstream H:P --seed N`` runs a proxy
standalone (its ``--reset``, ``--stall``, ``--stall-max``,
``--truncate``, ``--duplicate`` and ``--bitflip`` flags set the plan's
rates), so any existing test or CI leg can point ``--connect`` (or
``REPRO_ENGINE_CONNECT``) at the proxy instead of the broker and run
under chaos without code changes.
"""

from __future__ import annotations

import hashlib
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.dist.protocol import _HEADER, MAX_FRAME_BYTES

__all__ = ["ChaosPlan", "ChaosProxy"]

#: Fault kinds in the order the per-frame dice are rolled (stable order
#: is part of the reproducibility contract — do not reorder).
_FAULTS = ("reset", "stall", "truncate", "duplicate", "bitflip")


@dataclass
class ChaosPlan:
    """A reproducible fault schedule, fully determined by ``seed``.

    Per-frame faults are drawn from independent RNG streams keyed by
    ``(seed, connection index, direction)``, so the schedule on one
    connection does not depend on how many frames another connection
    carried — the same logical conversation sees the same faults even
    when unrelated traffic varies.
    """

    seed: int = 0
    #: Per-frame probabilities; 0 disables a fault kind entirely.
    reset_rate: float = 0.0
    stall_rate: float = 0.0
    truncate_rate: float = 0.0
    duplicate_rate: float = 0.0
    bitflip_rate: float = 0.0
    #: Longest injected stall, in seconds (stalls are uniform in
    #: ``(0, stall_max_s]``).
    stall_max_s: float = 0.2
    #: Frames at the start of every connection that are never faulted:
    #: the handshake must survive or a peer can never register at all
    #: and the soak tests nothing but the dial path.
    grace_frames: int = 2

    # ------------------------------------------------------------------
    def _rng(self, *key: Any) -> random.Random:
        # Stream seeds come from a stable digest, NOT ``hash()`` — str
        # hashing is randomized per process, and the whole point is that
        # the same plan seed replays the same schedule across runs.
        material = ":".join([str(self.seed)] + [str(part) for part in key])
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def connection_stream(self, conn_index: int,
                          direction: str) -> "_FaultStream":
        """The per-frame fault stream of one proxied direction."""
        return _FaultStream(self, self._rng("conn", conn_index, direction))

    def process_faults(self, kind: str, count: int,
                       horizon: int) -> List[int]:
        """Deterministic schedule of process-level faults.

        Returns ``count`` distinct step indices in ``[0, horizon)`` —
        the test harness interprets a step however it likes (verdicts
        consumed, frames seen, seconds elapsed).  ``kind`` namespaces
        the stream so e.g. worker kills and broker restarts draw
        independent schedules from the same seed.
        """
        if count <= 0 or horizon <= 0:
            return []
        rng = self._rng("process", kind)
        population = list(range(horizon))
        rng.shuffle(population)
        return sorted(population[:min(count, horizon)])

    def describe(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rates": {
                "reset": self.reset_rate,
                "stall": self.stall_rate,
                "truncate": self.truncate_rate,
                "duplicate": self.duplicate_rate,
                "bitflip": self.bitflip_rate,
            },
            "stall_max_s": self.stall_max_s,
            "grace_frames": self.grace_frames,
        }


class _FaultStream:
    """Seeded per-frame fault decisions for one connection direction."""

    def __init__(self, plan: ChaosPlan, rng: random.Random) -> None:
        self._plan = plan
        self._rng = rng
        self._frames = 0

    def next_fault(self, payload_len: int) -> Optional[Tuple[str, Any]]:
        """The fault (if any) for the next frame.

        Exactly one uniform draw per fault kind per frame, in the fixed
        :data:`_FAULTS` order, whether or not earlier kinds fire — the
        draw count per frame is constant, so the schedule downstream of
        any frame never depends on which faults happened to trigger.
        """
        plan = self._plan
        rng = self._rng
        index = self._frames
        self._frames += 1
        draws = {kind: rng.random() for kind in _FAULTS}
        stall_s = rng.random() * plan.stall_max_s
        flip_bit = rng.randrange(max(1, payload_len * 8))
        if index < plan.grace_frames:
            return None
        if draws["reset"] < plan.reset_rate:
            return ("reset", None)
        if draws["stall"] < plan.stall_rate:
            return ("stall", stall_s)
        if draws["truncate"] < plan.truncate_rate:
            return ("truncate", None)
        if draws["duplicate"] < plan.duplicate_rate:
            return ("duplicate", None)
        if draws["bitflip"] < plan.bitflip_rate and payload_len > 0:
            return ("bitflip", flip_bit)
        return None


class _ConnReset(Exception):
    """Internal: a fault decided to drop this proxied connection."""


class ChaosProxy:
    """A frame-aware TCP chaos proxy in front of a broker.

    Accepts on ``listen``; for every inbound connection, dials
    ``upstream`` and shuttles frames both ways, consulting the plan's
    per-connection fault streams.  Thread-per-direction: faults on one
    connection never stall another.
    """

    def __init__(self, listen: Tuple[str, int], upstream: Tuple[str, int],
                 plan: Optional[ChaosPlan] = None) -> None:
        self.listen_host, self.listen_port = listen
        self.upstream = upstream
        self.plan = plan if plan is not None else ChaosPlan()
        self.connections = 0
        self.frames = 0
        self.faults: Dict[str, int] = {kind: 0 for kind in _FAULTS}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.listen_host}:{self.listen_port}"

    def start(self) -> "ChaosProxy":
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.listen_host, self.listen_port))
        server.listen(64)
        self.listen_port = server.getsockname()[1]
        self._server = server
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "connections": self.connections,
                "frames": self.frames,
                "faults": dict(self.faults),
                "plan": self.plan.describe(),
            }

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            server = self._server
            if server is None:
                return
            try:
                client, _addr = server.accept()
            except OSError:
                return
            with self._lock:
                conn_index = self.connections
                self.connections += 1
            thread = threading.Thread(
                target=self._serve_pair, args=(client, conn_index),
                name=f"chaos-conn-{conn_index}", daemon=True)
            thread.start()

    def _serve_pair(self, client: socket.socket, conn_index: int) -> None:
        try:
            upstream = socket.create_connection(self.upstream, timeout=10.0)
            # The 10 s limit is for the *dial* only: create_connection
            # leaves it as the socket's recv timeout, and a quiet link
            # (a deep solve, a respawning fleet) would read as dead
            # after 10 s — an unscheduled fault the plan never drew.
            upstream.settimeout(None)
        except OSError:
            try:
                client.close()
            except OSError:
                pass
            return
        closing = threading.Event()
        pair = [
            (client, upstream,
             self.plan.connection_stream(conn_index, "up")),
            (upstream, client,
             self.plan.connection_stream(conn_index, "down")),
        ]
        threads = []
        for src, dst, stream in pair:
            thread = threading.Thread(
                target=self._pump, args=(src, dst, stream, closing),
                daemon=True)
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        for sock in (client, upstream):
            try:
                sock.close()
            except OSError:
                pass

    def _pump(self, src: socket.socket, dst: socket.socket,
              stream: _FaultStream, closing: threading.Event) -> None:
        """Shuttle frames one way until either side dies or a fault
        kills the connection (both directions close together — a reset
        is a connection-level event, exactly like real networks)."""
        try:
            while not self._stop.is_set() and not closing.is_set():
                frame = self._read_frame(src)
                if frame is None:
                    break
                header, payload = frame
                with self._lock:
                    self.frames += 1
                self._forward(dst, header, payload,
                              stream.next_fault(len(payload)))
        except (_ConnReset, OSError):
            pass
        finally:
            closing.set()
            for sock in (src, dst):
                # Shutdown (not close) unblocks the sibling pump thread
                # mid-recv; the pair owner closes the fds once both
                # pumps have exited.
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def _read_frame(self, src: socket.socket) \
            -> Optional[Tuple[bytes, bytes]]:
        header = self._recv_exact(src, _HEADER.size)
        if header is None:
            return None
        try:
            length = struct.unpack_from(">I", header)[0]
        except struct.error:
            return None
        if length > MAX_FRAME_BYTES:
            # Not protocol traffic (or already corrupt beyond parsing):
            # drop the connection rather than forward garbage forever.
            raise _ConnReset()
        payload = self._recv_exact(src, length)
        if payload is None:
            return None
        return header, payload

    @staticmethod
    def _recv_exact(src: socket.socket, count: int) -> Optional[bytes]:
        chunks = []
        got = 0
        while got < count:
            try:
                chunk = src.recv(count - got)
            except OSError:
                return None
            if not chunk:
                return None
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks) if chunks or count == 0 else None

    def _forward(self, dst: socket.socket, header: bytes, payload: bytes,
                 fault: Optional[Tuple[str, Any]]) -> None:
        if fault is not None:
            kind, arg = fault
            with self._lock:
                self.faults[kind] = self.faults.get(kind, 0) + 1
            if kind == "reset":
                raise _ConnReset()
            if kind == "stall":
                time.sleep(float(arg))
            elif kind == "truncate":
                cut = max(1, len(payload) // 2) if payload else 0
                dst.sendall(header + payload[:cut])
                raise _ConnReset()
            elif kind == "duplicate":
                dst.sendall(header + payload)
            elif kind == "bitflip" and payload:
                corrupt = bytearray(payload)
                bit = int(arg) % (len(corrupt) * 8)
                corrupt[bit >> 3] ^= 1 << (bit & 7)
                dst.sendall(header + bytes(corrupt))
                return
        dst.sendall(header + payload)

