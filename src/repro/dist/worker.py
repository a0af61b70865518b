"""The proof-service worker daemon.

A worker dials the broker, registers via the versioned handshake and
then loops: pull an obligation, solve it with the exact same pure
function local pools use (:func:`repro.engine.obligation.solve_obligation`
— same preprocessing stack, same CDCL search, hence bit-identical
verdicts no matter which machine runs the job), stream the verdict back.

With a ``cache_dir`` the worker fronts solving with a local
:class:`repro.engine.cache.ResultCache`: verdict hits skip the solve
entirely, a solve its search left open (a conflict limit, a wall budget
or a cancel) stores its simplified clause database so the retry skips
the preprocessing pass, and every *gossiped* verdict the broker
piggybacks on a pull is written through — so a fleet of workers sharing
nothing but the broker converges to a common proof cache.

Each connection runs two side threads: a heartbeat (so the broker can
tell a busy worker from a dead one) and a *receiver* that reads every
inbound frame.  The receiver routes ordinary replies to the pull loop
and handles ``cancel`` pushes out of band: when the broker cancels the
job currently being solved (its batch finished early or was dropped),
the receiver flips a flag that :func:`solve_obligation`'s
``cancel_check`` observes inside the CDCL conflict loop — the solve
abandons its search within a bounded number of conflicts and the core
goes back to useful work instead of finishing a doomed proof.

A lost broker connection is retried with backoff (work in flight during
the loss is the broker's problem: it requeues on disconnect).  The
backoff covers *short-lived* connections too: a broker that accepts the
dial but drops the link immediately — flapping under restart, a
load-balancer with no backend — counts against ``max_retries`` just
like a refused dial, so a worker never busy-spins reconnecting at full
speed forever.
"""

from __future__ import annotations

import os
import queue
import threading
import time
import traceback
from typing import Any, Dict, Optional, Tuple, Union

from repro.dist.protocol import (
    Connection,
    DistError,
    ProtocolError,
    obligation_from_wire,
    parse_address,
    dial,
)
from repro.engine.cache import ResultCache
from repro.engine.obligation import UNKNOWN, Verdict, solve_obligation


class Worker:
    """One pull-solve-report loop against a broker."""

    def __init__(
        self,
        address: str,
        cache_dir: Optional[str] = None,
        name: str = "",
        poll_interval: float = 0.05,
        heartbeat_interval: float = 1.0,
        max_retries: int = 10,
        retry_delay: float = 0.5,
        dial_timeout: float = 10.0,
        stable_after: float = 1.0,
    ) -> None:
        self.address: Tuple[str, int] = parse_address(address)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.name = name or f"worker-pid{os.getpid()}"
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.max_retries = max_retries
        self.retry_delay = retry_delay
        self.dial_timeout = dial_timeout
        #: A connection must survive this long to count as a success
        #: for retry accounting (see :meth:`run`).
        self.stable_after = stable_after
        self.solved = 0
        self.cancelled = 0
        #: Solves that crashed (reported to the broker as structured
        #: failures instead of killing this worker).
        self.failed = 0
        self._stop = threading.Event()
        # Cancellation state of the job currently being solved, shared
        # between the receiver thread and the solve's cancel_check.
        self._cancel_lock = threading.Lock()
        self._current_job: Optional[Tuple[str, int]] = None
        self._cancel_flag = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until stopped or the broker stays unreachable.

        Returns the number of obligations solved (cache hits included).

        Retry accounting treats a connection that died within
        ``stable_after`` seconds exactly like a failed dial: it burns a
        retry and waits ``retry_delay`` before the next attempt.  Only a
        connection that actually lived resets the budget — otherwise a
        flapping broker (accepting dials, dropping them at once) would
        reset ``retries`` on every lap and the worker would reconnect in
        a zero-delay spin forever.
        """
        retries = 0
        try:
            while not self._stop.is_set():
                try:
                    # The armed timeout makes a black-holed broker a
                    # retryable failure instead of an eternal hang.
                    conn, _welcome = dial(self.address, role="worker",
                                          name=self.name,
                                          timeout=self.dial_timeout)
                except DistError:
                    retries += 1
                    if retries > self.max_retries:
                        raise
                    if self._stop.wait(self.retry_delay):
                        break
                    continue
                connected_at = time.monotonic()
                try:
                    self._serve(conn)
                finally:
                    conn.close()
                if self._stop.is_set():
                    break
                if time.monotonic() - connected_at >= self.stable_after:
                    retries = 0
                else:
                    retries += 1
                    if retries > self.max_retries:
                        raise DistError(
                            f"broker at {self.address[0]}:"
                            f"{self.address[1]} is flapping: "
                            f"{retries} consecutive connections died "
                            f"within {self.stable_after:.1f}s")
                    if self._stop.wait(self.retry_delay):
                        break
        finally:
            if self.cache is not None:
                self.cache.flush()
        return self.solved

    # ------------------------------------------------------------------
    def _serve(self, conn: Connection) -> None:
        """One connection's pull loop; returns when the link drops."""
        alive = threading.Event()
        alive.set()
        replies: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue()

        def heartbeat() -> None:
            while alive.is_set() and not self._stop.is_set():
                if self._stop.wait(self.heartbeat_interval):
                    return
                if not alive.is_set():
                    return
                try:
                    conn.send({"type": "heartbeat"})
                except OSError:
                    return

        def receive() -> None:
            # The only reader of the socket: ordinary replies flow to
            # the pull loop; ``cancel`` pushes — which the broker sends
            # at any time, including mid-solve — are handled here.
            while alive.is_set():
                try:
                    message = conn.recv()
                except (ProtocolError, OSError):
                    message = None
                if message is None:
                    replies.put(None)
                    return
                if message.get("type") == "cancel":
                    self._on_cancel(message)
                    continue
                replies.put(message)

        pulse = threading.Thread(target=heartbeat, name="worker-heartbeat",
                                 daemon=True)
        receiver = threading.Thread(target=receive, name="worker-receiver",
                                    daemon=True)
        pulse.start()
        receiver.start()
        try:
            # The loop is *type-driven*, not strict request/response:
            # every inbound frame is handled by what it says it is, so
            # a duplicated frame in flight (a flaky path, a fault
            # injector) re-routes harmlessly — a duplicated "job" is
            # just another assignment, a stray "ok" ack is absorbed —
            # instead of desynchronizing a lockstep conversation.
            need_pull = True
            while not self._stop.is_set():
                if need_pull:
                    # A cache-less worker declines gossip: it could
                    # only discard the payloads the broker would ship.
                    conn.send({"type": "pull",
                               "gossip": self.cache is not None})
                    need_pull = False
                reply = replies.get()
                if reply is None:
                    return
                self._absorb_gossip(reply.get("gossip") or ())
                kind = reply.get("type")
                if kind == "ok":
                    continue          # ack of a reported result
                if kind == "idle":
                    if self._stop.wait(self.poll_interval):
                        return
                    need_pull = True
                    continue
                if kind != "job":
                    raise ProtocolError(f"unexpected reply {kind!r} to pull")
                key = (str(reply.get("batch_id")),
                       int(reply.get("seq", -1)))
                outcome = self._solve(reply["obligation"], key)
                if isinstance(outcome, Verdict):
                    conn.send({
                        "type": "result",
                        "batch_id": key[0],
                        "seq": key[1],
                        "verdict": outcome.to_dict(),
                    })
                elif outcome is not None:
                    # The solve crashed: report the structured failure
                    # (exception type + traceback) so the broker can
                    # tell a poison obligation from a transient fault
                    # — and keep serving instead of dying with it.
                    conn.send({
                        "type": "result",
                        "batch_id": key[0],
                        "seq": key[1],
                        "failure": outcome,
                    })
                # None: cancelled mid-solve — the broker already
                # discarded the job, nothing worth reporting.
                need_pull = True
        except OSError:
            return
        finally:
            alive.clear()
            with self._cancel_lock:
                self._current_job = None

    def _on_cancel(self, message: Dict[str, Any]) -> None:
        key = (str(message.get("batch_id")),
               int(message.get("seq", -1)))
        with self._cancel_lock:
            if self._current_job == key:
                self._cancel_flag.set()

    # ------------------------------------------------------------------
    def _solve(self, payload, key: Tuple[str, int]) \
            -> Union[Verdict, Dict[str, Any], None]:
        """Solve one job.

        Returns the :class:`Verdict`; None when the broker cancelled the
        job mid-solve; or — when the solve *crashed* — a structured
        failure report (``exc_type``/``message``/``traceback``) for the
        broker's poison-quarantine accounting.  Catching here keeps one
        pathological obligation from killing the whole worker process.
        """
        with self._cancel_lock:
            self._current_job = key
            self._cancel_flag.clear()
        try:
            obligation = obligation_from_wire(payload)
            if self.cache is not None:
                hit = self.cache.lookup(obligation)
                if hit is not None:
                    self.solved += 1
                    return hit
            verdict = solve_obligation(
                obligation, simp_cache=self.cache,
                cancel_check=lambda: (self._cancel_flag.is_set()
                                      or self._stop.is_set()),
            )
        except Exception as exc:
            self.failed += 1
            return {
                "exc_type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(limit=20),
            }
        finally:
            with self._cancel_lock:
                self._current_job = None
        if self._cancel_flag.is_set() and verdict.status == UNKNOWN:
            self.cancelled += 1
            return None
        self.solved += 1
        if self.cache is not None:
            self.cache.store(obligation, verdict)
        return verdict

    def _absorb_gossip(self, entries) -> None:
        """Write broker-gossiped verdicts through to the local cache."""
        if self.cache is None:
            return
        for entry in entries:
            try:
                fingerprint = str(entry["fingerprint"])
                verdict = Verdict.from_dict(entry["verdict"])
            except (KeyError, TypeError, ValueError):
                continue
            if verdict.fingerprint != fingerprint:
                continue
            if self.cache.has(fingerprint):
                continue  # our own solve gossiped back, or already seen
            self.cache.store_verdict(verdict, meta={"gossip": True})


def run_worker(address: str, cache_dir: Optional[str] = None,
               **kwargs) -> int:
    """Run a worker loop to completion (module-level so tests can use it
    as a ``multiprocessing`` target)."""
    return Worker(address, cache_dir=cache_dir, **kwargs).run()
