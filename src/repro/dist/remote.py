"""Client-side scheduler: a drop-in pool backed by a remote broker.

:class:`RemotePool` speaks the :class:`repro.engine.pool.SolverPool`
interface (``solve_ordered`` with ordered consumption, early-stop and
an ``on_verdict`` observer), but ships every obligation to a
:class:`repro.dist.broker.Broker` instead of a local process pool.
Wrapping it in a :class:`ProofEngine` gives :class:`RemoteEngine` — the
object ``UpecChecker``, ``UpecMethodology``, ``InductiveDiffProof``,
``BmcEngine`` and ``ScenarioSweep`` accept as ``engine=``, so a run
shards across machines without any call-site change beyond the engine
swap.

Ordering and early-cancel semantics mirror the local pool exactly:
verdicts arrive in completion order but are *consumed* in submission
order, the first verdict that trips ``early_stop`` cancels the batch on
the broker (queued siblings are never dispatched), and results that
finished anyway are still observed so caches benefit.  Since solving is
a pure function of the obligation, a remote run's verdict stream is
bit-identical to a local one's.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.dist.protocol import (
    Connection,
    dial,
    obligation_to_wire,
    parse_address,
)
from repro.engine.obligation import ProofObligation, Verdict
from repro.engine.pool import ProofEngine
from repro.errors import DistError

#: Environment knob: the CLI's default broker address (``HOST:PORT``) —
#: ``repro check``/``methodology``/``sweep`` shard over it without the
#: ``--connect`` flag (an explicit ``--jobs`` overrides it back to the
#: local pool).  The library never reads it: pass a
#: :class:`RemoteEngine` explicitly to shard a library call site.
CONNECT_ENV = "REPRO_ENGINE_CONNECT"


class BrokerRefusal(DistError):
    """The broker answered and said no (failed obligation, rejected
    batch) — a live link, so the mid-batch reconnect path must raise it
    through instead of redialing."""


class _BrokerBusy(Exception):
    """Internal: the broker refused a submit with ``busy`` backpressure
    (queue at its ``--max-queued`` bound).  Carries the broker's
    retry-after hint; ``solve_ordered`` backs off and resubmits."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"broker queue is full (retry in {retry_after}s)")
        self.retry_after = retry_after


class RemotePool:
    """SolverPool-compatible scheduler that solves on a broker's fleet."""

    def __init__(self, address: str, timeout: Optional[float] = 10.0,
                 priority: int = 0, reconnect_retries: int = 5,
                 reconnect_delay: float = 0.5,
                 busy_retries: int = 120) -> None:
        self.address = parse_address(address)
        self._timeout = timeout
        #: Scheduling priority of every batch this pool submits (higher
        #: dispatches first; FIFO within a priority level).
        self.priority = int(priority)
        self.reconnect_retries = max(0, int(reconnect_retries))
        self.reconnect_delay = reconnect_delay
        #: How many consecutive ``busy`` (backpressure) refusals to ride
        #: out with jittered backoff before giving up on a submit.
        self.busy_retries = max(1, int(busy_retries))
        #: Obligations handed to :meth:`solve_ordered`, and the verdicts
        #: it consumed (the job API reports these as a job's progress).
        self.submitted = 0
        self.completed = 0
        self._conn: Optional[Connection] = None
        self._batch_ids = itertools.count(1)
        self._client_id = ""
        self._workers_at_connect = 0
        self._connect()

    # ------------------------------------------------------------------
    @property
    def jobs(self) -> int:
        """Advertised parallelism.

        At least 2 even for a single-worker fleet: the checker
        (:meth:`UpecChecker._check_engine`) uses ``jobs == 1`` to mean
        "solving is in-process, so export one frame per step", which is
        never true across a network — remote runs always export the
        whole window at once, whose obligation stream is bit-identical
        to the frame-by-frame one.
        """
        return max(2, self._workers_at_connect)

    def _connect(self) -> None:
        conn, welcome = dial(self.address, role="client",
                             timeout=self._timeout)
        self._conn = conn
        self._client_id = str(welcome.get("id", ""))
        self._workers_at_connect = int(welcome.get("workers", 0))

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send({"type": "bye"})
            except OSError:
                pass
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RemotePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The broker's live counters (workers, queue depth, memo size)."""
        conn = self._require_conn()
        self._send(conn, {"type": "status"})
        while True:
            reply = self._recv(conn)
            kind = reply.get("type")
            if kind == "status":
                return reply
            if kind in ("verdict", "cancelled", "failed"):
                continue  # stragglers of an earlier cancelled batch
            raise DistError(f"unexpected reply {kind!r}")

    def _require_conn(self) -> Connection:
        if self._conn is None:
            raise DistError("remote pool is closed")
        return self._conn

    def _recv(self, conn: Connection) -> Dict[str, Any]:
        message = conn.recv()
        if message is None:
            raise DistError(
                f"broker at {self.address[0]}:{self.address[1]} closed the "
                f"connection mid-run")
        return message

    def _send(self, conn: Connection, message: Dict[str, Any]) -> None:
        """Send, surfacing a dead broker as DistError (exit 69 at the
        CLI) rather than a raw BrokenPipeError."""
        try:
            conn.send(message)
        except OSError as exc:
            raise DistError(
                f"lost connection to broker at {self.address[0]}:"
                f"{self.address[1]}: {exc}") from exc

    # ------------------------------------------------------------------
    def solve_ordered(
        self,
        obligations: Sequence[ProofObligation],
        early_stop: Optional[Callable[[Verdict], bool]] = None,
        on_verdict: Optional[Callable[[ProofObligation, Verdict], None]]
        = None,
        cache=None,
    ) -> List[Optional[Verdict]]:
        """Ship a batch to the broker; consume verdicts in order.

        ``cache`` is accepted for pool-interface compatibility and
        ignored: remote workers consult their own caches, and the
        engine wrapper already filtered client-side hits.

        A broker that dies mid-batch (restart, crash) is *ridden out*:
        the pool redials with backoff (``reconnect_retries`` ×
        ``reconnect_delay``) and resubmits only the obligations whose
        verdicts have not arrived, under a fresh batch id but with the
        original sequence numbers — so the consumed verdict stream is
        exactly what the uninterrupted run would have produced.
        Against a durable broker the resubmission is answered largely
        from the persistent memo, so a restart costs wall-clock, never
        work already proved.
        """
        if not obligations:
            return []
        self.submitted += len(obligations)
        results: List[Optional[Verdict]] = [None] * len(obligations)
        arrived: Dict[int, Verdict] = {}
        consumed = 0
        stopped = False
        deaths = 0
        busy = 0
        while not stopped and consumed < len(obligations):
            conn = self._require_conn()
            batch_id = f"{self._client_id}b{next(self._batch_ids)}"
            # Progress high-water mark before this attempt: a connection
            # that dies *after* delivering new verdicts was a live link
            # (a transient reset, injected or real), not a dead broker —
            # such a death resets the budget, which only ever counts
            # CONSECUTIVE fruitless redials.  Without this, a long
            # methodology on a flaky network exhausts a lifetime budget
            # meant to detect a broker that is gone.
            progress = consumed + len(arrived)
            try:
                self._send(conn, {
                    "type": "submit",
                    "batch_id": batch_id,
                    "priority": self.priority,
                    "jobs": [
                        {"seq": i, "fingerprint": obligations[i].fingerprint(),
                         "obligation": obligation_to_wire(obligations[i])}
                        for i in range(consumed, len(obligations))
                        if i not in arrived
                    ],
                })
                stopped, consumed = self._consume(
                    conn, batch_id, obligations, results, arrived,
                    consumed, stopped, early_stop, on_verdict)
                busy = 0
            except _BrokerBusy as refusal:
                # Backpressure, not failure: the queue is at its bound.
                # Honor the retry-after hint with jitter (so a fleet of
                # refused clients does not resubmit in lockstep) and
                # try again on the same live connection.
                busy += 1
                if busy > self.busy_retries:
                    raise DistError(
                        f"broker at {self.address[0]}:{self.address[1]} "
                        f"queue stayed full through {busy - 1} "
                        f"backpressure retries") from refusal
                time.sleep(refusal.retry_after * (0.5 + random.random()))
            except BrokerRefusal:
                raise          # the broker answered; redialing won't help
            except DistError:
                # ``_consume``'s in-order progress lands in ``results``
                # (mutated in place), but its advancing ``consumed`` /
                # ``stopped`` counters are locals that die with the
                # exception.  Resync from ``results`` before
                # resubmitting: otherwise a verdict consumed just
                # before the connection died would be resubmitted, its
                # re-delivery skipped by the duplicate-seq guard, and
                # ``consumed`` could never reach it again — a client
                # blocked forever on a batch the broker has already
                # delivered and retired.
                while consumed < len(obligations) \
                        and results[consumed] is not None:
                    if early_stop is not None \
                            and early_stop(results[consumed]):
                        # Re-derive the stop decision _consume made on
                        # this verdict before dying (early_stop is a
                        # pure predicate of the verdict, so asking
                        # again is safe) — losing it would solve past
                        # the stop point the caller asked for.
                        stopped = True
                    consumed += 1
                if consumed + len(arrived) > progress:
                    deaths = 0
                deaths += 1
                if deaths > self.reconnect_retries:
                    raise
                self._reconnect()
        return results

    def _consume(self, conn: Connection, batch_id: str,
                 obligations: Sequence[ProofObligation],
                 results: List[Optional[Verdict]],
                 arrived: Dict[int, Verdict], consumed: int, stopped: bool,
                 early_stop, on_verdict):
        """Drain one submitted batch into ``results``; returns the
        updated ``(stopped, consumed)``.  Raises DistError when the
        connection dies (the caller reconnects and resubmits)."""
        while consumed < len(obligations):
            message = self._recv(conn)
            kind = message.get("type")
            if kind == "verdict":
                if message.get("batch_id") != batch_id:
                    continue  # stray frame from an older cancelled batch
                seq = int(message["seq"])
                if results[seq] is not None or seq in arrived:
                    continue  # duplicated frame: this seq already landed
                verdict = Verdict.from_dict(message["verdict"])
                if stopped:
                    # Mirrors the local pool: results that finished
                    # anyway are observed (cache stores) but stay out of
                    # the ordered result list past the stop point.
                    if on_verdict is not None:
                        on_verdict(obligations[seq], verdict)
                    continue
                arrived[seq] = verdict
                while consumed in arrived:
                    verdict = arrived.pop(consumed)
                    results[consumed] = verdict
                    if on_verdict is not None:
                        on_verdict(obligations[consumed], verdict)
                    consumed += 1
                    self.completed += 1
                    if early_stop is not None and early_stop(verdict):
                        stopped = True
                        self._send(conn, {"type": "cancel",
                                          "batch_id": batch_id})
                        # Out-of-order verdicts already buffered past
                        # the stop point finished their solves — hand
                        # them to the observer (cache stores), exactly
                        # like the local pool's post-stop harvest.
                        if on_verdict is not None:
                            for extra in sorted(arrived):
                                on_verdict(obligations[extra],
                                           arrived[extra])
                        arrived.clear()
                        break
            elif kind == "busy":
                if message.get("batch_id") in (None, batch_id):
                    raise _BrokerBusy(
                        float(message.get("retry_after", 0.5)))
                continue  # stale refusal of an earlier batch
            elif kind == "cancelled":
                if message.get("batch_id") == batch_id:
                    break
            elif kind == "failed":
                if message.get("batch_id") != batch_id or stopped:
                    # Mismatched batch, or a straggler racing our cancel:
                    # the caller already has every verdict it asked for.
                    continue
                raise BrokerRefusal(
                    f"obligation {message.get('seq')} of batch {batch_id} "
                    f"failed on the broker: {message.get('reason')}")
            elif kind == "error":
                raise BrokerRefusal(
                    f"broker rejected batch {batch_id}: "
                    f"{message.get('reason')}")
            else:
                raise BrokerRefusal(
                    f"unexpected message {kind!r} from broker")
        return stopped, consumed

    def _reconnect(self) -> None:
        """Redial a broker that dropped mid-batch, with backoff."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        last: Optional[DistError] = None
        for _ in range(max(1, self.reconnect_retries)):
            time.sleep(self.reconnect_delay)
            try:
                self._connect()
                return
            except DistError as exc:
                last = exc
        raise DistError(
            f"broker at {self.address[0]}:{self.address[1]} did not come "
            f"back after {self.reconnect_retries} redial attempts"
        ) from last


class RemoteEngine(ProofEngine):
    """A :class:`ProofEngine` whose pool is a broker connection.

    The client-side result cache still applies (hits never cross the
    network); misses are sharded over the broker's workers.
    """

    def __init__(self, address: str, cache_dir: Optional[str] = None,
                 cache=None, timeout: Optional[float] = 10.0) -> None:
        super().__init__(pool=RemotePool(address, timeout=timeout),
                         cache_dir=cache_dir, cache=cache)


def env_connect() -> Optional[str]:
    """The ``REPRO_ENGINE_CONNECT`` broker address, if set."""
    return os.environ.get(CONNECT_ENV) or None
