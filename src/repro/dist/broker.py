"""The proof-service broker: a durable asyncio verification service.

One long-lived broker process serves three kinds of peers:

* **clients** (:class:`repro.dist.remote.RemotePool`) speak the framed
  TCP protocol of :mod:`repro.dist.protocol`: they submit batches of
  proof obligations (with an optional per-batch priority) and receive
  ``verdict`` messages as jobs complete — in arbitrary completion
  order; the client re-orders.  A ``cancel`` drops the batch's queued
  jobs (network-wide sibling early-cancel) *and* pushes ``cancel``
  frames to the workers still solving them, so doomed solves hand their
  cores back instead of running to completion.
* **workers** (:mod:`repro.dist.worker`, same TCP protocol) pull jobs,
  stream results back and heartbeat while solving.
* **HTTP clients** (``curl``, dashboards, ``repro submit``) use the
  JSON job API on ``--http-port``: ``POST /jobs`` submits a whole
  methodology/check spec the broker runs against its own worker fleet,
  ``GET /jobs/<id>`` polls status and per-obligation progress,
  ``GET /jobs/<id>/result`` fetches the finished result, and
  ``GET /healthz`` reports service health.  Many concurrent jobs share
  one fleet under FIFO-per-priority fair scheduling (higher ``priority``
  dispatches first; within a priority, submission order).

Everything runs on one asyncio event loop in a background thread; the
public methods (:meth:`Broker.start`, :meth:`Broker.stop`,
:meth:`Broker.snapshot`) are thread-safe.  HTTP job specs execute on a
small thread pool whose engine feeds obligations back into the same
queue the TCP clients use.

**Durability.**  With a ``cache_dir`` the broker persists through the
:class:`repro.engine.cache.ResultCache` directory: every definite
verdict is stored by fingerprint (and looked up there on a memo miss),
submitted TCP batches are journaled under ``_queue/`` and HTTP job
specs under ``_jobs/``.  A broker killed and restarted on the same
directory re-adopts queued obligations (solving them into the memo so a
reconnecting client's resubmission is answered instantly), resumes
unfinished HTTP jobs, and answers every already-proved fingerprint
without touching a worker — a restart changes wall-clock, never
outcomes.

Fault tolerance: every job records the worker it was dispatched to.  A
worker that disconnects, or whose heartbeat goes stale (dead *or* stuck
— from the scheduler's perspective a hung worker is a dead one), is
evicted and its in-flight jobs are requeued for the remaining workers;
a job that has burned ``max_attempts`` workers fails its batch loudly
(and the failed batch is retired like a completed one) instead of
cycling forever.  Because solving an obligation is a pure function, a
requeued job's verdict is bit-identical no matter which worker finally
produces it — fault recovery cannot change a sweep's outcome, only its
wall-clock.

The broker also memoizes every definite verdict by obligation
fingerprint: resubmitted work — and, since the dispatch path consults
the memo too, work *queued* before a duplicate fingerprint completed —
is answered without touching a worker, and completed verdicts are
*gossiped* to workers piggybacked on their next pull, so each worker's
local :class:`repro.engine.cache.ResultCache` converges toward the
union of everything the fleet has proved.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.dist.protocol import (
    PROTO_VERSION,
    ProtocolError,
    frame_message,
    obligation_to_wire,
    read_message,
)
from repro.engine.cache import ResultCache
from repro.engine.obligation import DEFINITE, POISONED, Verdict
from repro.errors import DistError

_JobKey = Tuple[str, int]          # (batch_id, seq)

#: Gossip entries piggybacked on one pull reply, at most — a worker
#: joining a long-lived broker pages through the backlog over several
#: pulls instead of receiving one giant frame.
_GOSSIP_PAGE = 512
#: Backlog cap: older gossip entries are dropped (workers that missed
#: them still converge through the broker memo and their own solving).
_GOSSIP_KEEP = 16384

#: Durable-state subdirectories under the broker's ``cache_dir``
#: (siblings of the fingerprinted verdict files).
_QUEUE_DIRNAME = "_queue"
_JOBS_DIRNAME = "_jobs"

#: Durable quarantine journal (under ``cache_dir``): fingerprints whose
#: assignment killed/crashed enough distinct workers, with the workers'
#: structured failure reports.  Rehydrated on restart so a poisoned
#: obligation stays out of rotation across broker incarnations.
_POISON_NAME = "_poison.json"

#: ``retry_after`` hint (seconds) sent with a backpressure refusal.
_RETRY_AFTER_S = 0.5

#: Largest accepted HTTP request body.
_HTTP_BODY_CAP = 1 << 20

_HTTP_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    500: "Internal Server Error", 503: "Service Unavailable",
}

_JOB_KINDS = ("methodology", "check")
_SCENARIOS = ("cached", "uncached")


class _Job:
    __slots__ = ("batch_id", "seq", "payload", "fingerprint", "attempts",
                 "worker", "done", "priority", "failures")

    def __init__(self, batch_id: str, seq: int, payload: Dict[str, Any],
                 fingerprint: str, priority: int = 0) -> None:
        self.batch_id = batch_id
        self.seq = seq
        self.payload = payload
        self.fingerprint = fingerprint
        self.priority = priority
        self.attempts = 0
        self.worker: Optional[str] = None   # currently assigned worker id
        self.done = False
        #: Structured failure reports accumulated across attempts:
        #: worker deaths while assigned, and explicit crash reports.
        self.failures: List[Dict[str, Any]] = []


class _Batch:
    """One submitted batch: a TCP client's (``conn``), an internal HTTP
    job's (``deliver`` callback), or a recovered orphan's (neither —
    its verdicts only feed the memo)."""

    __slots__ = ("batch_id", "conn", "jobs", "cancelled", "priority",
                 "deliver", "journal")

    def __init__(self, batch_id: str, conn, priority: int = 0,
                 deliver: Optional[Callable[[int, Optional[Dict[str, Any]],
                                             Optional[str]], None]] = None,
                 ) -> None:
        self.batch_id = batch_id
        self.conn = conn
        self.jobs: Dict[int, _Job] = {}
        self.cancelled = False
        self.priority = priority
        self.deliver = deliver
        self.journal: Optional[str] = None   # durable queue journal path


class _Worker:
    __slots__ = ("worker_id", "name", "conn", "last_seen", "inflight",
                 "gossip_pos", "solved")

    def __init__(self, worker_id: str, name: str, conn) -> None:
        self.worker_id = worker_id
        self.name = name
        self.conn = conn
        self.last_seen = time.monotonic()
        self.inflight: Set[_JobKey] = set()
        self.gossip_pos = 0
        self.solved = 0


class _JobQueue:
    """FIFO-per-priority ready queue.

    Higher ``priority`` values dispatch first; within one priority,
    strict submission order (requeued jobs go to the *front* of their
    priority — the oldest outstanding work unblocks its batch soonest).
    Keeps the deque surface (`append`/`appendleft`/`popleft`, iteration,
    truthiness) so scheduler code and tests read like the flat queue it
    replaces.
    """

    def __init__(self) -> None:
        self._levels: Dict[int, deque] = {}

    def _level(self, job: _Job) -> deque:
        level = self._levels.get(job.priority)
        if level is None:
            level = self._levels[job.priority] = deque()
        return level

    def append(self, job: _Job) -> None:
        self._level(job).append(job)

    def appendleft(self, job: _Job) -> None:
        self._level(job).appendleft(job)

    def popleft(self) -> _Job:
        for priority in sorted(self._levels, reverse=True):
            level = self._levels[priority]
            if level:
                return level.popleft()
        raise IndexError("pop from an empty job queue")

    def __bool__(self) -> bool:
        return any(self._levels.values())

    def __len__(self) -> int:
        return sum(len(level) for level in self._levels.values())

    def __iter__(self) -> Iterator[_Job]:
        for priority in sorted(self._levels, reverse=True):
            yield from self._levels[priority]


class _HttpJob:
    """One job-API submission: spec, lifecycle state, progress, result."""

    __slots__ = ("job_id", "spec", "status", "result", "error",
                 "submitted", "completed", "created")

    def __init__(self, job_id: str, spec: Dict[str, Any]) -> None:
        self.job_id = job_id
        self.spec = spec
        self.status = "queued"        # queued | running | done | failed
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.submitted = 0            # obligations handed to the fleet
        self.completed = 0            # obligations answered
        self.created = time.time()

    def state(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.job_id,
            "status": self.status,
            "spec": dict(self.spec),
            "priority": self.spec.get("priority", 0),
            "progress": {
                "obligations_submitted": self.submitted,
                "obligations_completed": self.completed,
            },
        }
        if self.error is not None:
            data["error"] = self.error
        return data


class _AsyncConn:
    """Broker-side framed connection over asyncio streams.

    ``send`` is synchronous: the whole frame goes into the transport
    buffer at once, so verdict deliveries from a worker's handler task
    never interleave with the owning client task's own replies.  The
    owning task awaits :meth:`drain` for backpressure.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    def send(self, message: Dict[str, Any]) -> None:
        if self.writer.is_closing():
            raise BrokenPipeError("connection is closing")
        try:
            self.writer.write(frame_message(message))
        except (RuntimeError, ConnectionError) as exc:
            raise BrokenPipeError(str(exc)) from exc

    async def drain(self) -> None:
        try:
            await self.writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            pass

    async def recv(self) -> Optional[Dict[str, Any]]:
        return await read_message(self.reader)

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:
            pass


def _journal_name(batch_id: str) -> str:
    """Filesystem-safe journal filename for an arbitrary batch id."""
    return hashlib.sha256(batch_id.encode()).hexdigest()[:32] + ".json"


def _write_json(path: str, payload: Dict[str, Any]) -> None:
    """Atomic JSON write (same temp-and-replace idiom as ResultCache)."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


class Broker:
    """Obligation queue + worker registry + result router + job API."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float = 10.0,
        max_attempts: int = 3,
        handshake_timeout: float = 10.0,
        http_port: Optional[int] = None,
        cache_dir: Optional[str] = None,
        job_runners: int = 2,
        max_queued: Optional[int] = None,
        poison_threshold: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.heartbeat_timeout = heartbeat_timeout
        self.max_attempts = max_attempts
        self.handshake_timeout = handshake_timeout
        self.http_port = http_port
        self.cache_dir = cache_dir
        self.job_runners = max(1, int(job_runners))
        #: Ready-queue bound: past it, TCP submits get a ``busy``
        #: (retry-after) refusal and HTTP submits a 503.  None = no cap.
        self.max_queued = max_queued
        #: Distinct workers an obligation may kill/crash before it is
        #: quarantined with a ``poisoned`` verdict (default: the
        #: requeue budget ``max_attempts``).
        self.poison_threshold = poison_threshold \
            if poison_threshold is not None else max_attempts
        self._queue = _JobQueue()
        self._batches: Dict[str, _Batch] = {}
        self._workers: Dict[str, _Worker] = {}
        self._verdicts: Dict[str, Dict[str, Any]] = {}   # fingerprint memo
        self._gossip: List[Tuple[str, Dict[str, Any]]] = []
        self._gossip_base = 0      # absolute index of _gossip[0]
        self._ids = itertools.count(1)
        # Peer/batch ids are namespaced per broker *incarnation*: a
        # restarted durable broker must never hand a reconnecting client
        # an id whose recovered journal is still live.
        self._epoch = os.urandom(4).hex()
        self._http_jobs: Dict[str, _HttpJob] = {}
        self._store: Optional[ResultCache] = None
        self._queue_dir = ""
        self._jobs_dir = ""
        #: fingerprint -> quarantine record ({"fingerprint",
        #: "obligation", "failures", "workers"}).
        self._poison: Dict[str, Dict[str, Any]] = {}
        self._poison_path = ""
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._job_pool: Optional[ThreadPoolExecutor] = None
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def durable(self) -> bool:
        return self.cache_dir is not None

    def start(self) -> "Broker":
        if self.cache_dir is not None:
            self._store = ResultCache(self.cache_dir)
            self._queue_dir = os.path.join(self.cache_dir, _QUEUE_DIRNAME)
            self._jobs_dir = os.path.join(self.cache_dir, _JOBS_DIRNAME)
            self._poison_path = os.path.join(self.cache_dir, _POISON_NAME)
            os.makedirs(self._queue_dir, exist_ok=True)
            os.makedirs(self._jobs_dir, exist_ok=True)
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: List[BaseException] = []
        self._thread = threading.Thread(
            target=self._loop_main, args=(started, failure),
            name="broker-loop", daemon=True,
        )
        self._thread.start()
        started.wait()
        if failure:
            self._thread.join(timeout=2.0)
            self._loop = None
            self._thread = None
            raise failure[0]
        return self

    def _loop_main(self, started: threading.Event,
                   failure: List[BaseException]) -> None:
        loop = self._loop
        assert loop is not None
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._startup())
        except BaseException as exc:  # surfaced in start()
            failure.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    async def _startup(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._serve_http, self.host, self.http_port)
            self.http_port = self._http_server.sockets[0].getsockname()[1]
        if self._store is not None:
            self._recover()
        asyncio.get_event_loop().create_task(self._sweep_loop())

    def stop(self) -> None:
        self._stopping.set()
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(self._begin_shutdown)
            except RuntimeError:
                pass
            thread.join(timeout=5.0)
        if self._job_pool is not None:
            self._job_pool.shutdown(wait=False)
            self._job_pool = None
        if self._store is not None:
            self._store.flush()
        self._loop = None
        self._thread = None

    def _begin_shutdown(self) -> None:
        """Runs on the loop: close servers and peers, fail internal
        batches so job-runner threads unblock, then stop the loop."""
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
        self._server = None
        self._http_server = None
        for batch in list(self._batches.values()):
            if batch.deliver is not None:
                for job in batch.jobs.values():
                    if not job.done:
                        batch.deliver(job.seq, None, "broker stopped")
        for worker in list(self._workers.values()):
            worker.conn.close()
        for batch in list(self._batches.values()):
            if batch.conn is not None:
                batch.conn.close()
        assert self._loop is not None
        self._loop.stop()

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Introspection (status for CLI / HTTP / tests)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Live counters; safe to call from any thread."""
        loop = self._loop
        if loop is None or not loop.is_running():
            return self._snapshot_now()
        future = asyncio.run_coroutine_threadsafe(self._snapshot_on_loop(),
                                                  loop)
        try:
            return future.result(timeout=5.0)
        except Exception:
            return self._snapshot_now()

    async def _snapshot_on_loop(self) -> Dict[str, Any]:
        return self._snapshot_now()

    def _snapshot_now(self) -> Dict[str, Any]:
        jobs = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for job in self._http_jobs.values():
            jobs[job.status] = jobs.get(job.status, 0) + 1
        return {
            "workers": [
                {"id": w.worker_id, "name": w.name,
                 "inflight": len(w.inflight), "solved": w.solved}
                for w in self._workers.values()
            ],
            # Only entries of live, uncancelled batches: stale queue
            # entries of cancelled/dropped batches drain lazily and
            # must not overstate the depth to `repro status`.
            "queued": sum(
                1 for job in self._queue
                if not job.done and self._batch_live(job.batch_id)
            ),
            "batches": len(self._batches),
            "memo": len(self._verdicts),
            "jobs": jobs,
            "durable": self.durable,
            "poisoned": len(self._poison),
            "max_queued": self.max_queued,
        }

    def _queue_depth(self) -> int:
        """Live ready-queue depth (stale entries of cancelled batches
        drain lazily and do not count against the bound)."""
        return sum(1 for job in self._queue
                   if not job.done and self._batch_live(job.batch_id))

    def _at_bound(self) -> bool:
        return self.max_queued is not None \
            and self._queue_depth() >= self.max_queued

    def _batch_live(self, batch_id: str) -> bool:
        batch = self._batches.get(batch_id)
        return batch is not None and not batch.cancelled

    # ------------------------------------------------------------------
    # Accept / handshake (framed TCP protocol)
    # ------------------------------------------------------------------
    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        conn = _AsyncConn(reader, writer)
        try:
            await self._converse(conn)
        except asyncio.CancelledError:
            # Loop teardown cancels handler tasks; exiting cleanly here
            # keeps asyncio.streams from logging the cancellation.
            pass
        finally:
            conn.close()

    async def _converse(self, conn: _AsyncConn) -> None:
        # Pre-registration connections are reaped on a deadline: a port
        # scanner or half-dead peer that never sends its hello must not
        # pin this task (and its fd) forever — heartbeat eviction only
        # covers registered workers.
        try:
            hello = await asyncio.wait_for(conn.recv(),
                                           self.handshake_timeout)
        except (asyncio.TimeoutError, ProtocolError, OSError):
            conn.close()
            return
        if hello is None or hello.get("type") != "hello":
            conn.close()
            return
        if hello.get("proto") != PROTO_VERSION:
            try:
                conn.send({
                    "type": "error",
                    "reason": (f"protocol version mismatch: broker speaks "
                               f"{PROTO_VERSION}, peer sent "
                               f"{hello.get('proto')!r}"),
                })
            except OSError:
                pass
            await conn.drain()
            conn.close()
            return
        role = hello.get("role")
        if role not in ("worker", "client"):
            try:
                conn.send({"type": "error",
                           "reason": f"unknown role {role!r}"})
            except OSError:
                pass
            await conn.drain()
            conn.close()
            return
        peer_id = f"{role}-{self._epoch}-{next(self._ids)}"
        try:
            conn.send({
                "type": "welcome",
                "proto": PROTO_VERSION,
                "id": peer_id,
                "workers": len(self._workers),
            })
            await conn.drain()
        except OSError:
            conn.close()
            return
        if role == "worker":
            await self._serve_worker(conn, peer_id,
                                     str(hello.get("name") or ""))
        else:
            await self._serve_client(conn, peer_id)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    async def _serve_worker(self, conn: _AsyncConn, worker_id: str,
                            name: str) -> None:
        worker = _Worker(worker_id, name or worker_id, conn)
        self._workers[worker_id] = worker
        try:
            while not self._stopping.is_set():
                try:
                    message = await conn.recv()
                except (ProtocolError, OSError):
                    break
                if message is None:
                    break
                kind = message.get("type")
                worker.last_seen = time.monotonic()
                if kind == "heartbeat":
                    continue                  # liveness only, no reply
                if kind == "pull":
                    reply = self._dispatch(
                        worker,
                        want_gossip=bool(message.get("gossip", True)),
                    )
                elif kind == "result":
                    self._complete(worker, message)
                    reply = {"type": "ok"}
                elif kind == "bye":
                    break
                else:
                    reply = {"type": "error",
                             "reason": f"unexpected {kind!r}"}
                try:
                    conn.send(reply)
                except OSError:
                    break
                await conn.drain()
        finally:
            self._evict_worker(worker_id, "disconnected")

    def _gossip_page(self, worker: _Worker) -> List[Dict[str, Any]]:
        """The worker's next page of the gossip backlog."""
        start = max(worker.gossip_pos, self._gossip_base) - self._gossip_base
        page = self._gossip[start:start + _GOSSIP_PAGE]
        worker.gossip_pos = self._gossip_base + start + len(page)
        return [{"fingerprint": fp, "verdict": verdict}
                for fp, verdict in page]

    def _dispatch(self, worker: _Worker,
                  want_gossip: bool = True) -> Dict[str, Any]:
        """Hand the next runnable job (plus pending gossip) to a worker.

        ``want_gossip=False`` (a worker without a local cache, which
        would only discard the payloads) skips the backlog paging."""
        if worker.worker_id not in self._workers:
            # The heartbeat sweep evicted this worker while its pull
            # was in flight; assigning now would put the job on an
            # inflight set nobody will ever requeue.  The reply send
            # fails on the closed socket and the handler exits.
            return {"type": "idle", "gossip": []}
        gossip = self._gossip_page(worker) if want_gossip else []
        job: Optional[_Job] = None
        while self._queue:
            candidate = self._queue.popleft()
            batch = self._batches.get(candidate.batch_id)
            if candidate.done or batch is None or batch.cancelled:
                continue          # cancelled/stale entries just drain
            memo = self._lookup_verdict(candidate.fingerprint)
            if memo is not None:
                # The fingerprint was memoized *after* this job was
                # queued (a duplicate obligation across concurrent
                # batches): answer the client straight from the memo
                # instead of burning a worker on a re-solve.
                candidate.done = True
                candidate.worker = None
                self._deliver_verdict(batch, candidate.seq, memo)
                self._retire_if_done(batch)
                continue
            poison = self._poison.get(candidate.fingerprint)
            if poison is not None:
                # Quarantined after this job was queued (a sibling copy
                # burned the worker budget): never hand it to another
                # worker — answer with the structured poisoned verdict.
                candidate.done = True
                candidate.worker = None
                self._deliver_verdict(batch, candidate.seq,
                                      self._poison_verdict(poison))
                self._retire_if_done(batch)
                continue
            job = candidate
            break
        if job is None:
            return {"type": "idle", "gossip": gossip}
        job.worker = worker.worker_id
        job.attempts += 1
        worker.inflight.add((job.batch_id, job.seq))
        return {
            "type": "job",
            "batch_id": job.batch_id,
            "seq": job.seq,
            "obligation": job.payload,
            "gossip": gossip,
        }

    def _memoize(self, verdict: Dict[str, Any]) -> None:
        # Only definite (sat/unsat) verdicts enter the memo: unknown,
        # timeout and poisoned are circumstances of one run, not facts
        # about the formula.
        fingerprint = str(verdict.get("fingerprint", ""))
        if not fingerprint or verdict.get("status") not in DEFINITE \
                or fingerprint in self._verdicts:
            return
        self._verdicts[fingerprint] = verdict
        self._gossip.append((fingerprint, verdict))
        overflow = len(self._gossip) - _GOSSIP_KEEP
        if overflow > 0:
            del self._gossip[:overflow]
            self._gossip_base += overflow
        if self._store is not None:
            try:
                self._store.store_verdict(Verdict.from_dict(verdict))
            except (KeyError, TypeError, ValueError):
                pass

    def _lookup_verdict(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Memoized verdict for a fingerprint: the in-memory memo,
        backed (when durable) by the ResultCache on disk — which is how
        a restarted broker re-adopts everything already proved."""
        if not fingerprint:
            return None
        memo = self._verdicts.get(fingerprint)
        if memo is not None:
            return memo
        if self._store is not None:
            verdict = self._store.lookup_verdict(fingerprint)
            if verdict is not None:
                data = verdict.to_dict()
                self._verdicts[fingerprint] = data
                return data
        return None

    def _complete(self, worker: _Worker, message: Dict[str, Any]) -> None:
        batch_id = str(message.get("batch_id"))
        try:
            seq = int(message.get("seq", -1))
        except (TypeError, ValueError):
            return
        worker.inflight.discard((batch_id, seq))
        failure = message.get("failure")
        verdict = message.get("verdict")
        if isinstance(failure, dict) and not isinstance(verdict, dict):
            # The worker survived but the solve crashed: a structured
            # failure report (exc_type/message/traceback).  Requeue the
            # job unless its failure history crosses the poison line.
            batch = self._batches.get(batch_id)
            if batch is None or batch.cancelled:
                return
            job = batch.jobs.get(seq)
            if job is None or job.done:
                return
            job.worker = None
            if self._record_failure(job, worker, failure=failure) \
                    or job.attempts >= self.max_attempts:
                self._poison_job(batch, job)
            else:
                self._queue.appendleft(job)
            return
        if not isinstance(verdict, dict):
            return
        worker.solved += 1
        self._memoize(verdict)
        batch = self._batches.get(batch_id)
        if batch is None or batch.cancelled:
            return
        job = batch.jobs.get(seq)
        if job is None or job.done:
            return  # late duplicate of a requeued job
        job.done = True
        job.worker = None
        self._deliver_verdict(batch, seq, verdict)
        self._retire_if_done(batch)

    # ------------------------------------------------------------------
    # Poison-obligation quarantine
    # ------------------------------------------------------------------
    def _record_failure(self, job: _Job, worker: _Worker,
                        failure: Optional[Dict[str, Any]] = None,
                        reason: str = "") -> bool:
        """Append one structured failure to a job's history; True when
        the history has crossed the poison threshold (failures from
        ``poison_threshold`` *distinct* workers)."""
        entry: Dict[str, Any] = {
            "worker": worker.name,
            "worker_id": worker.worker_id,
            "exc_type": "WorkerDied",
            "message": reason or "worker died while assigned",
        }
        if isinstance(failure, dict):
            entry["exc_type"] = str(failure.get("exc_type") or "Exception")
            entry["message"] = str(failure.get("message") or "")
            trace = failure.get("traceback")
            if trace:
                entry["traceback"] = str(trace)
        job.failures.append(entry)
        distinct = {f.get("worker_id") for f in job.failures}
        return len(distinct) >= self.poison_threshold

    def _poison_verdict(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """The structured ``poisoned`` verdict of a quarantine record —
        shaped like any other wire verdict, so clients consume it
        through the normal path and checkers surface it as
        inconclusive-with-reason instead of hanging or crashing."""
        return {
            "status": POISONED,
            "obligation": str(record.get("obligation", "")),
            "fingerprint": str(record.get("fingerprint", "")),
            "model": None,
            "nvars": 0,
            "runtime_s": 0.0,
            "stats": {},
            "failures": [dict(f) for f in record.get("failures", ())],
        }

    def _poison_job(self, batch: _Batch, job: _Job) -> None:
        """Pull an obligation from rotation: one pathological formula
        must not consume the fleet.  The batch receives a ``poisoned``
        verdict carrying the workers' failure reports, so the rest of
        the sweep completes and the caller can triage."""
        record = {
            "fingerprint": job.fingerprint,
            "obligation": str((job.payload or {}).get("name", "")
                              or job.fingerprint),
            "failures": [dict(f) for f in job.failures],
            "workers": sorted({str(f.get("worker", ""))
                               for f in job.failures}),
        }
        if job.fingerprint:
            self._poison[job.fingerprint] = record
            self._save_poison()
        job.done = True
        job.worker = None
        self._deliver_verdict(batch, job.seq, self._poison_verdict(record))
        self._retire_if_done(batch)

    def _save_poison(self) -> None:
        if self._poison_path:
            _write_json(self._poison_path,
                        {"poisoned": list(self._poison.values())})

    def _load_poison(self) -> None:
        if not self._poison_path:
            return
        try:
            with open(self._poison_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            records = list(data["poisoned"])
        except (OSError, ValueError, KeyError, TypeError):
            return
        for record in records:
            if not isinstance(record, dict):
                continue
            fingerprint = str(record.get("fingerprint", ""))
            if fingerprint:
                self._poison[fingerprint] = dict(record)

    def _evict_worker(self, worker_id: str, reason: str) -> None:
        """Forget a worker and requeue (or quarantine) its in-flight
        jobs."""
        worker = self._workers.pop(worker_id, None)
        if worker is None:
            return
        for batch_id, seq in worker.inflight:
            batch = self._batches.get(batch_id)
            if batch is None or batch.cancelled:
                continue
            job = batch.jobs.get(seq)
            if job is None or job.done:
                continue
            job.worker = None
            crossed = self._record_failure(
                job, worker,
                reason=f"worker {worker.name} {reason} while assigned")
            if crossed or job.attempts >= self.max_attempts:
                # The assignment has now killed poison_threshold
                # distinct workers (or burned the requeue budget):
                # quarantine instead of cycling through the fleet
                # forever.  Retiring the batch frees its payloads
                # exactly like a completed one.
                self._poison_job(batch, job)
            else:
                # Front of its priority level: a requeued job is the
                # oldest outstanding work and unblocks its batch
                # soonest.
                self._queue.appendleft(job)
        if worker.conn is not None:
            worker.conn.close()

    async def _sweep_loop(self) -> None:
        """Evict workers whose heartbeat has gone stale."""
        interval = max(0.05, self.heartbeat_timeout / 4.0)
        while not self._stopping.is_set():
            await asyncio.sleep(interval)
            now = time.monotonic()
            stale = [
                w.worker_id for w in self._workers.values()
                if now - w.last_seen > self.heartbeat_timeout
            ]
            for worker_id in stale:
                self._evict_worker(worker_id, "stale heartbeat")

    # ------------------------------------------------------------------
    # Delivery / batch retirement (shared by every batch kind)
    # ------------------------------------------------------------------
    def _deliver_verdict(self, batch: _Batch, seq: int,
                         verdict: Dict[str, Any]) -> None:
        if batch.deliver is not None:
            batch.deliver(seq, verdict, None)
        elif batch.conn is not None:
            try:
                batch.conn.send({"type": "verdict",
                                 "batch_id": batch.batch_id,
                                 "seq": seq, "verdict": verdict})
            except OSError:
                self._drop_client(batch.batch_id)

    def _retire_if_done(self, batch: _Batch) -> None:
        """Pop a fully-delivered (or fully-failed) batch, freeing its
        obligation payloads and its durable journal."""
        if batch.jobs and all(job.done for job in batch.jobs.values()):
            self._batches.pop(batch.batch_id, None)
            self._remove_journal(batch)

    # ------------------------------------------------------------------
    # Client side (framed TCP protocol)
    # ------------------------------------------------------------------
    async def _serve_client(self, conn: _AsyncConn, client_id: str) -> None:
        owned: Set[str] = set()
        try:
            while not self._stopping.is_set():
                try:
                    message = await conn.recv()
                except (ProtocolError, OSError):
                    break
                if message is None:
                    break
                kind = message.get("type")
                reply: Optional[Dict[str, Any]] = None
                if kind == "submit":
                    batch_id = str(message.get("batch_id"))
                    jobs = message.get("jobs") or []
                    if self._batch_live(batch_id):
                        live = self._batches.get(batch_id)
                        if live is not None and live.conn is conn \
                                and self._same_jobs(live, jobs):
                            # A retransmitted duplicate of our own live
                            # submit (a duplicated frame in flight):
                            # the first copy is already being served —
                            # ignore this one instead of erroring the
                            # whole run out.
                            reply = None
                        else:
                            # A *different* live batch under the same id
                            # would cross-wire completions between the
                            # two job sets (same-seq verdicts delivered
                            # against the wrong payloads): reject it.
                            reply = {"type": "error",
                                     "reason": (f"duplicate batch_id "
                                                f"{batch_id!r}: a batch "
                                                f"with this id is still "
                                                f"live")}
                    elif self._at_bound():
                        # Backpressure: past --max-queued the broker
                        # refuses instead of buffering without bound;
                        # RemotePool backs off and retries.
                        reply = {
                            "type": "busy",
                            "batch_id": batch_id,
                            "retry_after": _RETRY_AFTER_S,
                            "reason": (f"queue is at its bound "
                                       f"({self._queue_depth()} >= "
                                       f"{self.max_queued} queued)"),
                        }
                    else:
                        owned.add(batch_id)
                        try:
                            self._submit(conn, batch_id, jobs,
                                         priority=int(
                                             message.get("priority", 0)),
                                         )
                        except (KeyError, TypeError, ValueError) as exc:
                            # A malformed entry must not silently kill
                            # this handler task and strand the waiting
                            # client.
                            self._drop_client(batch_id)
                            reply = {"type": "error",
                                     "reason": f"malformed submit: {exc}"}
                elif kind == "cancel":
                    self._cancel(str(message.get("batch_id")))
                    reply = {"type": "cancelled",
                             "batch_id": message.get("batch_id")}
                elif kind == "status":
                    reply = {"type": "status", **self._snapshot_now()}
                elif kind == "bye":
                    break
                else:
                    reply = {"type": "error",
                             "reason": f"unexpected {kind!r}"}
                if reply is not None:
                    try:
                        conn.send(reply)
                    except OSError:
                        break
                await conn.drain()
        finally:
            for batch_id in owned:
                self._drop_client(batch_id)
            conn.close()

    def _same_jobs(self, batch: _Batch, jobs: List[Dict[str, Any]]) -> bool:
        """Whether an incoming submit's job set is identical (same
        (seq, fingerprint) pairs) to a live batch's — the signature of a
        retransmitted duplicate frame, as opposed to an id collision."""
        try:
            incoming = {(int(entry["seq"]),
                         str(entry.get("fingerprint", "")))
                        for entry in jobs}
        except (KeyError, TypeError, ValueError):
            return False
        return incoming == {(job.seq, job.fingerprint)
                            for job in batch.jobs.values()}

    def _submit(self, conn: Optional[_AsyncConn], batch_id: str,
                jobs: List[Dict[str, Any]], priority: int = 0) -> None:
        """Queue a batch; fingerprints already memoized (or quarantined)
        answer instantly."""
        batch = _Batch(batch_id, conn, priority=priority)
        self._batches[batch_id] = batch
        instant: List[Tuple[int, Dict[str, Any]]] = []
        for entry in jobs:
            seq = int(entry["seq"])
            fingerprint = str(entry.get("fingerprint", ""))
            job = _Job(batch_id, seq, entry["obligation"], fingerprint,
                       priority=priority)
            batch.jobs[seq] = job
            memo = self._lookup_verdict(fingerprint)
            poison = self._poison.get(fingerprint) if memo is None else None
            if memo is not None:
                job.done = True
                instant.append((seq, memo))
            elif poison is not None:
                job.done = True
                instant.append((seq, self._poison_verdict(poison)))
            else:
                self._queue.append(job)
        if self._store is not None and \
                any(not job.done for job in batch.jobs.values()):
            self._journal_batch(batch)
        for seq, memo in instant:
            self._deliver_verdict(batch, seq, memo)
        self._retire_if_done(batch)

    def _cancel(self, batch_id: str) -> None:
        # Dropping the batch frees its obligation payloads immediately;
        # workers mid-solve on its jobs get a ``cancel`` push so the
        # CDCL loop abandons the search at its next budget check
        # (cooperative preemption) — straggler results that finish
        # anyway find no batch, which reads exactly like "cancelled",
        # and their verdicts still land in the memo and gossip feed.
        batch = self._batches.pop(batch_id, None)
        if batch is None:
            return
        batch.cancelled = True
        self._remove_journal(batch)
        self._push_cancels(batch)

    def _drop_client(self, batch_id: str) -> None:
        if self._stopping.is_set():
            # Broker shutdown is not client abandonment: a durable
            # broker's journals must survive so the restarted broker
            # re-adopts the batch (dropping here would delete them).
            return
        self._cancel(batch_id)

    def _push_cancels(self, batch: _Batch) -> None:
        for job in batch.jobs.values():
            if job.done or job.worker is None:
                continue
            worker = self._workers.get(job.worker)
            if worker is None:
                continue
            worker.inflight.discard((batch.batch_id, job.seq))
            try:
                worker.conn.send({"type": "cancel",
                                  "batch_id": batch.batch_id,
                                  "seq": job.seq})
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Durable state: journals + recovery
    # ------------------------------------------------------------------
    def _journal_batch(self, batch: _Batch) -> None:
        path = os.path.join(self._queue_dir, _journal_name(batch.batch_id))
        _write_json(path, {
            "batch_id": batch.batch_id,
            "priority": batch.priority,
            "jobs": [
                {"seq": job.seq, "fingerprint": job.fingerprint,
                 "obligation": job.payload}
                for job in batch.jobs.values() if not job.done
            ],
        })
        batch.journal = path

    def _remove_journal(self, batch: _Batch) -> None:
        if batch.journal:
            try:
                os.unlink(batch.journal)
            except OSError:
                pass
            batch.journal = None

    def _recover(self) -> None:
        """Re-adopt durable state from a previous broker incarnation.

        Journaled TCP batches become *orphan* batches (no connection to
        deliver to — their verdicts feed the memo, so a reconnecting
        client's resubmission is answered instantly); unfinished HTTP
        jobs are rescheduled from their persisted specs, with already
        memoized obligations answered from the store.
        """
        self._load_poison()
        for name in sorted(os.listdir(self._queue_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self._queue_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
                batch_id = "requeued:" + str(data["batch_id"])
                priority = int(data.get("priority", 0))
                entries = list(data["jobs"])
            except (OSError, ValueError, KeyError, TypeError):
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            batch = _Batch(batch_id, None, priority=priority)
            batch.journal = path
            for entry in entries:
                try:
                    seq = int(entry["seq"])
                    fingerprint = str(entry.get("fingerprint", ""))
                    payload = entry["obligation"]
                except (KeyError, TypeError, ValueError):
                    continue
                job = _Job(batch_id, seq, payload, fingerprint,
                           priority=priority)
                if self._lookup_verdict(fingerprint) is not None \
                        or fingerprint in self._poison:
                    # Proved — or quarantined — in a previous life:
                    # either way it must not reach another worker.
                    job.done = True
                batch.jobs[seq] = job
                if not job.done:
                    self._queue.append(job)
            if batch.jobs and any(not job.done
                                  for job in batch.jobs.values()):
                self._batches[batch_id] = batch
            else:
                self._remove_journal(batch)
        for name in sorted(os.listdir(self._jobs_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self._jobs_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
                job = _HttpJob(str(data["id"]), dict(data["spec"]))
                job.status = str(data.get("status", "queued"))
                job.result = data.get("result")
                job.error = data.get("error")
            except (OSError, ValueError, KeyError, TypeError):
                continue
            self._http_jobs[job.job_id] = job
            if job.status not in ("done", "failed"):
                # Mid-flight when the previous broker died: rerun the
                # spec.  The durable verdict store answers everything
                # already proved, so the rerun costs only the delta.
                job.status = "queued"
                self._schedule_http_job(job)

    # ------------------------------------------------------------------
    # HTTP/JSON job API
    # ------------------------------------------------------------------
    async def _serve_http(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        status, payload = 400, {"error": "malformed request"}
        try:
            request = await asyncio.wait_for(reader.readline(),
                                             self.handshake_timeout)
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                raise ValueError("bad request line")
            method, target = parts[0].upper(), parts[1]
            length = 0
            while True:
                line = await asyncio.wait_for(reader.readline(),
                                              self.handshake_timeout)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            if not 0 <= length <= _HTTP_BODY_CAP:
                raise ValueError("unreasonable content length")
            body = await asyncio.wait_for(reader.readexactly(length),
                                          self.handshake_timeout) \
                if length else b""
            status, payload = self._route_http(
                method, target.split("?", 1)[0], body)
        except (ValueError, UnicodeDecodeError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, OSError):
            status, payload = 400, {"error": "malformed request"}
        encoded = (json.dumps(payload, indent=2) + "\n").encode()
        head = (f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Unknown')}"
                f"\r\nContent-Type: application/json"
                f"\r\nContent-Length: {len(encoded)}"
                f"\r\nConnection: close\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + encoded)
            await writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    def _route_http(self, method: str, path: str,
                    body: bytes) -> Tuple[int, Dict[str, Any]]:
        if path in ("/healthz", "/healthz/"):
            if method != "GET":
                return 405, {"error": "method not allowed"}
            snap = self._snapshot_now()
            reasons: List[str] = []
            if not snap["workers"]:
                reasons.append("no workers connected")
            if self._at_bound():
                reasons.append(
                    f"queue at bound ({snap['queued']} >= "
                    f"{self.max_queued} queued)")
            return 200, {
                "status": "degraded" if reasons else "ok",
                "reasons": reasons,
                "workers": len(snap["workers"]),
                "queued": snap["queued"],
                "batches": snap["batches"],
                "memo": snap["memo"],
                "jobs": snap["jobs"],
                "durable": snap["durable"],
                "poisoned": snap["poisoned"],
            }
        if path in ("/jobs", "/jobs/"):
            if method == "POST":
                return self._http_submit(body)
            if method == "GET":
                return 200, {"jobs": [job.state() for job in
                                      self._http_jobs.values()]}
            return 405, {"error": "method not allowed"}
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "method not allowed"}
            rest = path[len("/jobs/"):]
            want_result = rest.endswith("/result")
            job_id = rest[:-len("/result")] if want_result else rest
            job = self._http_jobs.get(job_id) if "/" not in job_id else None
            if job is None:
                return 404, {"error": f"unknown job {job_id!r}"}
            if not want_result:
                return 200, job.state()
            if job.status == "done":
                return 200, {"id": job.job_id, "status": job.status,
                             "result": job.result}
            if job.status == "failed":
                return 500, {"id": job.job_id, "status": job.status,
                             "error": job.error}
            return 409, {"id": job.job_id, "status": job.status,
                         "error": "job has not finished; poll "
                                  f"/jobs/{job.job_id} for status"}
        return 404, {"error": f"no such endpoint {path!r}"}

    def _http_submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        if self._at_bound():
            return 503, {
                "error": (f"queue is at its bound "
                          f"({self._queue_depth()} >= {self.max_queued} "
                          f"queued); retry later"),
                "retry_after": _RETRY_AFTER_S,
            }
        try:
            spec = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "request body is not valid JSON"}
        if not isinstance(spec, dict):
            return 400, {"error": "expected a JSON object job spec"}
        try:
            job = self.submit_job(spec)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        return 202, {"id": job.job_id, "status": job.status}

    def submit_job(self, spec: Dict[str, Any]) -> _HttpJob:
        """Validate a job spec, register it and schedule its execution.

        Raises ValueError on a malformed spec (the HTTP layer maps that
        to a 400).
        """
        from repro.soc.config import VARIANTS

        kind = spec.get("kind", "methodology")
        if kind not in _JOB_KINDS:
            raise ValueError(f"unknown kind {kind!r} "
                             f"(expected one of {', '.join(_JOB_KINDS)})")
        variant = spec.get("variant")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r} "
                             f"(choose from {', '.join(VARIANTS)})")
        scenario = spec.get("scenario", "cached")
        if scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r} "
                             f"(expected one of {', '.join(_SCENARIOS)})")
        try:
            k = int(spec.get("k", 2))
            priority = int(spec.get("priority", 0))
        except (TypeError, ValueError):
            raise ValueError("k and priority must be integers") from None
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
        normalized: Dict[str, Any] = {
            "kind": kind, "variant": variant, "scenario": scenario,
            "k": k, "priority": priority,
        }
        limit = spec.get("conflict_limit")
        if limit is not None:
            try:
                normalized["conflict_limit"] = int(limit)
            except (TypeError, ValueError):
                raise ValueError("conflict_limit must be an integer") \
                    from None
        budget = spec.get("wall_budget")
        if budget is not None:
            try:
                normalized["wall_budget"] = float(budget)
            except (TypeError, ValueError):
                raise ValueError("wall_budget must be a number of seconds") \
                    from None
            if normalized["wall_budget"] <= 0:
                raise ValueError("wall_budget must be positive")
        job = _HttpJob(f"job-{os.urandom(6).hex()}", normalized)
        self._http_jobs[job.job_id] = job
        self._persist_http_job(job)
        self._schedule_http_job(job)
        return job

    def _persist_http_job(self, job: _HttpJob) -> None:
        if self._store is None:
            return
        _write_json(os.path.join(self._jobs_dir, job.job_id + ".json"), {
            "id": job.job_id,
            "spec": job.spec,
            "status": job.status,
            "result": job.result,
            "error": job.error,
            "created_s": job.created,
        })

    def _schedule_http_job(self, job: _HttpJob) -> None:
        if self._job_pool is None:
            self._job_pool = ThreadPoolExecutor(
                max_workers=self.job_runners,
                thread_name_prefix="broker-job")
        self._job_pool.submit(self._run_http_job, job)

    def _run_http_job(self, job: _HttpJob) -> None:
        """Job-runner thread body: execute one spec against the fleet."""
        job.status = "running"
        self._persist_http_job(job)
        try:
            job.result = self._execute_spec(job)
            job.status = "done"
        except Exception as exc:  # surfaced through the job API
            job.error = f"{type(exc).__name__}: {exc}"
            job.status = "failed"
        self._persist_http_job(job)

    def _execute_spec(self, job: _HttpJob) -> Dict[str, Any]:
        from repro.core import (
            UpecChecker,
            UpecMethodology,
            UpecModel,
            UpecScenario,
        )
        from repro.engine.pool import ProofEngine
        from repro.soc import SocConfig, build_soc
        from repro.soc.config import FORMAL_CONFIG_KWARGS

        spec = job.spec
        soc = build_soc(
            getattr(SocConfig, spec["variant"])(**FORMAL_CONFIG_KWARGS))
        scenario = UpecScenario(
            secret_in_cache=spec["scenario"] == "cached")
        engine = ProofEngine(pool=_FleetPool(self, job),
                             cache_dir=self.cache_dir)
        try:
            if spec["kind"] == "check":
                model = UpecModel(soc, scenario)
                result = UpecChecker(model, engine=engine).check(
                    k=spec["k"],
                    conflict_limit=spec.get("conflict_limit"),
                    wall_budget=spec.get("wall_budget"))
            else:
                result = UpecMethodology(
                    soc, scenario,
                    conflict_limit=spec.get("conflict_limit"),
                    wall_budget=spec.get("wall_budget"),
                    engine=engine,
                ).run(k=spec["k"])
        finally:
            engine.close()
        return result.to_dict()

    # ------------------------------------------------------------------
    # Internal batches (the execution backend of HTTP jobs)
    # ------------------------------------------------------------------
    def _submit_internal(self, batch_id: str,
                         entries: List[Dict[str, Any]],
                         futures: List[Future],
                         http_job: _HttpJob) -> None:
        """Runs on the loop: register an internal batch whose verdicts
        complete per-seq futures a job-runner thread is blocking on."""

        def deliver(seq: int, verdict: Optional[Dict[str, Any]],
                    error: Optional[str]) -> None:
            future = futures[seq]
            if future.done():
                return
            if error is not None:
                future.set_exception(DistError(
                    f"obligation {seq} of batch {batch_id} failed on "
                    f"the broker: {error}"))
            else:
                http_job.completed += 1
                future.set_result(verdict)

        priority = int(http_job.spec.get("priority", 0))
        batch = _Batch(batch_id, None, priority=priority, deliver=deliver)
        self._batches[batch_id] = batch
        http_job.submitted += len(entries)
        for seq, entry in enumerate(entries):
            job = _Job(batch_id, seq, entry["obligation"],
                       str(entry.get("fingerprint", "")),
                       priority=priority)
            batch.jobs[seq] = job
            memo = self._lookup_verdict(job.fingerprint)
            poison = self._poison.get(job.fingerprint) \
                if memo is None else None
            if memo is not None:
                job.done = True
                deliver(seq, memo, None)
            elif poison is not None:
                job.done = True
                deliver(seq, self._poison_verdict(poison), None)
            else:
                self._queue.append(job)
        self._retire_if_done(batch)

    def _cancel_threadsafe(self, batch_id: str) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        try:
            loop.call_soon_threadsafe(self._cancel, batch_id)
        except RuntimeError:
            pass


class _FleetPool:
    """SolverPool-compatible scheduler that feeds the broker's own
    queue — how an HTTP job's obligations reach the worker fleet.

    Runs on a job-runner thread: batch registration and cancellation
    hop onto the broker loop via ``call_soon_threadsafe``; verdicts
    complete per-seq futures this thread consumes in submission order,
    so ordering and early-cancel semantics mirror
    :class:`repro.engine.pool.SolverPool` exactly.
    """

    def __init__(self, broker: Broker, job: _HttpJob) -> None:
        self._broker = broker
        self._job = job
        self._batch_ids = itertools.count(1)

    @property
    def jobs(self) -> int:
        # Never 1: the checker takes jobs==1 to mean in-process solving
        # with one frame exported per step, which is never true against
        # a fleet (see RemotePool.jobs).
        return max(2, len(self._broker._workers))

    def close(self) -> None:
        pass

    def solve_one(self, obligation, cache=None):
        result = self.solve_ordered([obligation])
        assert result[0] is not None
        return result[0]

    def solve_ordered(self, obligations, early_stop=None,
                      on_verdict=None, cache=None):
        if not obligations:
            return []
        loop = self._broker._loop
        if loop is None or not loop.is_running():
            raise DistError("broker is not running")
        batch_id = f"{self._job.job_id}b{next(self._batch_ids)}"
        entries = [
            {"fingerprint": ob.fingerprint(),
             "obligation": obligation_to_wire(ob)}
            for ob in obligations
        ]
        futures: List[Future] = [Future() for _ in obligations]
        loop.call_soon_threadsafe(
            self._broker._submit_internal, batch_id, entries, futures,
            self._job)
        results: List[Optional[Verdict]] = [None] * len(obligations)
        stopped = False
        for i, future in enumerate(futures):
            if stopped:
                # Mirror the local pool: solves that finished anyway
                # are observed (cache stores) but stay out of the
                # ordered result list past the stop point.
                if future.done() and future.exception() is None:
                    if on_verdict is not None:
                        on_verdict(obligations[i],
                                   Verdict.from_dict(future.result()))
                continue
            verdict = Verdict.from_dict(future.result())
            results[i] = verdict
            if on_verdict is not None:
                on_verdict(obligations[i], verdict)
            if early_stop is not None and early_stop(verdict):
                stopped = True
                self._broker._cancel_threadsafe(batch_id)
        return results
