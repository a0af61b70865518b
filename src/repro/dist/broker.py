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
  ``GET /healthz`` reports service health.

Module ownership: this module is the I/O shell.  It owns the asyncio
event loop (one background thread), the versioned handshake, the TCP
conversations, the heartbeat sweep, the HTTP routes and the job runner.
Every scheduling decision — the priority queue, worker leases, the
verdict memo, gossip, the poison quarantine and the batch journals —
belongs to :class:`repro.dist.scheduler.Scheduler`, which this module
calls on the loop thread only.  The public methods
(:meth:`Broker.start`, :meth:`Broker.stop`, :meth:`Broker.snapshot`)
are thread-safe.

An HTTP job is an ordinary client of its own broker: a job-runner
thread executes the spec on a :class:`repro.engine.pool.ProofEngine`
whose pool is a :class:`RemotePool` dialed at the broker's address, so
its batches carry the job's ``priority``, meet ``--max-queued`` and
reach the fleet exactly like any client's.

**Durability.**  With a ``cache_dir`` the broker persists through the
:class:`repro.engine.cache.ResultCache` directory: every definite
verdict is stored by fingerprint (and looked up there on a memo miss),
submitted batches are journaled under ``_queue/`` and HTTP job specs
under ``_jobs/``.  A broker restarted on the same directory — after a
kill or a graceful stop — re-adopts journaled obligations (solving them
into the memo so a reconnecting client's resubmission is answered
instantly), resumes unfinished HTTP jobs, and answers every
already-proved fingerprint without touching a worker: a restart changes
wall-clock, never outcomes.

Fault tolerance: a worker that disconnects, or whose heartbeat goes
stale (dead *or* stuck — from the scheduler's perspective a hung worker
is a dead one), is evicted and its leased jobs are requeued for the
remaining workers; a job dispatched ``max_attempts`` times is
quarantined with a ``poisoned`` verdict instead of cycling forever.
Because solving an obligation is a pure function, a requeued job's
verdict is bit-identical no matter which worker finally produces it.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.dist.protocol import (
    PROTO_VERSION,
    ProtocolError,
    frame_message,
    read_message,
)
from repro.dist.remote import RemotePool
from repro.dist.scheduler import RETRY_AFTER_S, Scheduler, write_json

#: HTTP job specs journal here, under the broker's ``cache_dir``.
_JOBS_DIRNAME = "_jobs"

#: Threads executing HTTP job specs concurrently.
_JOB_RUNNERS = 2

#: Largest accepted HTTP request body.
_HTTP_BODY_CAP = 1 << 20

_HTTP_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    500: "Internal Server Error", 503: "Service Unavailable",
}

_JOB_KINDS = ("methodology", "check")
_SCENARIOS = ("cached", "uncached")


class _HttpJob:
    """One job-API submission: spec, lifecycle state, progress, result."""

    __slots__ = ("job_id", "spec", "status", "result", "error", "pool",
                 "created")

    def __init__(self, job_id: str, spec: Dict[str, Any]) -> None:
        self.job_id = job_id
        self.spec = spec
        self.status = "queued"        # queued | running | done | failed
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        #: The running spec's pool; its counters are the job's progress.
        self.pool: Optional[RemotePool] = None
        self.created = time.time()

    def state(self) -> Dict[str, Any]:
        pool = self.pool
        data: Dict[str, Any] = {
            "id": self.job_id,
            "status": self.status,
            "spec": dict(self.spec),
            "priority": self.spec.get("priority", 0),
            "progress": {
                "obligations_submitted": pool.submitted if pool else 0,
                "obligations_completed": pool.completed if pool else 0,
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


class Broker:
    """The network and HTTP shell around one :class:`Scheduler`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float = 10.0,
        max_attempts: int = 3,
        handshake_timeout: float = 10.0,
        http_port: Optional[int] = None,
        cache_dir: Optional[str] = None,
        max_queued: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.heartbeat_timeout = heartbeat_timeout
        self.handshake_timeout = handshake_timeout
        self.http_port = http_port
        self.cache_dir = cache_dir
        #: ``max_queued`` bounds the ready queue: past it, TCP submits
        #: get a ``busy`` (retry-after) refusal and HTTP submits a 503.
        self.scheduler = Scheduler(max_attempts=max_attempts,
                                   max_queued=max_queued,
                                   cache_dir=cache_dir)
        self._ids = itertools.count(1)
        # Peer/batch ids are namespaced per broker *incarnation*: a
        # restarted durable broker must never hand a reconnecting client
        # an id whose recovered journal is still live.
        self._epoch = os.urandom(4).hex()
        self._http_jobs: Dict[str, _HttpJob] = {}
        self._jobs_dir = os.path.join(cache_dir, _JOBS_DIRNAME) \
            if cache_dir is not None else ""
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
        if self._jobs_dir:
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
        if self.durable:
            self._recover()
        asyncio.get_event_loop().create_task(self._sweep_loop())

    def stop(self) -> None:
        """Stop serving.  Durable state stays as it is on disk: queued
        batches and unfinished HTTP jobs resume on the next start."""
        self._stopping.set()
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(self._begin_shutdown)
            except RuntimeError:
                pass
            thread.join(timeout=5.0)
        if self._job_pool is not None:
            self._job_pool.shutdown(wait=False, cancel_futures=True)
            self._job_pool = None
        if self.scheduler.store is not None:
            self.scheduler.store.flush()
        self._loop = None
        self._thread = None

    def _begin_shutdown(self) -> None:
        """Runs on the loop: close servers and peers (job runners see
        their pools' connections die), then stop the loop."""
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
        self._server = None
        self._http_server = None
        for worker in list(self.scheduler.workers.values()):
            worker.conn.close()
        for batch in list(self.scheduler.batches.values()):
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
        # Yield once first: peer events the loop read in the same pass
        # as this request (a worker's EOF, say) are handled before the
        # counters are read, so the snapshot reflects everything that
        # reached the broker before it was asked.
        await asyncio.sleep(0)
        return self._snapshot_now()

    def _snapshot_now(self) -> Dict[str, Any]:
        jobs = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for job in self._http_jobs.values():
            jobs[job.status] = jobs.get(job.status, 0) + 1
        return {**self.scheduler.snapshot(), "jobs": jobs,
                "durable": self.durable}

    def _bound_reason(self) -> str:
        return (f"queue is at its bound ({self.scheduler.queue_depth()} "
                f">= {self.scheduler.max_queued} queued)")

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
                "workers": len(self.scheduler.workers),
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

    async def _serve_worker(self, conn: _AsyncConn, worker_id: str,
                            name: str) -> None:
        worker = self.scheduler.register(worker_id, name or worker_id, conn)
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
                    reply = self.scheduler.dispatch(
                        worker_id,
                        want_gossip=bool(message.get("gossip", True)),
                    )
                elif kind == "result":
                    self.scheduler.complete(worker_id, message)
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
            self.scheduler.evict(worker_id, "disconnected")

    async def _sweep_loop(self) -> None:
        """Evict workers whose heartbeat has gone stale."""
        interval = max(0.05, self.heartbeat_timeout / 4.0)
        while not self._stopping.is_set():
            await asyncio.sleep(interval)
            now = time.monotonic()
            stale = [w for w in self.scheduler.workers.values()
                     if now - w.last_seen > self.heartbeat_timeout]
            for worker in stale:
                self.scheduler.evict(worker.worker_id, "stale heartbeat")
                worker.conn.close()

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
                    if batch_id not in self.scheduler.batches \
                            and self.scheduler.at_bound():
                        # Backpressure: past --max-queued the broker
                        # refuses instead of buffering without bound;
                        # RemotePool backs off and retries.
                        reply = {"type": "busy", "batch_id": batch_id,
                                 "retry_after": RETRY_AFTER_S,
                                 "reason": self._bound_reason()}
                    else:
                        reply = self.scheduler.submit(
                            conn, batch_id, message.get("jobs") or [],
                            message.get("priority", 0))
                        if reply is None:
                            owned.add(batch_id)
                elif kind == "cancel":
                    self.scheduler.cancel(str(message.get("batch_id")))
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
            # Broker shutdown is not client abandonment: a durable
            # broker's journals must survive so the restarted broker
            # re-adopts the batches (cancelling would delete them).
            if not self._stopping.is_set():
                for batch_id in owned:
                    self.scheduler.cancel(batch_id)
            conn.close()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Re-adopt durable state from a previous broker incarnation:
        the scheduler's journals and quarantine, and every unfinished
        HTTP job, rerun from its persisted spec (the durable verdict
        store answers everything already proved, so a rerun costs only
        the delta)."""
        self.scheduler.recover()
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
            if self.scheduler.at_bound():
                reasons.append(
                    f"queue at bound ({snap['queued']} >= "
                    f"{self.scheduler.max_queued} queued)")
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
        if self.scheduler.at_bound():
            return 503, {"error": f"{self._bound_reason()}; retry later",
                         "retry_after": RETRY_AFTER_S}
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
            if normalized["conflict_limit"] < 1:
                raise ValueError("conflict_limit must be positive")
        budget = spec.get("wall_budget")
        if budget is not None:
            try:
                normalized["wall_budget"] = float(budget)
            except (TypeError, ValueError):
                raise ValueError("wall_budget must be a number of seconds") \
                    from None
            if not normalized["wall_budget"] > 0:
                raise ValueError("wall_budget must be positive")
        job = _HttpJob(f"job-{os.urandom(6).hex()}", normalized)
        self._http_jobs[job.job_id] = job
        self._persist_http_job(job)
        self._schedule_http_job(job)
        return job

    def _persist_http_job(self, job: _HttpJob) -> None:
        if not self._jobs_dir:
            return
        write_json(os.path.join(self._jobs_dir, job.job_id + ".json"), {
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
                max_workers=_JOB_RUNNERS, thread_name_prefix="broker-job")
        self._job_pool.submit(self._run_http_job, job)

    def _run_http_job(self, job: _HttpJob) -> None:
        """Job-runner thread body: execute one spec against the fleet."""
        job.status = "running"
        self._persist_http_job(job)
        try:
            job.result = self._execute_spec(job)
            job.status = "done"
        except Exception as exc:  # surfaced through the job API
            if self._stopping.is_set():
                # The broker is going down under the job, which has not
                # failed: its journal still reads "running", so the next
                # start on this cache directory reruns the spec.
                return
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
        # A job never redials its own broker across a restart: the
        # restarted broker reruns the journaled spec instead.
        job.pool = RemotePool(self.address,
                              priority=spec.get("priority", 0),
                              reconnect_retries=0)
        engine = ProofEngine(pool=job.pool, cache_dir=self.cache_dir)
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
