"""The broker's scheduling core: the obligation lifecycle, with no I/O.

:class:`Scheduler` owns every piece of state an obligation passes
through on the broker — the priority queue, the batches, the worker
leases, the verdict memo, the gossip backlog, the poison table and the
batch journals (``_queue/`` and ``_poison.json`` under the cache
directory) — and changes it only through :meth:`Scheduler.submit`,
:meth:`~Scheduler.dispatch`, :meth:`~Scheduler.complete`,
:meth:`~Scheduler.evict` and :meth:`~Scheduler.cancel` (plus
:meth:`~Scheduler.register` when a worker joins and
:meth:`~Scheduler.recover` when a durable broker restarts).
:mod:`repro.dist.broker` owns everything else: the event loop, the
handshake, the TCP conversations, the heartbeat sweep, the HTTP routes
and the job runner.

This module imports no ``asyncio``, ``socket`` or ``threading``.  It
sends verdict and cancel frames by calling ``send(message)`` on the
connection objects it is handed (a client's on :meth:`submit`, a
worker's on :meth:`register`), and a failed send raises ``OSError``,
which it ignores: the broker notices a dead peer on its own read side.
Tests drive the scheduler with fake connections.

A job's life: it is *queued* (FIFO within its batch's priority), then
*leased* to a worker by :meth:`dispatch`, then *delivered* — a worker's
verdict, the memo, or the quarantine answers it.  A leased job whose
worker dies or whose solve crashes is *requeued* at the front of its
priority, or *poisoned* once it has been dispatched ``max_attempts``
times.  :meth:`cancel` drops a batch: its queued entries drain unsent
and its leased jobs get a ``cancel`` push.  A batch whose every job has
been delivered *retires*, freeing its payloads and its journal.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.engine.cache import ResultCache
from repro.engine.obligation import DEFINITE, POISONED, Verdict

_JobKey = Tuple[str, int]          # (batch_id, seq)

#: Gossip entries piggybacked on one pull reply, at most — a worker
#: joining a long-lived broker pages through the backlog over several
#: pulls instead of receiving one giant frame.
_GOSSIP_PAGE = 512
#: Backlog cap: older gossip entries are dropped (workers that missed
#: them still converge through the broker memo and their own solving).
_GOSSIP_KEEP = 16384

#: Durable-state names under the cache directory (siblings of the
#: fingerprinted verdict files): one journal per batch with unanswered
#: jobs, and the quarantine (fingerprints that burned ``max_attempts``
#: attempts, with the structured failure reports), rehydrated on restart
#: so a poisoned obligation stays out of rotation across incarnations.
_QUEUE_DIRNAME = "_queue"
_POISON_NAME = "_poison.json"

#: Batch-id prefix of a journaled batch re-adopted after a restart.  A
#: client that resubmits under its old id must not collide with it.
_ORPHAN_PREFIX = "requeued:"

#: ``retry_after`` hint (seconds) sent with a backpressure refusal.
RETRY_AFTER_S = 0.5


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
        self.worker: Optional[str] = None   # the lease holder's id
        self.done = False
        #: Structured failure reports accumulated across attempts:
        #: worker deaths while leased, and explicit crash reports.
        self.failures: List[Dict[str, Any]] = []


class _Batch:
    """One submitted batch: a client's (``conn``), or a recovered
    orphan's (``conn`` is None — its verdicts only feed the memo)."""

    __slots__ = ("batch_id", "conn", "jobs", "priority", "journal")

    def __init__(self, batch_id: str, conn, priority: int = 0) -> None:
        self.batch_id = batch_id
        self.conn = conn
        self.jobs: Dict[int, _Job] = {}
        self.priority = priority
        self.journal: Optional[str] = None   # durable queue journal path


class _Worker:
    __slots__ = ("worker_id", "name", "conn", "last_seen", "inflight",
                 "gossip_pos", "solved")

    def __init__(self, worker_id: str, name: str, conn) -> None:
        self.worker_id = worker_id
        self.name = name
        self.conn = conn
        #: Monotonic time of the worker's last message; the broker's
        #: heartbeat sweep evicts workers whose stamp goes stale.
        self.last_seen = time.monotonic()
        self.inflight: Set[_JobKey] = set()
        self.gossip_pos = 0
        self.solved = 0


class _JobQueue:
    """FIFO-per-priority ready queue.

    Higher ``priority`` values dispatch first; within one priority,
    strict submission order (requeued jobs go to the *front* of their
    priority — the oldest outstanding work unblocks its batch soonest).
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


def _journal_name(batch_id: str) -> str:
    """Filesystem-safe journal filename for an arbitrary batch id."""
    return hashlib.sha256(batch_id.encode()).hexdigest()[:32] + ".json"


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def write_json(path: str, payload: Dict[str, Any]) -> None:
    """Atomic JSON write (same temp-and-replace idiom as ResultCache)."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except OSError:
        _unlink(tmp)


def _poison_verdict(record: Dict[str, Any]) -> Dict[str, Any]:
    """The structured ``poisoned`` verdict of a quarantine record —
    shaped like any other wire verdict, so clients consume it through
    the normal path and checkers surface it as inconclusive-with-reason
    instead of hanging or crashing."""
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


class Scheduler:
    """Queue, batches, leases, memo, gossip, quarantine and journals.

    The state attributes are public for the broker's read-only use
    (status counters, the heartbeat sweep, shutdown) and for tests;
    only this class's methods change them.
    """

    def __init__(self, max_attempts: int = 3,
                 max_queued: Optional[int] = None,
                 cache_dir: Optional[str] = None) -> None:
        #: Dispatches a job may take before it is quarantined.
        self.max_attempts = max_attempts
        #: Ready-queue bound the broker enforces on submits (None: no
        #: cap).
        self.max_queued = max_queued
        self.queue = _JobQueue()
        self.batches: Dict[str, _Batch] = {}
        self.workers: Dict[str, _Worker] = {}
        #: fingerprint -> definite wire verdict.
        self.memo: Dict[str, Dict[str, Any]] = {}
        self.gossip: List[Tuple[str, Dict[str, Any]]] = []
        self.gossip_base = 0       # absolute index of gossip[0]
        #: fingerprint -> quarantine record ({"fingerprint",
        #: "obligation", "failures", "workers"}).
        self.poison: Dict[str, Dict[str, Any]] = {}
        #: With a cache directory: the durable verdict store backing the
        #: memo, and the journal locations.
        self.store: Optional[ResultCache] = None
        self._queue_dir = ""
        self._poison_path = ""
        if cache_dir is not None:
            self.store = ResultCache(cache_dir)
            self._queue_dir = os.path.join(cache_dir, _QUEUE_DIRNAME)
            self._poison_path = os.path.join(cache_dir, _POISON_NAME)
            os.makedirs(self._queue_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Live ready-queue depth: entries of answered jobs and of
        cancelled batches drain lazily and do not count."""
        return sum(1 for job in self.queue
                   if not job.done and job.batch_id in self.batches)

    def at_bound(self) -> bool:
        return self.max_queued is not None \
            and self.queue_depth() >= self.max_queued

    def snapshot(self) -> Dict[str, Any]:
        return {
            "workers": [
                {"id": w.worker_id, "name": w.name,
                 "inflight": len(w.inflight), "solved": w.solved}
                for w in self.workers.values()
            ],
            "queued": self.queue_depth(),
            "batches": len(self.batches),
            "memo": len(self.memo),
            "poisoned": len(self.poison),
            "max_queued": self.max_queued,
        }

    def _answer(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The verdict that answers a job without a worker: memoized —
        in memory, or (when durable) in the ResultCache on disk, which
        is how a restarted broker re-adopts everything already proved —
        or quarantined (a poisoned fingerprint must never reach another
        worker)."""
        if not fingerprint:
            return None
        memo = self.memo.get(fingerprint)
        if memo is None and self.store is not None:
            verdict = self.store.lookup_verdict(fingerprint)
            if verdict is not None:
                memo = self.memo[fingerprint] = verdict.to_dict()
        if memo is not None:
            return memo
        record = self.poison.get(fingerprint)
        return _poison_verdict(record) if record is not None else None

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def register(self, worker_id: str, name: str, conn) -> _Worker:
        """A worker joined; ``conn`` receives its ``cancel`` pushes."""
        worker = self.workers[worker_id] = _Worker(worker_id, name, conn)
        return worker

    def submit(self, conn, batch_id: str, entries: List[Dict[str, Any]],
               priority: Any = 0) -> Optional[Dict[str, Any]]:
        """Queue a batch whose verdicts go to ``conn``; fingerprints
        already memoized (or quarantined) are answered at once.

        Returns None when the batch was accepted — or was an identical
        retransmission of ``conn``'s own live batch, which is ignored —
        and otherwise the ``error`` reply for the client: a malformed
        entry, or a *different* job set under a live id (which would
        cross-wire completions between the two batches).
        """
        live = self.batches.get(batch_id)
        if live is not None:
            if live.conn is conn and _same_jobs(live, entries):
                return None
            return {"type": "error",
                    "reason": (f"duplicate batch_id {batch_id!r}: a batch "
                               f"with this id is still live")}
        try:
            priority = int(priority)
            jobs = [_Job(batch_id, int(entry["seq"]), entry["obligation"],
                         str(entry.get("fingerprint", "")), priority)
                    for entry in entries]
        except (KeyError, TypeError, ValueError) as exc:
            return {"type": "error", "reason": f"malformed submit: {exc}"}
        if not jobs:
            return None
        batch = self.batches[batch_id] = _Batch(batch_id, conn, priority)
        batch.jobs = {job.seq: job for job in jobs}
        for job in batch.jobs.values():
            answer = self._answer(job.fingerprint)
            if answer is not None:
                self._deliver(batch, job, answer)
            else:
                self.queue.append(job)
        if self._queue_dir and batch_id in self.batches:
            self._write_journal(batch)
        return None

    def dispatch(self, worker_id: str,
                 want_gossip: bool = True) -> Dict[str, Any]:
        """Lease the next runnable job (plus a page of gossip) to a
        worker; the reply is the ``job`` or ``idle`` frame to send it.

        A worker that is not registered — the heartbeat sweep evicted
        it while its pull was in flight — gets ``idle``: a lease now
        would sit on an inflight set nothing will ever requeue.
        ``want_gossip=False`` (a worker without a local cache, which
        would only discard the payloads) skips the backlog paging.
        """
        worker = self.workers.get(worker_id)
        if worker is None:
            return {"type": "idle", "gossip": []}
        gossip = self._gossip_page(worker) if want_gossip else []
        while self.queue:
            job = self.queue.popleft()
            batch = self.batches.get(job.batch_id)
            if job.done or batch is None:
                continue          # answered, or its batch is gone
            answer = self._answer(job.fingerprint)
            if answer is not None:
                # Memoized or quarantined *after* this job was queued (a
                # duplicate obligation across concurrent batches): answer
                # it instead of burning a worker on a re-solve.
                self._deliver(batch, job, answer)
                continue
            job.worker = worker_id
            job.attempts += 1
            worker.inflight.add((job.batch_id, job.seq))
            return {"type": "job", "batch_id": job.batch_id,
                    "seq": job.seq, "obligation": job.payload,
                    "gossip": gossip}
        return {"type": "idle", "gossip": gossip}

    def complete(self, worker_id: str, message: Dict[str, Any]) -> None:
        """Apply a worker's ``result`` frame.

        A verdict is memoized and delivered unless its job is already
        answered (a late duplicate of a requeued job).  A structured
        crash report (``failure``: exc_type/message/traceback, from a
        worker that survived its solve) counts only from the worker
        holding the lease: the job requeues, or is poisoned on its last
        attempt.
        """
        batch_id = str(message.get("batch_id"))
        try:
            seq = int(message.get("seq", -1))
        except (TypeError, ValueError):
            return
        worker = self.workers.get(worker_id)
        if worker is not None:
            worker.inflight.discard((batch_id, seq))
        batch = self.batches.get(batch_id)
        job = batch.jobs.get(seq) if batch is not None else None
        if job is not None and job.done:
            job = None
        verdict = message.get("verdict")
        failure = message.get("failure")
        if isinstance(verdict, dict):
            if worker is not None:
                worker.solved += 1
            self._memoize(verdict)
            if job is not None:
                self._deliver(batch, job, verdict)
        elif isinstance(failure, dict) and job is not None \
                and worker is not None and job.worker == worker_id:
            report = {"exc_type": str(failure.get("exc_type") or "Exception"),
                      "message": str(failure.get("message") or "")}
            if failure.get("traceback"):
                report["traceback"] = str(failure["traceback"])
            self._fail(batch, job, worker, report)

    def evict(self, worker_id: str, reason: str) -> None:
        """Forget a worker (disconnected, or its heartbeat went stale)
        and requeue — or quarantine — the jobs it held."""
        worker = self.workers.pop(worker_id, None)
        if worker is None:
            return
        for batch_id, seq in worker.inflight:
            batch = self.batches.get(batch_id)
            job = batch.jobs.get(seq) if batch is not None else None
            if job is None or job.done:
                continue
            self._fail(batch, job, worker, {
                "exc_type": "WorkerDied",
                "message": f"worker {worker.name} {reason} while assigned",
            })

    def cancel(self, batch_id: str) -> None:
        """Drop a batch: its payloads and journal go at once, and the
        workers mid-solve on its jobs get a ``cancel`` push so their
        CDCL loops abandon the search (cooperative preemption).
        Straggler results that finish anyway find no batch, which reads
        exactly like "cancelled", and their verdicts still reach the
        memo and the gossip feed."""
        batch = self.batches.pop(batch_id, None)
        if batch is None:
            return
        self._remove_journal(batch)
        for job in batch.jobs.values():
            if job.done or job.worker is None:
                continue
            worker = self.workers.get(job.worker)
            if worker is None:
                continue
            worker.inflight.discard((batch_id, job.seq))
            try:
                worker.conn.send({"type": "cancel", "batch_id": batch_id,
                                  "seq": job.seq})
            except OSError:
                pass

    def recover(self) -> None:
        """Re-adopt the durable state of a previous broker incarnation:
        the quarantine, and every journaled batch, resubmitted as an
        orphan through :meth:`submit` (no connection — its verdicts feed
        the memo, so a reconnecting client's resubmission is answered
        instantly; proved or quarantined jobs never reach a worker)."""
        self._load_poison()
        for name in sorted(os.listdir(self._queue_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self._queue_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
                batch_id = str(data["batch_id"])
                entries = list(data["jobs"])
                priority = data.get("priority", 0)
            except (OSError, ValueError, KeyError, TypeError):
                _unlink(path)
                continue
            if not batch_id.startswith(_ORPHAN_PREFIX):
                batch_id = _ORPHAN_PREFIX + batch_id
            self.submit(None, batch_id, entries, priority)
            batch = self.batches.get(batch_id)
            if batch is None or batch.journal != path:
                _unlink(path)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _deliver(self, batch: _Batch, job: _Job,
                 verdict: Dict[str, Any]) -> None:
        """Answer one job; retire its batch once every job is answered."""
        holder = self.workers.get(job.worker) if job.worker else None
        if holder is not None:
            # Answered by another worker's late verdict: the lease ends.
            holder.inflight.discard((batch.batch_id, job.seq))
        job.done = True
        job.worker = None
        if batch.conn is not None:
            try:
                batch.conn.send({"type": "verdict",
                                 "batch_id": batch.batch_id,
                                 "seq": job.seq, "verdict": verdict})
            except OSError:
                pass
        if all(other.done for other in batch.jobs.values()):
            self.batches.pop(batch.batch_id, None)
            self._remove_journal(batch)

    def _fail(self, batch: _Batch, job: _Job, worker: _Worker,
              report: Dict[str, Any]) -> None:
        """One failed attempt: record the report, then requeue the job
        at the front of its priority (the oldest outstanding work
        unblocks its batch soonest) — or, once it has been dispatched
        ``max_attempts`` times, quarantine it so one pathological
        formula cannot consume the fleet."""
        job.worker = None
        job.failures.append({"worker": worker.name,
                             "worker_id": worker.worker_id, **report})
        if job.attempts < self.max_attempts:
            self.queue.appendleft(job)
            return
        record = {
            "fingerprint": job.fingerprint,
            "obligation": str((job.payload or {}).get("name", "")
                              or job.fingerprint),
            "failures": [dict(f) for f in job.failures],
            "workers": sorted({str(f.get("worker", ""))
                               for f in job.failures}),
        }
        if job.fingerprint:
            self.poison[job.fingerprint] = record
            if self._poison_path:
                write_json(self._poison_path,
                           {"poisoned": list(self.poison.values())})
        self._deliver(batch, job, _poison_verdict(record))

    def _memoize(self, verdict: Dict[str, Any]) -> None:
        # Only definite (sat/unsat) verdicts enter the memo: unknown,
        # timeout and poisoned are circumstances of one run, not facts
        # about the formula.
        fingerprint = str(verdict.get("fingerprint", ""))
        if not fingerprint or verdict.get("status") not in DEFINITE \
                or fingerprint in self.memo:
            return
        self.memo[fingerprint] = verdict
        self.gossip.append((fingerprint, verdict))
        overflow = len(self.gossip) - _GOSSIP_KEEP
        if overflow > 0:
            del self.gossip[:overflow]
            self.gossip_base += overflow
        if self.store is not None:
            try:
                self.store.store_verdict(Verdict.from_dict(verdict))
            except (KeyError, TypeError, ValueError):
                pass

    def _gossip_page(self, worker: _Worker) -> List[Dict[str, Any]]:
        """The worker's next page of the gossip backlog; a worker whose
        position predates the trim resumes at the oldest kept entry."""
        start = max(worker.gossip_pos, self.gossip_base) - self.gossip_base
        page = self.gossip[start:start + _GOSSIP_PAGE]
        worker.gossip_pos = self.gossip_base + start + len(page)
        return [{"fingerprint": fp, "verdict": verdict}
                for fp, verdict in page]

    def _write_journal(self, batch: _Batch) -> None:
        path = os.path.join(self._queue_dir, _journal_name(batch.batch_id))
        write_json(path, {
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
            _unlink(batch.journal)
            batch.journal = None

    def _load_poison(self) -> None:
        try:
            with open(self._poison_path, "r", encoding="utf-8") as handle:
                records = list(json.load(handle)["poisoned"])
        except (OSError, ValueError, KeyError, TypeError):
            return
        for record in records:
            if isinstance(record, dict) and record.get("fingerprint"):
                self.poison[str(record["fingerprint"])] = dict(record)


def _same_jobs(batch: _Batch, entries: List[Dict[str, Any]]) -> bool:
    """Whether an incoming submit's job set is identical (same (seq,
    fingerprint) pairs) to a live batch's — the signature of a
    retransmitted duplicate frame, as opposed to an id collision."""
    try:
        incoming = {(int(entry["seq"]), str(entry.get("fingerprint", "")))
                    for entry in entries}
    except (KeyError, TypeError, ValueError):
        return False
    return incoming == {(job.seq, job.fingerprint)
                        for job in batch.jobs.values()}
