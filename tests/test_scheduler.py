"""Model-based tests of the broker's I/O-free scheduling core.

A hypothesis ``RuleBasedStateMachine`` drives one
:class:`repro.dist.scheduler.Scheduler` with fake client and worker
connections through random submits (some sharing fingerprints), pulls
(some by evicted workers), verdicts (some late, from workers that lost
the lease), crash reports, duplicated result frames, evictions and
cancels, and checks the lifecycle invariants after every step, among
them:

* every job of a live batch is exactly one of: delivered, queued once,
  or leased to exactly one registered worker;
* no ``(batch, seq)`` is delivered twice;
* a retired, uncancelled batch had every seq delivered;
* a memoized (or quarantined) fingerprint is never dispatched again.

``REPRO_FUZZ_SCALE`` multiplies the example count, like the other
differential suites.
"""

import json
import os
from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.dist.scheduler import Scheduler
from repro.engine.obligation import DEFINITE

FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))

FINGERPRINTS = [f"fp{i}" for i in range(6)]
STATUSES = st.sampled_from(["unsat", "sat", "unsat", "unknown"])
BATCH = st.lists(st.sampled_from(FINGERPRINTS), min_size=1, max_size=4)


class FakeConn:
    """Records the frames the scheduler sends to one peer."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def _entries(fingerprints):
    return [{"seq": seq, "fingerprint": fp, "obligation": {"name": fp}}
            for seq, fp in enumerate(fingerprints)]


def _verdict(fingerprint, status):
    return {"status": status, "obligation": fingerprint,
            "fingerprint": fingerprint, "model": None, "nvars": 0,
            "runtime_s": 0.0, "stats": {}}


class SchedulerMachine(RuleBasedStateMachine):

    @initialize(max_attempts=st.sampled_from([1, 2, 3, 3]),
                batches=st.lists(BATCH, min_size=1, max_size=3))
    def start(self, max_attempts, batches):
        self.sched = Scheduler(max_attempts=max_attempts)
        self.clients = {}        # batch_id -> (conn, job count)
        self.cancelled = set()
        self.worker_ids = []     # every id ever registered
        #: Every lease ever handed out: (worker_id, batch_id, seq, fp).
        self.leases = []
        self.last_report = None  # (worker_id, result frame)
        self.next_id = 0
        # Start with work and a small fleet, so short runs reach leases.
        for fingerprints in batches:
            self.submit(fingerprints, 0)
        for _ in range(2):
            self.register()

    def _fresh(self, prefix):
        self.next_id += 1
        return f"{prefix}{self.next_id}"

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    @rule(fingerprints=BATCH, priority=st.sampled_from([0, 0, 1, 5]))
    def submit(self, fingerprints, priority):
        batch_id = self._fresh("b")
        conn = FakeConn()
        entries = _entries(fingerprints)
        known = set(self.sched.memo) | set(self.sched.poison)
        assert self.sched.submit(conn, batch_id, entries, priority) is None
        self.clients[batch_id] = (conn, len(entries))
        # Memoized and quarantined fingerprints are answered at once.
        assert sorted(self._delivered(batch_id)) == \
            [seq for seq, fp in enumerate(fingerprints) if fp in known]

    @precondition(lambda self: self.sched.batches)
    @rule(data=st.data())
    def retransmit(self, data):
        """A duplicated submit frame is ignored; a different job set
        under a live id is refused."""
        batch_id = data.draw(st.sampled_from(sorted(self.sched.batches)))
        conn, _count = self.clients[batch_id]
        before = len(conn.sent)
        fingerprints = [job.fingerprint for job in sorted(
            self.sched.batches[batch_id].jobs.values(),
            key=lambda job: job.seq)]
        assert self.sched.submit(conn, batch_id,
                                 _entries(fingerprints)) is None
        reply = self.sched.submit(FakeConn(), batch_id,
                                  _entries(fingerprints))
        assert reply["type"] == "error" and "duplicate" in reply["reason"]
        assert len(conn.sent) == before

    @rule()
    def register(self):
        worker_id = self._fresh("w")
        self.sched.register(worker_id, worker_id, FakeConn())
        self.worker_ids.append(worker_id)

    @precondition(lambda self: self.sched.workers)
    @rule(data=st.data(), want_gossip=st.booleans())
    def pull(self, data, want_gossip):
        worker_id = data.draw(st.sampled_from(sorted(self.sched.workers)))
        reply = self.sched.dispatch(worker_id, want_gossip=want_gossip)
        if reply["type"] != "job":
            assert reply["type"] == "idle"
            return
        fingerprint = reply["obligation"]["name"]
        assert fingerprint not in self.sched.memo, \
            "dispatched a memoized fingerprint"
        assert fingerprint not in self.sched.poison, \
            "dispatched a quarantined fingerprint"
        self.leases.append((worker_id, reply["batch_id"], reply["seq"],
                            fingerprint))

    def _held(self, lease):
        worker = self.sched.workers.get(lease[0])
        return worker is not None and lease[1:3] in worker.inflight

    def _current_leases(self):
        return [lease for lease in self.leases if self._held(lease)]

    def _stale_leases(self):
        return [lease for lease in self.leases if not self._held(lease)
                and lease[1] in self.sched.batches]

    @precondition(lambda self: self._current_leases())
    @rule(data=st.data(), status=STATUSES)
    def verdict(self, data, status):
        self._report(data.draw(st.sampled_from(self._current_leases())),
                     {"verdict": status})

    @precondition(lambda self: self._current_leases())
    @rule(data=st.data())
    def crash(self, data):
        self._report(data.draw(st.sampled_from(self._current_leases())),
                     {"failure": "boom"})

    @precondition(lambda self: self._stale_leases())
    @rule(data=st.data(), report=st.sampled_from(
        [{"verdict": "unsat"}, {"verdict": "unknown"}, {"failure": "boom"}]))
    def stale_report(self, data, report):
        """A report for a lease its worker no longer holds, on a batch
        still live: a duplicated frame, or a late result after an
        eviction or requeue — the job may be answered, queued again or
        leased to another worker by now."""
        self._report(data.draw(st.sampled_from(self._stale_leases())),
                     report)

    def _report(self, lease, report):
        worker_id, batch_id, seq, fp = lease
        message = {"batch_id": batch_id, "seq": seq}
        if "verdict" in report:
            message["verdict"] = _verdict(fp, report["verdict"])
        else:
            message["failure"] = {"exc_type": "RuntimeError",
                                  "message": report["failure"]}
        self.last_report = (worker_id, message)
        self.sched.complete(worker_id, message)

    @precondition(lambda self: self.last_report is not None)
    @rule()
    def duplicate_report(self):
        """The last result frame again, as a duplicating link delivers
        it."""
        self.sched.complete(*self.last_report)

    @precondition(lambda self: len(self.worker_ids) > len(self.sched.workers))
    @rule(data=st.data())
    def pull_after_eviction(self, data):
        """A pull that raced the heartbeat sweep gets no lease."""
        worker_id = data.draw(st.sampled_from(
            [w for w in self.worker_ids if w not in self.sched.workers]))
        depth = self.sched.queue_depth()
        assert self.sched.dispatch(worker_id)["type"] == "idle"
        assert self.sched.queue_depth() <= depth

    @precondition(lambda self: self.sched.workers)
    @rule(data=st.data())
    def evict(self, data):
        worker_id = data.draw(st.sampled_from(sorted(self.sched.workers)))
        self.sched.evict(worker_id, "disconnected")

    @precondition(lambda self: self.clients)
    @rule(data=st.data())
    def cancel(self, data):
        batch_id = data.draw(st.sampled_from(sorted(self.clients)))
        if batch_id in self.sched.batches:
            self.cancelled.add(batch_id)
        self.sched.cancel(batch_id)
        assert batch_id not in self.sched.batches

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _delivered(self, batch_id):
        conn, _count = self.clients[batch_id]
        return Counter(message["seq"] for message in conn.sent
                       if message["type"] == "verdict")

    @invariant()
    def nothing_delivered_twice(self):
        for batch_id in self.clients:
            for seq, times in self._delivered(batch_id).items():
                assert times == 1, (batch_id, seq, times)

    @invariant()
    def live_jobs_are_delivered_queued_or_leased(self):
        queued = Counter(id(job) for job in self.sched.queue)
        for batch_id, batch in self.sched.batches.items():
            delivered = self._delivered(batch_id)
            for seq, job in batch.jobs.items():
                holders = [w.worker_id for w in self.sched.workers.values()
                           if (batch_id, seq) in w.inflight]
                if seq in delivered:
                    assert job.done and not holders, (batch_id, seq)
                elif holders:
                    assert not job.done and queued[id(job)] == 0
                    assert holders == [job.worker], (batch_id, seq)
                else:
                    assert not job.done and job.worker is None
                    assert queued[id(job)] == 1, (batch_id, seq)

    @invariant()
    def answered_batches_retire(self):
        for batch in self.sched.batches.values():
            assert not all(job.done for job in batch.jobs.values())

    @invariant()
    def retired_batches_were_fully_delivered(self):
        for batch_id, (_conn, count) in self.clients.items():
            if batch_id in self.sched.batches \
                    or batch_id in self.cancelled:
                continue
            assert sorted(self._delivered(batch_id)) == list(range(count))

    @invariant()
    def leases_belong_to_live_undelivered_jobs(self):
        for worker in self.sched.workers.values():
            for batch_id, seq in worker.inflight:
                job = self.sched.batches[batch_id].jobs[seq]
                assert not job.done and job.worker == worker.worker_id

    @invariant()
    def memo_holds_only_definite_verdicts(self):
        for fingerprint, verdict in self.sched.memo.items():
            assert verdict["status"] in DEFINITE
            assert verdict["fingerprint"] == fingerprint


SchedulerMachine.TestCase.settings = settings(
    max_examples=100 * FUZZ_SCALE, stateful_step_count=100, deadline=None)
TestSchedulerLifecycle = SchedulerMachine.TestCase


def test_reports_from_a_lost_lease():
    """A crash report counts only from the worker holding the lease: a
    duplicated report must not queue the job a second time, and a late
    one must not pull the job from the worker now solving it.  A late
    verdict still answers the job, and ends the new holder's lease."""
    sched = Scheduler(max_attempts=3)
    sched.submit(FakeConn(), "b1", _entries(["fp0"]))
    sched.register("a", "a", FakeConn())
    second = sched.register("b", "b", FakeConn())
    crash = {"batch_id": "b1", "seq": 0,
             "failure": {"exc_type": "RuntimeError", "message": "boom"}}
    assert sched.dispatch("a")["type"] == "job"
    sched.complete("a", crash)
    sched.complete("a", crash)          # the same frame, duplicated
    assert sched.queue_depth() == 1
    assert sched.dispatch("b")["type"] == "job"
    sched.complete("a", crash)          # late: the lease is b's now
    assert sched.queue_depth() == 0
    assert second.inflight == {("b1", 0)}
    assert len(sched.batches["b1"].jobs[0].failures) == 1
    sched.complete("a", {"batch_id": "b1", "seq": 0,
                         "verdict": _verdict("fp0", "unsat")})
    assert "b1" not in sched.batches
    assert not second.inflight


def test_recovered_orphan_keeps_one_journal_across_restarts(tmp_path):
    """A journaled batch re-adopted after a restart is resubmitted as an
    orphan under a stable id; restarting again re-adopts the same one
    journal, and the orphan's last verdict removes it."""
    store = str(tmp_path / "store")
    queue_dir = os.path.join(store, "_queue")
    first = Scheduler(cache_dir=store)
    first.submit(FakeConn(), "sweep1", _entries(["fp0", "fp1"]))
    assert len(os.listdir(queue_dir)) == 1
    for _restart in range(2):
        again = Scheduler(cache_dir=store)
        again.recover()
        assert list(again.batches) == ["requeued:sweep1"]
        assert again.queue_depth() == 2
        names = os.listdir(queue_dir)
        assert len(names) == 1
        with open(os.path.join(queue_dir, names[0])) as handle:
            assert json.load(handle)["batch_id"] == "requeued:sweep1"
    again.register("w", "w", FakeConn())
    for _ in range(2):
        job = again.dispatch("w")
        fingerprint = job["obligation"]["name"]
        again.complete("w", {"batch_id": job["batch_id"],
                             "seq": job["seq"],
                             "verdict": _verdict(fingerprint, "unsat")})
    assert not again.batches
    assert os.listdir(queue_dir) == []
