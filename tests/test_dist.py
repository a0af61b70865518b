"""Distributed proof-service tests: protocol, fault injection, and the
distributed-equals-sequential acceptance differentials.

Workers run as forked subprocesses (so they can be SIGKILLed
mid-obligation); the broker runs in-process on an ephemeral port.  The
oracle throughout is the sequential ``jobs=1`` engine path: a
distributed run must produce bit-identical verdict/alert signatures, no
matter how many workers serve it or how many of them die mid-run.
"""

import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.core import UpecMethodology, UpecScenario
from repro.dist import (
    Broker,
    Connection,
    PROTO_VERSION,
    RemoteEngine,
    RemotePool,
    obligation_from_wire,
    obligation_to_wire,
    parse_address,
)
from repro.dist.protocol import ProtocolError, dial
from repro.dist.scheduler import Scheduler
from repro.engine import ProofEngine
from repro.engine.obligation import (ProofObligation, encode_cnf,
                                     solve_obligation)
from repro.errors import DistError
from repro.soc import SocConfig, build_soc
from repro.soc.config import FORMAL_CONFIG_KWARGS
from test_preprocess_differential import reference_fingerprint_v1

_MP = multiprocessing.get_context("fork")

VARIANTS = ("secure", "orc", "meltdown", "pmp_bug")
SCENARIO = UpecScenario(secret_in_cache=True)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _worker_main(address, cache_dir=None, solve_delay=0.0):
    """Subprocess body: optionally slow every solve down so a test can
    reliably catch (and kill) a worker mid-obligation."""
    import repro.dist.worker as worker_mod

    if solve_delay:
        pure = solve_obligation

        def delayed(obligation, simp_cache=None, **kwargs):
            time.sleep(solve_delay)
            return pure(obligation, simp_cache=simp_cache, **kwargs)

        worker_mod.solve_obligation = delayed
    worker_mod.run_worker(address, cache_dir=cache_dir,
                          poll_interval=0.01, max_retries=3)


def _crashing_worker_main(address):
    """Subprocess body whose every solve raises — the worker must survive
    and report structured failures (poison-quarantine fodder)."""
    import repro.dist.worker as worker_mod

    def broken(obligation, simp_cache=None, **kwargs):
        raise RuntimeError("deliberately broken solve")

    worker_mod.solve_obligation = broken
    worker_mod.run_worker(address, poll_interval=0.01, max_retries=3)


def _spawn_worker(address, cache_dir=None, solve_delay=0.0):
    process = _MP.Process(
        target=_worker_main,
        args=(address,),
        kwargs={"cache_dir": cache_dir, "solve_delay": solve_delay},
        daemon=True,
    )
    process.start()
    return process


@pytest.fixture
def broker():
    instance = Broker(port=0, heartbeat_timeout=10.0).start()
    procs = []
    instance.spawn = lambda **kw: procs.append(
        _spawn_worker(instance.address, **kw)) or procs[-1]
    try:
        yield instance
    finally:
        for process in procs:
            if process.is_alive():
                process.terminate()
        for process in procs:
            process.join(timeout=5)
        instance.stop()


def _wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _toy_obligations(count=4):
    """Small satisfiable/unsatisfiable queries with distinct contents."""
    obligations = []
    for i in range(count):
        # (x1|x2) & (~x1|x3) & (~x2|~x3) with alternating assumptions;
        # the extra unit clause makes every obligation's content unique.
        obligations.append(ProofObligation(
            name=f"toy{i}",
            nvars=4 + i,
            cnf=encode_cnf([[1, 2], [-1, 3], [-2, -3], [4 + i]]),
            assumptions=[1] if i % 2 else [-1],
        ))
    return obligations


def _methodology_signature(result):
    return (
        result.verdict,
        result.k,
        result.iterations,
        list(result.removed_regs),
        [alert.to_dict() for alert in result.p_alerts],
        result.l_alert.to_dict() if result.l_alert is not None else None,
    )


def _run_methodology(variant, engine, k=2):
    soc = build_soc(getattr(SocConfig, variant)(**FORMAL_CONFIG_KWARGS))
    return UpecMethodology(soc, SCENARIO, engine=engine).run(k=k)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
def test_obligation_wire_roundtrip_preserves_fingerprint():
    obligation = ProofObligation(
        name="wire", nvars=5, cnf=encode_cnf([[1, -2], [3, 4, 5]]),
        assumptions=[2], frozen=[1, 3],
        conflict_limit=123, meta={"kind": "test", "frame": 2},
        remap=[0, 7, 8, 9, 10, 11],
    )
    wire = json.loads(json.dumps(obligation_to_wire(obligation)))
    back = obligation_from_wire(wire)
    assert back.fingerprint() == obligation.fingerprint()
    assert back.meta == obligation.meta
    assert back.conflict_limit == 123
    # Slice bookkeeping stays client-side.
    assert back.remap is None
    # The clauses still travel as lists.
    assert wire["clauses"] == [[1, -2], [3, 4, 5]]
    assert back.cnf == obligation.cnf
    # The pre-flat-CNF fingerprints were those of the preprocessing
    # flag's days, and a payload that still carries the flag parses to
    # the same obligation.
    assert reference_fingerprint_v1(back) == \
        "6fbf70adc44df96771f96f3196d701c860dad76f19c1e100f64bf72146a58e46"
    assert obligation.fingerprint() == \
        "79991e162c15ec478d1f080eb931a64159e110deebf7fb393f9fd9d2439e4465"
    for flag in (True, False):
        legacy = obligation_from_wire({**wire, "simplify": flag})
        assert legacy.fingerprint() == obligation.fingerprint()


def test_wire_literal_beyond_int32_is_malformed():
    """The flat ``cnf`` holds C ints: a wire literal that does not fit
    is a malformed payload, not a truncated formula."""
    wire = obligation_to_wire(_toy_obligations(1)[0])
    wire["clauses"] = wire["clauses"] + [[2**40]]
    with pytest.raises(ProtocolError, match="malformed"):
        obligation_from_wire(wire)
    wire["clauses"][-1] = ["1"]
    with pytest.raises(ProtocolError, match="malformed"):
        obligation_from_wire(wire)


def test_empty_clause_stays_unsat_across_the_wire():
    """An empty clause is a lone 0 of the flat ``cnf``; it survives the
    wire's clause lists and keeps the formula UNSAT."""
    obligation = ProofObligation(
        name="empty", nvars=2, cnf=encode_cnf([[1, 2], [], [-1]]),
        assumptions=[2])
    wire = json.loads(json.dumps(obligation_to_wire(obligation)))
    assert wire["clauses"] == [[1, 2], [], [-1]]
    back = obligation_from_wire(wire)
    assert back.cnf == obligation.cnf
    assert back.fingerprint() == obligation.fingerprint()
    assert solve_obligation(back).unsat


def test_frame_with_unknown_tag_is_rejected():
    """Frames are JSON only: a frame under any other tag fails loudly,
    even when its checksum is valid."""
    import zlib

    from repro.dist.protocol import _HEADER, ProtocolError

    payload = b'{"type":"ping"}'
    tag = ord("M")
    crc = zlib.crc32(payload, zlib.crc32(bytes([tag])))
    left, right = socket.socketpair()
    try:
        left.sendall(_HEADER.pack(len(payload), tag, crc) + payload)
        with pytest.raises(ProtocolError, match="unknown frame tag"):
            Connection(right).recv()
    finally:
        left.close()
        right.close()


def test_parse_address():
    assert parse_address("10.0.0.1:7769") == ("10.0.0.1", 7769)
    for bad in ("nohost", "host:port", ":123", "x:", "h:0", "h:99999",
                "h:-1"):
        with pytest.raises(DistError):
            parse_address(bad)


def test_handshake_rejects_version_mismatch(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=5)
    conn = Connection(sock)
    conn.send({"type": "hello", "proto": PROTO_VERSION + 999,
               "role": "worker"})
    reply = conn.recv()
    assert reply["type"] == "error"
    assert "version mismatch" in reply["reason"]
    # The broker hangs up and never registers the peer.
    assert conn.recv() is None
    assert broker.snapshot()["workers"] == []
    conn.close()


def test_handshake_rejects_unknown_role(broker):
    sock = socket.create_connection(("127.0.0.1", broker.port), timeout=5)
    conn = Connection(sock)
    conn.send({"type": "hello", "proto": PROTO_VERSION,
               "role": "observer"})
    reply = conn.recv()
    assert reply["type"] == "error"
    assert "role" in reply["reason"]
    conn.close()


def test_dial_reports_unreachable_broker():
    with pytest.raises(DistError, match="cannot reach broker"):
        dial(("127.0.0.1", 1), role="client", timeout=0.5)


# ----------------------------------------------------------------------
# Remote solving
# ----------------------------------------------------------------------
def test_remote_batch_matches_local_bit_for_bit(broker):
    broker.spawn()
    obligations = _toy_obligations(6)
    local = [solve_obligation(ob) for ob in obligations]
    engine = RemoteEngine(broker.address)
    try:
        remote = engine.solve_ordered(obligations)
    finally:
        engine.close()
    for mine, theirs in zip(local, remote):
        assert theirs is not None
        assert mine.status == theirs.status
        assert mine.model == theirs.model
        assert mine.fingerprint == theirs.fingerprint


def test_remote_early_cancel_stops_consumption(broker):
    broker.spawn()
    obligations = _toy_obligations(5)
    observed = []
    pool = RemotePool(broker.address)
    try:
        results = pool.solve_ordered(
            obligations,
            early_stop=lambda verdict: verdict.sat,
            on_verdict=lambda ob, v: observed.append(ob.name),
        )
    finally:
        pool.close()
    # toy0 is SAT, so order semantics cut everything after index 0.
    assert results[0] is not None and results[0].sat
    assert all(entry is None for entry in results[1:])
    assert observed[0] == "toy0"
    # The cancelled batch's queued jobs drain without dispatch.
    assert _wait_for(lambda: broker.snapshot()["queued"] == 0)


def test_partial_consume_survives_connection_death(broker):
    """A connection that dies right after a verdict was consumed must
    not strand the batch: the retry resyncs its progress from the
    result list, resubmits only the missing seqs, and drains.  (The
    losing-progress variant of this bug left the client waiting forever
    on verdicts the broker had already delivered and retired.)"""
    broker.spawn()
    obligations = _toy_obligations(2)
    pool = RemotePool(broker.address)
    try:
        pool.solve_ordered(obligations)  # prime the broker memo
        orig_recv = RemotePool._recv.__get__(pool)
        state = {"verdicts": 0, "cut": False}

        def recv_then_die(conn):
            if state["verdicts"] == 1 and not state["cut"]:
                state["cut"] = True
                raise DistError("injected connection death")
            message = orig_recv(conn)
            if message.get("type") == "verdict":
                state["verdicts"] += 1
            return message

        pool._recv = recv_then_die
        done = {}

        def run():
            done["results"] = pool.solve_ordered(obligations)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), \
            "solve_ordered deadlocked after a mid-consume connection death"
    finally:
        pool.close()
    assert state["cut"], "the injected death never fired"
    local = [solve_obligation(ob) for ob in obligations]
    for mine, theirs in zip(local, done["results"]):
        assert theirs is not None
        assert mine.status == theirs.status
        assert mine.fingerprint == theirs.fingerprint


def test_early_stop_survives_cancel_send_death(broker):
    """A connection that dies on the early-stop cancel send must not
    lose the stop decision: the retry re-derives ``stopped`` from the
    consumed verdicts and returns without solving past the stop point
    (and without deadlocking on the resubmitted duplicate seqs)."""
    broker.spawn()
    obligations = _toy_obligations(3)
    pool = RemotePool(broker.address)
    try:
        pool.solve_ordered(obligations)  # prime the broker memo
        orig_send = RemotePool._send.__get__(pool)
        state = {"cut": False}

        def cancel_send_dies(conn, message):
            if message.get("type") == "cancel" and not state["cut"]:
                state["cut"] = True
                raise DistError("injected connection death")
            return orig_send(conn, message)

        pool._send = cancel_send_dies
        done = {}

        def run():
            done["results"] = pool.solve_ordered(
                obligations, early_stop=lambda verdict: verdict.sat)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), \
            "solve_ordered deadlocked after the cancel send died"
    finally:
        pool.close()
    assert state["cut"], "the injected death never fired"
    results = done["results"]
    # toy0 is SAT: order semantics stop there, even across the death.
    assert results[0] is not None and results[0].sat
    assert all(entry is None for entry in results[1:])


class _ResettingConn:
    """A live connection whose ``recv`` fails the way a broker that
    resets the link makes it fail."""

    def __init__(self, conn):
        self.conn = conn
        self.resets = 0

    def send(self, message):
        self.conn.send(message)

    def recv(self):
        self.resets += 1
        raise ConnectionResetError(104, "Connection reset by peer")

    def close(self):
        self.conn.close()


def test_reset_connection_is_redialled(broker):
    """A reset while the client waits for verdicts is a lost connection
    like a closed one: ``_recv`` raises DistError, and the batch
    completes by redialling and resubmitting."""
    broker.spawn()
    obligations = _toy_obligations(3)
    pool = RemotePool(broker.address, reconnect_delay=0.05)
    try:
        with pytest.raises(DistError, match="reset"):
            pool._recv(_ResettingConn(pool._conn))
        stub = pool._conn = _ResettingConn(pool._conn)
        results = pool.solve_ordered(obligations)
        assert pool._conn is not stub
    finally:
        pool.close()
    assert stub.resets == 1
    for mine, theirs in zip(map(solve_obligation, obligations), results):
        assert theirs is not None
        assert (theirs.status, theirs.model, theirs.fingerprint) == \
            (mine.status, mine.model, mine.fingerprint)


def test_remote_pool_advertises_parallel_jobs(broker):
    pool = RemotePool(broker.address)
    try:
        # Never 1: the checker layers take jobs==1 to mean in-process
        # lazy export, which would serialize a remote run.
        assert pool.jobs >= 2
    finally:
        pool.close()


def test_broker_memoizes_resubmitted_fingerprints(broker):
    broker.spawn()
    obligations = _toy_obligations(3)
    engine = RemoteEngine(broker.address)
    try:
        first = engine.solve_ordered(obligations)
        workers_solved = sum(w["solved"]
                             for w in broker.snapshot()["workers"])
        second = engine.solve_ordered(obligations)
        again = sum(w["solved"] for w in broker.snapshot()["workers"])
    finally:
        engine.close()
    assert workers_solved == 3
    assert again == workers_solved  # answered from the broker memo
    for a, b in zip(first, second):
        assert a.status == b.status and a.model == b.model


def test_gossip_reaches_late_joining_worker(broker, tmp_path):
    cache_a = str(tmp_path / "a")
    cache_b = str(tmp_path / "b")
    broker.spawn(cache_dir=cache_a)
    obligations = _toy_obligations(3)
    engine = RemoteEngine(broker.address)
    try:
        engine.solve_ordered(obligations)
    finally:
        engine.close()
    fingerprints = {ob.fingerprint() for ob in obligations}
    # A worker that joins after the fact receives the whole verdict
    # backlog piggybacked on its pulls and writes it through.
    broker.spawn(cache_dir=cache_b)
    assert _wait_for(lambda: os.path.isdir(cache_b) and fingerprints <= {
        name[:-len(".json")] for name in os.listdir(cache_b)
        if name.endswith(".json")
    }), "gossiped verdicts never reached the second worker's cache"


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
def test_killed_worker_requeues_to_survivor(broker):
    # Worker A will sit on the first obligation "forever"; killing it
    # must requeue the in-flight job, which worker B then solves —
    # final verdicts identical to a local run.
    slow = broker.spawn(solve_delay=60.0)
    obligations = _toy_obligations(2)
    local = [solve_obligation(ob) for ob in obligations]
    engine = RemoteEngine(broker.address)
    outcome = {}

    def run():
        try:
            outcome["results"] = engine.solve_ordered(obligations)
        except Exception as exc:  # surfaced in the main thread
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        assert _wait_for(lambda: any(
            w["inflight"] for w in broker.snapshot()["workers"]
        )), "worker never picked up the obligation"
        slow.kill()
        broker.spawn()  # the survivor
        thread.join(timeout=30)
        assert not thread.is_alive(), "batch never completed after requeue"
    finally:
        engine.close()
    assert "error" not in outcome, outcome.get("error")
    for mine, theirs in zip(local, outcome["results"]):
        assert mine.status == theirs.status
        assert mine.model == theirs.model


def test_stale_heartbeat_evicts_and_requeues(tmp_path):
    # A zombie worker grabs a job and then goes silent without closing
    # its socket: only the heartbeat sweeper can reclaim the work.
    broker = Broker(port=0, heartbeat_timeout=0.6).start()
    worker = None
    zombie = None
    client = None
    try:
        zombie, welcome = dial(("127.0.0.1", broker.port), role="worker",
                               name="zombie")
        assert welcome["type"] == "welcome"
        client = RemotePool(broker.address)
        obligations = _toy_obligations(1)
        outcome = {}

        def run():
            outcome["results"] = client.solve_ordered(obligations)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        # The zombie pulls until the job lands, then never speaks again.
        deadline = time.monotonic() + 10
        got_job = False
        while time.monotonic() < deadline and not got_job:
            zombie.send({"type": "pull"})
            reply = zombie.recv()
            got_job = reply is not None and reply["type"] == "job"
            if not got_job:
                time.sleep(0.02)
        assert got_job, "zombie never received the job"
        # Eviction: the sweeper notices the silence, drops the zombie
        # and requeues; a healthy worker then finishes the batch.
        assert _wait_for(
            lambda: not any(w["name"] == "zombie"
                            for w in broker.snapshot()["workers"]),
            timeout=10,
        ), "stale worker was never evicted"
        worker = _spawn_worker(broker.address)
        thread.join(timeout=30)
        assert not thread.is_alive(), "job lost with the zombie"
        verdict = outcome["results"][0]
        assert verdict.status == solve_obligation(obligations[0]).status
    finally:
        if client is not None:
            client.close()
        if zombie is not None:
            zombie.close()
        if worker is not None and worker.is_alive():
            worker.terminate()
            worker.join(timeout=5)
        broker.stop()


def test_poison_obligation_quarantined_after_worker_deaths():
    # Every worker that touches the job dies: after max_attempts distinct
    # workers the broker pulls the obligation from rotation and delivers
    # a structured "poisoned" verdict carrying their failure reports —
    # instead of burning through the fleet forever (or erroring the
    # whole batch, as it used to).
    broker = Broker(port=0, heartbeat_timeout=10.0, max_attempts=2).start()
    procs = []
    client = None
    try:
        client = RemotePool(broker.address)
        obligations = _toy_obligations(1)
        outcome = {}

        def run():
            try:
                outcome["results"] = client.solve_ordered(obligations)
            except DistError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        for _ in range(2):
            victim = _spawn_worker(broker.address, solve_delay=60.0)
            procs.append(victim)
            assert _wait_for(lambda: any(
                w["inflight"] for w in broker.snapshot()["workers"]
            ), timeout=60)
            victim.kill()
            victim.join(timeout=5)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        verdict = outcome["results"][0]
        assert verdict.status == "poisoned"
        assert verdict.fingerprint == obligations[0].fingerprint()
        # The failure reports name the distinct workers that died.
        assert verdict.failures and len(verdict.failures) >= 2
        for report in verdict.failures:
            assert report["exc_type"] == "WorkerDied"
            assert report["worker_id"]
        assert broker.snapshot()["poisoned"] == 1
        # A resubmission of the same obligation short-circuits to the
        # quarantined verdict without touching any worker.
        again = client.solve_ordered(obligations)
        assert again[0].status == "poisoned"
    finally:
        if client is not None:
            client.close()
        for process in procs:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        broker.stop()


def test_crashing_solve_reports_structured_failure_and_poisons():
    # A solve that raises (rather than killing the process) sends a
    # structured failure report; the worker survives, and after
    # max_attempts the broker quarantines the obligation with the
    # reports' exception type and traceback attached.
    broker = Broker(port=0, heartbeat_timeout=10.0, max_attempts=2).start()
    worker = None
    client = None
    try:
        worker = _MP.Process(
            target=_crashing_worker_main, args=(broker.address,),
            daemon=True)
        worker.start()
        client = RemotePool(broker.address)
        results = client.solve_ordered(_toy_obligations(1))
        verdict = results[0]
        assert verdict.status == "poisoned"
        assert verdict.failures
        report = verdict.failures[0]
        assert report["exc_type"] == "RuntimeError"
        assert "deliberately broken solve" in report["message"]
        assert "RuntimeError" in report.get("traceback", "")
        # The worker survived its own crash and is still registered.
        assert any(w["name"] for w in broker.snapshot()["workers"])
    finally:
        if client is not None:
            client.close()
        if worker is not None and worker.is_alive():
            worker.terminate()
            worker.join(timeout=5)
        broker.stop()


# ----------------------------------------------------------------------
# Acceptance: distributed methodology == sequential, on all variants,
# including across a mid-run worker kill
# ----------------------------------------------------------------------
def test_methodology_distributed_matches_sequential_all_variants(broker):
    broker.spawn()
    broker.spawn()
    for variant in VARIANTS:
        sequential = _run_methodology(variant, engine=ProofEngine(jobs=1))
        engine = RemoteEngine(broker.address)
        try:
            distributed = _run_methodology(variant, engine=engine)
        finally:
            engine.close()
        assert _methodology_signature(sequential) == \
            _methodology_signature(distributed), variant


def test_methodology_survives_worker_kill_mid_run(broker):
    victim = broker.spawn(solve_delay=0.05)
    broker.spawn(solve_delay=0.05)
    sequential = _run_methodology("orc", engine=ProofEngine(jobs=1))
    engine = RemoteEngine(broker.address)
    outcome = {}

    def run():
        try:
            outcome["result"] = _run_methodology("orc", engine=engine)
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        # Let the run make some progress, then kill one worker cold.
        assert _wait_for(lambda: broker.snapshot()["memo"] >= 1,
                         timeout=60), "distributed run never progressed"
        victim.kill()
        thread.join(timeout=300)
        assert not thread.is_alive(), "methodology hung after worker kill"
    finally:
        engine.close()
    assert "error" not in outcome, outcome.get("error")
    assert _methodology_signature(sequential) == \
        _methodology_signature(outcome["result"])


# ----------------------------------------------------------------------
# Gossip backlog management
# ----------------------------------------------------------------------
class _FakeConn:
    """Records the frames a scheduler sends to a peer."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def _entry(seq, fingerprint):
    return {"seq": seq, "fingerprint": fingerprint,
            "obligation": {"name": fingerprint}}


def _unsat(fingerprint):
    return {"status": "unsat", "obligation": fingerprint,
            "fingerprint": fingerprint, "model": None, "nvars": 0,
            "runtime_s": 0.0, "stats": {}}


def test_gossip_backlog_pages_and_trims():
    from repro.dist import scheduler as scheduler_mod

    sched = Scheduler()
    stale = sched.register("s", "s", _FakeConn())
    total = scheduler_mod._GOSSIP_KEEP + 100

    def memoize(i):
        sched.complete("s", {"batch_id": "gone", "seq": 0,
                             "verdict": _unsat(f"fp{i}")})

    for i in range(3):
        memoize(i)
    assert [entry["fingerprint"] for entry in
            sched.dispatch("s")["gossip"]] == ["fp0", "fp1", "fp2"]
    assert stale.gossip_pos == 3
    # Simulate a long-lived broker: more backlog than the retention cap.
    for i in range(3, total):
        memoize(i)
    assert len(sched.gossip) == scheduler_mod._GOSSIP_KEEP
    assert sched.gossip_base == 100
    sched.register("w", "w", _FakeConn())
    # A fresh worker pages through the retained backlog, one bounded
    # chunk per pull, never one giant frame.
    seen = []
    while True:
        page = sched.dispatch("w")["gossip"]
        if not page:
            break
        assert len(page) <= scheduler_mod._GOSSIP_PAGE
        seen.extend(entry["fingerprint"] for entry in page)
    assert seen[0] == "fp100"          # trimmed entries are gone
    assert seen[-1] == f"fp{total - 1}"
    assert len(seen) == scheduler_mod._GOSSIP_KEEP
    # A worker whose position predates the trim resumes at the base.
    first = sched.dispatch("s")["gossip"]
    assert first[0]["fingerprint"] == "fp100"


def test_dispatch_refuses_work_for_evicted_worker():
    """A pull racing the heartbeat sweep must not strand the job on an
    unregistered worker's inflight set (which nothing would requeue)."""
    sched = Scheduler()
    assert sched.submit(_FakeConn(), "b1", [_entry(0, "fp")]) is None
    ghost = sched.register("worker-ghost", "ghost", _FakeConn())
    sched.evict("worker-ghost", "stale heartbeat")
    # ghost is no longer registered: evicted.
    reply = sched.dispatch("worker-ghost")
    assert reply["type"] == "idle"
    assert not ghost.inflight
    assert [(job.batch_id, job.seq) for job in sched.queue] == \
        [("b1", 0)]                      # still dispatchable
    # Once registered, the same pull hands the job out normally.
    ghost = sched.register("worker-ghost", "ghost", _FakeConn())
    reply = sched.dispatch("worker-ghost")
    assert reply["type"] == "job" and reply["seq"] == 0
    assert ("b1", 0) in ghost.inflight


def test_dial_times_out_on_silent_peer():
    """A peer that accepts TCP but never answers the handshake must
    fail within the dial timeout, not hang."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    try:
        start = time.monotonic()
        with pytest.raises(DistError, match="handshake"):
            dial(("127.0.0.1", port), role="client", timeout=0.3)
        assert time.monotonic() - start < 5.0
    finally:
        listener.close()


def test_silent_prehandshake_connection_is_reaped():
    """A peer that connects and never says hello must not pin a broker
    thread/fd forever — the handshake deadline closes it."""
    instance = Broker(port=0, handshake_timeout=0.3).start()
    try:
        sock = socket.create_connection(("127.0.0.1", instance.port),
                                        timeout=5)
        sock.settimeout(5)
        start = time.monotonic()
        # The broker hangs up without a word once the deadline passes.
        assert sock.recv(1) == b""
        assert time.monotonic() - start < 4.0
        sock.close()
    finally:
        instance.stop()


# ----------------------------------------------------------------------
# Broker lifecycle bug regressions
# ----------------------------------------------------------------------
def test_evicted_batch_retires_after_giving_up():
    """A job that burns its last worker must retire its finished batch:
    the old path marked the job done but never popped the batch, leaking
    its obligation payloads until the client disconnected."""
    sched = Scheduler(max_attempts=1)
    client = _FakeConn()
    sched.submit(client, "b1", [_entry(0, "fp")])
    sched.register("w1", "w1", _FakeConn())
    assert sched.dispatch("w1")["type"] == "job"
    sched.evict("w1", "disconnected")
    assert [m["verdict"]["status"] for m in client.sent] == ["poisoned"]
    assert "b1" not in sched.batches   # retired, not leaked


def test_dispatch_answers_memoized_queue_entries():
    """A queued job whose fingerprint got memoized (a duplicate across
    concurrent batches) must be answered from the memo at dispatch time,
    not burn a worker on a re-solve."""
    sched = Scheduler()
    client = _FakeConn()
    sched.submit(client, "b1", [_entry(0, "fp")])
    puller = sched.register("w1", "w1", _FakeConn())
    # Another batch's copy of the obligation comes back solved.
    memo = _unsat("fp")
    sched.complete("w1", {"batch_id": "b0", "seq": 0, "verdict": memo})
    reply = sched.dispatch("w1")
    assert reply["type"] == "idle"         # nothing left to solve
    assert not puller.inflight
    assert client.sent == [{"type": "verdict", "batch_id": "b1",
                            "seq": 0, "verdict": memo}]
    assert "b1" not in sched.batches       # batch completed via memo


def test_flapping_broker_worker_backs_off():
    """Connections that die right after the handshake must count against
    the retry budget: the old loop reset ``retries`` on every successful
    dial, so a flapping broker produced a zero-delay reconnect spin that
    never gave up."""
    from repro.dist.worker import Worker

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    port = listener.getsockname()[1]
    stop = threading.Event()

    def flap():
        # Accept, complete the handshake, hang up immediately.
        while not stop.is_set():
            try:
                client, _ = listener.accept()
            except OSError:
                return
            conn = Connection(client)
            try:
                conn.recv()
                conn.send({"type": "welcome", "proto": PROTO_VERSION,
                           "id": "x", "workers": 0})
            except Exception:
                pass
            conn.close()

    server = threading.Thread(target=flap, daemon=True)
    server.start()
    worker = Worker(f"127.0.0.1:{port}", max_retries=3, retry_delay=0.05,
                    poll_interval=0.01, stable_after=5.0)
    outcome = []

    def run():
        try:
            worker.run()
            outcome.append(None)
        except DistError as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    start = time.monotonic()
    runner.start()
    runner.join(timeout=30)
    stop.set()
    listener.close()
    worker.stop()
    assert not runner.is_alive(), "worker reconnect-spun forever"
    assert isinstance(outcome[0], DistError)
    assert "flapping" in str(outcome[0])
    # Backoff means the give-up took at least max_retries * retry_delay.
    assert time.monotonic() - start >= 3 * 0.05


def test_duplicate_live_batch_id_rejected(broker):
    """A *different* batch under a still-live id must be rejected, not
    silently replace the first batch (stranding its client forever) —
    while an identical retransmission of our own live submit (a
    duplicated frame in flight) is ignored rather than erroring the
    whole run out."""
    conn, _welcome = dial(("127.0.0.1", broker.port), role="client",
                          timeout=5)
    try:
        toys = _toy_obligations(2)
        jobs = [{"seq": 0, "fingerprint": "fp-dup",
                 "obligation": obligation_to_wire(toys[0])}]
        # No workers attached: the first submission stays queued (live).
        conn.send({"type": "submit", "batch_id": "dup", "jobs": jobs})
        assert _wait_for(lambda: broker.snapshot()["batches"] == 1)
        # Identical job set over the same connection: a retransmitted
        # duplicate frame.  No error — the next reply must be the
        # status answer, proving the dup was silently dropped.
        conn.send({"type": "submit", "batch_id": "dup", "jobs": jobs})
        conn.send({"type": "status"})
        reply = conn.recv()
        assert reply["type"] == "status"
        assert broker.snapshot()["batches"] == 1
        # A different job set under the live id is an id collision.
        conn.send({"type": "submit", "batch_id": "dup", "jobs": [
            {"seq": 0, "fingerprint": "fp-other",
             "obligation": obligation_to_wire(toys[1])}]})
        reply = conn.recv()
        assert reply["type"] == "error"
        assert "duplicate" in reply["reason"]
        assert broker.snapshot()["batches"] == 1
    finally:
        conn.close()


def test_snapshot_queue_depth_skips_dead_batches():
    """Queue entries of cancelled/dropped batches drain lazily; the
    snapshot must not count them as pending work."""
    sched = Scheduler()
    for batch_id in ("live", "dead"):
        sched.submit(_FakeConn(), batch_id,
                     [_entry(seq, f"fp-{batch_id}-{seq}")
                      for seq in range(3)])
    sched.cancel("dead")
    assert len(sched.queue) == 6           # stale entries still queued
    assert sched.snapshot()["queued"] == 3   # but not reported


def test_priority_batches_dispatch_first():
    """Higher-priority batches dispatch before earlier-submitted lower
    ones; within a priority level, submission order (FIFO)."""
    sched = Scheduler()
    for batch_id, priority in (("bg1", 0), ("fg", 5), ("bg2", 0)):
        sched.submit(_FakeConn(), batch_id, [_entry(0, f"fp-{batch_id}")],
                     priority=priority)
    sched.register("w1", "w1", _FakeConn())
    order = []
    for _ in range(3):
        reply = sched.dispatch("w1")
        assert reply["type"] == "job"
        order.append(reply["batch_id"])
    assert order == ["fg", "bg1", "bg2"]


# ----------------------------------------------------------------------
# Durability: journals, recovery, restart mid-sweep
# ----------------------------------------------------------------------
def test_durable_broker_recovers_journaled_queue(tmp_path):
    """A durable broker killed with queued work re-adopts it on restart:
    the orphan jobs are solved into the memo, and a reconnecting
    client's resubmission is answered without re-solving."""
    cache = str(tmp_path / "store")
    obligations = _toy_obligations(3)
    first = Broker(port=0, cache_dir=cache).start()
    try:
        conn, _welcome = dial(("127.0.0.1", first.port), role="client",
                              timeout=5)
        conn.send({"type": "submit", "batch_id": "sweep1", "jobs": [
            {"seq": i, "fingerprint": ob.fingerprint(),
             "obligation": obligation_to_wire(ob)}
            for i, ob in enumerate(obligations)
        ]})
        assert _wait_for(lambda: first.snapshot()["batches"] == 1)
    finally:
        # Hard stop with the client still attached: queued work must
        # survive in the journal, not in any socket.
        first.stop()
    second = Broker(port=0, cache_dir=cache).start()
    try:
        snap = second.snapshot()
        assert snap["batches"] == 1 and snap["queued"] == 3
        process = _spawn_worker(second.address)
        try:
            # The orphan batch solves into the durable memo and retires.
            assert _wait_for(lambda: second.snapshot()["memo"] == 3)
            assert _wait_for(lambda: second.snapshot()["batches"] == 0)
            with RemotePool(second.address) as pool:
                verdicts = pool.solve_ordered(obligations)
            expected = [solve_obligation(ob) for ob in obligations]
            assert [v.status for v in verdicts] == \
                [v.status for v in expected]
            assert [v.fingerprint for v in verdicts] == \
                [v.fingerprint for v in expected]
        finally:
            process.terminate()
            process.join(timeout=5)
    finally:
        second.stop()


def test_broker_restart_mid_sweep_matches_sequential_all_variants(tmp_path):
    """The durable-restart acceptance differential: a broker SIGKILLed
    (stopped hard) mid-sweep and restarted on the same port and cache
    directory must let the client's sweep complete with verdict/alert
    signatures bit-identical to the sequential oracle, on all four
    design variants."""
    cache = str(tmp_path / "store")
    first = Broker(port=0, heartbeat_timeout=10.0, cache_dir=cache).start()
    port = first.port
    procs = [_spawn_worker(first.address, solve_delay=0.05)
             for _ in range(2)]
    pool = RemotePool(first.address, reconnect_retries=120,
                      reconnect_delay=0.25)
    engine = ProofEngine(pool=pool)
    signatures = {}
    failure = []

    def sweep():
        try:
            for variant in VARIANTS:
                signatures[variant] = _methodology_signature(
                    _run_methodology(variant, engine))
        except Exception as exc:   # surfaced by the final assert
            failure.append(exc)

    runner = threading.Thread(target=sweep, daemon=True)
    runner.start()
    # Let the sweep get properly underway, then yank the broker.
    assert _wait_for(lambda: first.snapshot()["memo"] >= 2, timeout=120)
    first.stop()
    # The whole broker host goes down: its workers die with it.  (They
    # must also die in this harness — forked workers inherit the
    # listening socket, which would keep the port bound.)
    for process in procs:
        process.terminate()
    for process in procs:
        process.join(timeout=5)
    second = Broker(port=port, heartbeat_timeout=10.0,
                    cache_dir=cache).start()
    procs.append(_spawn_worker(second.address))
    try:
        runner.join(timeout=600)
        assert not runner.is_alive(), "sweep never completed after restart"
        assert not failure, f"sweep failed after restart: {failure[0]}"
        for variant in VARIANTS:
            sequential = _methodology_signature(
                _run_methodology(variant, ProofEngine(jobs=1)))
            assert signatures[variant] == sequential, variant
    finally:
        engine.close()
        for process in procs:
            if process.is_alive():
                process.terminate()
        for process in procs:
            process.join(timeout=5)
        second.stop()


# ----------------------------------------------------------------------
# Cooperative preemption
# ----------------------------------------------------------------------
def _pigeonhole_obligation(pigeons=8):
    """PHP(n, n-1): small to ship, thousands of conflicts to refute —
    long enough for a cancel push to land mid-solve."""
    holes = pigeons - 1

    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-var(i1, j), -var(i2, j)])
    return ProofObligation(name="php", nvars=pigeons * holes,
                           cnf=encode_cnf(clauses), assumptions=[])


def test_cancel_push_preempts_running_solve():
    """Cancelling a batch mid-solve must abort the worker's CDCL search
    (cooperative preemption), not let it run the doomed proof to
    completion."""
    from repro.dist.worker import Worker

    instance = Broker(port=0, heartbeat_timeout=30.0).start()
    worker = Worker(instance.address, poll_interval=0.01)
    runner = threading.Thread(target=worker.run, daemon=True)
    runner.start()
    conn = None
    try:
        conn, _welcome = dial(("127.0.0.1", instance.port), role="client",
                              timeout=5)
        hard = _pigeonhole_obligation()
        conn.send({"type": "submit", "batch_id": "philong", "jobs": [
            {"seq": 0, "fingerprint": hard.fingerprint(),
             "obligation": obligation_to_wire(hard)}]})
        assert _wait_for(
            lambda: any(w["inflight"] for w in
                        instance.snapshot()["workers"]))
        conn.send({"type": "cancel", "batch_id": "philong"})
        assert conn.recv()["type"] == "cancelled"
        assert _wait_for(lambda: worker.cancelled >= 1, timeout=60), \
            "solve ran to completion despite the cancel push"
        assert worker.solved == 0
    finally:
        if conn is not None:
            conn.close()
        worker.stop()
        runner.join(timeout=10)
        instance.stop()


# ----------------------------------------------------------------------
# HTTP/JSON job API
# ----------------------------------------------------------------------
def _http(method, url, payload=None):
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=15) as reply:
            return reply.status, json.loads(reply.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def test_http_job_lifecycle(tmp_path):
    """submit -> poll -> result over the JSON job API, executed on the
    broker's own worker fleet."""
    instance = Broker(port=0, http_port=0,
                      cache_dir=str(tmp_path / "store")).start()
    base = f"http://127.0.0.1:{instance.http_port}"
    process = _spawn_worker(instance.address)
    try:
        status, health = _http("GET", base + "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["durable"] is True
        status, reply = _http("POST", base + "/jobs",
                              {"kind": "check", "variant": "secure",
                               "k": 1, "priority": 2})
        assert status == 202
        job_id = reply["id"]
        assert reply["status"] in ("queued", "running")

        def finished():
            code, state = _http("GET", f"{base}/jobs/{job_id}")
            assert code == 200
            return state["status"] in ("done", "failed")

        assert _wait_for(finished, timeout=300)
        status, state = _http("GET", f"{base}/jobs/{job_id}")
        assert state["status"] == "done"
        assert state["priority"] == 2
        assert state["progress"]["obligations_completed"] >= 1
        status, result = _http("GET", f"{base}/jobs/{job_id}/result")
        assert status == 200
        # The job API's answer must be bit-identical to the same check
        # run on a local engine (solving is pure, the fleet is an
        # implementation detail).
        from repro.core import UpecChecker, UpecModel

        soc = build_soc(SocConfig.secure(**FORMAL_CONFIG_KWARGS))
        oracle = UpecChecker(UpecModel(soc, SCENARIO),
                             engine=ProofEngine()).check(k=1).to_dict()
        for key in ("status", "k", "alert", "checked_frames"):
            assert result["result"][key] == oracle[key], key
    finally:
        process.terminate()
        process.join(timeout=5)
        instance.stop()


def test_graceful_stop_leaves_http_job_to_resume(tmp_path):
    """A graceful stop is not a job failure: an unfinished job keeps its
    journaled state, and the broker restarted on the same directory
    reruns it to the same answer as a local engine."""
    store = str(tmp_path / "store")
    first = Broker(port=0, http_port=0, cache_dir=store).start()
    try:
        status, reply = _http(
            "POST", f"http://127.0.0.1:{first.http_port}/jobs",
            {"kind": "check", "variant": "secure", "k": 1})
        assert status == 202
        job_id = reply["id"]
        # No workers: the job's obligations sit in the queue.
        assert _wait_for(lambda: first.snapshot()["queued"] >= 1,
                         timeout=120)
    finally:
        first.stop()
    second = Broker(port=0, http_port=0, cache_dir=store).start()
    base = f"http://127.0.0.1:{second.http_port}"
    process = _spawn_worker(second.address)
    try:
        def finished():
            return _http("GET", f"{base}/jobs/{job_id}")[1]["status"] \
                in ("done", "failed")

        assert _wait_for(finished, timeout=300)
        status, result = _http("GET", f"{base}/jobs/{job_id}/result")
        assert status == 200, result
        from repro.core import UpecChecker, UpecModel

        soc = build_soc(SocConfig.secure(**FORMAL_CONFIG_KWARGS))
        oracle = UpecChecker(UpecModel(soc, SCENARIO),
                             engine=ProofEngine()).check(k=1).to_dict()
        for key in ("status", "k", "alert", "checked_frames"):
            assert result["result"][key] == oracle[key], key
    finally:
        process.terminate()
        process.join(timeout=5)
        second.stop()


def test_http_rejects_bad_requests():
    instance = Broker(port=0, http_port=0).start()
    base = f"http://127.0.0.1:{instance.http_port}"
    try:
        import urllib.error
        import urllib.request

        # Invalid JSON body.
        request = urllib.request.Request(base + "/jobs", data=b"{nope",
                                         method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=15)
        assert exc_info.value.code == 400
        # Unknown variant / bad k.
        status, body = _http("POST", base + "/jobs",
                             {"variant": "nonesuch"})
        assert status == 400 and "variant" in body["error"]
        status, body = _http("POST", base + "/jobs",
                             {"variant": "secure", "k": 0})
        assert status == 400 and "k" in body["error"]
        # Budgets as on the CLI: a conflict limit of at least 1, a
        # positive (not NaN) wall budget.
        for field, value in (("conflict_limit", 0),
                             ("wall_budget", 0),
                             ("wall_budget", float("nan"))):
            status, body = _http("POST", base + "/jobs",
                                 {"variant": "secure", field: value})
            assert status == 400 and field in body["error"], value
        # Unknown job / endpoint, wrong method.
        status, _body = _http("GET", base + "/jobs/job-unknown")
        assert status == 404
        status, _body = _http("POST", base + "/healthz")
        assert status == 405
        status, _body = _http("GET", base + "/nothing")
        assert status == 404
    finally:
        instance.stop()


def test_http_result_of_unfinished_job_conflicts():
    """Asking for the result of a job still queued/running is a 409,
    not a hang or a bogus 200."""
    instance = Broker(port=0, http_port=0).start()   # no workers attached
    base = f"http://127.0.0.1:{instance.http_port}"
    try:
        status, reply = _http("POST", base + "/jobs",
                              {"kind": "check", "variant": "secure",
                               "k": 2})
        assert status == 202
        status, body = _http("GET", f"{base}/jobs/{reply['id']}/result")
        assert status == 409
        assert body["status"] in ("queued", "running")
    finally:
        instance.stop()


def test_healthz_reports_degraded_without_workers():
    """/healthz must not claim "ok" when the service cannot make
    progress: zero connected workers means "degraded", with the cause
    spelled out, flipping back to "ok" once a worker registers."""
    instance = Broker(port=0, http_port=0).start()
    base = f"http://127.0.0.1:{instance.http_port}"
    process = None
    try:
        status, health = _http("GET", base + "/healthz")
        assert status == 200          # still 200: probes keep passing
        assert health["status"] == "degraded"
        assert any("no workers" in reason for reason in health["reasons"])
        assert health["poisoned"] == 0
        process = _spawn_worker(instance.address)
        assert _wait_for(lambda: instance.snapshot()["workers"],
                         timeout=30)
        status, health = _http("GET", base + "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["reasons"] == []
    finally:
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=5)
        instance.stop()


def test_bounded_queue_refuses_and_client_backs_off():
    """Past --max-queued the broker refuses TCP submits with a
    retry-after reply and POST /jobs with 503; a RemotePool rides the
    refusal out with backoff and still gets its verdicts."""
    instance = Broker(port=0, http_port=0, max_queued=1).start()
    base = f"http://127.0.0.1:{instance.http_port}"
    filler = None
    probe = None
    client = None
    worker = None
    try:
        obligations = _toy_obligations(2)
        # Fill the queue: one live batch, no workers to drain it.
        filler, _ = dial(parse_address(instance.address), role="client",
                         timeout=5)
        filler.send({
            "type": "submit", "batch_id": "filler", "priority": 0,
            "jobs": [{"seq": 0,
                      "fingerprint": obligations[0].fingerprint(),
                      "obligation": obligation_to_wire(obligations[0])}],
        })
        # Submits are not acked; the queue depth confirms acceptance.
        assert _wait_for(lambda: instance.snapshot()["queued"] >= 1)
        # TCP: a further submit is refused with a retry hint ...
        probe, _ = dial(parse_address(instance.address), role="client",
                        timeout=5)
        probe.send({
            "type": "submit", "batch_id": "probe", "priority": 0,
            "jobs": [{"seq": 0,
                      "fingerprint": obligations[1].fingerprint(),
                      "obligation": obligation_to_wire(obligations[1])}],
        })
        refusal = probe.recv()
        assert refusal["type"] == "busy"
        assert refusal["retry_after"] > 0
        # ... and the job API says 503, with the same hint.
        status, body = _http("POST", base + "/jobs",
                             {"kind": "check", "variant": "secure", "k": 1})
        assert status == 503
        assert "retry_after" in body
        health = _http("GET", base + "/healthz")[1]
        assert health["status"] == "degraded"
        assert any("queue at bound" in r for r in health["reasons"])
        # Capacity returns (the filler batch dies with its connection);
        # a backoff-aware client submits successfully and solves.
        filler.close()
        filler = None
        worker = _spawn_worker(instance.address)
        client = RemotePool(instance.address)
        results = client.solve_ordered(obligations)
        expected = [solve_obligation(ob) for ob in obligations]
        assert [v.status for v in results] == \
            [v.status for v in expected]
    finally:
        for conn in (filler, probe):
            if conn is not None:
                conn.close()
        if client is not None:
            client.close()
        if worker is not None and worker.is_alive():
            worker.terminate()
            worker.join(timeout=5)
        instance.stop()


def test_timeout_budget_yields_timeout_verdict():
    """A wall-budget-bound obligation that cannot finish in time comes
    back as a distinguishable 'timeout' verdict — locally and through
    the wire format."""
    hard = _pigeonhole_obligation(8)
    hard.wall_budget = 0.05
    verdict = solve_obligation(hard)
    assert verdict.status == "timeout"
    # The budget rides the wire (it is dispatch metadata, so the
    # fingerprint — the cache identity — must NOT depend on it).
    wire = obligation_from_wire(
        json.loads(json.dumps(obligation_to_wire(hard))))
    assert wire.wall_budget == 0.05
    assert wire.fingerprint() == hard.fingerprint()
    unbudgeted = ProofObligation(
        name=hard.name, nvars=hard.nvars, cnf=hard.cnf,
        assumptions=hard.assumptions, frozen=hard.frozen)
    assert unbudgeted.fingerprint() == hard.fingerprint()
