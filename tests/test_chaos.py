"""Chaos-harness tests: seeded fault injection against the distributed
proof service.

The tentpole here is the *soak differential*: the four-variant UPEC
methodology runs with every byte of broker traffic routed through a
:class:`repro.dist.chaos.ChaosProxy` injecting a seed-determined
schedule of stalls, duplicated frames, payload bit-flips, truncations
and connection resets — plus a worker SIGKILL and one cold broker
restart — and the alert signatures must come out bit-identical to the
sequential ``jobs=1`` oracle.  Chaos may change wall-clock, never
verdicts.

Everything is reproducible from one ``ChaosPlan(seed=...)``: rerunning
a failing seed replays the same fault schedule (the per-connection RNG
streams are keyed by seed, connection index and direction — never by
``hash()`` or wall-clock).
"""

import json
import multiprocessing
import os
import socket
import time

import pytest

from repro.core import UpecMethodology, UpecScenario
from repro.dist import Broker, RemotePool, obligation_to_wire
from repro.dist.chaos import ChaosPlan, ChaosProxy
from repro.dist.protocol import Connection, ProtocolError, frame_message
from repro.engine import ProofEngine
from repro.engine.obligation import (ProofObligation, encode_cnf,
                                     solve_obligation)
from repro.soc import SocConfig, build_soc
from repro.soc.config import FORMAL_CONFIG_KWARGS

# Chaos workers use the spawn context: forked children inherit the
# broker's *listening* socket fd, which keeps the port bound after
# ``broker.stop()`` and breaks the soak's same-port cold restart with
# EADDRINUSE.  Spawned (fork+exec) children start with a clean fd table,
# like real worker processes.
_MP = multiprocessing.get_context("spawn")

VARIANTS = ("secure", "orc", "meltdown", "pmp_bug")
SCENARIO = UpecScenario(secret_in_cache=True)

#: The one seed the soak runs under in CI; any seed must pass — when a
#: rotated nightly seed fails, pin it here while fixing the bug.
SOAK_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20190325"))


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _chaos_worker_main(address, solve_delay=0.0):
    """Subprocess body for workers that must survive an aggressive chaos
    schedule: a generous reconnect budget (every reset burns one), and an
    optional slow-down so kills reliably land mid-obligation."""
    import repro.dist.worker as worker_mod

    if solve_delay:
        pure = solve_obligation

        def delayed(obligation, simp_cache=None, **kwargs):
            time.sleep(solve_delay)
            return pure(obligation, simp_cache=simp_cache, **kwargs)

        worker_mod.solve_obligation = delayed
    worker_mod.run_worker(address, poll_interval=0.01, max_retries=100,
                          retry_delay=0.1, stable_after=0.2)


def _spawn_chaos_worker(address, solve_delay=0.0):
    process = _MP.Process(target=_chaos_worker_main, args=(address,),
                          kwargs={"solve_delay": solve_delay}, daemon=True)
    process.start()
    return process


def _wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


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


def _toy_obligations(count=4):
    obligations = []
    for i in range(count):
        obligations.append(ProofObligation(
            name=f"toy{i}",
            nvars=4 + i,
            cnf=encode_cnf([[1, 2], [-1, 3], [-2, -3], [4 + i]]),
            assumptions=[1] if i % 2 else [-1],
        ))
    return obligations


# ----------------------------------------------------------------------
# ChaosPlan: reproducibility
# ----------------------------------------------------------------------
def test_plan_same_seed_same_schedule():
    """The whole point: one seed fully determines the fault schedule —
    per-frame faults on every connection stream AND the process-level
    fault steps."""
    kwargs = dict(reset_rate=0.1, stall_rate=0.2, truncate_rate=0.1,
                  duplicate_rate=0.2, bitflip_rate=0.2)
    a, b = ChaosPlan(seed=99, **kwargs), ChaosPlan(seed=99, **kwargs)
    for conn_index in range(3):
        for direction in ("up", "down"):
            sa = a.connection_stream(conn_index, direction)
            sb = b.connection_stream(conn_index, direction)
            assert [sa.next_fault(64) for _ in range(50)] == \
                [sb.next_fault(64) for _ in range(50)]
    assert a.process_faults("kill", 3, 20) == b.process_faults("kill", 3, 20)
    # Different seeds, different schedules (overwhelmingly likely with
    # 300 draws; a collision would mean the seed is ignored).
    c = ChaosPlan(seed=100, **kwargs)
    diverged = False
    for i in range(3):
        sa = a.connection_stream(i, "up")
        sc = c.connection_stream(i, "up")
        if [sa.next_fault(64) for _ in range(50)] != \
                [sc.next_fault(64) for _ in range(50)]:
            diverged = True
    assert diverged


def test_plan_streams_are_independent_per_connection():
    """Faults on connection 0 must not shift connection 1's schedule —
    otherwise unrelated traffic would make runs non-reproducible."""
    plan = ChaosPlan(seed=5, bitflip_rate=0.3)
    baseline = ChaosPlan(seed=5, bitflip_rate=0.3).connection_stream(1, "up")
    s1_alone = [baseline.next_fault(64) for _ in range(20)]
    # Draw heavily from stream 0 first; stream 1 must be unaffected.
    s0 = plan.connection_stream(0, "up")
    for _ in range(500):
        s0.next_fault(64)
    s1 = plan.connection_stream(1, "up")
    assert [s1.next_fault(64) for _ in range(20)] == s1_alone


# ----------------------------------------------------------------------
# Frame integrity (the hardening the bitflip fault exercises)
# ----------------------------------------------------------------------
def test_corrupt_frame_rejected_by_checksum():
    """A payload bit-flip must surface as a ProtocolError before the
    frame is ever deserialized — not as a JSON error, and never as a
    silently different message."""
    a, b = socket.socketpair()
    try:
        frame = bytearray(frame_message({"type": "pull", "gossip": True}))
        frame[-3] ^= 0x10
        a.sendall(bytes(frame))
        with pytest.raises(ProtocolError, match="checksum"):
            Connection(b).recv()
    finally:
        a.close()
        b.close()


def test_intact_frames_roundtrip_through_checksum():
    a, b = socket.socketpair()
    try:
        message = {"type": "result", "seq": 3, "verdict": {"status": "sat"}}
        a.sendall(frame_message(message))
        assert Connection(b).recv() == message
    finally:
        a.close()
        b.close()


# ----------------------------------------------------------------------
# Proxy behaviour
# ----------------------------------------------------------------------
def test_zero_rate_proxy_is_transparent():
    """With all rates at zero the proxy is a pure frame relay: a batch
    solved through it matches a direct solve bit for bit."""
    broker = Broker(port=0, heartbeat_timeout=10.0).start()
    proxy = ChaosProxy(("127.0.0.1", 0), ("127.0.0.1", broker.port),
                       plan=ChaosPlan(seed=1)).start()
    worker = _spawn_chaos_worker(proxy.address)
    client = None
    try:
        obligations = _toy_obligations(4)
        client = RemotePool(proxy.address)
        results = client.solve_ordered(obligations)
        expected = [solve_obligation(ob) for ob in obligations]
        assert [v.status for v in results] == \
            [v.status for v in expected]
        assert [v.fingerprint for v in results] == \
            [v.fingerprint for v in expected]
        stats = proxy.stats()
        assert stats["frames"] > 0
        assert all(count == 0 for count in stats["faults"].values())
    finally:
        if client is not None:
            client.close()
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=5)
        proxy.stop()
        broker.stop()


def test_solves_survive_aggressive_frame_faults():
    """Bit-flips, duplicates, stalls and resets on every link: the CRC
    layer turns corruption into recycled connections, the broker
    requeues, the client resubmits — verdicts still exact."""
    broker = Broker(port=0, heartbeat_timeout=10.0).start()
    plan = ChaosPlan(seed=SOAK_SEED, bitflip_rate=0.06,
                     duplicate_rate=0.08, stall_rate=0.05,
                     stall_max_s=0.02, reset_rate=0.02)
    proxy = ChaosProxy(("127.0.0.1", 0), ("127.0.0.1", broker.port),
                       plan=plan).start()
    worker = _spawn_chaos_worker(proxy.address)
    client = None
    try:
        obligations = _toy_obligations(8)
        client = RemotePool(proxy.address)
        results = client.solve_ordered(obligations)
        expected = [solve_obligation(ob) for ob in obligations]
        assert [v.status for v in results] == \
            [v.status for v in expected]
    finally:
        if client is not None:
            client.close()
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=5)
        proxy.stop()
        broker.stop()


# ----------------------------------------------------------------------
# The soak differential (tentpole acceptance)
# ----------------------------------------------------------------------
def test_chaos_soak_methodology_matches_sequential(tmp_path):
    """Four-variant methodology through the chaos proxy — frame faults
    on every connection, a worker SIGKILL, and one cold broker restart,
    all scheduled by a single seed — must produce alert signatures
    bit-identical to the sequential oracle."""
    plan = ChaosPlan(seed=SOAK_SEED, bitflip_rate=0.01,
                     duplicate_rate=0.02, stall_rate=0.03,
                     stall_max_s=0.02, truncate_rate=0.005,
                     reset_rate=0.005)
    # The process-fault schedule comes from the same seed: which variant
    # index gets the worker kill, and which gets the broker restart.
    kill_step = plan.process_faults("worker-kill", 1, len(VARIANTS))[0]
    restart_step = plan.process_faults("broker-restart", 1,
                                       len(VARIANTS))[0]
    broker = Broker(port=0, heartbeat_timeout=3.0,
                    cache_dir=str(tmp_path / "broker")).start()
    broker_port = broker.port
    proxy = ChaosProxy(("127.0.0.1", 0), ("127.0.0.1", broker_port),
                       plan=plan).start()
    workers = [_spawn_chaos_worker(proxy.address, solve_delay=0.01)
               for _ in range(2)]
    try:
        for step, variant in enumerate(VARIANTS):
            if step == kill_step:
                workers[0].kill()
                workers[0].join(timeout=5)
                workers[0] = _spawn_chaos_worker(proxy.address,
                                                 solve_delay=0.01)
            if step == restart_step:
                # Cold restart on the same port: clients and workers
                # redial through the proxy; the durable journals adopt
                # whatever was in flight.
                broker.stop()
                broker = Broker(port=broker_port, heartbeat_timeout=3.0,
                                cache_dir=str(tmp_path / "broker")).start()
            sequential = _run_methodology(variant,
                                          engine=ProofEngine(jobs=1))
            engine = None
            try:
                from repro.dist.remote import RemoteEngine

                engine = RemoteEngine(proxy.address)
                chaotic = _run_methodology(variant, engine=engine)
            finally:
                if engine is not None:
                    engine.close()
            assert _methodology_signature(sequential) == \
                _methodology_signature(chaotic), \
                (variant, plan.seed)
        # The soak must actually have exercised the fault injector.
        stats = proxy.stats()
        assert stats["frames"] > 100
        assert sum(stats["faults"].values()) > 0, \
            "chaos plan injected nothing — rates too low for this seed"
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5)
        proxy.stop()
        broker.stop()


# ----------------------------------------------------------------------
# Poison quarantine across a durable restart (acceptance)
# ----------------------------------------------------------------------
def test_poison_quarantine_survives_durable_restart(tmp_path):
    """An obligation that killed max_attempts distinct workers is
    quarantined; a restarted durable broker rehydrates the quarantine
    and answers resubmissions instantly — no worker needs to die for it
    again."""
    store = str(tmp_path / "store")
    broker = Broker(port=0, heartbeat_timeout=10.0, max_attempts=2,
                    cache_dir=store).start()
    procs = []
    client = None
    try:
        client = RemotePool(broker.address)
        obligations = _toy_obligations(1)
        outcome = {}

        import threading

        def run():
            outcome["results"] = client.solve_ordered(obligations)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        for _ in range(2):
            victim = _spawn_chaos_worker(broker.address, solve_delay=60.0)
            procs.append(victim)
            assert _wait_for(lambda: any(
                w["inflight"] for w in broker.snapshot()["workers"]
            ), timeout=60)
            victim.kill()
            victim.join(timeout=5)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcome["results"][0].status == "poisoned"
        client.close()
        client = None
        assert os.path.exists(os.path.join(store, "_poison.json"))
        broker.stop()
        # Restart from the same durable store: quarantine rehydrated,
        # resubmission answered with no workers attached at all.
        broker = Broker(port=0, heartbeat_timeout=10.0,
                        cache_dir=store).start()
        assert broker.snapshot()["poisoned"] == 1
        client = RemotePool(broker.address)
        revived = client.solve_ordered(obligations)
        assert revived[0].status == "poisoned"
        assert revived[0].failures
    finally:
        if client is not None:
            client.close()
        for process in procs:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        broker.stop()
