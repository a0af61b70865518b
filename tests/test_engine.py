"""Unit tests for the obligation/scheduler/cache engine layers."""

from array import array

import pytest

from repro.engine import (
    ProofEngine,
    ProofObligation,
    ResultCache,
    SolverPool,
    decode_cnf,
    encode_cnf,
    pack_model,
    solve_obligation,
    unpack_model,
)
from repro.errors import FormalError
from repro.formal.bmc import SatContext


# ----------------------------------------------------------------------
# Model packing
# ----------------------------------------------------------------------
def test_pack_unpack_roundtrip():
    values = [False, True, True, False, True, False, False, True, True]
    packed = pack_model(values)
    assert unpack_model(packed, len(values) - 1) == values


def test_unpack_defaults_false_beyond_data():
    packed = pack_model([False, True])
    out = unpack_model(packed, 20)
    assert out[1] is True
    assert all(v is False for v in out[2:])


# ----------------------------------------------------------------------
# Obligations
# ----------------------------------------------------------------------
def _obligation(clauses, assumptions=(), name="t", conflict_limit=None,
                nvars=None, frozen=()):
    if nvars is None:
        nvars = max(
            (abs(l) for c in clauses for l in c),
            default=0,
        )
        nvars = max([nvars] + [abs(a) for a in assumptions])
    return ProofObligation(
        name=name, nvars=nvars, cnf=encode_cnf(clauses),
        assumptions=list(assumptions), frozen=list(frozen),
        conflict_limit=conflict_limit,
    )


def test_solve_obligation_sat_with_model():
    ob = _obligation([[1, 2], [-1, 2]])
    verdict = solve_obligation(ob)
    assert verdict.sat
    model = verdict.model_list()
    assert model[2] is True  # 2 is forced by resolution


def test_solve_obligation_unsat():
    ob = _obligation([[1], [-1]])
    verdict = solve_obligation(ob)
    assert verdict.unsat
    with pytest.raises(ValueError):
        verdict.model_list()


def test_solve_obligation_respects_assumptions():
    ob = _obligation([[1, 2]], assumptions=[-1])
    verdict = solve_obligation(ob)
    assert verdict.sat
    assert verdict.model_list()[2] is True


def test_solve_obligation_unknown_on_conflict_limit():
    def var(i, j):
        return i * 5 + j + 1

    clauses = [[var(i, j) for j in range(5)] for i in range(6)]
    for j in range(5):
        for i1 in range(6):
            for i2 in range(i1 + 1, 6):
                clauses.append([-var(i1, j), -var(i2, j)])
    ob = _obligation(clauses, conflict_limit=2)
    assert solve_obligation(ob).status == "unknown"


@pytest.mark.parametrize("clauses, assumptions, frozen", [
    ([[1], [1, 5]], [], []),
    ([[1, 0]], [], []),
    ([[1]], [2], []),
    ([[1]], [], [2]),
    ([[1, -1, 5]], [], []),
    ([[1], [-1], [5]], [], []),
], ids=["after-satisfied-literal", "zero-literal", "assumption", "frozen",
        "after-tautology", "after-refutation"])
def test_solve_obligation_rejects_out_of_range_input(clauses, assumptions,
                                                      frozen, tmp_path):
    """Every literal and frozen variable is checked against ``nvars``,
    also where it could not change the answer; a worker reports the
    error to the broker's failure accounting instead of answering.  A
    zero literal would read as a clause boundary of the flat ``cnf``, so
    the codec refuses it before any solve, on the wire as well."""
    from repro.dist.worker import Worker

    wire = {"name": "t", "nvars": 1, "clauses": clauses,
            "assumptions": assumptions, "frozen": frozen}
    failure = Worker("127.0.0.1:1")._solve(wire, ("batch", 0))
    assert isinstance(failure, dict)
    assert failure["exc_type"] == "FormalError"
    assert "unknown variable" in failure["message"]
    if any(0 in clause for clause in clauses):
        with pytest.raises(FormalError, match="unknown variable"):
            encode_cnf(clauses)
        return
    ob = _obligation(clauses, assumptions=assumptions, frozen=frozen,
                     nvars=1)
    cache = ResultCache(str(tmp_path))
    for simp_cache in (None, cache):
        with pytest.raises(FormalError, match="unknown variable"):
            solve_obligation(ob, simp_cache=simp_cache)
    assert cache.lookup_simplified(ob.fingerprint()) is None


def test_unterminated_cnf_is_refused(tmp_path):
    """A ``cnf`` whose last clause lacks its 0 is malformed: decoding it
    would drop that clause (here the unit that makes the formula UNSAT),
    so the solve raises instead, cold and with a warm-start cache."""
    ob = _obligation([[1], [-1]])
    ob.cnf.pop()
    assert ob.cnf == array("i", [1, 0, -1])
    with pytest.raises(FormalError, match="terminator"):
        decode_cnf(ob.cnf)
    cache = ResultCache(str(tmp_path))
    for simp_cache in (None, cache):
        with pytest.raises(FormalError, match="terminator"):
            solve_obligation(ob, simp_cache=simp_cache)
    # Also when a snapshot is filed under its fingerprint.
    cache.store_simplified(ob.fingerprint(),
                           {"nvars": 1, "clauses": [[1]], "stack": []})
    with pytest.raises(FormalError, match="terminator"):
        solve_obligation(ob, simp_cache=cache)


def test_obligation_size_counts_terminators():
    ob = _obligation([[1, -2], [], [2]])
    assert ob.size() == {"nvars": 2, "clauses": 3, "literals": 3}
    assert solve_obligation(ob).unsat     # the empty clause


def test_fingerprint_is_content_addressed():
    a = _obligation([[1, 2], [-1]], assumptions=[2])
    b = _obligation([[1, 2], [-1]], assumptions=[2], name="other")
    c = _obligation([[1, 2], [-2]], assumptions=[2])
    d = _obligation([[1, 2], [-1]], assumptions=[-2])
    assert a.fingerprint() == b.fingerprint()   # names don't matter
    assert a.fingerprint() != c.fingerprint()   # clauses do
    assert a.fingerprint() != d.fingerprint()   # assumptions do
    # ... and the conflict limit does not (a definite verdict is valid
    # under any limit).
    e = _obligation([[1, 2], [-1]], assumptions=[2], conflict_limit=17)
    assert a.fingerprint() == e.fingerprint()


def test_verdict_dict_roundtrip():
    verdict = solve_obligation(_obligation([[1, 2]]))
    from repro.engine.obligation import Verdict

    again = Verdict.from_dict(verdict.to_dict())
    assert again.status == verdict.status
    assert again.model_list() == verdict.model_list()
    assert again.fingerprint == verdict.fingerprint


def test_load_numbers_only_the_mentioned_variables():
    """The search gets one variable per obligation variable a snapshot
    clause or an assumption mentions, numbered in increasing order, and
    the clauses renumbered in their order; the rest is never allocated."""
    from repro.engine.obligation import _load
    from repro.errors import FormalError

    solver, kept = _load(9, [[7, -3], [3, 5]], [-8])
    assert (kept, solver.nvars) == ([3, 5, 7, 8], 4)
    # 3 -> 1, 5 -> 2, 7 -> 3; internal literal 2v is v, 2v + 1 is -v.
    assert solver._clauses == [[2 * 3, 2 * 1 + 1], [2 * 1, 2 * 2]]
    for bad in ([[1, 0]], [[-10]]):
        with pytest.raises(FormalError, match="unknown variable"):
            _load(9, bad, [])


@pytest.mark.parametrize("assumption", [5, -5])
def test_assumed_variable_no_clause_mentions_is_searched(assumption):
    from repro.engine.obligation import _load

    _solver, kept = _load(6, [[2]], [assumption])
    assert kept == [2, 5]
    ob = _obligation([[1, 2], [-1, 2]], assumptions=[assumption], nvars=6)
    model = solve_obligation(ob).model_list()
    assert model[2] is True
    assert model[5] is (assumption > 0)


def test_absent_variable_reads_false_before_reconstruction(tmp_path,
                                                           monkeypatch):
    """The pass eliminates 2 and 3 and the clauses never mention 4, so
    the search holds only the assumed 1.  Before reconstruction the
    model reads 2, 3 and 4 False; the stack then sets 3 True, because
    ``[-1, 3]`` needs it under the assumption.  Cold and warm alike."""
    import repro.engine.obligation as obligation_module

    seen = []
    reconstruct = obligation_module.reconstruct_model

    def spy(values, stack):
        seen.append(list(values))
        return reconstruct(values, stack)

    monkeypatch.setattr(obligation_module, "reconstruct_model", spy)
    ob = _obligation([[-1, 3], [-2, 3]], assumptions=[1], nvars=4)
    cache = ResultCache(str(tmp_path))
    cold = solve_obligation(ob, simp_cache=cache)
    _leave_open(monkeypatch, ob, cache)
    warm = solve_obligation(ob, simp_cache=cache)
    assert cold.stats["simplify_vars_eliminated"] == 2
    assert warm.stats["simplify_warm_starts"] == 1
    assert seen == [[False, True, False, False, False]] * 2
    assert cold.model_list() == warm.model_list() == \
        [False, True, False, True, False]


# ----------------------------------------------------------------------
# SatContext export
# ----------------------------------------------------------------------
# The one configuration left keeps its test id.
@pytest.mark.parametrize((), [pytest.param(id="True")])
def test_context_export_matches_inline_solve():
    ctx = SatContext()
    aig = ctx.aig
    a, b, c = aig.new_inputs(3)
    ctx.assert_lit(aig.or_(a, b))
    target = aig.and_(aig.xor_(a, b), c)
    ob = ctx.export_obligation("xor-sat", assumptions=[target])
    verdict = solve_obligation(ob)
    inline = ctx.solve(assumptions=[target])
    assert verdict.sat and inline is True
    # UNSAT side: a & ~a is constant FALSE at the AIG level already, so
    # use a CNF-level contradiction instead.
    ctx2 = SatContext()
    aig2 = ctx2.aig
    x = aig2.new_input()
    ctx2.assert_lit(x)
    ob2 = ctx2.export_obligation("contradiction", assumptions=[x ^ 1])
    assert solve_obligation(ob2).unsat
    assert ctx2.solve(assumptions=[x ^ 1]) is False


def test_context_adopt_model_feeds_value_reads():
    ctx = SatContext()
    aig = ctx.aig
    a, b = aig.new_inputs(2)
    ctx.assert_lit(aig.and_(a, b))
    ob = ctx.export_obligation("and-sat")
    verdict = solve_obligation(ob)
    assert verdict.sat
    ctx.adopt_model(verdict.model_list())
    assert ctx.value(a) is True and ctx.value(b) is True
    # A fresh in-process solve clears the adopted model.
    assert ctx.solve() is True
    assert ctx.value(aig.and_(a, b)) is True


def test_sliced_export_drops_unrelated_cones():
    """Cones mapped for other queries do not ride along in a sliced
    obligation; adopting a worker verdict completes the dropped gates by
    evaluation, so out-of-slice values stay consistent with the circuit."""
    ctx = SatContext()
    aig = ctx.aig
    a, b, c, d = aig.new_inputs(4)
    ctx.assert_lit(c)
    ctx.assert_lit(d)
    target = aig.and_(a, b)
    other = aig.and_(c, d)
    ctx.mapper.assumption(other)       # unrelated emitted cone
    sliced = ctx.export_obligation("t", assumptions=[target])
    assert sliced.size()["clauses"] < len(ctx.solver.expand())
    assert sliced.remap is not None and sliced.nvars < ctx.solver.nvars
    verdict = solve_obligation(sliced)
    assert verdict.sat
    ctx.adopt_verdict(sliced, verdict)
    assert ctx.value(a) is True and ctx.value(b) is True
    # The dropped AND(c, d) gate reads as the evaluation of its forced
    # fan-in (c = d = True), not as a zero-filled don't-care.
    assert ctx.value(other) is True


def test_slice_fingerprint_ignores_remap_bookkeeping():
    """Contexts that diverge *after* a query's cone was first mapped
    produce obligations with different remaps but identical fingerprints
    (the canonical-walk guarantee the UPEC frame order relies on)."""
    def export(grow):
        ctx = SatContext()
        aig = ctx.aig
        a, b, c = aig.new_inputs(3)
        target = aig.and_(a, b)
        ctx.mapper.assumption(target)          # shared walk prefix
        if grow:
            ctx.mapper.assumption(aig.xor_(b, c))   # divergent growth
        return ctx.export_obligation("q", assumptions=[target])

    plain, grown = export(False), export(True)
    assert plain.fingerprint() == grown.fingerprint()
    assert plain.cnf == grown.cnf
    assert plain.remap != grown.remap
    assert grown.remap is not None and plain.remap is None


# ----------------------------------------------------------------------
# SolverPool
# ----------------------------------------------------------------------
def _batch(n):
    # Alternating SAT/UNSAT instances, each trivially distinguishable.
    obs = []
    for i in range(n):
        if i % 2:
            obs.append(_obligation([[1], [-1]], name=f"unsat{i}"))
        else:
            obs.append(_obligation([[1]], name=f"sat{i}"))
    return obs


def test_pool_ordered_results_jobs1_and_jobs2_agree():
    obs = _batch(6)
    with SolverPool(jobs=1) as seq, SolverPool(jobs=2) as par:
        r1 = seq.solve_ordered(obs)
        r2 = par.solve_ordered(obs)
    assert [v.status for v in r1] == [v.status for v in r2]
    assert [v.fingerprint for v in r1] == [v.fingerprint for v in r2]


def test_pool_early_stop_cancels_siblings():
    obs = _batch(6)  # sat at index 0 stops everything after it
    with SolverPool(jobs=1) as pool:
        results = pool.solve_ordered(obs, early_stop=lambda v: v.sat)
    assert results[0].sat
    assert all(v is None for v in results[1:])
    with SolverPool(jobs=2) as pool:
        results = pool.solve_ordered(obs, early_stop=lambda v: v.sat)
    assert results[0].sat
    assert all(v is None for v in results[1:])


# ----------------------------------------------------------------------
# ResultCache / ProofEngine
# ----------------------------------------------------------------------
def test_cache_store_lookup_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path))
    ob = _obligation([[1, 2], [-1, 2]])
    assert cache.lookup(ob) is None
    verdict = solve_obligation(ob)
    cache.store(ob, verdict)
    hit = cache.lookup(ob)
    assert hit is not None and hit.cached
    assert hit.status == verdict.status
    assert hit.model_list() == verdict.model_list()
    assert len(cache) == 1


def test_cache_skips_unknown_verdicts(tmp_path):
    cache = ResultCache(str(tmp_path))
    ob = _obligation([[1, 2]], conflict_limit=0)
    verdict = solve_obligation(ob)
    # Force an unknown for the store path regardless of solver behaviour.
    verdict.status = "unknown"
    verdict.model = None
    cache.store(ob, verdict)
    assert cache.lookup(ob) is None


def test_cache_cleans_orphaned_tmp_files(tmp_path):
    """Stale *.tmp files from writers that died mid-store are removed on
    init; real verdict files — and *young* temp files, which may be a
    live concurrent worker's in-flight write — survive."""
    import os

    cache = ResultCache(str(tmp_path))
    ob = _obligation([[1, 2]])
    cache.store(ob, solve_obligation(ob))
    stale = tmp_path / "abc123.tmp"
    stale.write_text("partial write")
    old = os.path.getmtime(stale) - 7200
    os.utime(stale, (old, old))
    live = tmp_path / "inflight.tmp"
    live.write_text("concurrent writer")
    cache2 = ResultCache(str(tmp_path))
    assert not stale.exists()
    assert live.exists()
    assert cache2.lookup(ob) is not None
    assert len(cache2) == 1


def _sized_obligations(n):
    """Distinct obligations with near-identical stored-entry sizes."""
    return [_obligation([[i + 1, i + 2], [-(i + 1), i + 2]],
                        name=f"ob{i}", nvars=12)
            for i in range(n)]


def test_cache_lru_eviction_order(tmp_path):
    obs = _sized_obligations(4)
    verdicts = [solve_obligation(ob) for ob in obs]
    cache = ResultCache(str(tmp_path))
    for ob, verdict in zip(obs[:3], verdicts[:3]):
        cache.store(ob, verdict)
    entry_size = max(e["size"] for e in cache._entries.values())
    # Cap at three entries; touch ob0 so ob1 becomes least-recent.
    cache.max_bytes = 3 * entry_size + entry_size // 2
    assert cache.lookup(obs[0]) is not None
    cache.store(obs[3], verdicts[3])
    assert cache.lookup(obs[1]) is None          # evicted: least recent
    assert cache.lookup(obs[0]) is not None      # kept: recently touched
    assert cache.lookup(obs[2]) is not None
    assert cache.lookup(obs[3]) is not None
    assert len(cache) == 3


def test_cache_eviction_survives_reopen(tmp_path):
    """Recency persists through the index file: a new ResultCache over
    the same directory evicts in the order established before."""
    obs = _sized_obligations(4)
    verdicts = [solve_obligation(ob) for ob in obs]
    cache = ResultCache(str(tmp_path))
    for ob, verdict in zip(obs[:2], verdicts[:2]):
        cache.store(ob, verdict)
    cache.flush()   # index writes are batched; persist the recency now
    entry_size = max(e["size"] for e in cache._entries.values())
    reopened = ResultCache(str(tmp_path),
                           max_bytes=2 * entry_size + entry_size // 2)
    assert reopened.lookup(obs[0]) is not None   # ob0 most recent now
    reopened.store(obs[2], verdicts[2])
    assert reopened.lookup(obs[1]) is None
    assert reopened.lookup(obs[0]) is not None


def test_cache_corrupted_index_recovers(tmp_path):
    obs = _sized_obligations(3)
    cache = ResultCache(str(tmp_path))
    for ob in obs[:2]:
        cache.store(ob, solve_obligation(ob))
    (tmp_path / "_index.json").write_text("{not json at all")
    recovered = ResultCache(str(tmp_path))
    # Both verdicts still served; the index was rebuilt from the listing.
    assert recovered.lookup(obs[0]) is not None
    assert recovered.lookup(obs[1]) is not None
    assert set(recovered._entries) == \
        {ob.fingerprint() for ob in obs[:2]}
    # Stores (and pruning) keep working after recovery.
    recovered.store(obs[2], solve_obligation(obs[2]))
    assert len(recovered) == 3
    fresh = ResultCache(str(tmp_path))
    assert set(fresh._entries) == {ob.fingerprint() for ob in obs}


def test_cache_corrupt_verdict_payload_is_quarantined_miss(tmp_path):
    """A truncated or bit-flipped verdict file must read as a miss (and
    be moved to _quarantine/ for post-mortem), never crash a lookup or
    serve garbage as a proof result."""
    obs = _sized_obligations(2)
    cache = ResultCache(str(tmp_path))
    for ob in obs:
        cache.store(ob, solve_obligation(ob))
    path0 = tmp_path / f"{obs[0].fingerprint()}.json"
    path1 = tmp_path / f"{obs[1].fingerprint()}.json"
    # Truncation: half the bytes of a valid entry.
    blob = path0.read_bytes()
    path0.write_bytes(blob[:len(blob) // 2])
    # Bit flip inside the payload: still valid-looking JSON or not,
    # the CRC no longer matches.
    blob = bytearray(path1.read_bytes())
    blob[len(blob) // 2] ^= 0x20
    path1.write_bytes(bytes(blob))
    victim = ResultCache(str(tmp_path))
    assert victim.lookup(obs[0]) is None
    assert victim.lookup(obs[1]) is None
    assert victim.quarantined == 2
    # Quarantined, not deleted — and out of the serving directory.
    qdir = tmp_path / "_quarantine"
    assert sorted(p.name for p in qdir.iterdir()) == sorted(
        [path0.name, path1.name])
    assert not path0.exists() and not path1.exists()
    # The miss is recoverable: a re-store of the same obligation works
    # and subsequent caches serve it again.
    victim.store(obs[0], solve_obligation(obs[0]))
    assert ResultCache(str(tmp_path)).lookup(obs[0]) is not None


def test_cache_corrupt_simplified_payload_is_quarantined_miss(tmp_path):
    """Corrupt warm-start (.simp) entries are a miss too — the solve
    falls back to preprocessing from scratch instead of crashing or
    warm-starting from garbage clauses."""
    ob = _obligation([[1, 2], [-1, 2], [1, -2]], nvars=6)
    cache = ResultCache(str(tmp_path))
    fingerprint = ob.fingerprint()
    cache.store_simplified(fingerprint,
                           {"nvars": 6, "clauses": [[1, 2]]})
    assert cache.lookup_simplified(fingerprint) is not None
    simp_path = tmp_path / f"{fingerprint}.simp.json"
    blob = bytearray(simp_path.read_bytes())
    blob[len(blob) // 3] ^= 0x08
    simp_path.write_bytes(bytes(blob))
    victim = ResultCache(str(tmp_path))
    assert victim.lookup_simplified(fingerprint) is None
    assert victim.quarantined == 1
    assert not simp_path.exists()
    # End to end: a solve with the corrupt-then-quarantined cache still
    # produces the right verdict.
    assert solve_obligation(ob, simp_cache=victim).status == \
        solve_obligation(ob).status


def test_cache_entry_without_crc_is_quarantined_miss(tmp_path):
    """Every entry this cache writes carries a checksum, so one without
    a ``crc32`` field is corrupt like any other: quarantined, and the
    lookup misses."""
    import json as json_mod

    ob = _obligation([[1, 2]])
    cache = ResultCache(str(tmp_path))
    cache.store(ob, solve_obligation(ob))
    path = tmp_path / f"{ob.fingerprint()}.json"
    payload = json_mod.loads(path.read_text())
    assert "crc32" in payload
    del payload["crc32"]
    path.write_text(json_mod.dumps(payload))
    stripped = ResultCache(str(tmp_path))
    assert stripped.lookup(ob) is None
    assert stripped.quarantined == 1
    assert not path.exists()
    assert (tmp_path / "_quarantine" / path.name).exists()


def test_cache_entry_is_its_payload_plus_crc(tmp_path):
    """A verdict entry and a warm-start entry each parse to exactly the
    payload that was stored, plus a ``crc32`` of that payload."""
    import json as json_mod

    from repro.engine.cache import _payload_crc

    ob = _obligation([[1, 2], [-1, 2]], nvars=4)
    verdict = solve_obligation(ob)
    warm = {"nvars": 4, "clauses": [[2]], "stack": [[1, [1, -2]]]}
    cache = ResultCache(str(tmp_path))
    cache.store(ob, verdict)
    cache.store_simplified(ob.fingerprint(), warm)
    stored = {
        f"{ob.fingerprint()}.json": {
            "verdict": verdict.to_dict(), "meta": ob.meta,
            "size": ob.size(),
        },
        f"{ob.fingerprint()}.simp.json": {"simplified": warm},
    }
    for name, payload in stored.items():
        entry = json_mod.loads((tmp_path / name).read_text())
        crc = entry.pop("crc32")
        assert entry == json_mod.loads(json_mod.dumps(payload))
        assert crc == _payload_crc(payload)


def test_cache_index_not_counted_and_not_served(tmp_path):
    cache = ResultCache(str(tmp_path))
    ob = _obligation([[1, 2]])
    cache.store(ob, solve_obligation(ob))
    cache.flush()
    assert (tmp_path / "_index.json").exists()
    assert len(cache) == 1


def test_cache_save_merges_sibling_entries(tmp_path):
    """A process persisting its index must not drop entries a sibling
    stored in the shared directory since this process loaded it."""
    obs = _sized_obligations(2)
    mine = ResultCache(str(tmp_path))
    sibling = ResultCache(str(tmp_path))
    sibling.store(obs[1], solve_obligation(obs[1]))
    sibling.flush()
    mine.store(obs[0], solve_obligation(obs[0]))
    mine.flush()    # last writer: must merge, not clobber, the sibling
    fresh = ResultCache(str(tmp_path))
    assert set(fresh._entries) == {ob.fingerprint() for ob in obs}
    assert fresh._entries[obs[1].fingerprint()]["tick"] > 0


def test_engine_serves_second_run_from_cache(tmp_path):
    obs = _batch(4)
    engine = ProofEngine(jobs=1, cache_dir=str(tmp_path))
    try:
        first = engine.solve_ordered(obs)
        assert engine.cache_hits == 0
        second = engine.solve_ordered(obs)
        assert engine.cache_hits == len(obs)
        assert [v.status for v in first] == [v.status for v in second]
        assert all(v.cached for v in second)
    finally:
        engine.close()


def test_engine_cached_stop_prevents_submission(tmp_path):
    obs = _batch(4)
    engine = ProofEngine(jobs=1, cache_dir=str(tmp_path))
    try:
        engine.solve_ordered(obs[:1])              # warm index 0 (sat)
        results = engine.solve_ordered(obs, early_stop=lambda v: v.sat)
        assert results[0].cached and results[0].sat
        assert all(v is None for v in results[1:])
        # Nothing beyond the cached stop was solved.
        assert engine.cache_misses == 1
    finally:
        engine.close()


def test_engine_stats_aggregate():
    engine = ProofEngine(jobs=1)
    try:
        engine.solve_ordered([_obligation([[1, 2], [-1, 2]])])
        stats = engine.stats()
        assert stats["engine_obligations_solved"] == 1
        assert stats["engine_jobs"] == 1
        assert "engine_cache_hits" not in stats  # no cache configured
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Index flush on destruction / context exit (worker-death regression)
# ----------------------------------------------------------------------
def _index_entries(tmp_path):
    import json
    import os

    path = os.path.join(str(tmp_path), "_index.json")
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)["entries"]


def test_cache_del_flushes_batched_index(tmp_path):
    """A cache dropped without ProofEngine.close (a worker dying
    mid-sweep) must still persist its batched index updates."""
    import gc

    cache = ResultCache(str(tmp_path))
    ob = _obligation([[1, 2], [-1, 2]], name="flush")
    cache.store(ob, solve_obligation(ob))
    assert _index_entries(tmp_path) == {}  # batched, not yet saved
    del cache
    gc.collect()
    entries = _index_entries(tmp_path)
    assert len(entries) == 1 and next(iter(entries.values()))["tick"] == 1


def test_cache_context_exit_flushes_index(tmp_path):
    ob = _obligation([[1, 2], [-1, 2]], name="ctx")
    with ResultCache(str(tmp_path)) as cache:
        cache.store(ob, solve_obligation(ob))
        assert _index_entries(tmp_path) == {}
    assert len(_index_entries(tmp_path)) == 1


# ----------------------------------------------------------------------
# Warm-start: cached post-BVE simplified clause databases
# ----------------------------------------------------------------------
def _bve_friendly_obligation(name="warm", conflict_limit=None):
    """A Tseitin-style chain (every intermediate functionally defined)
    so simplification actually eliminates variables."""
    clauses = []
    prev = 1
    for v in range(2, 8):
        # v <-> not prev (buffer chain BVE collapses)
        clauses.extend([[-v, -prev], [v, prev]])
        prev = v
    clauses.append([prev, 1])
    return _obligation(clauses, assumptions=[1], name=name,
                       conflict_limit=conflict_limit)


def _pigeonhole_obligation(conflict_limit=None, wall_budget=None):
    """Seven pigeons in six holes unless the frozen selector 1 holds.
    The search decides 1 False first, so it answers SAT only after
    refuting the pigeonhole (773 conflicts): past the first
    ``cancel_check`` and deadline poll, and a model to compare."""
    def var(i, j):
        return 2 + 6 * i + j

    clauses = [[var(i, j) for j in range(6)] + [1] for i in range(7)]
    for j in range(6):
        for i1 in range(7):
            for i2 in range(i1 + 1, 7):
                clauses.append([-var(i1, j), -var(i2, j)])
    ob = _obligation(clauses, frozen=[1], name="pigeonhole",
                     conflict_limit=conflict_limit)
    ob.wall_budget = wall_budget
    return ob


def _leave_open(monkeypatch, ob, cache):
    """Solve ``ob`` with a search that gives up at once, as an exhausted
    conflict limit does: the solve stays open, so it stores its
    snapshot, also for a formula too small to reach a conflict."""
    from repro.formal.solver import CdclSolver

    def give_up(self, *args, **kwargs):
        self.stop_reason = "conflicts"
        return None

    with monkeypatch.context() as patch:
        patch.setattr(CdclSolver, "solve", give_up)
        verdict = solve_obligation(ob, simp_cache=cache)
    assert verdict.status == "unknown"
    return verdict


def test_settled_solve_stores_no_snapshot(tmp_path):
    """A cold solve that ends in a definite verdict writes no warm-start
    entry: its caller stores the verdict under the same fingerprint, and
    every lookup reads the verdict first.  Bare and through the engine."""
    import os

    ob = _bve_friendly_obligation()
    bare = ResultCache(str(tmp_path / "bare"))
    assert solve_obligation(ob, simp_cache=bare).status in ("sat", "unsat")
    assert bare.lookup_simplified(ob.fingerprint()) is None
    assert os.listdir(str(tmp_path / "bare")) == []
    with ProofEngine(jobs=1, cache_dir=str(tmp_path / "engine")) as engine:
        engine.solve_ordered([ob, _pigeonhole_obligation()])
    names = os.listdir(str(tmp_path / "engine"))
    assert f"{ob.fingerprint()}.json" in names
    assert [n for n in names if n.endswith(".simp.json")] == []
    assert len(ResultCache(str(tmp_path / "engine"))) == 2


def test_warm_start_roundtrip_is_bit_identical(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))
    ob = _bve_friendly_obligation()
    cold = solve_obligation(ob)
    _leave_open(monkeypatch, ob, cache)
    assert cache.lookup_simplified(ob.fingerprint()) is not None
    warm = solve_obligation(ob, simp_cache=cache)
    assert warm.status == cold.status
    assert warm.model == cold.model
    assert warm.stats.get("simplify_warm_starts") == 1
    # The warm path never ran the simplifier.
    assert "simplify_simplifications" not in warm.stats


def test_warm_start_survives_json_roundtrip_and_reopen(tmp_path,
                                                       monkeypatch):
    ob = _bve_friendly_obligation()
    cold = solve_obligation(ob)
    with ResultCache(str(tmp_path)) as cache:
        _leave_open(monkeypatch, ob, cache)
    with ResultCache(str(tmp_path)) as reopened:
        warm = solve_obligation(ob, simp_cache=reopened)
    assert (warm.status, warm.model) == (cold.status, cold.model)
    assert warm.stats.get("simplify_warm_starts") == 1


def test_warm_entries_share_lru_eviction(tmp_path, monkeypatch):
    """A snapshot is written before its verdict, so when the verdict
    store goes over the byte cap, the older snapshot is evicted first."""
    import os

    ob = _bve_friendly_obligation()
    verdict = solve_obligation(ob)
    probe = ResultCache(str(tmp_path / "probe"))
    probe.store(ob, verdict)
    verdict_bytes = os.path.getsize(
        str(tmp_path / "probe" / f"{ob.fingerprint()}.json"))
    cache = ResultCache(str(tmp_path / "cache"), max_bytes=verdict_bytes)
    _leave_open(monkeypatch, ob, cache)
    assert cache.lookup_simplified(ob.fingerprint()) is not None
    cache.store(ob, verdict)
    assert cache.lookup_simplified(ob.fingerprint()) is None
    assert cache.lookup(ob) is not None


def test_warm_start_serves_unknown_retry_with_higher_limit(tmp_path):
    """The scenario warm-start exists for: a conflict-limited run left
    'unknown' (never cached as a verdict), the retry with a bigger
    budget skips straight past preprocessing."""
    cache = ResultCache(str(tmp_path))
    limited = _pigeonhole_obligation(conflict_limit=1)
    first = solve_obligation(limited, simp_cache=cache)
    assert first.status == "unknown"
    assert cache.lookup_simplified(limited.fingerprint()) is not None
    retry = _pigeonhole_obligation()
    assert retry.fingerprint() == limited.fingerprint()
    warm = solve_obligation(retry, simp_cache=cache)
    cold = solve_obligation(retry)
    assert (warm.status, warm.model) == (cold.status, cold.model)
    assert warm.stats.get("simplify_warm_starts") == 1
    assert first.fingerprint == warm.fingerprint


@pytest.mark.parametrize("stop", ["wall_budget", "cancel_check"])
def test_stopped_solve_leaves_snapshot_for_retry(tmp_path, stop):
    """A solve its wall budget or a cancel stopped is open too: it
    stores its snapshot, and the unbudgeted retry warm-starts from it
    to the answer of a cold unbudgeted solve."""
    from repro.formal.solver import CANCEL_CHECK_EVERY

    cache = ResultCache(str(tmp_path))
    cold = solve_obligation(_pigeonhole_obligation())
    assert cold.sat and cold.stats["conflicts"] > CANCEL_CHECK_EVERY
    if stop == "wall_budget":
        stopped = solve_obligation(
            _pigeonhole_obligation(wall_budget=1e-9), simp_cache=cache)
        assert stopped.status == "timeout"
    else:
        stopped = solve_obligation(_pigeonhole_obligation(),
                                   simp_cache=cache,
                                   cancel_check=lambda: True)
        assert stopped.status == "unknown"
    assert cache.lookup_simplified(stopped.fingerprint) is not None
    retry = solve_obligation(_pigeonhole_obligation(), simp_cache=cache)
    assert retry.stats.get("simplify_warm_starts") == 1
    assert (retry.status, retry.model) == (cold.status, cold.model)


def test_corrupted_warm_entry_falls_back_to_cold_solve(tmp_path):
    """Cache corruption must degrade to a cold solve, never crash."""
    cache = ResultCache(str(tmp_path))
    ob = _bve_friendly_obligation()
    cold = solve_obligation(ob, simp_cache=cache)
    for bad in (
        {"nvars": ob.nvars, "clauses": [["x"]], "stack": []},
        {"nvars": ob.nvars, "clauses": [[ob.nvars + 99]], "stack": []},
        # The load renumbers by the snapshot, so it range-checks every
        # clause literal itself: a zero, and a negative literal one past
        # nvars (a literal table indexed from its end would read it as
        # the variable nvars).
        {"nvars": ob.nvars, "clauses": [[1, 0]], "stack": []},
        {"nvars": ob.nvars, "clauses": [[ob.nvars, -(ob.nvars + 1)]],
         "stack": []},
        {"nvars": "?", "clauses": [], "stack": []},
        {"clauses": []},
        # Corrupted reconstruction stacks: out-of-range witness or
        # clause literals would index past the model list.
        {"nvars": ob.nvars, "clauses": [[1, 2]],
         "stack": [[999999, [-1]]]},
        {"nvars": ob.nvars, "clauses": [[1, 2]],
         "stack": [[1, [0]]]},
        {"nvars": ob.nvars, "clauses": [[1, 2]],
         "stack": [[1, [ob.nvars + 50]]]},
    ):
        cache.store_simplified(ob.fingerprint(), bad)
        verdict = solve_obligation(ob, simp_cache=cache)
        assert verdict.status == cold.status
        assert verdict.model == cold.model
        assert "simplify_warm_starts" not in verdict.stats


def test_pool_workers_share_warm_cache(tmp_path):
    """The multiprocessing pool path warm-starts too: worker processes
    open the engine's cache directory and store the snapshots of the
    solves their conflict limit leaves open."""
    import dataclasses
    import os

    obs = [_pigeonhole_obligation(conflict_limit=1) for _ in range(3)]
    # Distinct contents per obligation so each gets its own fingerprint.
    for i, ob in enumerate(obs):
        ob.name = f"pw{i}"
        ob.cnf.extend([1, 2 + i, 0])
    with ProofEngine(jobs=2, cache_dir=str(tmp_path)) as engine:
        first = engine.solve_ordered(obs)
    assert [v.status for v in first] == ["unknown"] * len(obs)
    simp = [n for n in os.listdir(str(tmp_path))
            if n.endswith(".simp.json")]
    assert len(simp) == len(obs)
    # A later jobs=1 run without the limit warm-starts from what the
    # pool workers stored.
    retries = [dataclasses.replace(ob, conflict_limit=None) for ob in obs]
    with ProofEngine(jobs=1, cache_dir=str(tmp_path)) as engine:
        again = engine.solve_ordered(retries)
        assert engine.cache_hits == 0
    for ob, verdict in zip(retries, again):
        cold = solve_obligation(ob)
        assert (verdict.status, verdict.model) == (cold.status, cold.model)
        assert verdict.stats.get("simplify_warm_starts") == 1
