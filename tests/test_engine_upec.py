"""Engine-mode tests of the UPEC stack: parallel determinism, the
P-alert commitment-refinement loop, the persistent proof cache, and the
scenario sweep API."""

import hashlib
import json

import pytest

from repro.core import (
    InductiveDiffProof,
    UpecChecker,
    UpecMethodology,
    UpecModel,
    UpecScenario,
)
from repro.core.closure import CondEq
from repro.core.upec import UpecCheckResult
from repro.engine import ProofEngine, ScenarioSweep
from repro.formal import BmcEngine, prove_by_induction
from repro.hdl import Circuit
from repro.soc import SocConfig, build_soc
from repro.soc.config import FORMAL_CONFIG_KWARGS

VARIANTS = ("secure", "orc", "meltdown", "pmp_bug")
SOCS = {
    name: build_soc(getattr(SocConfig, name)(**FORMAL_CONFIG_KWARGS))
    for name in VARIANTS
}
SCENARIO = UpecScenario(secret_in_cache=True)


def _methodology_signature(result):
    return (
        result.verdict,
        result.k,
        result.iterations,
        list(result.removed_regs),
        [alert.to_dict() for alert in result.p_alerts],
        result.l_alert.to_dict() if result.l_alert is not None else None,
    )


# ----------------------------------------------------------------------
# Acceptance: parallel == sequential, bit for bit, on all variants
# ----------------------------------------------------------------------
def test_methodology_parallel_matches_sequential_all_variants():
    with ProofEngine(jobs=1) as sequential, \
            ProofEngine(jobs=2) as parallel:
        for name in VARIANTS:
            soc = SOCS[name]
            seq = UpecMethodology(soc, SCENARIO, engine=sequential) \
                .run(k=2)
            par = UpecMethodology(soc, SCENARIO, engine=parallel).run(k=2)
            assert _methodology_signature(seq) == \
                _methodology_signature(par), name


def test_checker_parallel_matches_sequential_alert():
    seq_model = UpecModel(SOCS["orc"], SCENARIO)
    par_model = UpecModel(SOCS["orc"], SCENARIO)
    with ProofEngine(jobs=1) as sequential, \
            ProofEngine(jobs=2) as parallel:
        seq = UpecChecker(seq_model, engine=sequential).check(k=2)
        par = UpecChecker(par_model, engine=parallel).check(k=2)
    assert seq.status == par.status == "alert"
    assert seq.k == par.k
    assert seq.checked_frames == par.checked_frames
    assert seq.alert.to_dict() == par.alert.to_dict()


def test_engine_verdicts_match_legacy_inline_path():
    """The obligation path may find different counterexample *models*
    than the incremental in-context solver, but verdicts must agree.
    All four variants, with the slice counters, are checked by
    ``test_slice_differential``."""
    with ProofEngine(jobs=1) as engine:
        for name in ("secure", "orc"):
            soc = SOCS[name]
            legacy = UpecMethodology(soc, SCENARIO, engine=None).run(k=2)
            sliced = UpecMethodology(soc, SCENARIO, engine=engine).run(k=2)
            assert legacy.verdict == sliced.verdict, name


# ----------------------------------------------------------------------
# The Fig.-5 commitment-refinement loop
# ----------------------------------------------------------------------
def test_refinement_loop_removes_alert_regs_and_resumes():
    """P-alert handling: every P-alert's registers leave the commitment,
    the re-check resumes at the alert frame, and removed registers never
    reappear in later alerts (the 'orc' variant exercises several
    refinement iterations before its L-alert)."""
    calls = []
    original = UpecChecker.check

    def spy(self, k, commitment=None, start_frame=1, **kwargs):
        calls.append((start_frame,
                      sorted(r.name for r in commitment)
                      if commitment is not None else None))
        return original(self, k, commitment=commitment,
                        start_frame=start_frame, **kwargs)

    UpecChecker.check = spy
    try:
        result = UpecMethodology(SOCS["orc"], SCENARIO, engine=None) \
            .run(k=4)
    finally:
        UpecChecker.check = original

    assert result.verdict == "insecure"
    assert result.iterations >= 2
    assert result.iterations == len(calls)
    assert len(result.p_alerts) == result.iterations - 1
    # Every removed register came from a P-alert, with no duplicates.
    assert len(result.removed_regs) == len(set(result.removed_regs))
    p_alert_regs = {name for alert in result.p_alerts
                    for name in alert.diff_reg_names()}
    assert set(result.removed_regs) == p_alert_regs
    # The commitment shrinks monotonically across iterations ...
    commitments = [set(c) for _, c in calls]
    for before, after in zip(commitments, commitments[1:]):
        assert after < before
    # ... by exactly the alert registers of the preceding iteration.
    for i, alert in enumerate(result.p_alerts):
        assert commitments[i] - commitments[i + 1] == \
            set(alert.diff_reg_names())
    # start_frame resumption: each re-check resumes at the alert frame.
    start_frames = [frame for frame, _ in calls]
    assert start_frames[0] == 1
    for i, alert in enumerate(result.p_alerts):
        assert start_frames[i + 1] == alert.frame
    assert start_frames == sorted(start_frames)
    # Removed registers never reappear in later alerts.
    seen = set()
    for alert in result.p_alerts + [result.l_alert]:
        assert seen.isdisjoint(alert.diff_reg_names())
        seen.update(alert.diff_reg_names())


def test_obligation_stream_is_pinned():
    """The exact obligation stream of one methodology run: every
    exported obligation's name, fingerprint and slice remap in order,
    the L-alert with its witness, and the model's final AIG and CNF
    sizes.  A change to the model layer (unrolling, bit-blasting, CNF
    mapping, slicing, witness reads) that keeps every node number,
    variable, clause and model value keeps this digest; one that moves
    any of them has to say so."""
    exported = []

    class RecordingEngine(ProofEngine):
        def solve_ordered(self, obligations, early_stop=None):
            exported.extend(obligations)
            return super().solve_ordered(obligations, early_stop=early_stop)

    with RecordingEngine(jobs=1) as engine:
        result = UpecMethodology(SOCS["orc"], SCENARIO, engine=engine) \
            .run(k=2)
    assert result.verdict == "insecure"
    digest = hashlib.sha256()
    for obligation in exported:
        digest.update(json.dumps(
            [obligation.name, obligation.fingerprint(), obligation.remap]
        ).encode())
    digest.update(json.dumps(result.l_alert.to_dict(),
                             sort_keys=True).encode())
    digest.update(json.dumps(
        [result.stats[key]
         for key in ("aig_nodes", "cnf_vars", "cnf_clauses_emitted")]
    ).encode())
    assert (len(exported), digest.hexdigest()[:16]) == \
        (3, "dc20a66427be94cc")


def test_engine_search_counts_are_pinned():
    """The search counts of the same run's three verdicts: status,
    conflicts, restarts, decisions and propagations.  The search
    numbers only the variables each snapshot mentions, so no decision
    is spent on a variable preprocessing removed.  A change to the
    engine's load or search that moves any count has to say so."""
    verdicts = []

    class RecordingEngine(ProofEngine):
        def solve_ordered(self, obligations, early_stop=None):
            results = super().solve_ordered(obligations,
                                            early_stop=early_stop)
            verdicts.extend(results)
            return results

    with RecordingEngine(jobs=1) as engine:
        UpecMethodology(SOCS["orc"], SCENARIO, engine=engine).run(k=2)
    counts = [[verdict.status] + [verdict.stats[key] for key in
                                  ("conflicts", "restarts", "decisions",
                                   "propagations")]
              for verdict in verdicts]
    assert counts == [
        ["sat", 114, 1, 1221, 6493],
        ["sat", 101, 1, 856, 4142],
        ["sat", 130, 1, 1153, 6796],
    ]


@pytest.mark.parametrize("variant", ["orc", "secure"])
def test_incremental_methodology_is_pinned(variant):
    """The exact outcome of one flagless (incremental, in-context
    solver) methodology run: its signature with every alert's witness
    and its full stats dict.  ``orc`` maps new cones between its six
    solves and ``secure`` runs an 8,363-conflict UNSAT search, so a
    change to how the context feeds or builds its solver that alters
    any answer, model or counter moves this digest."""
    result = UpecMethodology(SOCS[variant], SCENARIO, engine=None).run(k=2)
    digest = hashlib.sha256(json.dumps(
        [_methodology_signature(result), sorted(result.stats.items())]
    ).encode()).hexdigest()[:16]
    expected = {
        "orc": (6, "47335fc7bd9b184a"),
        "secure": (2, "5625a6a5fa7a2a50"),
    }
    assert (result.iterations, digest) == expected[variant]


# ----------------------------------------------------------------------
# Persistent proof cache
# ----------------------------------------------------------------------
def test_methodology_cache_hits_on_second_run(tmp_path):
    soc = SOCS["secure"]
    runs = []
    for _ in range(2):
        with ProofEngine(cache_dir=str(tmp_path)) as engine:
            runs.append(UpecMethodology(soc, SCENARIO, engine=engine)
                        .run(k=2))
    first, second = runs
    assert first.stats["engine_cache_hits"] == 0
    assert first.stats["engine_cache_misses"] > 0
    assert second.stats["engine_cache_hits"] > 0
    assert second.stats["engine_cache_misses"] == 0
    assert second.verdict == first.verdict
    assert [a.to_dict() for a in second.p_alerts] == \
        [a.to_dict() for a in first.p_alerts]
    # All solving skipped: the second run must be dramatically faster.
    assert second.runtime_s < first.runtime_s


# ----------------------------------------------------------------------
# Closure proofs on the engine
# ----------------------------------------------------------------------
def test_closure_step_parallel_matches_legacy_verdicts():
    """The per-register closure obligations are independent; running
    them on the worker pool must refute the same obligations as the
    legacy in-context batch (which counterexample is found may differ,
    but holds/fails per obligation is formula-determined)."""
    soc = SOCS["secure"]
    bad = [
        CondEq(soc.resp_buf, cond=None),
        CondEq(soc.secret_cache_data_reg, cond=None),
    ]
    legacy = InductiveDiffProof(soc, SCENARIO, bad, engine=None) \
        .check_step(conflict_limit=200_000)
    parallel = ProofEngine(jobs=2)
    try:
        par = InductiveDiffProof(soc, SCENARIO, bad, engine=parallel) \
            .check_step(conflict_limit=200_000)
    finally:
        parallel.close()
    assert not legacy.holds and not par.holds
    assert [(ob.name, ob.holds) for ob in legacy.obligations] == \
        [(ob.name, ob.holds) for ob in par.obligations]
    # Every refuted obligation still carries a concrete escapee.
    assert all(ob.counterexample for ob in par.failed())


# ----------------------------------------------------------------------
# BMC / induction on the engine
# ----------------------------------------------------------------------
def _counter_circuit():
    c = Circuit("counter")
    cnt = c.reg("cnt", 8, init=0)
    c.next(cnt, cnt + 1)
    c.finalize()
    return c, cnt


def test_bmc_engine_mode_matches_inline():
    c, cnt = _counter_circuit()
    inline = BmcEngine(c, init="reset").check_always(cnt.ne(5), k=8)
    engine = ProofEngine(jobs=2)
    try:
        parallel = BmcEngine(c, init="reset", engine=engine) \
            .check_always(cnt.ne(5), k=8)
    finally:
        engine.close()
    assert not inline.holds and not parallel.holds
    assert inline.depth == parallel.depth == 5
    assert parallel.witness.value("cnt", 5) == 5
    # Proved side.
    c2, cnt2 = _counter_circuit()
    engine2 = ProofEngine(jobs=2)
    try:
        proved = BmcEngine(c2, init="reset", engine=engine2) \
            .check_always(cnt2.ne(200), k=6)
    finally:
        engine2.close()
    assert proved.holds and proved.depth == 6


def test_induction_engine_mode(tmp_path):
    c = Circuit("latch")
    flag = c.reg("flag", 1, init=1)
    c.next(flag, flag)
    c.finalize()
    engine = ProofEngine(jobs=1, cache_dir=str(tmp_path))
    try:
        first = prove_by_induction(c, flag.eq(1), k=1, engine=engine)
        assert first.proved
        hits_before = engine.cache_hits
        again = prove_by_induction(c, flag.eq(1), k=1, engine=engine)
        assert again.proved
        assert engine.cache_hits > hits_before
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Scenario sweeps
# ----------------------------------------------------------------------
def test_sweep_grid_runs_and_matches_direct_methodology(tmp_path):
    sweep = ScenarioSweep.table1_grid(
        variants=("secure", "orc"), k=1, uncached=False,
        cache_dir=str(tmp_path / "cache"),
    )
    seq = sweep.run(jobs=1)
    assert [out.cell.label for out in seq.outcomes] == \
        ["secure/cached/k=1", "orc/cached/k=1"]
    verdicts = seq.verdicts()
    direct = {
        name: UpecMethodology(SOCS[name], SCENARIO, engine=None)
        .run(k=1).verdict
        for name in ("secure", "orc")
    }
    assert {k.split("/")[0]: v for k, v in verdicts.items()} == direct
    # Parallel run of the same grid: identical verdicts, served from the
    # shared cache (every obligation was already proved).
    par = sweep.run(jobs=2)
    assert par.verdicts() == verdicts
    for out in par.outcomes:
        assert out.result["stats"]["engine_cache_hits"] > 0
        assert out.result["stats"]["engine_cache_misses"] == 0
    data = par.to_dict()
    assert data["jobs"] == 2 and len(data["cells"]) == 2
    assert len(seq.rows()) == 2


def test_sweep_worker_memoizes_soc_per_variant():
    from repro.engine import sweep as sweep_mod

    sweep_mod._SOC_CACHE.clear()
    first = sweep_mod._soc_for("orc")
    assert sweep_mod._soc_for("orc") is first
    assert sweep_mod._soc_for("secure") is not first


# ----------------------------------------------------------------------
# Serialization satellites
# ----------------------------------------------------------------------
def test_check_result_to_dict_roundtrips_through_json():
    import json

    model = UpecModel(SOCS["orc"], SCENARIO)
    result = UpecChecker(model, engine=None).check(k=1)
    data = json.loads(json.dumps(result.to_dict()))
    assert data["status"] == "alert"
    assert data["alert"]["kind"] == "P"
    assert data["alert"]["diffs"]
    assert all(isinstance(d["reg"], str) for d in data["alert"]["diffs"])
    assert isinstance(data["alert"]["witness"], list)


def test_proved_result_to_dict_has_no_alert():
    result = UpecCheckResult(status="proved", k=3, checked_frames=3)
    assert result.to_dict()["alert"] is None


# ----------------------------------------------------------------------
# Tab.-II sweep cells: window length for alert
# ----------------------------------------------------------------------
def test_table2_grid_reports_first_alert_window():
    from repro.engine import CELL_ALERT_WINDOW

    sweep = ScenarioSweep.table2_grid(variants=("secure", "orc"), max_k=2)
    assert all(cell.cell_type == CELL_ALERT_WINDOW for cell in sweep.cells)
    result = sweep.run(jobs=1)
    assert [out.cell.label for out in result.outcomes] == \
        ["secure/cached/window<=2", "orc/cached/window<=2"]
    for out in result.outcomes:
        # With the full commitment every variant alerts within the
        # window (P-alerts included — the refinement loop has not
        # removed anything); the measurement is *where*.
        assert out.result["verdict"] == "alert"
        assert out.result["alert_frame"] == out.result["k"]
        assert out.result["alert"] is not None
    # The oracle: the checker's own find_first_alert_window.
    direct = UpecChecker(
        UpecModel(SOCS["orc"], SCENARIO), engine=None
    ).find_first_alert_window(max_k=2)
    orc = result.outcomes[1].result
    assert orc["alert_frame"] == direct.k
    assert orc["alert"] == direct.alert.to_dict()
    # Rows render without methodology-only fields.
    rows = result.rows()
    assert rows[1][2] == f"frame {direct.k}"
    data = result.to_dict()
    assert data["cells"][0]["cell_type"] == "find_first_alert_window"


def test_table2_cells_run_on_the_engine_path(tmp_path):
    sweep = ScenarioSweep.table2_grid(
        variants=("orc",), max_k=2, cache_dir=str(tmp_path / "cache"),
    )
    cold = sweep.run(jobs=1)
    warm = sweep.run(jobs=1)
    assert warm.verdicts() == cold.verdicts()
    out = warm.outcomes[0].result
    assert out["stats"]["engine_cache_hits"] > 0
    assert out["stats"]["engine_cache_misses"] == 0
    assert out["alert"] == cold.outcomes[0].result["alert"]
