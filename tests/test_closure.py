"""Tests for the inductive diff-closure proofs (Sec. VI)."""

import pytest

from repro.errors import UpecError
from repro.core import UpecScenario
from repro.core.alerts import Alert, P_ALERT
from repro.core.closure import CondEq, InductiveDiffProof
from repro.soc import SocConfig, build_soc
from repro.soc.config import FORMAL_CONFIG_KWARGS
from repro.soc.isa import OP_LB

SOC = build_soc(SocConfig.secure(**FORMAL_CONFIG_KWARGS))
SCENARIO = UpecScenario(secret_in_cache=True)


def secure_invariant(soc):
    memwb = soc.memwb
    legal_load_in_wb = memwb["valid"] & memwb["op"].eq(OP_LB) & ~memwb["exc"]
    return [
        CondEq(soc.resp_buf, cond=~legal_load_in_wb),
        CondEq(soc.secret_cache_data_reg, cond=None),
    ]


def test_invariant_rejects_architectural_registers():
    with pytest.raises(UpecError):
        InductiveDiffProof(SOC, SCENARIO, [CondEq(SOC.pc, cond=None)])


def test_covers_alert():
    proof = InductiveDiffProof(SOC, SCENARIO, secure_invariant(SOC))
    alert_in = Alert(kind=P_ALERT, frame=1, diffs=[(SOC.resp_buf, 1, 2)])
    assert proof.covers_alert(alert_in)
    alert_out = Alert(
        kind=P_ALERT, frame=1, diffs=[(SOC.exmem["result"], 1, 2)]
    )
    assert not proof.covers_alert(alert_out)
    # The secret's own storage never needs to be in the invariant.
    alert_secret = Alert(
        kind=P_ALERT, frame=1, diffs=[(SOC.secret_mem_reg, 1, 2)]
    )
    assert proof.covers_alert(alert_secret)


#: The registers an unconditional ``resp_buf`` entry lets the difference
#: escape into within one cycle.
ESCAPEES = ["pc", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "ifid_valid",
            "idex_valid", "idex_rs1_val", "idex_rs2_val", "exmem_result",
            "exmem_sdata"]


def unconditional_invariant(soc):
    return [
        CondEq(soc.resp_buf, cond=None),
        CondEq(soc.secret_cache_data_reg, cond=None),
    ]


def test_wrong_invariant_is_rejected_with_counterexample():
    """An unconditional response-buffer entry is NOT inductive: the buffer
    feeds write-back, so an unconstrained difference escapes into the
    register file.  The checker must refute it and name an escapee, from
    one saturating obligation whose queries find every escapee."""
    proof = InductiveDiffProof(SOC, SCENARIO, unconditional_invariant(SOC))
    result = proof.check_step(conflict_limit=200_000)
    assert not result.holds
    assert len(result.obligations) == 97
    assert [ob.name for ob in result.failed()] == \
        [f"{name} must stay equal" for name in ESCAPEES]
    # Each counterexample is a model of the query that found the check:
    # the register it names differs in it.
    for ob in result.failed():
        reg = ob.name.split()[0]
        assert reg in {r.name for r, v1, v2 in ob.counterexample if v1 != v2}
    assert result.stats["engine_obligations_solved"] == 1
    assert "NOT inductive" in result.describe()


def test_invariant_from_another_build_is_rejected():
    """An invariant over a second build of the same design names the
    same registers, but none of them is the SoC's own: the step raises
    instead of checking a model in which they do not differ."""
    other = build_soc(SocConfig.secure(**FORMAL_CONFIG_KWARGS))
    proof = InductiveDiffProof(SOC, SCENARIO, unconditional_invariant(other))
    with pytest.raises(UpecError, match="resp_buf"):
        proof.check_step()


def test_conflict_limited_step_keeps_what_it_found(tmp_path):
    """A conflict limit stops the saturating loop as a whole.  The checks
    it found fail with their counterexamples, the live checks it did not
    reach fail without one, and the checks structural hashing refuted
    hold.  Nothing undecided is cached, but the open obligation's
    snapshot is, and the unlimited rerun starts from it."""
    from repro.engine import ProofEngine

    invariant = unconditional_invariant(SOC)
    with ProofEngine(cache_dir=str(tmp_path)) as engine:
        proof = InductiveDiffProof(SOC, SCENARIO, invariant, engine=engine)
        stopped = proof.check_step(conflict_limit=600)
        _, checks = proof.step_checks()
        assert [ob.name for ob in stopped.obligations] == \
            [name for name, _ in checks]
        found = []
        for ob, (_, target) in zip(stopped.obligations, checks):
            assert ob.holds == (target == 0)
            if ob.counterexample:
                found.append(ob.name.split()[0])
        assert found and set(found) < set(ESCAPEES)
        rerun = InductiveDiffProof(SOC, SCENARIO, invariant, engine=engine) \
            .check_step()
    assert rerun.stats["engine_cache_hits"] == 0
    assert rerun.stats["simplify_warm_starts"] == 1
    assert [ob.name for ob in rerun.failed()] == \
        [f"{name} must stay equal" for name in ESCAPEES]


@pytest.mark.slow
def test_secure_invariant_is_inductive():
    """The real closure proof: one saturating obligation whose first
    query is UNSAT."""
    proof = InductiveDiffProof(SOC, SCENARIO, secure_invariant(SOC))
    result = proof.check_step()
    assert result.holds, result.describe()
    assert "INDUCTIVE" in result.describe()
    # Assumption re-establishment obligations are part of the batch.
    names = [ob.name for ob in result.obligations]
    assert len(names) == 98
    assert any("re-established" in n for n in names)
    assert result.stats["engine_obligations_solved"] == 1
