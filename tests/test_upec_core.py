"""Tests for the UPEC core: model construction, alerts, checker.

These use the tiny formal geometry.  The expensive unbounded proofs live
in the benchmarks; here every SAT call is bounded by small windows or
conflict limits so the suite stays fast.
"""

import pytest

from repro.errors import UpecError
from repro.core import (
    Alert,
    INSECURE,
    UpecChecker,
    UpecMethodology,
    UpecModel,
    UpecScenario,
    classify,
)
from repro.core.alerts import L_ALERT, P_ALERT
from repro.soc import SocConfig, build_soc
from repro.soc.config import FORMAL_CONFIG_KWARGS

CFG_SECURE = SocConfig.secure(**FORMAL_CONFIG_KWARGS)
CFG_ORC = SocConfig.orc(**FORMAL_CONFIG_KWARGS)
CFG_MELTDOWN = SocConfig.meltdown(**FORMAL_CONFIG_KWARGS)

SOC_SECURE = build_soc(CFG_SECURE)
SOC_ORC = build_soc(CFG_ORC)
SOC_MELTDOWN = build_soc(CFG_MELTDOWN)


# ----------------------------------------------------------------------
# Scenario / model construction
# ----------------------------------------------------------------------
def test_scenario_describe():
    s = UpecScenario(secret_in_cache=True)
    assert "D in cache" in s.describe()
    s2 = UpecScenario(secret_in_cache=False, fixed_program=[0, 1])
    assert "fixed program" in s2.describe()


def test_model_sharing_merges_identical_state():
    """Registers outside the secret seed share AIG variables at t0."""
    model = UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=False))
    soc = SOC_SECURE
    pc_bits1 = model.u1.reg_bits(soc.pc, 0)
    pc_bits2 = model.u2.reg_bits(soc.pc, 0)
    assert pc_bits1 == pc_bits2
    secret1 = model.u1.reg_bits(soc.secret_mem_reg, 0)
    secret2 = model.u2.reg_bits(soc.secret_mem_reg, 0)
    assert secret1 != secret2


def test_model_diff_lit_constant_false_for_shared_cone():
    """The pc pair cannot differ at t0; its diff literal folds to FALSE."""
    model = UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=False))
    assert model.pair_diff_lit(SOC_SECURE.pc, 0) == 0


def test_model_secret_diff_lit_not_constant():
    model = UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=False))
    assert model.pair_diff_lit(SOC_SECURE.secret_mem_reg, 0) != 0


def test_model_cached_scenario_adds_cache_seed():
    model = UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=True))
    assert SOC_SECURE.secret_cache_data_reg in model.diff_seed
    model2 = UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=False))
    assert SOC_SECURE.secret_cache_data_reg not in model2.diff_seed


def test_default_commitment_excludes_memory_and_blackboxed_data():
    model = UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=True))
    commitment = model.default_commitment()
    names = {r.name for r in commitment}
    assert "pc" in names
    assert "resp_buf" in names
    assert not any(n.startswith("dmem[") for n in names)
    assert not any(n.startswith("imem[") for n in names)
    assert not any(n.startswith("dc_data[") for n in names)
    # Without black-boxing the cache data fields are part of soc_state.
    model2 = UpecModel(
        SOC_SECURE,
        UpecScenario(secret_in_cache=True, blackbox_cache_data=False),
    )
    names2 = {r.name for r in model2.default_commitment()}
    assert any(n.startswith("dc_data[") for n in names2)


#: A second build of the same design: equal names, other objects.
SOC_SECURE_B = build_soc(CFG_SECURE)


@pytest.mark.parametrize("cond_eq", [
    pytest.param(lambda: {SOC_SECURE_B.resp_buf: None},
                 id="foreign-unconditional-entry"),
    pytest.param(lambda: {SOC_SECURE_B.resp_buf: ~SOC_SECURE.memwb["valid"]},
                 id="foreign-conditional-entry"),
    pytest.param(lambda: {SOC_SECURE.resp_buf: ~SOC_SECURE_B.memwb["valid"]},
                 id="condition-over-foreign-register"),
])
def test_model_rejects_foreign_registers(cond_eq):
    """The instances share every register outside the difference seed
    by identity, so a seed register or condition from another build of
    the design is rejected by name instead of dropping out of the
    difference or failing on a missing key."""
    with pytest.raises(UpecError, match="'(resp_buf|memwb_valid)'.*not in "
                                        "the SoC"):
        UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=True),
                  cond_eq=cond_eq())


def test_model_rejects_program_too_large():
    with pytest.raises(UpecError):
        UpecModel(
            SOC_SECURE,
            UpecScenario(
                secret_in_cache=False,
                fixed_program=[0] * (CFG_SECURE.imem_words + 1),
            ),
        )


# ----------------------------------------------------------------------
# Alert classification
# ----------------------------------------------------------------------
def test_classify_p_vs_l():
    micro = SOC_SECURE.resp_buf
    arch = SOC_SECURE.pc
    p = classify(2, [(micro, 1, 2)])
    assert p.kind == P_ALERT and p.is_p_alert and not p.is_l_alert
    l = classify(3, [(micro, 1, 2), (arch, 4, 5)])
    assert l.kind == L_ALERT and l.is_l_alert
    assert l.arch_diffs() == [(arch, 4, 5)]
    assert "L-alert" in l.describe()
    assert "pc" in l.diff_reg_names()


def test_alert_witness_render():
    alert = Alert(
        kind=P_ALERT, frame=1,
        diffs=[(SOC_SECURE.resp_buf, 1, 2)],
        witness=[{"resp_buf": (0, 0)}, {"resp_buf": (1, 2)}],
    )
    text = alert.render_witness()
    assert "resp_buf" in text and "differs" in text
    empty = Alert(kind=P_ALERT, frame=0, diffs=[])
    assert "no witness" in empty.render_witness()


# ----------------------------------------------------------------------
# Checking (small windows)
# ----------------------------------------------------------------------
def test_vulnerable_designs_raise_p_alert_quickly():
    for soc in (SOC_ORC, SOC_MELTDOWN):
        model = UpecModel(soc, UpecScenario(secret_in_cache=True))
        result = UpecChecker(model).check(k=2)
        assert result.status == "alert"
        assert result.alert.is_p_alert
        assert result.alert.frame <= 2
        assert "resp_buf" in result.alert.diff_reg_names()


def test_secure_design_first_alert_is_resp_buf_only():
    model = UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=True))
    result = UpecChecker(model).check(k=2)
    assert result.status == "alert"
    assert result.alert.is_p_alert
    assert result.alert.diff_reg_names() == ["resp_buf"]


def test_secret_not_cached_no_alert_small_window():
    model = UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=False))
    result = UpecChecker(model).check(k=1)
    assert result.proved


def test_checker_conflict_limit_inconclusive():
    model = UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=False))
    result = UpecChecker(model).check(k=3, start_frame=2, conflict_limit=5)
    assert result.status in ("inconclusive", "proved")
    # With a tiny conflict limit the hard frame cannot be proved.
    assert result.status == "inconclusive"
    assert "inconclusive" in result.describe()


def test_checker_rejects_empty_window():
    model = UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=False))
    with pytest.raises(UpecError):
        UpecChecker(model).check(k=0)


def test_commitment_restriction_hides_alert():
    """Removing alerting registers from the commitment moves the search to
    the next propagation — the Fig. 5 'remove state bits' step."""
    soc = SOC_ORC
    # Branch-free in-flight state isolates the data-propagation paths.
    model = UpecModel(
        soc, UpecScenario(secret_in_cache=True, no_inflight_branches=True)
    )
    commitment = [
        r for r in model.default_commitment() if r.name != "resp_buf"
    ]
    result = UpecChecker(model).check(k=1, commitment=commitment)
    if result.status == "alert":
        # A different propagation path (the bypass forward) fires next;
        # the removed register never reappears.
        assert "resp_buf" not in result.alert.diff_reg_names()
    # Removing the bypass targets as well proves k=1 clean.
    commitment = [
        r for r in commitment
        if r.name not in ("exmem_result", "exmem_sdata",
                          "idex_rs1_val", "idex_rs2_val")
    ]
    result2 = UpecChecker(model).check(k=1, commitment=commitment)
    assert result2.proved


def test_methodology_insecure_orc():
    meth = UpecMethodology(SOC_ORC, UpecScenario(secret_in_cache=True))
    result = meth.run(k=4)
    assert result.verdict == INSECURE
    assert result.l_alert is not None
    assert any(reg.name == "pc" for reg, _, _ in result.l_alert.diffs)
    assert len(result.p_alerts) >= 1
    assert "resp_buf" in result.p_alert_reg_names
    assert "insecure" in result.describe()


def test_methodology_insecure_meltdown():
    meth = UpecMethodology(SOC_MELTDOWN, UpecScenario(secret_in_cache=True))
    result = meth.run(k=4)
    assert result.verdict == INSECURE


def test_p_alerts_precede_l_alerts():
    """Tab. II shape: the first P-alert needs a shorter window than the
    first L-alert."""
    meth = UpecMethodology(SOC_ORC, UpecScenario(secret_in_cache=True))
    result = meth.run(k=4)
    first_p = min(a.frame for a in result.p_alerts)
    assert first_p <= result.l_alert.frame


def test_model_stats_exposed():
    model = UpecModel(SOC_SECURE, UpecScenario(secret_in_cache=True))
    UpecChecker(model).check(k=1)
    stats = model.stats()
    assert stats["aig_nodes"] > 0
    assert stats["cnf_vars"] > 0
