"""Cross-validation: UPEC counterexamples replay on the real simulator.

The strongest end-to-end check of the formal stack: every alert the SAT
engine produces is a pair of concrete initial states; loading them into
two cycle-accurate simulations of the same RTL must reproduce the
divergence at the reported cycle.  (Registers outside the query's cone of
influence are don't-cares in the witness; they default to 0 in both
instances and cannot affect the diffing registers by construction.)
"""

import pytest

from repro.core import UpecChecker, UpecModel, UpecScenario
from repro.sim import CompiledSimulator
from repro.soc import SocConfig, build_soc
from repro.soc.config import FORMAL_CONFIG_KWARGS
from test_sim import ReferenceSimulator

SOC_ORC = build_soc(SocConfig.orc(**FORMAL_CONFIG_KWARGS))
SOC_MELTDOWN = build_soc(SocConfig.meltdown(**FORMAL_CONFIG_KWARGS))
SOC_SECURE = build_soc(SocConfig.secure(**FORMAL_CONFIG_KWARGS))


def replay(soc, alert):
    """Two instances of the package's simulator initialized from the
    witness's frame 0."""
    init1 = {name: pair[0] for name, pair in alert.witness[0].items()}
    init2 = {name: pair[1] for name, pair in alert.witness[0].items()}
    sim1 = CompiledSimulator(soc.circuit, init_overrides=init1)
    sim2 = CompiledSimulator(soc.circuit, init_overrides=init2)
    for _ in range(alert.frame):
        sim1.step()
        sim2.step()
    return sim1, sim2


@pytest.mark.parametrize("soc", [SOC_ORC, SOC_MELTDOWN, SOC_SECURE],
                         ids=lambda s: s.config.name)
def test_alert_witness_replays_in_simulation(soc):
    model = UpecModel(soc, UpecScenario(secret_in_cache=True))
    result = UpecChecker(model).check(k=2)
    assert result.status == "alert"
    alert = result.alert
    sim1, sim2 = replay(soc, alert)
    for reg, v1, v2 in alert.diffs:
        assert sim1.peek(reg.name) == v1, reg.name
        assert sim2.peek(reg.name) == v2, reg.name
        assert sim1.peek(reg.name) != sim2.peek(reg.name)


def test_witness_initial_states_agree_outside_seed():
    """Instance states at t0 differ only in the secret-carrying words."""
    model = UpecModel(SOC_ORC, UpecScenario(secret_in_cache=True))
    result = UpecChecker(model).check(k=1)
    alert = result.alert
    seed_names = {r.name for r in model.diff_seed}
    for name, (v1, v2) in alert.witness[0].items():
        if name not in seed_names:
            assert v1 == v2, name


def test_witness_satisfies_scenario_assumptions():
    """The witnessed initial state respects the Fig.-4 constraints
    (evaluated by the reference interpreter, which probes expressions)."""
    soc = SOC_ORC
    model = UpecModel(soc, UpecScenario(secret_in_cache=True))
    result = UpecChecker(model).check(k=1)
    alert = result.alert
    for instance in (0, 1):
        init = {n: pair[instance] for n, pair in alert.witness[0].items()}
        sim = ReferenceSimulator(soc.circuit, init_overrides=init)
        assert sim.eval(soc.secret_data_protected()) == 1
        assert sim.eval(soc.no_ongoing_protected_access()) == 1
        assert sim.eval(soc.cache_monitor_ok()) == 1
        assert sim.eval(soc.secret_cached_expr()) == 1


def test_l_alert_witness_shows_architectural_divergence():
    """The methodology's L-alert replays with an architectural diff."""
    from repro.core import UpecMethodology

    result = UpecMethodology(
        SOC_ORC, UpecScenario(secret_in_cache=True)
    ).run(k=3)
    assert result.verdict == "insecure"
    alert = result.l_alert
    sim1, sim2 = replay(SOC_ORC, alert)
    arch = alert.arch_diffs()
    assert arch
    for reg, v1, v2 in arch:
        assert sim1.peek(reg.name) == v1
        assert sim2.peek(reg.name) == v2


def test_fixed_program_witness_replay():
    """Folded scenarios (fixed program, drained pipe) also replay."""
    from repro.soc import isa

    prog = [i.encode() for i in [
        isa.sb(3, 0, 2), isa.lb(4, 0, 1), isa.lb(5, 0, 4),
        isa.nop(), isa.nop(), isa.nop(), isa.nop(), isa.nop(),
    ]]
    scenario = UpecScenario(
        secret_in_cache=True, fixed_program=prog,
        no_inflight_branches=True, pipeline_drained=True, pin_pc=0,
    )
    model = UpecModel(SOC_ORC, scenario)
    result = UpecChecker(model).check(k=6)
    assert result.status == "alert"
    alert = result.alert
    sim1, sim2 = replay(SOC_ORC, alert)
    for reg, v1, v2 in alert.diffs:
        assert sim1.peek(reg.name) == v1
        assert sim2.peek(reg.name) == v2
