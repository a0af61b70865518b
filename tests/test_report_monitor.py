"""Tests for reporting helpers and the cache monitor."""

from repro.core import UpecModel, UpecScenario, cache_protocol_ok
from repro.core.report import format_kv_block, format_table, paper_vs_measured
from repro.soc import SocConfig, build_soc
from repro.soc import isa
from repro.soc.config import FORMAL_CONFIG_KWARGS
from test_sim import ReferenceSimulator

SOC = build_soc(SocConfig.secure(**FORMAL_CONFIG_KWARGS))


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_format_table():
    text = format_table(["a", "bb"], [[1, 22], [333, 4]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "bb" in lines[0]
    assert "333" in lines[2] or "333" in lines[3]


def test_format_kv_block():
    text = format_kv_block("Title", {"key": 1, "longer_key": "v"})
    assert "Title" in text
    assert "longer_key" in text


def test_paper_vs_measured():
    text = paper_vs_measured(
        "T", [{"metric": "m", "paper": "1", "measured": "2"}]
    )
    assert "metric" in text and "T" in text


# ----------------------------------------------------------------------
# Cache protocol monitor (Constraint 2)
# ----------------------------------------------------------------------
def soc_reference_sim(soc, program):
    """``program`` loaded into the SoC as ``SocSim`` loads it (imem
    overrides), on the reference interpreter, which can evaluate and poke."""
    overrides = {f"imem[{i}]": word for i, word in enumerate(program)}
    return ReferenceSimulator(soc.circuit, init_overrides=overrides)


def test_monitor_holds_in_simulation():
    """Every reachable state satisfies the monitor (it only excludes
    unreachable controller states)."""
    program = [i.encode() for i in [
        isa.li(1, 9), isa.li(2, 3), isa.sb(1, 0, 2), isa.lb(3, 0, 2),
        isa.lb(4, 0, 1), isa.jal(0, 0),
    ]]
    sim = soc_reference_sim(SOC, program)
    ok_expr = cache_protocol_ok(SOC)
    for _ in range(60):
        assert sim.eval(ok_expr) == 1
        sim.step()


def test_monitor_rejects_unreachable_counter_state():
    sim = soc_reference_sim(SOC, [isa.jal(0, 0).encode()])
    ok_expr = cache_protocol_ok(SOC)
    # Largest representable counter value exceeds the architected maximum.
    ctr_width = SOC.cache.wpend_ctr.width
    unreachable = (1 << ctr_width) - 1
    assert unreachable > SOC.config.write_pending_cycles - 1
    sim.poke("dc_wpend_ctr", unreachable)
    sim.poke("dc_wpend_v", 1)
    assert sim.eval(ok_expr) == 0


def test_monitor_rejects_idle_countdown():
    sim = soc_reference_sim(SOC, [isa.jal(0, 0).encode()])
    ok_expr = cache_protocol_ok(SOC)
    sim.poke("dc_refilling", 0)
    sim.poke("dc_rf_ctr", 1)
    assert sim.eval(ok_expr) == 0


def test_constraint_expressions_hold_in_simulation():
    """Constraints 1 and 3 hold along a legal user-mode run."""
    from repro.soc.programs import build_image

    soc_big = build_soc(SocConfig.secure())  # default imem fits the image
    user = [isa.li(3, 2), isa.lb(4, 0, 3), isa.jal(0, 0)]
    # prime_secret=False: the boot-time machine-mode priming load is
    # exactly the kind of kernel access Constraint 3 excludes.
    image = build_image(soc_big.config, user, prime_secret=False)
    sim = soc_reference_sim(soc_big, image.words)
    c1 = soc_big.no_ongoing_protected_access()
    c3 = soc_big.secure_system_software()
    protected = soc_big.secret_data_protected()
    saw_protected = False
    for _ in range(80):
        assert sim.eval(c1) == 1
        assert sim.eval(c3) == 1
        if sim.eval(protected):
            saw_protected = True
        sim.step()
    assert saw_protected  # boot establishes the protection invariant

