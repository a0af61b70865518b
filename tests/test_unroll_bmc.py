"""Tests for sequential unrolling and the BMC/IPC engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormalError
from repro.formal import Aig, BmcEngine, SatContext, Unroller
from repro.hdl import Circuit, MemoryArray, const, mux


def build_counter(width=4):
    c = Circuit("counter")
    cnt = c.reg("cnt", width, init=0)
    c.next(cnt, cnt + 1)
    return c.finalize()


def test_unroller_reset_counter_values():
    """Unrolled counter from reset is fully constant-folded."""
    c = build_counter()
    aig = Aig()
    unroller = Unroller(c, aig, init="reset")
    cnt = c.regs["cnt"]
    for t in range(6):
        bits = unroller.reg_bits(cnt, t)
        # All bits must be constants (value t).
        value = sum((bit & 1 == 1) << i for i, bit in enumerate(bits))
        assert all(bit in (0, 1) for bit in bits)
        assert value == t % 16


def test_unroller_symbolic_initial_state():
    c = build_counter()
    aig = Aig()
    unroller = Unroller(c, aig, init="symbolic")
    bits0 = unroller.reg_bits(c.regs["cnt"], 0)
    assert all(aig.is_input(bit) for bit in bits0)


def test_unroller_explicit_init_bits():
    c = build_counter()
    aig = Aig()
    shared = aig.new_inputs(4)
    unroller = Unroller(c, aig, init_bits={c.regs["cnt"]: shared})
    assert unroller.reg_bits(c.regs["cnt"], 0) == shared
    with pytest.raises(FormalError):
        Unroller(c, Aig(), init_bits={c.regs["cnt"]: [0, 1]})


def test_unroller_bad_init_policy():
    with pytest.raises(FormalError):
        Unroller(build_counter(), Aig(), init="zeroes")


def test_unroller_expr_lit_width_check():
    c = build_counter()
    unroller = Unroller(c, Aig())
    with pytest.raises(FormalError):
        unroller.expr_lit(c.regs["cnt"] + 1, 0)


def test_unroller_twin_must_share_circuit_and_aig():
    c = build_counter()
    aig = Aig()
    u1 = Unroller(c, aig)
    with pytest.raises(FormalError):
        Unroller(c, Aig(), twin=u1)
    with pytest.raises(FormalError):
        Unroller(build_counter(), aig, twin=u1)


def test_bmc_counter_bound_holds_and_fails():
    c = build_counter()
    engine = BmcEngine(c, init="reset")
    cnt = c.regs["cnt"]
    # cnt != 5 holds up to cycle 4 ...
    result = engine.check_always(cnt.ne(5), k=4)
    assert result.holds
    assert result.stats["aig_nodes"] > 0
    # ... but a fresh check to cycle 6 finds the violation at cycle 5.
    engine2 = BmcEngine(c, init="reset")
    result2 = engine2.check_always(cnt.ne(5), k=6)
    assert not result2.holds
    assert result2.depth == 5
    assert result2.witness is not None
    assert result2.witness.value("cnt", 5) == 5


def test_bmc_symbolic_initial_state_finds_any_state_violation():
    """With a symbolic initial state, even 'unreachable from reset' states
    are explored — the IPC any-state semantics."""
    c = Circuit("t")
    r = c.reg("r", 4, init=0)
    c.next(r, r)  # holds forever; from reset it is always 0
    c.finalize()
    engine = BmcEngine(c, init="symbolic")
    result = engine.check_always(r.eq(0), k=0)
    assert not result.holds  # symbolic init allows r != 0


def test_bmc_initial_assumptions_constrain_frame0():
    c = Circuit("t")
    r = c.reg("r", 4, init=None)
    c.next(r, r)
    c.finalize()
    engine = BmcEngine(c, init="symbolic")
    result = engine.check_always(r.ult(8), k=3, initial_assumptions=[r.ult(8)])
    assert result.holds


def test_bmc_per_cycle_assumptions():
    c = Circuit("t")
    x = c.input("x", 1)
    r = c.reg("r", 4, init=0)
    c.next(r, mux(x, r + 1, r))
    c.finalize()
    engine = BmcEngine(c, init="reset")
    # If x is never asserted the counter stays at 0.
    result = engine.check_always(r.eq(0), k=5, assumptions=[x.eq(0)])
    assert result.holds


def test_bmc_assertion_width_check():
    c = build_counter()
    engine = BmcEngine(c, init="reset")
    with pytest.raises(FormalError):
        engine.check_always(c.regs["cnt"] + 1, k=1)


def test_bmc_witness_render():
    c = build_counter()
    engine = BmcEngine(c, init="reset")
    result = engine.check_always(c.regs["cnt"].ne(2), k=3)
    assert not result.holds
    text = result.witness.render(["cnt"])
    assert "cnt" in text


def test_bmc_memory_array():
    """A memory write becomes visible exactly one cycle later."""
    c = Circuit("m")
    mem = MemoryArray(c, "mem", depth=4, width=8, init=0)
    addr = c.input("addr", 2)
    data = c.input("data", 8)
    we = c.input("we", 1)
    mem.write(addr, data, we)
    c.finalize()
    engine = BmcEngine(c, init="reset")
    # With writes disabled every word stays 0.
    result = engine.check_always(
        mem[0].eq(0) & mem[1].eq(0) & mem[2].eq(0) & mem[3].eq(0),
        k=3,
        assumptions=[we.eq(0)],
    )
    assert result.holds
    engine2 = BmcEngine(c, init="reset")
    result2 = engine2.check_always(mem[2].eq(0), k=2)
    assert not result2.holds  # a write to word 2 violates it


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=15))
def test_bmc_agrees_with_simulation_on_reachability(target):
    """BMC finds value `target` reachable at exactly cycle `target`."""
    c = build_counter()
    engine = BmcEngine(c, init="reset")
    result = engine.check_always(c.regs["cnt"].ne(target), k=15)
    assert not result.holds
    assert result.depth == target


def test_sat_context_word_value():
    ctx = SatContext()
    bits = ctx.aig.new_inputs(4)
    # Force value 0b1010.
    for i, bit in enumerate(bits):
        ctx.assert_lit(bit if (0b1010 >> i) & 1 else bit ^ 1)
    assert ctx.solve() is True
    assert ctx.word_value(bits) == 0b1010
    stats = ctx.stats()
    assert stats["cnf_vars"] >= 4
