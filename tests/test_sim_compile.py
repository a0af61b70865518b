"""The compiled simulator must agree exactly with the reference interpreter.

The random-circuit differential at the bottom adds a third voter: every
circuit is also unrolled one frame into the formal engine (AIG bit-blast
+ Tseitin CNF + CDCL with preprocessing) and the solver's model values
must match both simulators bit for bit — CAT/SLICE and shift edge widths
included.
"""

import gc
import os
import random
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formal import SatContext, Unroller
from repro.hdl import Circuit, MemoryArray, cat, const, mux, select, sext, zext
from repro.hdl.expr import mask
from repro.sim import CompiledSimulator, compile_circuit
from test_sim import ReferenceSimulator

#: ``REPRO_FUZZ_SCALE`` multiplies the differential tests' example and
#: circuit counts (CI's nightly differential leg turns it up).
FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))


def build_mixed_circuit():
    c = Circuit("mixed")
    x = c.input("x", 8)
    a = c.reg("a", 8, init=3)
    b = c.reg("b", 4, init=0)
    mem = MemoryArray(c, "m", depth=4, width=8, init=[1, 2, 3, 4])
    rdata = mem.read(b[0:2])
    mem.write(b[0:2], a, x[0])
    c.next(a, mux(x[7], a + x, (a - 1) ^ rdata))
    c.next(b, cat(a[0], a.ult(x), b[0], a.any()))
    c.output("o1", sext(b, 8) + a)
    c.output("o2", rdata)
    return c.finalize()


@settings(max_examples=30 * FUZZ_SCALE, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=20))
def test_compiled_matches_interpreter(xs):
    circuit = build_mixed_circuit()
    interp = ReferenceSimulator(circuit)
    fast = CompiledSimulator(circuit)
    for x in xs:
        out_i = interp.step({"x": x})
        out_c = fast.step({"x": x})
        assert out_i == out_c
        assert interp.snapshot() == fast.snapshot()


def test_compiled_soc_matches_interpreter():
    from repro.soc import SocConfig, build_soc
    from repro.soc import isa

    soc = build_soc(SocConfig.secure())
    program = [i.encode() for i in [
        isa.li(1, 7), isa.li(2, 3), isa.sb(1, 0, 2), isa.lb(3, 0, 2),
        isa.add(4, 3, 1), isa.bne(4, 0, 2), isa.li(5, 9), isa.jal(0, 0),
    ]]
    overrides = {f"imem[{i}]": w for i, w in enumerate(program)}
    interp = ReferenceSimulator(soc.circuit, init_overrides=dict(overrides))
    fast = CompiledSimulator(soc.circuit, init_overrides=dict(overrides))
    for _ in range(80):
        out_i = interp.step()
        out_c = fast.step()
        assert out_i == out_c
    assert interp.snapshot() == fast.snapshot()


def test_compile_cache_reuses_function():
    circuit = build_mixed_circuit()
    s1 = CompiledSimulator(circuit)
    s2 = CompiledSimulator(circuit)
    assert s1._step is s2._step


def test_compile_cache_frees_a_dropped_circuit():
    """The cache holds its circuits weakly: a simulated circuit that
    nothing else refers to is freed, compiled function and all."""
    circuit = build_mixed_circuit()
    sim = CompiledSimulator(circuit)
    sim.step({"x": 1})
    dropped = weakref.ref(circuit)
    step = weakref.ref(sim._step)
    del circuit, sim
    gc.collect()
    assert dropped() is None
    assert step() is None


def test_compile_function_direct():
    circuit = build_mixed_circuit()
    step, regs = compile_circuit(circuit)
    state = [r.init or 0 for r in regs]
    next_state, outputs = step(state, {"x": 0})
    assert len(next_state) == len(regs)
    assert set(outputs) == {"o1", "o2"}


# ----------------------------------------------------------------------
# Three-way differential: interpreter vs. compiled vs. unroller + solver
# ----------------------------------------------------------------------
def _to_width(expr, width):
    if expr.width == width:
        return expr
    if expr.width > width:
        return expr[0:width]
    return zext(expr, width)


_WIDTHS = [1, 2, 3, 5, 7, 8, 13, 16]


def _random_expr_pool(rng, regs, inputs):
    pool = list(regs) + list(inputs)
    pool.append(const(rng.randrange(1 << 4), 4))
    pool.append(const(0, 1))
    for _ in range(14):
        kind = rng.choice(
            ["bin", "bin", "cmp", "mux", "cat", "slice", "shift",
             "not", "red", "ext"]
        )
        a = rng.choice(pool)
        if kind == "bin":
            b = _to_width(rng.choice(pool), a.width)
            op = rng.choice(["add", "sub", "and", "or", "xor"])
            node = {
                "add": a + b, "sub": a - b, "and": a & b,
                "or": a | b, "xor": a ^ b,
            }[op]
        elif kind == "cmp":
            b = _to_width(rng.choice(pool), a.width)
            op = rng.choice(["eq", "ne", "ult", "ule"])
            node = getattr(a, op)(b)
        elif kind == "mux":
            sel = _to_width(rng.choice(pool), 1)
            b = _to_width(rng.choice(pool), a.width)
            node = mux(sel, a, b)
        elif kind == "cat":
            parts = [a] + [rng.choice(pool)
                           for _ in range(rng.randint(1, 2))]
            if sum(p.width for p in parts) > 24:
                parts = parts[:1] + [_to_width(parts[1], 1)]
            node = cat(*parts)
        elif kind == "slice":
            # Edge widths on purpose: single bit, top bit, full width.
            lo = rng.choice([0, 0, rng.randrange(a.width)])
            hi = rng.choice([lo + 1, a.width,
                             rng.randint(lo + 1, a.width)])
            node = a[lo:hi]
        elif kind == "shift":
            # Amounts straddling the width: 0, 1, w-1, w, w+1.
            amount = rng.choice([0, 1, a.width - 1, a.width, a.width + 1])
            node = (a << amount) if rng.random() < 0.5 else (a >> amount)
        elif kind == "not":
            node = ~a
        elif kind == "red":
            node = a.any() if rng.random() < 0.5 else a.all()
        else:  # ext
            node = sext(a, a.width + rng.randint(1, 4)) \
                if rng.random() < 0.5 \
                else zext(a, a.width + rng.randint(1, 4))
        if node.width <= 24:
            pool.append(node)
    return pool


def _build_random_circuit(rng, idx):
    c = Circuit(f"fuzz{idx}")
    regs = []
    for i in range(rng.randint(2, 3)):
        width = rng.choice(_WIDTHS)
        regs.append(c.reg(f"r{i}", width, init=rng.randrange(1 << width)))
    inputs = [c.input(f"i{i}", rng.choice(_WIDTHS))
              for i in range(rng.randint(1, 2))]
    pool = _random_expr_pool(rng, regs, inputs)
    for reg in regs:
        c.next(reg, _to_width(rng.choice(pool), reg.width))
    n_outputs = rng.randint(1, 3)
    for i in range(n_outputs):
        c.output(f"o{i}", rng.choice(pool))
    c.finalize()
    return c, regs, inputs


def _formal_eval_one_frame(circuit, regs, inputs, input_values):
    """Outputs at frame 0 and register state at frame 1, read back from a
    SAT model of the unrolled circuit with frame-0 state pinned."""
    ctx = SatContext()
    unroller = Unroller(circuit, ctx.aig, init="symbolic")
    for reg in regs:
        bits = unroller.reg_bits(reg, 0)
        for i, lit in enumerate(bits):
            want = (reg.init >> i) & 1
            ctx.assert_lit(lit if want else lit ^ 1)
    for node in inputs:
        bits = unroller.expr_bits(node, 0)
        for i, lit in enumerate(bits):
            want = (input_values[node.name] >> i) & 1
            ctx.assert_lit(lit if want else lit ^ 1)
    out_bits = {
        name: unroller.expr_bits(expr, 0)
        for name, expr in circuit.outputs.items()
    }
    next_bits = {reg.name: unroller.reg_bits(reg, 1) for reg in regs}
    # Map every queried cone into the CNF so the model values are solver
    # facts rather than unmapped-node defaults.
    for bits in list(out_bits.values()) + list(next_bits.values()):
        for lit in bits:
            ctx.mapper.lit_to_solver(lit)
    assert ctx.solve() is True
    outputs = {name: ctx.word_value(bits)
               for name, bits in out_bits.items()}
    state = {name: ctx.word_value(bits)
             for name, bits in next_bits.items()}
    return outputs, state


def test_random_circuits_sim_compile_formal_agree():
    rng = random.Random(1234)
    for idx in range(30 * FUZZ_SCALE):
        circuit, regs, inputs = _build_random_circuit(rng, idx)
        input_values = {
            node.name: rng.randrange(1 << node.width) for node in inputs
        }
        interp = ReferenceSimulator(circuit)
        fast = CompiledSimulator(circuit)
        out_i = interp.step(dict(input_values))
        out_c = fast.step(dict(input_values))
        assert out_i == out_c, f"circuit {idx}: interpreter != compiled"
        assert interp.snapshot() == fast.snapshot()
        out_f, state_f = _formal_eval_one_frame(
            circuit, regs, inputs, input_values
        )
        assert out_f == out_i, f"circuit {idx}: formal outputs differ"
        snapshot = interp.snapshot()
        state_i = {reg.name: snapshot[reg.name] for reg in regs}
        assert state_f == state_i, f"circuit {idx}: formal next state differs"


def test_cat_slice_shift_edge_widths_three_way():
    """Deterministic edge-width coverage: CAT mixing 1-bit and wide
    parts, slices at both ends, shifts at and beyond the width."""
    c = Circuit("edges")
    a = c.reg("a", 13, init=0x1234 & mask(13))
    b = c.reg("b", 1, init=1)
    x = c.input("x", 7)
    wide = cat(b, a, x[0], x)            # 1 + 13 + 1 + 7 = 22 bits
    c.output("cat_wide", wide)
    c.output("slice_lo", wide[0:1])
    c.output("slice_top", wide[21:22])
    c.output("slice_full", wide[0:22])
    c.output("slice_mid", wide[5:19])
    c.output("shl_w", a << 13)           # amount == width -> 0
    c.output("shl_w1", a << 14)          # amount > width -> 0
    c.output("shl_11", a << 12)
    c.output("lshr_w", a >> 13)
    c.output("lshr_12", a >> 12)
    c.output("sext_up", sext(x, 16))
    c.next(a, _to_width(wide, 13))
    c.next(b, wide.any())
    c.finalize()
    regs = [c.regs["a"], c.regs["b"]]
    inputs = [c.inputs["x"]]
    for xv in (0, 1, 0x55, 0x7F):
        interp = ReferenceSimulator(c)
        fast = CompiledSimulator(c)
        out_i = interp.step({"x": xv})
        out_c = fast.step({"x": xv})
        assert out_i == out_c
        out_f, state_f = _formal_eval_one_frame(c, regs, inputs, {"x": xv})
        assert out_f == out_i
        snap = interp.snapshot()
        assert state_f == {name: snap[name] for name in ("a", "b")}
