"""Tests of the cycle simulator, and the interpreter it is checked against.

:class:`ReferenceSimulator` is an interpreter: each cycle it walks the
circuit's combinational DAG in topological order with one dict entry per
node, then commits every register's next value at once.  It was the
package's default simulator until :class:`~repro.sim.CompiledSimulator`
became its only one.  It stays here as the reference: ``test_sim_compile.py``
checks the compiled simulator and the formal stack against it, the
bit-blast and miter tests take their ground truth from it, and the cache
monitor tests probe expressions on a state with its ``eval`` and ``poke``.
The behavioural tests below run each check on both simulators.
"""

from typing import Callable, Dict, List, Mapping, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hdl import Circuit, MemoryArray, cat, const, mux, select, sext, zext
from repro.hdl.analysis import circuit_roots, topo_order
from repro.hdl.expr import (
    OP_ADD,
    OP_AND,
    OP_CAT,
    OP_CONST,
    OP_EQ,
    OP_INPUT,
    OP_LSHR,
    OP_MUX,
    OP_NE,
    OP_NOT,
    OP_OR,
    OP_REDAND,
    OP_REDOR,
    OP_REG,
    OP_SHL,
    OP_SLICE,
    OP_SUB,
    OP_ULE,
    OP_ULT,
    OP_XOR,
    Expr,
    Reg,
    mask,
)
from repro.sim import CompiledSimulator, Trace


def _eval_node(op: str, node: Expr, values: Dict[int, int]) -> int:
    """Evaluate one interior node given its children's values."""
    args = node.args
    w = node.width
    if op == OP_NOT:
        return values[id(args[0])] ^ mask(w)
    if op == OP_AND:
        return values[id(args[0])] & values[id(args[1])]
    if op == OP_OR:
        return values[id(args[0])] | values[id(args[1])]
    if op == OP_XOR:
        return values[id(args[0])] ^ values[id(args[1])]
    if op == OP_ADD:
        return (values[id(args[0])] + values[id(args[1])]) & mask(w)
    if op == OP_SUB:
        return (values[id(args[0])] - values[id(args[1])]) & mask(w)
    if op == OP_EQ:
        return int(values[id(args[0])] == values[id(args[1])])
    if op == OP_NE:
        return int(values[id(args[0])] != values[id(args[1])])
    if op == OP_ULT:
        return int(values[id(args[0])] < values[id(args[1])])
    if op == OP_ULE:
        return int(values[id(args[0])] <= values[id(args[1])])
    if op == OP_MUX:
        return values[id(args[1])] if values[id(args[0])] else values[id(args[2])]
    if op == OP_CAT:
        acc = 0
        shift = 0
        for part in args:
            acc |= values[id(part)] << shift
            shift += part.width
        return acc
    if op == OP_SLICE:
        lo, hi = node.params
        return (values[id(args[0])] >> lo) & mask(hi - lo)
    if op == OP_SHL:
        return (values[id(args[0])] << node.params[0]) & mask(w)
    if op == OP_LSHR:
        return values[id(args[0])] >> node.params[0]
    if op == OP_REDOR:
        return int(values[id(args[0])] != 0)
    if op == OP_REDAND:
        return int(values[id(args[0])] == mask(args[0].width))
    raise SimulationError(f"unknown operator {op!r}")


class ReferenceSimulator:
    """Interpret a finalized circuit cycle by cycle.

    Registers with symbolic init (``init=None``) start from
    ``init_overrides`` when given, otherwise from 0.  Besides registers and
    outputs it can evaluate any expression on the current state
    (:meth:`eval`) and force a register (:meth:`poke`).
    """

    def __init__(
        self,
        circuit: Circuit,
        init_overrides: Optional[Mapping[str, int]] = None,
    ) -> None:
        if not circuit.finalized:
            circuit.finalize()
        self.circuit = circuit
        self.cycle = 0
        self._order: List[Expr] = topo_order(circuit_roots(circuit))
        self.state: Dict[Reg, int] = {}
        overrides = dict(init_overrides or {})
        for name, reg in circuit.regs.items():
            if name in overrides:
                value = overrides.pop(name) & mask(reg.width)
            elif reg.init is not None:
                value = reg.init
            else:
                value = 0
            self.state[reg] = value
        if overrides:
            unknown = ", ".join(sorted(overrides))
            raise SimulationError(f"init override for unknown register(s): {unknown}")
        self._values: Dict[int, int] = {}
        self._last_inputs: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluate(self, inputs: Mapping[str, int]) -> Dict[int, int]:
        values: Dict[int, int] = {}
        circ_inputs = self.circuit.inputs
        for name, node in circ_inputs.items():
            if name not in inputs:
                raise SimulationError(f"missing value for input {name!r}")
            values[id(node)] = inputs[name] & mask(node.width)
        extra = set(inputs) - set(circ_inputs)
        if extra:
            raise SimulationError(f"unknown input(s): {', '.join(sorted(extra))}")
        for node in self._order:
            key = id(node)
            if key in values:
                continue
            op = node.op
            if op == OP_CONST:
                values[key] = node.params[0]
            elif op == OP_REG:
                values[key] = self.state[node]  # type: ignore[index]
            elif op == OP_INPUT:
                raise SimulationError(f"missing value for input {node.params[0]!r}")
            else:
                values[key] = _eval_node(op, node, values)
        return values

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Advance one clock cycle; returns the outputs sampled this cycle."""
        inputs = dict(inputs or {})
        values = self._evaluate(inputs)
        self._values = values
        self._last_inputs = inputs
        outputs = {
            name: values[id(expr)] for name, expr in self.circuit.outputs.items()
        }
        new_state: Dict[Reg, int] = {}
        for reg in self.circuit.regs.values():
            assert reg.next is not None
            new_state[reg] = values[id(reg.next)]
        self.state = new_state
        self.cycle += 1
        return outputs

    def run(
        self,
        cycles: int,
        inputs: Optional[Mapping[str, int]] = None,
        until: Optional[Callable[["ReferenceSimulator"], bool]] = None,
    ) -> int:
        """Run for up to ``cycles`` cycles; stop early when ``until`` holds.

        Returns the number of cycles actually executed.
        """
        executed = 0
        for _ in range(cycles):
            self.step(inputs)
            executed += 1
            if until is not None and until(self):
                break
        return executed

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def peek(self, target: "Expr | str") -> int:
        """Current value of a register (pre-clock) or, for other
        expressions/output names, the value computed in the last step."""
        if isinstance(target, str):
            if target in self.circuit.regs:
                return self.state[self.circuit.regs[target]]
            if target in self.circuit.outputs:
                target = self.circuit.outputs[target]
                if id(target) in self._values:
                    return self._values[id(target)]
            else:
                raise SimulationError(f"unknown signal {target!r}")
        if isinstance(target, Reg):
            return self.state[target]
        if id(target) in self._values:
            return self._values[id(target)]
        return self.eval(target)

    def eval(self, expr: Expr, inputs: Optional[Mapping[str, int]] = None) -> int:
        """Evaluate an arbitrary expression against the *current* state.

        Inputs default to the values supplied in the last ``step``.
        """
        merged = dict(self._last_inputs)
        merged.update(inputs or {})
        values: Dict[int, int] = {}
        for name, node in self.circuit.inputs.items():
            if name in merged:
                values[id(node)] = merged[name] & mask(node.width)
        for node in topo_order([expr]):
            key = id(node)
            if key in values:
                continue
            op = node.op
            if op == OP_CONST:
                values[key] = node.params[0]
            elif op == OP_REG:
                values[key] = self.state[node]  # type: ignore[index]
            elif op == OP_INPUT:
                raise SimulationError(f"missing value for input {node.params[0]!r}")
            else:
                values[key] = _eval_node(op, node, values)
        return values[id(expr)]

    def poke(self, reg: "Reg | str", value: int) -> None:
        """Force a register to a value (testing aid)."""
        if isinstance(reg, str):
            if reg not in self.circuit.regs:
                raise SimulationError(f"unknown register {reg!r}")
            reg = self.circuit.regs[reg]
        self.state[reg] = value & mask(reg.width)

    def snapshot(self) -> Dict[str, int]:
        """Copy of the full register state, keyed by register name."""
        return {reg.name: value for reg, value in self.state.items()}


SIMULATORS = (ReferenceSimulator, CompiledSimulator)


def build_counter():
    c = Circuit("counter")
    en = c.input("en", 1)
    cnt = c.reg("cnt", 8, init=0)
    c.next(cnt, mux(en, cnt + 1, cnt))
    c.output("value", cnt)
    return c.finalize()


def test_counter_counts():
    for simulator in SIMULATORS:
        sim = simulator(build_counter())
        for expected in range(5):
            out = sim.step({"en": 1})
            assert out["value"] == expected
        out = sim.step({"en": 0})
        assert out["value"] == 5
        assert sim.peek("cnt") == 5
        assert sim.cycle == 6
        with pytest.raises(SimulationError):
            sim.peek("bogus")


def test_counter_wraps():
    for simulator in SIMULATORS:
        sim = simulator(build_counter(), init_overrides={"cnt": 255})
        sim.step({"en": 1})
        assert sim.peek("cnt") == 0


def test_missing_input_rejected():
    for simulator in SIMULATORS:
        sim = simulator(build_counter())
        with pytest.raises(SimulationError,
                           match="missing value for input 'en'"):
            sim.step({})
        with pytest.raises(SimulationError,
                           match="missing value for input 'en'"):
            sim.step()


def test_unknown_input_rejected():
    for simulator in SIMULATORS:
        sim = simulator(build_counter())
        with pytest.raises(SimulationError,
                           match=r"unknown input\(s\): bogus, zz$"):
            sim.step({"en": 1, "zz": 0, "bogus": 0})


def test_unknown_override_rejected():
    for simulator in SIMULATORS:
        with pytest.raises(SimulationError):
            simulator(build_counter(), init_overrides={"nope": 1})


def test_symbolic_init_defaults_to_zero():
    c = Circuit("t")
    c.reg("r", 8, init=None)
    c.finalize()
    for simulator in SIMULATORS:
        assert simulator(c).peek("r") == 0
        assert simulator(c, init_overrides={"r": 42}).peek("r") == 42


def test_poke_and_snapshot():
    sim = ReferenceSimulator(build_counter())
    sim.poke("cnt", 99)
    assert sim.snapshot()["cnt"] == 99
    with pytest.raises(SimulationError):
        sim.poke("missing", 0)


def test_eval_with_explicit_inputs():
    c = Circuit("t")
    a = c.input("a", 8)
    r = c.reg("r", 8, init=7)
    c.next(r, r)
    c.finalize()
    sim = ReferenceSimulator(c)
    assert sim.eval(r + a, inputs={"a": 3}) == 10


def test_eval_missing_input():
    c = Circuit("t")
    a = c.input("a", 8)
    c.finalize()
    sim = ReferenceSimulator(c)
    with pytest.raises(SimulationError):
        sim.eval(a + 1)


def test_peek_output_and_unknown():
    sim = ReferenceSimulator(build_counter())
    sim.step({"en": 1})
    assert sim.peek("value") == 0  # sampled before the clock edge
    with pytest.raises(SimulationError):
        sim.peek("bogus")


def test_run_until():
    for simulator in SIMULATORS:
        sim = simulator(build_counter())
        executed = sim.run(100, {"en": 1},
                           until=lambda s: s.peek("cnt") == 10)
        assert executed == 10
        assert sim.peek("cnt") == 10


def test_registers_commit_simultaneously():
    """Swap two registers every cycle — classic simultaneity check."""
    c = Circuit("swap")
    a = c.reg("a", 4, init=1)
    b = c.reg("b", 4, init=2)
    c.next(a, b)
    c.next(b, a)
    c.finalize()
    for simulator in SIMULATORS:
        sim = simulator(c)
        sim.step()
        assert (sim.peek("a"), sim.peek("b")) == (2, 1)
        sim.step()
        assert (sim.peek("a"), sim.peek("b")) == (1, 2)


def step_both(circuit, inputs):
    """The outputs of one step from reset, on each simulator in turn."""
    return [simulator(circuit).step(inputs) for simulator in SIMULATORS]


OPS = {
    "add": lambda x, y, w: (x + y) & ((1 << w) - 1),
    "sub": lambda x, y, w: (x - y) & ((1 << w) - 1),
    "and": lambda x, y, w: x & y,
    "or": lambda x, y, w: x | y,
    "xor": lambda x, y, w: x ^ y,
    "eq": lambda x, y, w: int(x == y),
    "ult": lambda x, y, w: int(x < y),
    "ule": lambda x, y, w: int(x <= y),
    "ne": lambda x, y, w: int(x != y),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(OPS)),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
def test_operator_semantics_match_python(op, x, y):
    c = Circuit("ops")
    a = c.input("a", 8)
    b = c.input("b", 8)
    builders = {
        "add": lambda: a + b,
        "sub": lambda: a - b,
        "and": lambda: a & b,
        "or": lambda: a | b,
        "xor": lambda: a ^ b,
        "eq": lambda: a.eq(b),
        "ult": lambda: a.ult(b),
        "ule": lambda: a.ule(b),
        "ne": lambda: a.ne(b),
    }
    c.output("o", builders[op]())
    c.finalize()
    for out in step_both(c, {"a": x, "b": y}):
        assert out["o"] == OPS[op](x, y, 8)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=255))
def test_slice_cat_roundtrip(x):
    c = Circuit("t")
    a = c.input("a", 8)
    c.output("lo", a[0:4])
    c.output("hi", a[4:8])
    c.output("cat", cat(a[0:4], a[4:8]))
    c.output("bit7", a[7])
    c.finalize()
    for out in step_both(c, {"a": x}):
        assert out["lo"] == x & 0xF
        assert out["hi"] == x >> 4
        assert out["cat"] == x
        assert out["bit7"] == x >> 7


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=15))
def test_extension_semantics(x):
    c = Circuit("t")
    a = c.input("a", 4)
    c.output("z", zext(a, 8))
    c.output("s", sext(a, 8))
    c.finalize()
    expected_sext = x | 0xF0 if x & 8 else x
    for out in step_both(c, {"a": x}):
        assert out["z"] == x
        assert out["s"] == expected_sext


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=7))
def test_shift_semantics(x, amount):
    c = Circuit("t")
    a = c.input("a", 8)
    c.output("l", a << amount)
    c.output("r", a >> amount)
    c.finalize()
    for out in step_both(c, {"a": x}):
        assert out["l"] == (x << amount) & 0xFF
        assert out["r"] == x >> amount


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.lists(
    st.integers(min_value=0, max_value=255), min_size=4, max_size=4))
def test_select_semantics(idx, choices):
    c = Circuit("t")
    i = c.input("i", 2)
    c.output("o", select(i, [const(v, 8) for v in choices]))
    c.finalize()
    for out in step_both(c, {"i": idx}):
        assert out["o"] == choices[idx]


def test_reduction_semantics():
    c = Circuit("t")
    a = c.input("a", 4)
    c.output("any", a.any())
    c.output("all", a.all())
    c.finalize()
    for simulator in SIMULATORS:
        sim = simulator(c)
        assert sim.step({"a": 0}) == {"any": 0, "all": 0}
        assert sim.step({"a": 5}) == {"any": 1, "all": 0}
        assert sim.step({"a": 15}) == {"any": 1, "all": 1}


def test_memory_array_simulation():
    c = Circuit("m")
    addr = c.input("addr", 2)
    data = c.input("data", 8)
    we = c.input("we", 1)
    mem = MemoryArray(c, "mem", depth=4, width=8, init=[10, 20, 30, 40])
    c.output("rdata", mem.read(addr))
    mem.write(addr, data, we)
    c.finalize()
    for simulator in SIMULATORS:
        sim = simulator(c)
        out = sim.step({"addr": 2, "data": 0, "we": 0})
        assert out["rdata"] == 30
        sim.step({"addr": 2, "data": 99, "we": 1})
        out = sim.step({"addr": 2, "data": 0, "we": 0})
        assert out["rdata"] == 99
        # Other words untouched.
        assert sim.step({"addr": 1, "data": 0, "we": 0})["rdata"] == 20


def test_trace_records_and_renders():
    sim = CompiledSimulator(build_counter())
    trace = Trace(["cnt"])
    for _ in range(4):
        trace.record(sim.snapshot())
        sim.step({"en": 1})
    assert [row["cnt"] for row in trace.rows] == [0, 1, 2, 3]
    assert trace.render() == "\n".join([
        "    | 0 1 2 3",
        "-------------",
        "cnt | 0 1 2 3",
    ])


def test_trace_empty_render():
    tr = Trace(["x"])
    assert tr.render() == "(empty trace)"


def test_trace_decimal_base():
    tr = Trace(["x"])
    tr.record({"x": 11})
    assert "11" in tr.render(base="dec")
