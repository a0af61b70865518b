"""The cycle simulator: each circuit compiled to one Python function.

:func:`compile_circuit` emits a function that evaluates the combinational
DAG in topological order with plain local-variable arithmetic and returns
the next state and the outputs; :class:`CompiledSimulator` then commits all
register next-values simultaneously — standard synchronous semantics.
Values are Python ints masked to their width.  ``tests/test_sim.py`` keeps
an interpreting reference simulator, and ``tests/test_sim_compile.py``
checks this module against it and against the unrolled formal model.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import SimulationError
from repro.hdl.analysis import circuit_roots, topo_order
from repro.hdl.circuit import Circuit
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

#: Compiled step: (state vector, inputs) -> (next state vector, outputs)
StepFunction = Callable[
    [List[int], Dict[str, int]], Tuple[List[int], Dict[str, int]]
]


def _emit_node(node: Expr, name_of: Dict[int, str]) -> str:
    op = node.op
    args = [name_of[id(a)] for a in node.args]
    w = mask(node.width)
    if op == OP_NOT:
        return f"{args[0]} ^ {w}"
    if op == OP_AND:
        return f"{args[0]} & {args[1]}"
    if op == OP_OR:
        return f"{args[0]} | {args[1]}"
    if op == OP_XOR:
        return f"{args[0]} ^ {args[1]}"
    if op == OP_ADD:
        return f"({args[0]} + {args[1]}) & {w}"
    if op == OP_SUB:
        return f"({args[0]} - {args[1]}) & {w}"
    if op == OP_EQ:
        return f"1 if {args[0]} == {args[1]} else 0"
    if op == OP_NE:
        return f"1 if {args[0]} != {args[1]} else 0"
    if op == OP_ULT:
        return f"1 if {args[0]} < {args[1]} else 0"
    if op == OP_ULE:
        return f"1 if {args[0]} <= {args[1]} else 0"
    if op == OP_MUX:
        return f"{args[1]} if {args[0]} else {args[2]}"
    if op == OP_CAT:
        parts = []
        shift = 0
        for child, arg in zip(node.args, args):
            parts.append(arg if shift == 0 else f"({arg} << {shift})")
            shift += child.width
        return " | ".join(parts)
    if op == OP_SLICE:
        lo, hi = node.params
        if lo == 0:
            return f"{args[0]} & {mask(hi)}"
        return f"({args[0]} >> {lo}) & {mask(hi - lo)}"
    if op == OP_SHL:
        return f"({args[0]} << {node.params[0]}) & {w}"
    if op == OP_LSHR:
        return f"{args[0]} >> {node.params[0]}"
    if op == OP_REDOR:
        return f"1 if {args[0]} else 0"
    if op == OP_REDAND:
        return f"1 if {args[0]} == {mask(node.args[0].width)} else 0"
    raise SimulationError(f"cannot compile operator {op!r}")


def compile_circuit(circuit: Circuit) -> Tuple[StepFunction, List[Reg]]:
    """Compile a finalized circuit; returns (step function, register
    order).  The state vector is indexed by the returned order."""
    if not circuit.finalized:
        circuit.finalize()
    regs = list(circuit.regs.values())
    reg_index = {id(reg): i for i, reg in enumerate(regs)}
    order = topo_order(circuit_roots(circuit))

    lines = ["def _step(state, inputs):"]
    name_of: Dict[int, str] = {}
    counter = 0
    for node in order:
        key = id(node)
        if key in name_of:
            continue
        if node.op == OP_REG:
            name_of[key] = f"state[{reg_index[key]}]"
            continue
        if node.op == OP_CONST:
            name_of[key] = repr(node.params[0])
            continue
        if node.op == OP_INPUT:
            name = f"v{counter}"
            counter += 1
            lines.append(
                f"    {name} = inputs[{node.params[0]!r}] & {mask(node.width)}"
            )
            name_of[key] = name
            continue
        name = f"v{counter}"
        counter += 1
        lines.append(f"    {name} = {_emit_node(node, name_of)}")
        name_of[key] = name
    next_exprs = ", ".join(name_of[id(reg.next)] for reg in regs)
    lines.append(f"    next_state = [{next_exprs}]")
    outputs = ", ".join(
        f"{name!r}: {name_of[id(expr)]}"
        for name, expr in circuit.outputs.items()
    )
    lines.append(f"    return next_state, {{{outputs}}}")
    source = "\n".join(lines)
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<compiled {circuit.name}>", "exec"), namespace)
    return namespace["_step"], regs  # type: ignore[return-value]


class CompiledSimulator:
    """Simulate a finalized circuit cycle by cycle.

    Registers with symbolic init (``init=None``) start from
    ``init_overrides`` when given, otherwise from 0.  What can be observed
    is what the compiled function computes: registers by name
    (:meth:`peek`, :meth:`snapshot`) and the outputs :meth:`step` returns.
    """

    def __init__(
        self,
        circuit: Circuit,
        init_overrides: Optional[Mapping[str, int]] = None,
    ) -> None:
        self._step, self._regs = _compiled(circuit)
        self.circuit = circuit
        self.cycle = 0
        overrides = dict(init_overrides or {})
        self.state: List[int] = []
        self._index = {reg.name: i for i, reg in enumerate(self._regs)}
        for reg in self._regs:
            if reg.name in overrides:
                self.state.append(overrides.pop(reg.name) & mask(reg.width))
            else:
                self.state.append(reg.init if reg.init is not None else 0)
        if overrides:
            raise SimulationError(
                f"init override for unknown register(s): "
                f"{', '.join(sorted(overrides))}"
            )
        self.outputs: Dict[str, int] = {}

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Advance one clock cycle; returns the outputs sampled this cycle.

        ``inputs`` must name every input of the circuit and nothing else.
        """
        if inputs is None:
            inputs = {}
        if inputs.keys() != self.circuit.inputs.keys():
            for name in self.circuit.inputs:
                if name not in inputs:
                    raise SimulationError(f"missing value for input {name!r}")
            extra = sorted(set(inputs) - set(self.circuit.inputs))
            raise SimulationError(f"unknown input(s): {', '.join(extra)}")
        self.state, self.outputs = self._step(self.state, inputs)
        self.cycle += 1
        return self.outputs

    def run(
        self,
        cycles: int,
        inputs: Optional[Mapping[str, int]] = None,
        until: Optional[Callable[["CompiledSimulator"], bool]] = None,
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

    def peek(self, name: str) -> int:
        """Current value of the register called ``name``."""
        try:
            return self.state[self._index[name]]
        except KeyError:
            raise SimulationError(f"unknown register {name!r}") from None

    def snapshot(self) -> Dict[str, int]:
        """Copy of the full register state, keyed by register name."""
        return {reg.name: v for reg, v in zip(self._regs, self.state)}


#: Each live circuit's compiled step function.  An entry goes with its
#: circuit: no register or compiled function refers back to the circuit.
_CACHE: weakref.WeakKeyDictionary[
    Circuit, Tuple[StepFunction, List[Reg]]
] = weakref.WeakKeyDictionary()


def _compiled(circuit: Circuit) -> Tuple[StepFunction, List[Reg]]:
    entry = _CACHE.get(circuit)
    if entry is None:
        entry = _CACHE[circuit] = compile_circuit(circuit)
    return entry
