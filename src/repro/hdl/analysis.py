"""Structural analyses over expression DAGs and circuits.

Provides iterative (stack-based, recursion-free) traversal, topological
ordering, cone-of-influence computation and simple statistics.  These are
shared by the simulator, the bit-blaster and the static taint baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set

from repro.hdl.circuit import Circuit
from repro.hdl.expr import OP_REG, Expr, Reg


def iter_nodes(roots: Sequence[Expr]) -> Iterator[Expr]:
    """Yield every node reachable from ``roots`` exactly once (post-order).

    Register leaves are yielded but not traversed *through*: a register's
    next-state expression belongs to the sequential boundary, not to the
    combinational cone.
    """
    seen: Set[int] = set()
    for root in roots:
        if id(root) in seen:
            continue
        stack: List[tuple] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if node.op != OP_REG:
                for arg in node.args:
                    if id(arg) not in seen:
                        stack.append((arg, False))


def topo_order(roots: Sequence[Expr]) -> List[Expr]:
    """Topological order (children before parents) of the combinational
    cones of ``roots``."""
    return list(iter_nodes(roots))


def reg_fanin(expr: Expr) -> List[Reg]:
    """Registers appearing in the combinational cone of ``expr``."""
    return [n for n in iter_nodes([expr]) if isinstance(n, Reg)]


def node_count(roots: Sequence[Expr]) -> int:
    """Number of distinct DAG nodes reachable from ``roots``."""
    return sum(1 for _ in iter_nodes(roots))


def circuit_roots(circuit: Circuit) -> List[Expr]:
    """All expression roots of a circuit: next-states and outputs."""
    roots: List[Expr] = []
    for reg in circuit.regs.values():
        if reg.next is not None:
            roots.append(reg.next)
    roots.extend(circuit.outputs.values())
    return roots


def sequential_fanin_map(circuit: Circuit) -> Dict[Reg, List[Reg]]:
    """For each register, the registers its next-state depends on.

    This is the one-cycle dependency relation used by the static taint
    baseline and by cone-of-influence reduction.
    """
    result: Dict[Reg, List[Reg]] = {}
    for reg in circuit.regs.values():
        if reg.next is None:
            result[reg] = [reg]
        else:
            result[reg] = reg_fanin(reg.next)
    return result


def sequential_cone(circuit: Circuit, targets: Iterable[Reg]) -> Set[Reg]:
    """Registers that can influence ``targets`` over any number of cycles."""
    fanin = sequential_fanin_map(circuit)
    cone: Set[Reg] = set(targets)
    frontier = list(cone)
    while frontier:
        reg = frontier.pop()
        for dep in fanin.get(reg, ()):
            if dep not in cone:
                cone.add(dep)
                frontier.append(dep)
    return cone


def circuit_stats(circuit: Circuit) -> Dict[str, int]:
    """Summary statistics used for reporting model sizes."""
    roots = circuit_roots(circuit)
    return {
        "inputs": len(circuit.inputs),
        "registers": len(circuit.regs),
        "state_bits": circuit.state_bits(),
        "logic_state_bits": sum(r.width for r in circuit.logic_regs()),
        "arch_state_bits": sum(r.width for r in circuit.arch_regs()),
        "outputs": len(circuit.outputs),
        "dag_nodes": node_count(roots),
    }
