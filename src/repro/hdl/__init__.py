"""Mini-HDL: a word-level RTL intermediate representation.

The public surface mirrors what small RTL frameworks offer: expressions
(:mod:`repro.hdl.expr`), circuits (:mod:`repro.hdl.circuit`), memory arrays
(:mod:`repro.hdl.memory`) and structural analyses (:mod:`repro.hdl.analysis`).
"""

from repro.hdl.analysis import (
    circuit_roots,
    circuit_stats,
    iter_nodes,
    node_count,
    reg_fanin,
    sequential_cone,
    sequential_fanin_map,
    topo_order,
)
from repro.hdl.circuit import Circuit
from repro.hdl.expr import (
    Expr,
    Input,
    Reg,
    and_all,
    cat,
    const,
    implies,
    mask,
    mux,
    or_all,
    repl,
    resize,
    select,
    sext,
    truncate,
    zext,
)
from repro.hdl.memory import MemoryArray
from repro.hdl.pretty import format_expr

__all__ = [
    "Circuit",
    "Expr",
    "Input",
    "MemoryArray",
    "Reg",
    "and_all",
    "cat",
    "circuit_roots",
    "circuit_stats",
    "const",
    "format_expr",
    "implies",
    "iter_nodes",
    "mask",
    "mux",
    "node_count",
    "or_all",
    "reg_fanin",
    "repl",
    "resize",
    "select",
    "sequential_cone",
    "sequential_fanin_map",
    "sext",
    "topo_order",
    "truncate",
    "zext",
]
