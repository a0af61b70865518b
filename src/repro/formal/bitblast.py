"""Bit-blasting: word-level expressions to AIG literal vectors.

A word of width ``w`` becomes a list of ``w`` AIG literals, LSB first.
Arithmetic uses ripple-carry structures; comparisons use borrow chains.
The blaster is purely combinational — registers and inputs are *leaves*
whose literal vectors are supplied by the environment (the unroller).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FormalError
from repro.formal.aig import Aig
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
)

Bits = List[int]


def const_bits(aig: Aig, value: int, width: int) -> Bits:
    """Literal vector for a constant."""
    return [aig.const(bool((value >> i) & 1)) for i in range(width)]


def bits_to_int(bits: Sequence[bool]) -> int:
    """Pack a boolean vector (LSB first) into an int."""
    value = 0
    for i, bit in enumerate(bits):
        if bit:
            value |= 1 << i
    return value


def ripple_adder(aig: Aig, a: Bits, b: Bits, carry_in: int) -> Bits:
    """Ripple-carry addition; result has the width of the operands."""
    if len(a) != len(b):
        raise FormalError("adder operands must share a width")
    result: Bits = []
    carry = carry_in
    for abit, bbit in zip(a, b):
        axb = aig.xor_(abit, bbit)
        result.append(aig.xor_(axb, carry))
        carry = aig.or_(aig.and_(abit, bbit), aig.and_(axb, carry))
    return result


def subtractor(aig: Aig, a: Bits, b: Bits) -> Bits:
    """a - b as a + ~b + 1."""
    return ripple_adder(aig, a, [bit ^ 1 for bit in b], aig.const(True))


def equals(aig: Aig, a: Bits, b: Bits) -> int:
    if len(a) != len(b):
        raise FormalError("equality operands must share a width")
    return aig.and_all(aig.xnor_(x, y) for x, y in zip(a, b))


def unsigned_less_than(aig: Aig, a: Bits, b: Bits) -> int:
    """a < b via the final borrow of a - b."""
    if len(a) != len(b):
        raise FormalError("comparison operands must share a width")
    borrow = aig.const(False)
    for abit, bbit in zip(a, b):
        # borrow' = (~a & b) | ((~a | b) & borrow)
        not_a = abit ^ 1
        borrow = aig.or_(
            aig.and_(not_a, bbit), aig.and_(aig.or_(not_a, bbit), borrow)
        )
    return borrow


def mux_bits(aig: Aig, sel: int, if_true: Bits, if_false: Bits) -> Bits:
    if len(if_true) != len(if_false):
        raise FormalError("mux arms must share a width")
    return [aig.mux_(sel, t, f) for t, f in zip(if_true, if_false)]


class BitBlaster:
    """Blast the combinational cone of expressions into an AIG.

    ``leaf_bits`` supplies literal vectors for registers and inputs; the
    memo dictionary is owned by the caller so that one blaster instance can
    serve a whole unrolled frame.  ``twin`` is the memo of another
    blaster over the same AIG and expressions (the miter's first
    instance at the same frame), whose entries :meth:`blast` reuses
    where they cannot differ.
    """

    def __init__(
        self,
        aig: Aig,
        leaf_bits: Callable[[Expr], Bits],
        memo: Dict[int, "Tuple[Expr, Bits]"],
        twin: Optional[Dict[int, "Tuple[Expr, Bits]"]] = None,
    ) -> None:
        self.aig = aig
        self.leaf_bits = leaf_bits
        # The memo keys by id(expr) and stores the expression itself along
        # with its bits: keeping a strong reference prevents id() reuse
        # after garbage collection from aliasing distinct expressions.
        self.memo = memo
        self.twin = twin

    def blast(self, expr: Expr) -> Bits:
        """Return the literal vector of ``expr`` (memoized).

        Blasting is post-order (children first), so a memoized
        expression's combinational cone is fully memoized.  The walk
        therefore stops at memoized expressions and still blasts the rest
        in the order of :func:`~repro.hdl.analysis.topo_order` over the
        whole cone: the same AIG nodes, in the same order.

        With a ``twin`` memo, a node the twin has blasted takes the
        twin's memo entry, the same tuple, instead of being blasted
        again, when its leaves carry the twin's literals: a constant
        always, a register when its bits equal the twin's, an input
        never, and an operator when every argument took the twin's
        entry.  Blasting depends only on the leaf literals and
        :meth:`Aig.and_` only hash-conses, so blasting such a node again
        would create no AIG node and return the twin's bits: the AIG and
        every result stay exactly what they are without the twin.
        """
        memo = self.memo
        cached = memo.get(id(expr))
        if cached is not None:
            return cached[1]
        twin = self.twin
        seen: Set[int] = set()
        stack: List[Tuple[Expr, bool]] = [(expr, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                key = id(node)
                if twin is not None:
                    entry = twin.get(key)
                    if entry is not None and self._shares(node, entry):
                        memo[key] = entry
                        continue
                memo[key] = (node, self._blast_node(node))
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if node.op != OP_REG:
                # Register leaves are not traversed through (the
                # next-state belongs to the sequential boundary).
                for arg in node.args:
                    if id(arg) not in seen and id(arg) not in memo:
                        stack.append((arg, False))
        return memo[id(expr)][1]

    def _shares(self, node: Expr, entry: "Tuple[Expr, Bits]") -> bool:
        """Whether ``node``, which the twin blasted to ``entry``, blasts
        to the same literals here (its arguments are already memoized)."""
        op = node.op
        if op == OP_CONST:
            return True
        if op == OP_REG:
            return self.leaf_bits(node) == entry[1]
        if op == OP_INPUT:
            return False
        memo = self.memo
        twin = self.twin
        for arg in node.args:
            # The twin memoized every argument before the node itself.
            if memo[id(arg)] is not twin[id(arg)]:
                return False
        return True

    def _blast_node(self, node: Expr) -> Bits:
        aig = self.aig
        memo = self.memo
        op = node.op
        if op == OP_CONST:
            return const_bits(aig, node.params[0], node.width)
        if op in (OP_REG, OP_INPUT):
            bits = self.leaf_bits(node)
            if len(bits) != node.width:
                raise FormalError(
                    f"leaf {node.params[0]!r}: expected {node.width} bits, "
                    f"got {len(bits)}"
                )
            return bits
        args = [memo[id(a)][1] for a in node.args]
        if op == OP_NOT:
            return [bit ^ 1 for bit in args[0]]
        if op == OP_AND:
            return [aig.and_(x, y) for x, y in zip(args[0], args[1])]
        if op == OP_OR:
            return [aig.or_(x, y) for x, y in zip(args[0], args[1])]
        if op == OP_XOR:
            return [aig.xor_(x, y) for x, y in zip(args[0], args[1])]
        if op == OP_ADD:
            return ripple_adder(aig, args[0], args[1], aig.const(False))
        if op == OP_SUB:
            return subtractor(aig, args[0], args[1])
        if op == OP_EQ:
            return [equals(aig, args[0], args[1])]
        if op == OP_NE:
            return [equals(aig, args[0], args[1]) ^ 1]
        if op == OP_ULT:
            return [unsigned_less_than(aig, args[0], args[1])]
        if op == OP_ULE:
            return [unsigned_less_than(aig, args[1], args[0]) ^ 1]
        if op == OP_MUX:
            return mux_bits(aig, args[0][0], args[1], args[2])
        if op == OP_CAT:
            bits: Bits = []
            for part in args:
                bits.extend(part)
            return bits
        if op == OP_SLICE:
            lo, hi = node.params
            return args[0][lo:hi]
        if op == OP_SHL:
            amount = node.params[0]
            inner = args[0]
            if amount >= len(inner):
                return const_bits(aig, 0, len(inner))
            return const_bits(aig, 0, amount) + inner[: len(inner) - amount]
        if op == OP_LSHR:
            amount = node.params[0]
            inner = args[0]
            if amount >= len(inner):
                return const_bits(aig, 0, len(inner))
            return inner[amount:] + const_bits(aig, 0, amount)
        if op == OP_REDOR:
            return [self.aig.or_all(args[0])]
        if op == OP_REDAND:
            return [self.aig.and_all(args[0])]
        raise FormalError(f"cannot bit-blast operator {op!r}")
