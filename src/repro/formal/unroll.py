"""Sequential unrolling of circuits into an AIG.

The unroller creates one combinational *frame* per clock cycle.  Register
values at frame 0 come from an :class:`InitialState` policy:

* ``symbolic`` — fresh AIG inputs (the any-state / IPC setting of the paper),
* ``reset`` — the declared reset values (classic BMC from reset),
* explicit literal vectors — used by the UPEC miter to share variables
  between the two SoC instances (equal initial microarchitectural state).

Inputs get fresh variables per frame and per unroller.  The UPEC miter
builds its second instance with the first as its ``twin``, so that it
bit-blasts only the logic that the instances' difference reaches.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import FormalError
from repro.formal.aig import Aig
from repro.formal.bitblast import BitBlaster, Bits, const_bits
from repro.hdl.circuit import Circuit
from repro.hdl.expr import Expr, Input, Reg


class Unroller:
    """Unroll one circuit instance over time.

    ``twin`` is another unroller of the same circuit over the same AIG
    (the UPEC miter's first instance).  Each frame of this unroller
    that the twin has already built reuses the twin's bit-blast of
    every expression whose leaves carry the same literals in both at
    that frame (see :meth:`BitBlaster.blast`): a register whose bits
    equal the twin's, or a constant, but never an input, which is fresh
    in each unroller.  That logic is already in the AIG, hash-consed,
    so blasting it again would add no node and return the same
    literals; the AIG and every literal this unroller returns are the
    same with or without the twin, and only the time to build them
    differs.  A frame built before the twin's is blasted in full.
    """

    def __init__(
        self,
        circuit: Circuit,
        aig: Aig,
        init: str = "symbolic",
        init_bits: Optional[Dict[Reg, Bits]] = None,
        twin: Optional["Unroller"] = None,
    ) -> None:
        if not circuit.finalized:
            circuit.finalize()
        if init not in ("symbolic", "reset"):
            raise FormalError(f"unknown init policy {init!r}")
        if twin is not None and (twin.circuit is not circuit
                                 or twin.aig is not aig):
            raise FormalError("a twin must unroll the same circuit over "
                              "the same AIG")
        self.circuit = circuit
        self.aig = aig
        self.init = init
        self.init_bits = dict(init_bits or {})
        self.twin = twin
        self._reg_bits: List[Dict[Reg, Bits]] = []
        self._memos: List[Dict[int, tuple]] = []
        self._blasters: List[BitBlaster] = []
        self._build_frame0()

    # ------------------------------------------------------------------
    def _initial_bits(self, reg: Reg) -> Bits:
        explicit = self.init_bits.get(reg)
        if explicit is not None:
            if len(explicit) != reg.width:
                raise FormalError(
                    f"initial bits for {reg.name!r} have wrong width"
                )
            return list(explicit)
        if self.init == "reset" and reg.init is not None:
            return const_bits(self.aig, reg.init, reg.width)
        if self.init == "reset" and reg.init is None:
            return self.aig.new_inputs(reg.width)
        return self.aig.new_inputs(reg.width)

    def _build_frame0(self) -> None:
        frame0 = {reg: self._initial_bits(reg) for reg in self.circuit.regs.values()}
        self._reg_bits.append(frame0)
        self._push_frame_memo(0)

    def _push_frame_memo(self, frame: int) -> None:
        memo: Dict[int, tuple] = {}
        reg_bits = self._reg_bits[frame]
        # The leaf reader is kept by the frame's BitBlaster, which the
        # unroller keeps: it must not reach back to the unroller, or the
        # whole model (AIG included) would be a reference cycle that
        # only a full collection frees.  The twin's memo is no cycle:
        # the twin never refers to this unroller.
        aig = self.aig

        def leaf(node: Expr) -> Bits:
            if isinstance(node, Reg):
                return reg_bits[node]
            if isinstance(node, Input):
                key = id(node)
                if key not in memo:
                    memo[key] = (node, aig.new_inputs(node.width))
                return memo[key][1]
            raise FormalError(f"unexpected leaf {node!r}")  # pragma: no cover

        twin = self.twin
        twin_memo = (twin._memos[frame]
                     if twin is not None and frame < twin.depth else None)
        self._memos.append(memo)
        self._blasters.append(BitBlaster(self.aig, leaf, memo, twin_memo))

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of frames built so far (state known for cycles 0..depth-1)."""
        return len(self._reg_bits)

    def extend_to(self, frame: int) -> None:
        """Ensure register bits exist for cycles 0..frame."""
        while self.depth <= frame:
            t = self.depth - 1
            blaster = self._blasters[t]
            next_bits: Dict[Reg, Bits] = {}
            for reg in self.circuit.regs.values():
                assert reg.next is not None
                next_bits[reg] = blaster.blast(reg.next)
            self._reg_bits.append(next_bits)
            self._push_frame_memo(self.depth - 1)

    def reg_bits(self, reg: Reg, frame: int) -> Bits:
        """Literal vector of a register at a cycle."""
        self.extend_to(frame)
        return self._reg_bits[frame][reg]

    def expr_bits(self, expr: Expr, frame: int) -> Bits:
        """Literal vector of a combinational expression evaluated at a cycle."""
        self.extend_to(frame)
        return self._blasters[frame].blast(expr)

    def expr_lit(self, expr: Expr, frame: int) -> int:
        """Single-literal convenience for 1-bit expressions."""
        bits = self.expr_bits(expr, frame)
        if len(bits) != 1:
            raise FormalError("expr_lit expects a 1-bit expression")
        return bits[0]
