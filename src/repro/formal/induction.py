"""k-induction for single-circuit safety properties.

Complements the bounded engine: ``prove_by_induction`` establishes a
property for *unbounded* time by checking

* **base case** — the property holds for ``k`` cycles from reset, and
* **step case** — any ``k+1``-cycle window of states satisfying the
  property (and the assumptions) ends in a state satisfying it too,
  starting from a fully symbolic (any-state) window.

This is the classical strengthening-free k-induction; the UPEC-specific
diff-closure proofs in :mod:`repro.core.closure` are its two-instance
sibling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.errors import FormalError
from repro.formal.bmc import BmcEngine, BmcResult, SatContext, Witness
from repro.formal.unroll import Unroller
from repro.hdl.circuit import Circuit
from repro.hdl.expr import Expr


@dataclass
class InductionResult:
    """Outcome of a k-induction proof attempt."""

    proved: bool
    k: int
    failed_case: Optional[str] = None      # "base" | "step" | None
    base: Optional[BmcResult] = None
    step_witness: Optional[Witness] = None
    runtime_s: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        if self.proved:
            return f"property proved by {self.k}-induction ({self.runtime_s:.2f}s)"
        return (
            f"{self.k}-induction failed in the {self.failed_case} case "
            f"({self.runtime_s:.2f}s)"
        )


def prove_by_induction(
    circuit: Circuit,
    prop: Expr,
    k: int = 1,
    assumptions: Sequence[Expr] = (),
    conflict_limit: Optional[int] = None,
    engine=None,
) -> InductionResult:
    """Attempt to prove ``AG prop`` (under per-cycle assumptions) by
    k-induction.

    With ``engine`` set (a :class:`repro.engine.ProofEngine`), the base
    case's frame checks and the step case are dispatched as proof
    obligations (parallel frame checks, persistent result cache).
    """
    if prop.width != 1:
        raise FormalError("property must be a 1-bit expression")
    start = time.perf_counter()

    # Base case: BMC from reset for k cycles.
    base_engine = BmcEngine(circuit, init="reset", engine=engine)
    base = base_engine.check_always(
        prop, k=k, assumptions=assumptions, conflict_limit=conflict_limit
    )
    if not base.holds:
        return InductionResult(
            proved=False, k=k, failed_case="base", base=base,
            runtime_s=time.perf_counter() - start, stats=base.stats,
        )

    # Step case: symbolic window of k+1 states; prop and assumptions hold
    # for the first k states, must hold for state k+1... i.e. frames 0..k-1
    # satisfy prop, prove prop at frame k.
    ctx = SatContext()
    unroller = Unroller(circuit, ctx.aig, init="symbolic")
    for t in range(k):
        ctx.assert_lit(unroller.expr_lit(prop, t))
        for assume in assumptions:
            ctx.assert_lit(unroller.expr_lit(assume, t))
    for assume in assumptions:
        ctx.assert_lit(unroller.expr_lit(assume, k))
    bad = unroller.expr_lit(prop, k) ^ 1
    if engine is not None:
        step_ob = ctx.export_obligation(
            name=f"induction[{circuit.name}]@step{k}",
            assumptions=[bad], conflict_limit=conflict_limit,
            meta={"kind": "induction-step", "circuit": circuit.name, "k": k},
        )
        verdict = engine.solve_ordered([step_ob])[0]
        if verdict.sat:
            ctx.adopt_verdict(step_ob, verdict)
        outcome = True if verdict.sat else (False if verdict.unsat else None)
    else:
        outcome = ctx.solve(assumptions=[bad], conflict_limit=conflict_limit)
    if outcome is None:
        raise FormalError("conflict limit exhausted in the induction step")
    if outcome:
        frames = []
        for t in range(k + 1):
            frames.append({
                reg.name: ctx.word_value(unroller.reg_bits(reg, t))
                for reg in circuit.regs.values()
            })
        witness = Witness(frames=frames, failed_frame=k)
        return InductionResult(
            proved=False, k=k, failed_case="step", base=base,
            step_witness=witness,
            runtime_s=time.perf_counter() - start, stats=ctx.stats(),
        )
    return InductionResult(
        proved=True, k=k, base=base,
        runtime_s=time.perf_counter() - start, stats=ctx.stats(),
    )
