"""Inductive diff-closure proofs (Sec. VI, "the alternative is to take the
P-alerts as starting point for proving security by an inductive proof").

A P-alert shows that secret data reached some program-invisible register.
To prove it harmless for *unbounded* time, the designer supplies a
**conditional-equality invariant**: a set of registers that are allowed to
differ between the two SoC instances, each with an optional *blocking
condition* under which the difference is guaranteed not to propagate
(``None`` = may differ unconditionally).

The 1-step induction then checks, on the UPEC miter:

* base case — by construction, the differences at t are within the
  invariant (the model's difference seed *is* the invariant's domain);
* step case — assuming the invariant (plus the Fig.-4 constraints) at t,
  after one clock cycle **every** register outside the invariant's domain
  is pairwise equal, every register inside it satisfies its condition
  again, and non-protected memory stays equal.

If the step case holds, differences can never escape the allowed set; as
the set contains no architectural register, program execution is unique
(Def. 4) for all time — this turns the bounded methodology verdict into a
full security proof, and automates what the paper reports as manual
induction-proof effort in Tab. I.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import UpecError
from repro.core.alerts import Alert
from repro.core.model import UpecModel, UpecScenario
from repro.hdl.expr import Expr, Reg
from repro.soc.soc import Soc


@dataclass
class CondEq:
    """One invariant entry: ``reg`` may differ only while ``cond`` holds
    (evaluated in both instances); ``cond=None`` = unconditional."""

    reg: Reg
    cond: Optional[Expr] = None
    note: str = ""


@dataclass
class ClosureObligation:
    """One check of the induction step."""

    name: str
    holds: bool
    counterexample: Optional[List[Tuple[Reg, int, int]]] = None

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "counterexample": None if self.counterexample is None else [
                {"reg": reg.name, "v1": v1, "v2": v2}
                for reg, v1, v2 in self.counterexample
            ],
        }


@dataclass
class ClosureResult:
    """Outcome of the inductive diff-closure proof."""

    holds: bool
    obligations: List[ClosureObligation] = field(default_factory=list)
    runtime_s: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)

    def failed(self) -> List[ClosureObligation]:
        return [ob for ob in self.obligations if not ob.holds]

    def to_dict(self) -> Dict:
        return {
            "holds": self.holds,
            "obligations": [ob.to_dict() for ob in self.obligations],
            "runtime_s": self.runtime_s,
            "stats": dict(self.stats),
        }

    def describe(self) -> str:
        status = "INDUCTIVE (secure for unbounded time)" if self.holds \
            else "NOT inductive"
        lines = [f"closure proof: {status} "
                 f"({len(self.obligations)} obligations, {self.runtime_s:.2f}s)"]
        for ob in self.failed():
            lines.append(f"  failed: {ob.name}")
        return "\n".join(lines)


class InductiveDiffProof:
    """Check that a conditional-equality invariant is 1-step inductive,
    on ``engine`` (a :class:`repro.engine.ProofEngine`; a private
    ``ProofEngine(jobs=1)`` when none is given)."""

    def __init__(
        self,
        soc: Soc,
        scenario: UpecScenario,
        invariant: Sequence[CondEq],
        engine=None,
    ) -> None:
        from repro.engine.pool import ProofEngine

        self.soc = soc
        self.scenario = scenario
        self.engine = engine if engine is not None else ProofEngine(jobs=1)
        self.invariant = list(invariant)
        domain = {entry.reg for entry in self.invariant}
        for entry in self.invariant:
            if entry.reg.arch:
                raise UpecError(
                    f"invariant register {entry.reg.name!r} is architectural "
                    "— an L-alert cannot be deemed secure"
                )
        # The secret memory word may always differ; it is part of the model
        # seed independent of the invariant.
        self._domain = domain

    def covers_alert(self, alert: Alert) -> bool:
        """Base-case check for a methodology P-alert: all differing
        registers lie inside the invariant's domain (or are the secret's
        own storage)."""
        allowed = {r.name for r in self._domain}
        allowed.add(self.soc.secret_mem_reg.name)
        allowed.add(self.soc.secret_cache_data_reg.name)
        return all(reg.name in allowed for reg, _, _ in alert.diffs)

    def step_checks(self) -> Tuple[UpecModel, List[Tuple[str, int]]]:
        """The induction step's model, assumed over a one-cycle window,
        and its checks: one per register, and one per side condition and
        instance, each as its name and the AIG literal that is true when
        the check fails (FALSE when structural hashing refutes that)."""
        soc = self.soc
        cond_eq: Dict[Reg, Optional[Expr]] = {
            entry.reg: entry.cond for entry in self.invariant
        }
        model = UpecModel(soc, self.scenario, cond_eq=cond_eq)
        model.assume_window(1)
        aig = model.context.aig
        checks: List[Tuple[str, int]] = []

        secret_regs = {soc.secret_mem_reg}
        if self.scenario.secret_in_cache:
            # dc_data[secret line] is in the model seed only when the
            # scenario caches the secret; otherwise it must stay equal like
            # any other register (unless the invariant allows it).
            secret_regs.add(soc.secret_cache_data_reg)

        for reg in soc.circuit.regs.values():
            if reg in secret_regs:
                continue
            if reg in cond_eq and cond_eq[reg] is None:
                continue  # unconditional difference: nothing to prove
            diff1 = model.pair_diff_lit(reg, 1)
            if reg in cond_eq:
                cond = cond_eq[reg]
                cond_both = aig.and_(
                    model.u1.expr_lit(cond, 1), model.u2.expr_lit(cond, 1)
                )
                checks.append((f"{reg.name} differs outside its blocking "
                               f"condition", aig.and_(diff1, cond_both ^ 1)))
            else:
                checks.append((f"{reg.name} must stay equal", diff1))

        # Assumption re-establishment: the invariant's side conditions
        # (protection configuration, no ongoing protected refill) must
        # themselves be inductive, otherwise composing the step cases over
        # time would be unsound.  Constraint 3 (secure system software) is
        # a software assumption held at every cycle by construction, and
        # the monitor ranges are re-assumed per cycle as in Fig. 4.
        for name, expr in (
            ("secret_data_protected", soc.secret_data_protected()),
            ("no_ongoing_protected_access", soc.no_ongoing_protected_access()),
        ):
            for unroller, tag in ((model.u1, "i1"), (model.u2, "i2")):
                violated = unroller.expr_lit(expr, 1) ^ 1
                checks.append((f"{name} re-established at t+1 ({tag})",
                               violated))
        return model, checks

    def check_step(
        self, conflict_limit: Optional[int] = None
    ) -> ClosureResult:
        """Prove the induction step by SAT.

        The :meth:`step_checks` are the targets of one saturating
        obligation ("which checks can fail?"), solved on the engine and
        served from its proof cache on re-runs.  A check whose literal
        folds to FALSE holds without being a target.  A failed check's
        counterexample comes from the query that found it; a check the
        loop did not reach (a conflict limit stopped it) fails without
        one.
        """
        start = time.perf_counter()
        engine = self.engine
        engine_since = engine.stats()
        model, checks = self.step_checks()
        live = [i for i, (_, target) in enumerate(checks) if target != 0]
        #: check index -> counterexample of the query that found it
        cexes: Dict[int, List[Tuple[Reg, int, int]]] = {}
        settled = True
        if live:
            exported = model.context.export_obligation(
                name=f"closure[{self.soc.config.name}]",
                targets=[checks[i][1] for i in live],
                conflict_limit=conflict_limit,
                meta={
                    "kind": "closure-step",
                    "design": self.soc.config.name,
                    "scenario": self.scenario.describe(),
                    "checks": [checks[i][0] for i in live],
                    "invariant": [e.reg.name for e in self.invariant],
                },
            )
            verdict = engine.solve_ordered([exported])[0]
            settled = verdict.sat or verdict.unsat
            for query, indices in enumerate(verdict.found or ()):
                model.context.adopt_verdict(exported, verdict, query)
                cex = model.differing_regs(1)
                for index in indices:
                    cexes[live[index]] = cex
        obligations = [
            ClosureObligation(
                name=name, holds=i not in cexes and (settled or target == 0),
                counterexample=cexes.get(i))
            for i, (name, target) in enumerate(checks)
        ]
        stats = dict(model.stats())
        stats.update(engine.stats(since=engine_since))
        return ClosureResult(
            holds=all(ob.holds for ob in obligations),
            obligations=obligations,
            runtime_s=time.perf_counter() - start, stats=stats,
        )
