"""The UPEC methodology loop (Fig. 5 of the paper).

Starting from the full microarchitectural commitment, the loop checks the
UPEC property; every P-alert is recorded, its differing registers are
removed from the commitment (the paper's "remove corresponding state bits
from commitment"), and the check repeats.  The process terminates with

* an **L-alert** — the design is proven insecure (a covert channel exists),
* **no more alerts** — the design is secure within the bounded window; the
  recorded P-alerts are then the obligations for the inductive proofs of
  :mod:`repro.core.closure`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.alerts import Alert
from repro.core.model import UpecModel, UpecScenario
from repro.core.upec import ALERT, INCONCLUSIVE, UpecChecker
from repro.hdl.expr import Reg
from repro.soc.soc import Soc

SECURE_BOUNDED = "secure_bounded"
INSECURE = "insecure"
UNDECIDED = "undecided"


@dataclass
class MethodologyResult:
    """Outcome of the iterative Fig.-5 analysis."""

    verdict: str                       # secure_bounded | insecure | undecided
    k: int
    p_alerts: List[Alert] = field(default_factory=list)
    l_alert: Optional[Alert] = None
    iterations: int = 0
    runtime_s: float = 0.0
    removed_regs: List[str] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    #: Why an UNDECIDED run stopped (conflict limit, wall-budget
    #: timeout, poisoned obligation, iteration cap) — empty otherwise.
    reason: str = ""

    @property
    def p_alert_reg_names(self) -> List[str]:
        names: List[str] = []
        for alert in self.p_alerts:
            for name in alert.diff_reg_names():
                if name not in names:
                    names.append(name)
        return names

    def describe(self) -> str:
        lines = [
            f"verdict: {self.verdict} (k={self.k}, "
            f"{self.iterations} iterations, {self.runtime_s:.2f}s)"
            + (f" — {self.reason}" if self.reason else ""),
            f"P-alerts: {len(self.p_alerts)} "
            f"({len(self.p_alert_reg_names)} registers)",
        ]
        for alert in self.p_alerts:
            lines.append("  " + alert.describe())
        if self.l_alert is not None:
            lines.append("L-alert: " + self.l_alert.describe())
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "verdict": self.verdict,
            "k": self.k,
            "p_alerts": [alert.to_dict() for alert in self.p_alerts],
            "l_alert": self.l_alert.to_dict() if self.l_alert is not None
            else None,
            "iterations": self.iterations,
            "runtime_s": self.runtime_s,
            "removed_regs": list(self.removed_regs),
            "stats": dict(self.stats),
            "reason": self.reason,
        }


class UpecMethodology:
    """Run the iterative UPEC flow on one SoC and scenario.

    ``engine`` (a :class:`repro.engine.ProofEngine`, owned and closed by
    the caller) routes every property check through the obligation
    scheduler of :mod:`repro.engine`: frames solve on a worker pool and
    verdicts are re-used from the persistent proof cache across runs.
    Without one, the checks run on the model's incremental in-context
    solver.
    """

    def __init__(
        self,
        soc: Soc,
        scenario: UpecScenario,
        conflict_limit: Optional[int] = None,
        engine=None,
        wall_budget: Optional[float] = None,
    ) -> None:
        self.soc = soc
        self.scenario = scenario
        self.conflict_limit = conflict_limit
        #: Per-obligation wall-clock budget in seconds (None = none):
        #: a frame that exhausts it yields a distinguishable "timeout"
        #: verdict instead of an open-ended solve.
        self.wall_budget = wall_budget
        self.engine = engine

    def _stats(self, model: UpecModel) -> Dict[str, int]:
        stats = dict(model.stats())
        if self.engine is not None:
            # Relative to the run's start, so a shared engine reports
            # this run's work rather than its lifetime totals.
            stats.update(self.engine.stats(since=self._engine_since))
        return stats

    def run(self, k: int, max_iterations: int = 64) -> MethodologyResult:
        start = time.perf_counter()
        self._engine_since = self.engine.stats() if self.engine is not None \
            else None
        model = UpecModel(self.soc, self.scenario)
        checker = UpecChecker(model, engine=self.engine)
        commitment: List[Reg] = model.default_commitment()
        p_alerts: List[Alert] = []
        removed: List[str] = []
        iterations = 0
        # Frames proved equal for a commitment stay equal for any subset of
        # it, so after a P-alert at frame f the re-check resumes at f.
        start_frame = 1
        while iterations < max_iterations:
            iterations += 1
            result = checker.check(
                k, commitment=commitment, start_frame=start_frame,
                conflict_limit=self.conflict_limit,
                wall_budget=self.wall_budget,
            )
            if result.status == INCONCLUSIVE:
                return MethodologyResult(
                    verdict=UNDECIDED, k=k, p_alerts=p_alerts,
                    iterations=iterations,
                    runtime_s=time.perf_counter() - start,
                    removed_regs=removed, stats=self._stats(model),
                    reason=result.reason or "conflict limit",
                )
            if result.status != ALERT:
                return MethodologyResult(
                    verdict=SECURE_BOUNDED, k=k, p_alerts=p_alerts,
                    iterations=iterations,
                    runtime_s=time.perf_counter() - start,
                    removed_regs=removed, stats=self._stats(model),
                )
            alert = result.alert
            if alert.is_l_alert:
                return MethodologyResult(
                    verdict=INSECURE, k=k, p_alerts=p_alerts, l_alert=alert,
                    iterations=iterations,
                    runtime_s=time.perf_counter() - start,
                    removed_regs=removed, stats=self._stats(model),
                )
            # P-alert: record it and drop the affected registers from the
            # commitment (the proof assumption keeps the full state).
            p_alerts.append(alert)
            alert_regs = {reg for reg, _, _ in alert.diffs}
            commitment = [r for r in commitment if r not in alert_regs]
            removed.extend(sorted(r.name for r in alert_regs))
            start_frame = alert.frame
        return MethodologyResult(
            verdict=UNDECIDED, k=k, p_alerts=p_alerts,
            iterations=iterations, runtime_s=time.perf_counter() - start,
            removed_regs=removed, stats=self._stats(model),
            reason="iteration cap reached",
        )
