"""The UPEC interval property checker (Fig. 4, Eq. 1 on a bounded model).

For a window of length ``k`` the checker proves, cycle by cycle::

    assume at t:        secret_data_protected, micro-state equality
                        (variable sharing), no_ongoing_protected_access
    assume t..t+k:      cache_monitor_valid_IO, secure_system_software
    prove  at t+j:      soc_state_1 = soc_state_2      (j = 1..k)

A SAT result is a counterexample, classified as a P- or L-alert.  The
commitment set (which registers make up *soc_state*) is a parameter: the
methodology of Fig. 5 shrinks it as P-alerts are inspected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.errors import UpecError
from repro.core.alerts import Alert, classify
from repro.core.model import UpecModel
from repro.hdl.expr import Reg

PROVED = "proved"
ALERT = "alert"
INCONCLUSIVE = "inconclusive"


@dataclass
class UpecCheckResult:
    """Outcome of one bounded UPEC property check."""

    status: str                     # proved | alert | inconclusive
    k: int
    alert: Optional[Alert] = None
    runtime_s: float = 0.0
    checked_frames: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    #: Why an INCONCLUSIVE check stopped: "conflict limit", "wall budget
    #: exhausted (timeout)" or "obligation poisoned (...)" — callers can
    #: tell a budget expiry (raise the budget, retry) from a poisoned
    #: obligation (inspect the failure reports) without re-solving.
    reason: str = ""

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    def describe(self) -> str:
        if self.status == PROVED:
            return f"proved up to k={self.k} ({self.runtime_s:.2f}s)"
        if self.status == INCONCLUSIVE:
            return (f"inconclusive at k={self.k} "
                    f"({self.reason or 'conflict limit'})")
        return f"{self.alert.describe()} ({self.runtime_s:.2f}s)"

    def to_dict(self) -> Dict:
        return {
            "status": self.status,
            "k": self.k,
            "alert": self.alert.to_dict() if self.alert is not None else None,
            "runtime_s": self.runtime_s,
            "checked_frames": self.checked_frames,
            "stats": dict(self.stats),
            "reason": self.reason,
        }


def _inconclusive_reason(verdict) -> str:
    """Human-readable cause of a non-definite engine verdict."""
    from repro.engine.obligation import POISONED, TIMEOUT

    if verdict.status == TIMEOUT:
        return "wall budget exhausted (timeout)"
    if verdict.status == POISONED:
        return "obligation poisoned (repeated worker failures)"
    return "conflict limit"


class UpecChecker:
    """Checks the UPEC property over one miter model.

    Without an ``engine`` the frames are solved incrementally on the
    model's in-process solver.  With an ``engine``
    (:class:`repro.engine.ProofEngine`) each frame becomes a
    self-contained proof obligation: frames are solved on the engine's
    scheduler (a worker pool or the distributed fleet keeps all siblings
    in flight at once, cancelled as soon as an earlier frame alerts) and
    verdicts may come from its persistent cache.  Both modes report the
    lowest alerting frame, so verdicts are identical.
    """

    def __init__(self, model: UpecModel, engine=None) -> None:
        self.model = model
        self.engine = engine

    def check(
        self,
        k: int,
        commitment: Optional[Sequence[Reg]] = None,
        start_frame: int = 1,
        conflict_limit: Optional[int] = None,
        witness_signals: bool = True,
        wall_budget: Optional[float] = None,
    ) -> UpecCheckResult:
        """Check frames ``start_frame``..``k`` against the commitment.

        ``wall_budget`` bounds each frame's solve in wall-clock seconds
        (per obligation, the same unit the distributed broker enforces);
        an exhausted budget yields a distinguishable INCONCLUSIVE result
        (``reason`` says "timeout") instead of an open-ended solve.
        """
        if k < start_frame:
            raise UpecError("window must include at least one frame")
        model = self.model
        regs = list(commitment) if commitment is not None \
            else model.default_commitment()
        start = time.perf_counter()
        if self.engine is not None:
            return self._check_engine(
                k, regs, start_frame, conflict_limit, witness_signals,
                start, wall_budget,
            )
        checked = 0
        for t in range(start_frame, k + 1):
            model.assume_window(t)
            target = model.commitment_diff_lit(regs, t)
            if target == 0:
                # Structural hashing folded every pair to equality: the
                # commitment cannot differ at this frame (no SAT needed).
                checked += 1
                continue
            deadline = None
            if wall_budget is not None and wall_budget > 0:
                deadline = time.monotonic() + wall_budget
            outcome = model.context.solve(
                assumptions=[target], conflict_limit=conflict_limit,
                deadline=deadline,
            )
            checked += 1
            if outcome is None:
                timed_out = model.context.solver.stop_reason == "deadline"
                return UpecCheckResult(
                    status=INCONCLUSIVE, k=t,
                    runtime_s=time.perf_counter() - start,
                    checked_frames=checked, stats=model.stats(),
                    reason="wall budget exhausted (timeout)" if timed_out
                    else "conflict limit",
                )
            if outcome:
                diffs = model.differing_regs(t, regs)
                witness = model.witness_frames(t) if witness_signals else []
                alert = classify(t, diffs, witness)
                return UpecCheckResult(
                    status=ALERT, k=t, alert=alert,
                    runtime_s=time.perf_counter() - start,
                    checked_frames=checked, stats=model.stats(),
                )
        return UpecCheckResult(
            status=PROVED, k=k, runtime_s=time.perf_counter() - start,
            checked_frames=checked, stats=model.stats(),
        )

    def _engine_stats(self, since: Dict[str, int]) -> Dict[str, int]:
        stats = dict(self.model.stats())
        stats.update(self.engine.stats(since=since))
        return stats

    def _check_engine(
        self,
        k: int,
        regs: Sequence[Reg],
        start_frame: int,
        conflict_limit: Optional[int],
        witness_signals: bool,
        start: float,
        wall_budget: Optional[float] = None,
    ) -> UpecCheckResult:
        """Obligation-based frame checks via the scheduler/cache engine.

        Frames are exported in steps, and each step's obligations go
        through the ordered scheduler.  When the engine solves
        in-process (``jobs == 1``), a step is one frame: an alert at
        frame ``t`` means frames ``t+1..k`` are never unrolled or
        exported.  Otherwise a step is the whole window, so a pool or
        the fleet has every sibling in flight at once.

        An obligation's content depends only on the commitment and the
        frame (it is the frame's cone-of-influence slice), so both
        schedules produce bit-identical obligation streams, hence
        bit-identical verdicts and counterexample models.
        """
        since = self.engine.stats()
        window = list(range(start_frame, k + 1))
        steps = [[t] for t in window] if self.engine.jobs == 1 \
            else [window]
        checked = 0
        for frames in steps:
            exported = [
                (t, self.model.frame_obligation(
                    regs, t, conflict_limit, wall_budget=wall_budget,
                ))
                for t in frames
            ]
            verdicts = iter(self.engine.solve_ordered(
                [ob for _, ob in exported if ob is not None],
                early_stop=lambda v: not v.unsat,
            ))
            for t, obligation in exported:
                checked += 1
                if obligation is None:
                    # Structural hashing folded every pair to equality:
                    # the commitment cannot differ at this frame.
                    continue
                verdict = next(verdicts)
                if verdict is None or verdict.unsat:
                    continue
                if not verdict.sat:
                    return UpecCheckResult(
                        status=INCONCLUSIVE, k=t,
                        runtime_s=time.perf_counter() - start,
                        checked_frames=checked,
                        stats=self._engine_stats(since),
                        reason=_inconclusive_reason(verdict),
                    )
                return self._alert_result(
                    obligation, verdict, t, regs, witness_signals,
                    checked, start, since,
                )
        return UpecCheckResult(
            status=PROVED, k=k, runtime_s=time.perf_counter() - start,
            checked_frames=checked, stats=self._engine_stats(since),
        )

    def _alert_result(
        self,
        obligation,
        verdict,
        t: int,
        regs: Sequence[Reg],
        witness_signals: bool,
        checked: int,
        start: float,
        since: Dict[str, int],
    ) -> UpecCheckResult:
        model = self.model
        model.context.adopt_verdict(obligation, verdict)
        diffs = model.differing_regs(t, regs)
        witness = model.witness_frames(t) if witness_signals else []
        alert = classify(t, diffs, witness)
        return UpecCheckResult(
            status=ALERT, k=t, alert=alert,
            runtime_s=time.perf_counter() - start,
            checked_frames=checked, stats=self._engine_stats(since),
        )

    def find_first_alert_window(
        self,
        max_k: int,
        commitment: Optional[Sequence[Reg]] = None,
        conflict_limit: Optional[int] = None,
    ) -> UpecCheckResult:
        """Increase the window until the first counterexample appears —
        the 'window length for alert' measurements of Tab. II."""
        return self.check(
            max_k, commitment=commitment, conflict_limit=conflict_limit
        )

    def feasible_k(
        self,
        time_budget_s: float,
        max_k: int = 64,
        commitment: Optional[Sequence[Reg]] = None,
    ) -> UpecCheckResult:
        """Extend the window frame by frame until the time budget runs out
        or an alert appears — the 'feasible k' measurement of Tab. I.

        Returns the result of the deepest completed check (its ``k`` is
        the feasible window length).
        """
        start = time.perf_counter()
        last: Optional[UpecCheckResult] = None
        frame = 1
        while frame <= max_k:
            result = self.check(frame, commitment=commitment,
                                start_frame=frame)
            if result.status != PROVED:
                return result
            elapsed = time.perf_counter() - start
            last = UpecCheckResult(
                status=PROVED, k=frame, runtime_s=elapsed,
                checked_frames=frame, stats=self.model.stats(),
            )
            if elapsed > time_budget_s:
                break
            frame += 1
        if last is None:
            raise UpecError("time budget too small for a single frame")
        return last
