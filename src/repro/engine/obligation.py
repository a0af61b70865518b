"""Serializable proof obligations and their verdicts.

A :class:`ProofObligation` is a self-contained SAT problem: a DIMACS
clause slice snapshotted from a :class:`repro.formal.bmc.SatContext`,
the per-query assumption literals, the witness-frozen variables and a
metadata dict describing what the query proves (design, scenario,
commitment, frame).  Because it carries everything the solver needs, it
can be shipped to a worker process, hashed for a persistent result
cache, or replayed for debugging.

:func:`solve_obligation` is the pure solving function: same obligation
in, same :class:`Verdict` out, regardless of which process runs it —
this is what makes parallel and sequential engine runs bit-identical.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FormalError
from repro.formal.preprocess import (PASS_SETTINGS, Simplifier, SimplifyStats,
                                     reconstruct_model)
from repro.formal.solver import CdclSolver

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"
#: The solve exhausted its wall-clock budget (``wall_budget``) before
#: reaching a definite answer.  Distinguishable from ``unknown`` (a
#: conflict-limit exhaustion or a cooperative cancel) so callers can
#: report "timed out" instead of a generic inconclusive.
TIMEOUT = "timeout"
#: The broker quarantined the obligation after its assignment killed
#: (or crashed the solve on) N distinct workers; ``Verdict.failures``
#: carries the workers' structured failure reports.
POISONED = "poisoned"

#: The statuses that settle a query.  Only these are ever memoized or
#: written to the persistent result cache — timeout/poisoned/unknown
#: are circumstances of one run, not facts about the formula.
DEFINITE = (SAT, UNSAT)

_FINGERPRINT_SALT = b"upec-obligation-v1"
#: Clauses hashed per ``update``: one join per chunk saves a call per
#: clause, and a bounded chunk keeps the joined bytes small.
_FINGERPRINT_CHUNK = 256


def pack_model(values: Sequence[bool]) -> bytes:
    """Pack a model (list of bools, index 0 unused) into bytes, LSB first."""
    packed = bytearray((len(values) + 7) // 8)
    for i, value in enumerate(values):
        if value:
            packed[i >> 3] |= 1 << (i & 7)
    return bytes(packed)


def unpack_model(data: bytes, nvars: int) -> List[bool]:
    """Inverse of :func:`pack_model`; returns ``nvars + 1`` entries."""
    return [bool(data[i >> 3] >> (i & 7) & 1) if (i >> 3) < len(data)
            else False
            for i in range(nvars + 1)]


@dataclass
class ProofObligation:
    """One independent SAT query, detached from the context that built it.

    An exported obligation (see :mod:`repro.engine.slice`) carries only
    the cone of influence of its assumptions, renumbered canonically;
    ``remap`` (new variable -> original context variable) lets
    ``SatContext.adopt_verdict`` translate a worker's model back into
    the exporting context's numbering (completing the dropped gates by
    evaluation).  It is not part of the fingerprint: re-exports of the
    same logical query hash identically no matter how the shared
    context grew after the query's cone was first mapped.
    """

    name: str
    nvars: int
    clauses: List[List[int]]
    assumptions: List[int]
    frozen: List[int] = field(default_factory=list)
    conflict_limit: Optional[int] = None
    #: Wall-clock budget in seconds for one solve attempt; exhausting it
    #: yields a :data:`TIMEOUT` verdict.  Like ``conflict_limit`` it is
    #: excluded from the fingerprint — a definite verdict is valid under
    #: any budget.
    wall_budget: Optional[float] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    remap: Optional[List[int]] = None   # new var -> original var (0 unused)

    def fingerprint(self) -> str:
        """Content hash of the formula (clauses + assumptions + frozen
        set).  The conflict limit, the metadata and the slice remap are
        all excluded: a definite sat/unsat verdict is valid under any
        limit, and the remap is context bookkeeping that does not change
        what is being proved.  The constant ``b"1"`` stands where a
        preprocessing flag used to be hashed, so fingerprints (and the
        cache entries keyed by them) are those of preprocessed solves."""
        h = hashlib.sha256(_FINGERPRINT_SALT)
        h.update(b"1")
        h.update(array("q", [self.nvars]).tobytes())
        # Each clause's bytes, then ";", hashed a chunk at a time.
        clauses = self.clauses
        for first in range(0, len(clauses), _FINGERPRINT_CHUNK):
            h.update(b";".join([
                array("q", clause).tobytes()
                for clause in clauses[first:first + _FINGERPRINT_CHUNK]]))
            h.update(b";")
        h.update(b"|a|")
        h.update(array("q", self.assumptions).tobytes())
        h.update(b"|f|")
        h.update(array("q", sorted(self.frozen)).tobytes())
        return h.hexdigest()

    def size(self) -> Dict[str, int]:
        return {
            "nvars": self.nvars,
            "clauses": len(self.clauses),
            "literals": sum(len(c) for c in self.clauses),
        }


@dataclass
class Verdict:
    """Result of solving one obligation."""

    status: str                  # sat | unsat | unknown | timeout | poisoned
    obligation: str                   # name of the obligation
    fingerprint: str
    model: Optional[bytes] = None     # packed model bits on SAT
    nvars: int = 0
    runtime_s: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)
    cached: bool = False
    #: Structured worker failure reports on a ``poisoned`` verdict:
    #: ``[{"worker", "exc_type", "message", "traceback"}, ...]``.
    failures: Optional[List[Dict[str, Any]]] = None

    @property
    def sat(self) -> bool:
        return self.status == SAT

    @property
    def unsat(self) -> bool:
        return self.status == UNSAT

    def model_list(self) -> List[bool]:
        """The model as a list indexed by DIMACS variable (0 unused)."""
        if self.model is None:
            raise ValueError(f"verdict {self.obligation!r} has no model "
                             f"(status {self.status})")
        return unpack_model(self.model, self.nvars)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "status": self.status,
            "obligation": self.obligation,
            "fingerprint": self.fingerprint,
            "model": self.model.hex() if self.model is not None else None,
            "nvars": self.nvars,
            "runtime_s": self.runtime_s,
            "stats": dict(self.stats),
        }
        if self.failures is not None:
            data["failures"] = [dict(f) for f in self.failures]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Verdict":
        model = data.get("model")
        failures = data.get("failures")
        return cls(
            status=data["status"],
            obligation=data["obligation"],
            fingerprint=data["fingerprint"],
            model=bytes.fromhex(model) if model is not None else None,
            nvars=data.get("nvars", 0),
            runtime_s=data.get("runtime_s", 0.0),
            stats=dict(data.get("stats", {})),
            failures=[dict(f) for f in failures]
            if failures is not None else None,
        )


def _verdict_from_outcome(obligation: ProofObligation, fingerprint: str,
                          outcome: Optional[bool],
                          model: Optional[bytes],
                          stats: Dict[str, int], start: float,
                          stop_reason: Optional[str] = None) -> Verdict:
    if outcome is True:
        status = SAT
    elif outcome is False:
        status = UNSAT
    elif stop_reason == "deadline":
        status = TIMEOUT
    else:
        status = UNKNOWN
    return Verdict(
        status=status,
        obligation=obligation.name,
        fingerprint=fingerprint,
        model=model,
        nvars=obligation.nvars,
        runtime_s=time.perf_counter() - start,
        stats=stats,
    )


def _frozen_vars(obligation: ProofObligation) -> Set[int]:
    """The variables the pass must keep: the frozen set and every
    assumption's variable.  Raises :class:`FormalError` on one out of
    range."""
    nvars = obligation.nvars
    frozen = set(obligation.frozen)
    for var in frozen:
        if not 0 < var <= nvars:
            raise FormalError(f"unknown variable {var}")
    for lit in obligation.assumptions:
        if not (lit and -nvars <= lit <= nvars):
            raise FormalError(
                f"literal {lit} references an unknown variable")
        frozen.add(abs(lit))
    return frozen


def _load(nvars: int, clauses: List[List[int]], assumptions: Sequence[int]
          ) -> Tuple[CdclSolver, List[int]]:
    """A fresh CDCL solver holding ``clauses``, numbered by the snapshot.

    The solver gets one variable for each obligation variable that a
    clause or an assumption mentions, numbered 1..m in increasing order,
    and the clauses are loaded renumbered, in their order.  Returns the
    solver and the sorted obligation variables it kept (search variable
    ``i`` is ``kept[i - 1]``).  A variable outside ``1..nvars`` raises
    :class:`FormalError`.

    A variable the snapshot leaves out (eliminated, or in no clause of
    the slice) constrains nothing, so the verdict cannot depend on it.
    :func:`_search` reads it as False, the value a search over all
    ``nvars`` variables gives it (never bumped, it is decided at its
    initial negative phase), and ``reconstruct_model`` then extends the
    model over the stack.

    That the rest of the search is unchanged is measured, not guaranteed
    by construction.  The renumbering is monotone, so VSIDS tie-breaks,
    clause order and watch order stay those of the full numbering.  On
    the Tab.-I grid, Tab.-II ``orc``, D-not-in-cache ``secure`` and
    ``pmp_bug`` and the seeded differential corpus, status, model and
    every counter came out the same, except ``decisions`` and
    ``propagations``: each fell by exactly the number of decisions the
    full numbering made on left-out variables.  A trail-reuse restart
    can still differ.  It keeps the decision levels up to the first
    decision the best unassigned variable out-scores, and in the full
    numbering that can be a decision on a left-out variable (activity
    0).  The model that comes back may then differ; the verdict cannot.
    """
    literals = set(chain.from_iterable(clauses))
    literals.update(assumptions)
    kept = sorted(set(map(abs, literals)))
    if kept and (kept[0] < 1 or kept[-1] > nvars):
        bad = kept[0] if kept[0] < 1 else kept[-1]
        raise FormalError(f"unknown variable {bad}")
    # Indexed by obligation literal; a negative one reads from the end.
    number = [0] * (2 * nvars + 1)
    for new, var in enumerate(kept, 1):
        number[var] = new
        number[-var] = -new
    solver = CdclSolver()
    for _ in kept:
        solver.new_var()
    renumber = number.__getitem__
    solver.add_clauses(map(renumber, clause) for clause in clauses)
    return solver, kept


def _load_warm(obligation: ProofObligation, warm: Dict[str, Any]
               ) -> Optional[Tuple[CdclSolver, List[int], list]]:
    """The loaded solver, its kept variables (see :func:`_load`) and the
    reconstruction stack of a cached snapshot, or None when the payload
    does not fit the obligation (the cold path then runs, as on any
    other cache corruption)."""
    try:
        nvars = int(warm["nvars"])
        clauses = [[int(lit) for lit in clause]
                   for clause in warm["clauses"]]
        stack = [(int(entry[0]), [int(lit) for lit in entry[1]], True)
                 for entry in warm["stack"]]
    except (KeyError, TypeError, ValueError, IndexError):
        return None
    if nvars != obligation.nvars:
        return None
    # Reconstruction literals index straight into the model list, so a
    # corrupted stack must be rejected here (clause literals get the
    # same treatment from ``_load``'s range check below).
    for lit, clause, _active in stack:
        if not 1 <= abs(lit) <= nvars or \
                any(q == 0 or abs(q) > nvars for q in clause):
            return None
    try:
        solver, kept = _load(nvars, clauses, obligation.assumptions)
    except FormalError:
        return None
    return solver, kept, stack


def _search(obligation: ProofObligation, fingerprint: str,
            solver: CdclSolver, kept: List[int], stack: list,
            extra: Dict[str, int], start: float, cancel_check=None,
            deadline: Optional[float] = None) -> Verdict:
    """Search a snapshot :func:`_load` loaded under the obligation's
    assumptions, mapped into its numbering.  A model is mapped back
    (a variable ``kept`` leaves out reads False) and extended over the
    eliminated variables by ``stack``.  ``extra`` joins the search
    counters in the verdict's stats."""
    assumptions = []
    for lit in obligation.assumptions:
        new = bisect_left(kept, abs(lit)) + 1
        assumptions.append(new if lit > 0 else -new)
    outcome = solver.solve(
        assumptions=assumptions,
        conflict_limit=obligation.conflict_limit,
        cancel_check=cancel_check,
        deadline=deadline,
    )
    stats = solver.stats.as_dict()
    stats.update(extra)
    model: Optional[bytes] = None
    if outcome is True:
        values = [False] * (obligation.nvars + 1)
        for var, value in zip(kept, solver.model()[1:]):
            values[var] = value
        model = pack_model(reconstruct_model(values, stack))
    return _verdict_from_outcome(obligation, fingerprint, outcome, model,
                                 stats, start,
                                 stop_reason=solver.stop_reason)


def solve_obligation(obligation: ProofObligation,
                     simp_cache=None, cancel_check=None) -> Verdict:
    """Solve one obligation on a fresh solver (pure; picklable for
    worker processes).

    A cold solve runs one SatELite-style pass (:class:`Simplifier`, with
    :data:`~repro.formal.preprocess.PASS_SETTINGS`) over the
    obligation's clauses, keeping the frozen set and the assumption
    variables, and searches the resulting *snapshot*: the nvars, the
    units plus the simplified clauses, and the model-reconstruction
    stack.  ``simp_cache`` (a :class:`repro.engine.cache.ResultCache`)
    enables warm starts: a cold solve whose search leaves the obligation
    open (an ``unknown`` or ``timeout`` verdict) stores its snapshot
    under the obligation's own fingerprint, and a later solve of the
    same obligation, such as a retry with a bigger budget, looks it up
    and searches it with the same code, skipping the pass — warm and
    cold verdicts are bit-identical.  A definite verdict stores no
    snapshot: the caller stores that verdict under the same fingerprint,
    and every lookup reads the verdict first.

    The search numbers only the variables the snapshot mentions (its
    clauses and the assumptions; about one in five on the Tab.-I grid),
    so it never allocates or decides the ones the pass removed, and such
    a variable reads False until the stack extends the model.  That the
    search is otherwise the one a numbering of all ``nvars`` variables
    makes is measured, not guaranteed: :func:`_load` says what was
    compared and the one known way it can differ.

    Out-of-range input (a literal or frozen variable outside
    ``1..nvars``, or a zero literal) raises :class:`FormalError`, also
    where the literal would not change the answer.

    ``cancel_check`` is polled inside the CDCL conflict loop (every
    :data:`repro.formal.solver.CANCEL_CHECK_EVERY` conflicts); returning
    True abandons the search and yields an ``unknown`` verdict —
    cooperative preemption for distributed early-cancel.  Definite
    verdicts are unaffected, so purity (same obligation, same sat/unsat
    answer) is preserved.

    An obligation with a ``wall_budget`` arms a wall-clock deadline for
    this attempt; exhausting it yields a :data:`TIMEOUT` verdict —
    distinguishable from the ``unknown`` of a conflict-limit exhaustion
    or a cancel, so callers can report "timed out" instead of hanging
    or guessing.
    """
    start = time.perf_counter()
    deadline = None
    if obligation.wall_budget is not None and obligation.wall_budget > 0:
        deadline = time.monotonic() + obligation.wall_budget
    frozen = _frozen_vars(obligation)
    fingerprint = obligation.fingerprint()
    if simp_cache is not None:
        warm = simp_cache.lookup_simplified(fingerprint)
        loaded = _load_warm(obligation, warm) if warm is not None else None
        if loaded is not None:
            solver, kept, stack = loaded
            return _search(obligation, fingerprint, solver, kept, stack,
                           {"simplify_warm_starts": 1}, start,
                           cancel_check=cancel_check, deadline=deadline)
    simp_stats = SimplifyStats()
    simp_stats.simplifications = 1
    result = Simplifier(obligation.nvars, obligation.clauses, frozen=frozen,
                        stats=simp_stats, **PASS_SETTINGS).run()
    # A refuted pass leaves the empty clause: it fails to load, and the
    # search answers UNSAT at once.
    clauses = [[unit] for unit in result.units] if result.ok else [[]]
    clauses += result.clauses
    solver, kept = _load(obligation.nvars, clauses, obligation.assumptions)
    extra = {f"simplify_{key}": value
             for key, value in simp_stats.as_dict().items()}
    verdict = _search(obligation, fingerprint, solver, kept, result.stack,
                      extra, start, cancel_check=cancel_check,
                      deadline=deadline)
    if simp_cache is not None and verdict.status not in DEFINITE:
        simp_cache.store_simplified(fingerprint, {
            "nvars": obligation.nvars,
            "clauses": clauses,
            "stack": [(lit, clause) for lit, clause, _active in result.stack],
        })
    return verdict
