"""CNF preprocessing and inprocessing for the formal engine.

SatELite-style formula simplification (Eén & Biere 2005) ahead of CDCL
search: top-level unit propagation, backward subsumption, self-subsuming
resolution (clause strengthening), budgeted failed-literal probing, and
bounded variable elimination (BVE) by clause distribution.  The Tseitin
CNF emitted by :class:`repro.formal.aig.CnfMapper` is rich in functionally
defined variables, which is exactly the shape BVE collapses.

Eliminated variables are recorded on a *model-reconstruction stack*: each
entry pairs a witness literal with a clause removed during elimination.
Replaying the stack in reverse extends any model of the simplified formula
to a model of the original one (Järvisalo & Biere style reconstruction),
so witness extraction over the full variable set keeps working.

A pass is deterministic: the database, units, stack and counters it
returns, and the subsumption budget it leaves, are pinned by tests.
:class:`Simplifier` gets there in few interpreter steps by leaning on
three invariants (its docstring gives the details): a stored clause never
mentions a variable twice; the subsumption budget is charged for every
occurrence that passes the signature and length tests, before the stale
test, and read only between clauses and literals; and a clause that
strengthens another to a unit contains that unit, so it is removed
rather than shrunk in the middle of its own scan.

:class:`SimplifyingSolver` is a drop-in :class:`CdclSolver` facade: clauses
are buffered, simplified on the first solve, and re-simplified whenever the
incremental UPEC flow has grown the formula enough to pay for another pass
(inprocessing).  Variables eliminated in an earlier pass are transparently
*resurrected* — their removed clauses are re-added — when a later clause or
assumption mentions them, which keeps the incremental CnfMapper interface
sound.  A one-shot solve (:func:`repro.engine.obligation.solve_obligation`)
runs :class:`Simplifier` directly; both use :data:`PASS_SETTINGS`.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from repro.errors import FormalError
from repro.formal.solver import CdclSolver

#: A reconstruction entry: [witness literal, clause snapshot, active flag].
#: Mutable so :class:`SimplifyingSolver` can deactivate entries when a
#: variable is resurrected.
ReconstructionEntry = list

#: The pass settings of every solve that preprocesses: the in-place
#: :class:`SimplifyingSolver` and the obligation engine's cold solve.
PASS_SETTINGS = {"occ_limit": 16, "resolvent_limit": 24, "max_rounds": 2,
                 "probing": True}


class SimplifyStats:
    """Counters of the simplifier, exposed for benchmarking."""

    __slots__ = ("simplifications", "rounds", "units_fixed",
                 "clauses_subsumed", "literals_strengthened",
                 "vars_eliminated", "pure_literals", "failed_literals",
                 "probes", "resolvents_added", "clauses_in", "clauses_out")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class SimplifyResult:
    """Outcome of one simplification pass."""

    __slots__ = ("ok", "nvars", "clauses", "units", "stack", "eliminated",
                 "stats")

    def __init__(self, ok: bool, nvars: int, clauses: List[List[int]],
                 units: List[int], stack: List[ReconstructionEntry],
                 eliminated: Dict[int, List[ReconstructionEntry]],
                 stats: SimplifyStats) -> None:
        self.ok = ok                  # False: formula is UNSAT
        self.nvars = nvars
        self.clauses = clauses        # simplified clauses (no units)
        self.units = units            # top-level units (DIMACS literals)
        self.stack = stack            # reconstruction entries, in order
        self.eliminated = eliminated  # var -> its reconstruction entries
        self.stats = stats


def _sig(clause: Sequence[int]) -> int:
    """64-bit subsumption signature: a clause can only subsume another if
    its signature bits are a subset of the other's."""
    s = 0
    for lit in clause:
        s |= 1 << (lit & 63)
    return s


def reconstruct_model(values: List[bool],
                      stack: Sequence[ReconstructionEntry]) -> List[bool]:
    """Extend a model of the simplified formula over eliminated variables.

    ``values`` is indexed by variable (index 0 unused).  Entries are
    replayed in reverse: whenever a recorded clause is unsatisfied, the
    witness literal's variable is flipped to satisfy it.
    """
    out = list(values)
    for entry in reversed(stack):
        lit, clause, active = entry
        if not active:
            continue
        for q in clause:
            if out[abs(q)] == (q > 0):
                break
        else:
            out[abs(lit)] = lit > 0
    return out


class Simplifier:
    """One simplification pass over a CNF (see module docstring).

    All work is budgeted so a pass stays roughly linear in the formula
    size; the budgets are counted in literal visits.

    ``occ`` is indexed by the literal itself: a negative literal indexes
    from the end of its ``2 * nvars + 1`` lists.  The lists keep stale
    entries (clauses since removed or strengthened) until
    :meth:`_occurrences` cleans one, and their raw lengths order the
    elimination candidates, so every pass reads them as they are.

    Three invariants let the passes take shortcuts without changing a
    decision:

    1. A stored clause never mentions a variable twice.  Input clauses
       are deduplicated, tautologies and tautological resolvents are
       dropped, and literals are only ever removed.  So list membership
       answers what a set would, and a resolvent needs no duplicate or
       tautology check within either of its halves.
    2. ``subsume_budget`` is charged ``len(other)`` for every occurrence
       entry that passes the signature and length tests, before the
       stale test.  It is read only before each clause of a subsumption
       round and after each literal of the self-subsumption loop, so
       :meth:`_backward` keeps it in a local and writes it back at every
       exit.
    3. When a clause C strengthens another clause to a unit by
       self-subsuming resolution, C contains that unit (C minus the
       resolved literal is a subset of the unit).  :meth:`_assign_unit`
       therefore removes C rather than shrinking it, so C's length and
       signature cannot change in the middle of its scans.
    """

    def __init__(
        self,
        nvars: int,
        clauses: Iterable[Sequence[int]],
        frozen: Iterable[int] = (),
        stats: Optional[SimplifyStats] = None,
        occ_limit: int = 16,
        resolvent_limit: int = 24,
        subsume_budget: int = 1_500_000,
        probe_budget: int = 200_000,
        probe_candidates: int = 128,
        max_rounds: int = 3,
        probing: bool = True,
    ) -> None:
        self.nvars = nvars
        self.frozen: Set[int] = set(frozen)
        self.stats = stats if stats is not None else SimplifyStats()
        self.occ_limit = occ_limit
        self.resolvent_limit = resolvent_limit
        self.subsume_budget = subsume_budget
        self.probe_budget = probe_budget
        self.probe_candidates = probe_candidates
        self.max_rounds = max_rounds
        self.probing = probing

        self.ok = True
        self.assign: Dict[int, bool] = {}        # top-level assignments
        self.clauses: List[Optional[List[int]]] = []
        self.sigs: List[int] = []
        #: literal -> clause indices (see the class docstring)
        self.occ: List[List[int]] = [[] for _ in range(2 * nvars + 1)]
        self.stack: List[ReconstructionEntry] = []
        self.eliminated: Dict[int, List[ReconstructionEntry]] = {}
        rest = iter(clauses)
        for clause in rest:
            self.stats.clauses_in += 1
            if not self._add_input(clause):
                # Refuted; the clauses left are only range-checked.
                for clause in rest:
                    self._check_range(clause)
                break

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _check_range(self, lits: Iterable[int]) -> None:
        nvars = self.nvars
        for lit in lits:
            if not (lit and -nvars <= lit <= nvars):
                raise FormalError(
                    f"literal {lit} references an unknown variable")

    def _add_input(self, lits: Sequence[int]) -> bool:
        """Store one input clause (deduplicated, without top-level
        fixed literals); False when it refutes the formula.  Every
        literal is range-checked, also those after the one that drops
        the clause."""
        seen: Dict[int, bool] = {}
        clause: List[int] = []
        rest = iter(lits)
        for lit in rest:
            var = abs(lit)
            if var == 0 or var > self.nvars:
                raise FormalError(
                    f"literal {lit} references an unknown variable")
            sign = lit > 0
            prev = seen.get(var)
            if prev is not None:
                if prev != sign:
                    self._check_range(rest)
                    return True  # tautology
                continue
            seen[var] = sign
            fixed = self.assign.get(var)
            if fixed is not None:
                if fixed == sign:
                    self._check_range(rest)
                    return True  # satisfied at top level
                continue          # falsified literal, drop
            clause.append(lit)
        if not clause:
            self.ok = False
            return False
        if len(clause) == 1:
            if not self._assign_unit(clause[0]):
                self.ok = False
                return False
            return True
        self._store(clause)
        return True

    def _store(self, clause: List[int]) -> None:
        clauses = self.clauses
        ci = len(clauses)
        clauses.append(clause)
        occ = self.occ
        sig = 0
        for lit in clause:
            sig |= 1 << (lit & 63)
            occ[lit].append(ci)
        self.sigs.append(sig)

    # ------------------------------------------------------------------
    # Top-level unit propagation
    # ------------------------------------------------------------------
    def _assign_unit(self, lit: int) -> bool:
        """Fix a literal at the top level; returns False on conflict."""
        todo = [lit]
        clauses = self.clauses
        sigs = self.sigs
        occ = self.occ
        assign = self.assign
        while todo:
            l = todo.pop()
            var = abs(l)
            sign = l > 0
            prev = assign.get(var)
            if prev is not None:
                if prev != sign:
                    return False
                continue
            assign[var] = sign
            self.stats.units_fixed += 1
            for ci in occ[l]:                   # satisfied clauses
                clauses[ci] = None
            for ci in occ[-l]:                  # falsified literal
                clause = clauses[ci]
                if clause is None:
                    continue
                try:
                    clause.remove(-l)
                except ValueError:
                    continue  # stale occurrence
                sigs[ci] = _sig(clause)
                if not clause:
                    return False
                if len(clause) == 1:
                    todo.append(clause[0])
        return True

    # ------------------------------------------------------------------
    # Subsumption and self-subsuming resolution
    # ------------------------------------------------------------------
    def _subsume_round(self) -> bool:
        changed = False
        clauses = self.clauses
        order = sorted(
            (ci for ci, c in enumerate(clauses) if c is not None),
            key=lambda ci: len(clauses[ci]),  # type: ignore[arg-type]
        )
        for ci in order:
            if self.subsume_budget <= 0 or not self.ok:
                break
            if clauses[ci] is None:
                continue
            if self._backward(ci):
                changed = True
        return changed

    def _backward(self, ci: int) -> bool:
        """Remove clauses subsumed by ``ci``; strengthen near-subsumed
        ones by self-subsuming resolution (invariants 2 and 3 of the
        class docstring keep the budget and ``ci``'s clause in locals)."""
        clauses = self.clauses
        sigs = self.sigs
        occ = self.occ
        clause = clauses[ci]
        assert clause is not None
        size = len(clause)
        sig = sigs[ci]
        budget = self.subsume_budget
        changed = False
        # Backward subsumption via the first least-occurring literal.
        best = clause[0]
        fewest = len(occ[best])
        for l in clause:
            n = len(occ[l])
            if n < fewest:
                best = l
                fewest = n
        for di in occ[best]:
            if sig & sigs[di] != sig or di == ci:
                continue
            other = clauses[di]
            if other is None or len(other) < size:
                continue
            budget -= len(other)
            if best not in other:
                continue  # stale occurrence
            for l in clause:
                if l not in other:
                    break
            else:
                clauses[di] = None
                self.stats.clauses_subsumed += 1
                changed = True
        # Self-subsuming resolution: clause = (l | A) strengthens any
        # (~l | A | B) to (A | B).
        for l in clause:
            if clauses[ci] is not clause:
                break
            need = sig & ~(1 << (l & 63))
            neg = -l
            for di in occ[neg]:
                if need & sigs[di] != need or di == ci:
                    continue
                other = clauses[di]
                if other is None or len(other) < size:
                    continue
                budget -= len(other)
                if neg not in other:
                    continue  # stale occurrence
                for q in clause:
                    if q != l and q not in other:
                        break
                else:
                    other.remove(neg)
                    sigs[di] = _sig(other)
                    self.stats.literals_strengthened += 1
                    changed = True
                    if len(other) == 1:
                        unit = other[0]
                        clauses[di] = None
                        if not self._assign_unit(unit):
                            self.ok = False
                            self.subsume_budget = budget
                            return changed
            if budget <= 0:
                break
        self.subsume_budget = budget
        return changed

    # ------------------------------------------------------------------
    # Failed-literal probing
    # ------------------------------------------------------------------
    def _probe_round(self) -> bool:
        bin_count: Dict[int, int] = {}
        for clause in self.clauses:
            if clause is not None and len(clause) == 2:
                for l in clause:
                    # Probing -l propagates through this clause.
                    bin_count[-l] = bin_count.get(-l, 0) + 1
        candidates = sorted(bin_count, key=lambda l: -bin_count[l])
        changed = False
        visits = self.probe_budget
        for lit in candidates[: self.probe_candidates]:
            if visits <= 0 or not self.ok:
                break
            var = abs(lit)
            if var in self.assign or var in self.eliminated:
                continue
            self.stats.probes += 1
            conflict, visits = self._probe(lit, visits)
            if conflict:
                self.stats.failed_literals += 1
                changed = True
                if not self._assign_unit(-lit):
                    self.ok = False
                    break
        return changed

    def _probe(self, lit: int, visits: int) -> Tuple[bool, int]:
        """Propagate ``lit`` hypothetically; True iff it fails."""
        val: Dict[int, bool] = {abs(lit): lit > 0}
        queue = [lit]
        clauses = self.clauses
        occ = self.occ
        while queue:
            p = queue.pop()
            for ci in occ[-p]:
                clause = clauses[ci]
                if clause is None:
                    continue
                visits -= len(clause)
                if visits <= 0:
                    return False, 0
                unassigned = 0
                last = 0
                satisfied = False
                for q in clause:
                    w = val.get(abs(q))
                    if w is None:
                        unassigned += 1
                        last = q
                    elif w == (q > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if unassigned == 0:
                    return True, visits
                if unassigned == 1 and abs(last) not in val:
                    val[abs(last)] = last > 0
                    queue.append(last)
        return False, visits

    # ------------------------------------------------------------------
    # Bounded variable elimination
    # ------------------------------------------------------------------
    def _occurrences(self, lit: int) -> List[int]:
        """Clause indices currently containing ``lit`` (cleans the list)."""
        clauses = self.clauses
        alive = [ci for ci in self.occ[lit]
                 if (clause := clauses[ci]) is not None and lit in clause]
        self.occ[lit] = alive
        return alive

    def _try_eliminate(self, var: int) -> bool:
        """Eliminate ``var`` by clause distribution, unless the
        occurrence limits, a resolvent longer than ``resolvent_limit`` or
        more distinct resolvents than removed clauses forbid it.

        Each side's clauses are stripped of ``var`` or ``-var`` once.  A
        resolvent is the stripped positive clause followed by the
        stripped negative clause's literals it lacks; by invariant 1 it
        is a tautology iff the negative clause holds the negation of one
        of its literals."""
        if var in self.frozen or var in self.assign or var in self.eliminated:
            return False
        pos = self._occurrences(var)
        neg = self._occurrences(-var)
        if not pos and not neg:
            return False
        clauses = self.clauses
        resolvents: List[List[int]] = []
        if pos and neg:
            occ_limit = self.occ_limit
            if min(len(pos), len(neg)) > occ_limit:
                return False
            if len(pos) * len(neg) > 4 * occ_limit * occ_limit:
                return False
            limit = len(pos) + len(neg)
            resolvent_limit = self.resolvent_limit
            dedup: Set[FrozenSet[int]] = set()
            nvar = -var
            seconds = [[l for l in clauses[cj] if l != nvar] for cj in neg]
            for ci in pos:
                first = [l for l in clauses[ci] if l != var]
                for second in seconds:
                    r = first[:]
                    for l in second:
                        if -l in first:
                            break           # tautology
                        if l not in first:
                            r.append(l)
                    else:
                        if len(r) > resolvent_limit:
                            return False
                        key = frozenset(r)
                        if key in dedup:
                            continue
                        dedup.add(key)
                        resolvents.append(r)
                        if len(resolvents) > limit:
                            return False
        else:
            self.stats.pure_literals += 1
        # Commit: record removed clauses for model reconstruction.
        entries: List[ReconstructionEntry] = []
        for sign, indices in ((var, pos), (-var, neg)):
            for ci in indices:
                clause = clauses[ci]
                assert clause is not None
                entries.append([sign, tuple(clause), True])
                clauses[ci] = None
        self.stack.extend(entries)
        self.eliminated[var] = entries
        self.stats.vars_eliminated += 1
        self.stats.resolvents_added += len(resolvents)
        for r in resolvents:
            if len(r) == 1:
                if not self._assign_unit(r[0]):
                    self.ok = False
                    return True
            else:
                self._store(r)
        return True

    def _eliminate_round(self) -> bool:
        occ = self.occ
        assign = self.assign
        eliminated = self.eliminated
        frozen = self.frozen
        order = sorted(
            (v for v in range(1, self.nvars + 1)
             if v not in assign and v not in eliminated
             and v not in frozen),
            key=lambda v: len(occ[v]) + len(occ[-v]),
        )
        changed = False
        for v in order:
            if not self.ok:
                break
            if self._try_eliminate(v):
                changed = True
        return changed

    # ------------------------------------------------------------------
    def run(self) -> SimplifyResult:
        for round_no in range(self.max_rounds):
            if not self.ok:
                break
            self.stats.rounds += 1
            changed = self._subsume_round()
            if round_no == 0 and self.probing and self.ok:
                if self._probe_round():
                    changed = True
            if self.ok and self._eliminate_round():
                changed = True
            if not changed:
                break
        alive = [c for c in self.clauses if c is not None] if self.ok else []
        self.stats.clauses_out += len(alive)
        units = [v if sign else -v for v, sign in self.assign.items()] \
            if self.ok else []
        return SimplifyResult(
            ok=self.ok, nvars=self.nvars, clauses=alive, units=units,
            stack=self.stack, eliminated=self.eliminated, stats=self.stats,
        )


def simplify_clauses(nvars: int, clauses: Iterable[Sequence[int]],
                     frozen: Iterable[int] = (), **kwargs) -> SimplifyResult:
    """Run one simplification pass over a CNF (convenience wrapper)."""
    return Simplifier(nvars, clauses, frozen=frozen, **kwargs).run()


class SimplifyingSolver:
    """A :class:`CdclSolver` facade with pre- and inprocessing.

    Added clauses are buffered; the first :meth:`solve` simplifies the
    whole formula before searching, and later solves re-simplify once the
    incremental flow has grown the database past ``min_pending`` clauses or
    ``pending_frac`` of its size (inprocessing rebuilds start the CDCL
    search fresh, trading learnt clauses for a smaller formula).  SAT
    models are reconstructed over the original variables, so
    :meth:`model_value` behaves exactly like the plain solver's.
    """

    def __init__(self, min_pending: int = 2000,
                 pending_frac: float = 1.0) -> None:
        self.nvars = 0
        self.min_pending = min_pending
        self.pending_frac = pending_frac
        self.simplify_stats = SimplifyStats()
        self._inner = CdclSolver()
        self._db: List[List[int]] = []       # simplified database
        self._pending: List[List[int]] = []  # not yet given to the search
        self._stack: List[ReconstructionEntry] = []
        self._eliminated: Dict[int, List[ReconstructionEntry]] = {}
        self._frozen: Set[int] = set()
        self._ok = True
        self._did_initial = False
        self._model: Optional[List[bool]] = None
        self.stop_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # CdclSolver-compatible construction API
    # ------------------------------------------------------------------
    @property
    def stats(self):
        return self._inner.stats

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def _check_lit(self, lit: int) -> None:
        if lit == 0 or abs(lit) > self.nvars:
            raise FormalError(f"literal {lit} references an unknown variable")

    def add_clause(self, lits: Iterable[int]) -> bool:
        if not self._ok:
            return False
        seen: Dict[int, bool] = {}
        clause: List[int] = []
        for lit in lits:
            self._check_lit(lit)
            var = abs(lit)
            sign = lit > 0
            prev = seen.get(var)
            if prev is not None:
                if prev != sign:
                    return True  # tautology
                continue
            seen[var] = sign
            clause.append(lit)
        if not clause:
            self._ok = False
            return False
        for var in seen:
            if var in self._eliminated:
                self._resurrect(var)
        self._pending.append(clause)
        self._model = None
        return True

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok and self._ok

    def freeze_var(self, var: int) -> None:
        """Protect a variable from elimination (MiniSat's ``setFrozen``).

        Witness-relevant variables should be frozen so counterexample
        models read their values straight from the search instead of from
        don't-care reconstruction choices."""
        if var == 0 or var > self.nvars:
            raise FormalError(f"unknown variable {var}")
        if var in self._eliminated:
            self._resurrect(var)
        self._frozen.add(var)

    # ------------------------------------------------------------------
    # Variable resurrection
    # ------------------------------------------------------------------
    def _resurrect(self, var: int) -> None:
        """Re-add the clauses removed when ``var`` was eliminated (sound:
        they are implied by the resolvents that replaced them)."""
        work = [var]
        while work:
            v = work.pop()
            entries = self._eliminated.pop(v, None)
            if entries is None:
                continue
            self._frozen.add(v)
            for entry in entries:
                entry[2] = False
                clause = list(entry[1])
                self._pending.append(clause)
                for lit in clause:
                    if abs(lit) in self._eliminated:
                        work.append(abs(lit))

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _sync_vars(self) -> None:
        while self._inner.nvars < self.nvars:
            self._inner.new_var()

    def _rebuild(self) -> bool:
        """Simplify the whole database and restart the search on it."""
        db = self._db + self._pending
        self._pending = []
        self.simplify_stats.simplifications += 1
        result = Simplifier(self.nvars, db, frozen=self._frozen,
                            stats=self.simplify_stats,
                            **PASS_SETTINGS).run()
        if not result.ok:
            self._ok = False
            return False
        self._stack.extend(result.stack)
        self._eliminated.update(result.eliminated)
        old_stats = self._inner.stats
        self._inner = CdclSolver()
        for name in old_stats.__slots__:
            setattr(self._inner.stats, name, getattr(old_stats, name))
        self._sync_vars()
        self._db = [[u] for u in result.units]
        self._db.extend(result.clauses)
        for clause in self._db:
            if not self._inner.add_clause(clause):
                self._ok = False
                return False
        return True

    def _flush(self) -> bool:
        self._sync_vars()
        for clause in self._pending:
            self._db.append(clause)
            if not self._inner.add_clause(clause):
                self._ok = False
        self._pending = []
        return self._ok

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        cancel_check=None,
        deadline: Optional[float] = None,
    ) -> Optional[bool]:
        self.stop_reason: Optional[str] = None
        self._model = None
        if not self._ok:
            return False
        for a in assumptions:
            self._check_lit(a)
            var = abs(a)
            if var in self._eliminated:
                self._resurrect(var)
            self._frozen.add(var)
        pend = len(self._pending)
        if pend and (
            not self._did_initial
            or pend > max(self.min_pending,
                          int(self.pending_frac * len(self._db)))
        ):
            self._did_initial = True
            if not self._rebuild():
                return False
        elif pend:
            if not self._flush():
                return False
        else:
            self._sync_vars()
        outcome = self._inner.solve(
            assumptions=assumptions, conflict_limit=conflict_limit,
            cancel_check=cancel_check, deadline=deadline,
        )
        self.stop_reason = self._inner.stop_reason
        if outcome is True:
            base = [False] * (self.nvars + 1)
            inner = self._inner
            for v in range(1, inner.nvars + 1):
                base[v] = inner.model_value(v)
            self._model = reconstruct_model(base, self._stack)
        return outcome

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model_value(self, lit: int) -> bool:
        if self._model is None:
            raise FormalError("no model available (last solve was not SAT)")
        var = abs(lit)
        if var == 0 or var > self.nvars:
            raise FormalError(f"unknown variable {var}")
        value = self._model[var]
        return value if lit > 0 else not value

    def model(self) -> List[bool]:
        return [False] + [self.model_value(v)
                          for v in range(1, self.nvars + 1)]
