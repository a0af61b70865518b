"""A CDCL SAT solver.

This is the proof engine underneath UPEC's interval property checking.  The
design follows MiniSat: two-watched-literal propagation, first-UIP conflict
analysis with clause learning, VSIDS-style activity-based decision heuristics
with phase saving, Luby restarts and activity-based learnt-clause deletion.

Literals use the DIMACS convention at the API boundary (positive/negative
non-zero ints); internally literal ``2*v`` is the positive and ``2*v + 1``
the negative phase of variable ``v``.  Clauses are plain Python lists; watch
lists and reasons reference clause objects directly (cheap identity-based
bookkeeping keeps the Python interpreter overhead down — this solver spends
its life in ``_propagate``).

Values are kept per literal, as in MiniSat: ``_value[lit]`` is 1 (true),
0 (false) or -1 (unassigned), and assigning or unassigning a variable
writes both of its literals, so a watch test is one list read.  The model
of a SAT answer is ``_value[::2]``, the values of the positive literals.

The VSIDS order is a ``heapq`` of ``(-activity, var)`` entries whose
validity is decided when an entry is popped: it counts only if the
variable is unassigned and the key still equals its activity.  That test
decides the search, so it must not change.  In particular, a rescale of
all activities (past 1e100) turns the entries of unassigned variables
with non-zero activity stale, and those variables stay out of the order
until they are next unassigned; re-queueing them would be a different
(and not clearly better) search.

The queue holds at most one entry per variable and key.
``_queued[var]`` is the key of the variable's newest unpopped entry
(-1.0 for none), and a pop that removes that entry clears it.  Conflict
analysis bumps activities without pushing, since it only bumps assigned
variables, and ``_backtrack`` pushes each variable it unassigns unless
its current key is already queued.  A pop can therefore return exactly
the variables that one push per bump and per unassignment would offer,
so every decision is the same, for a fraction of the heap traffic.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import FormalError

_UNASSIGNED = -1
#: ``_queued`` entry of a variable with no unpopped order entry.
_NOT_QUEUED = -1.0

#: How many conflicts pass between two ``cancel_check`` polls.  The
#: callback crosses a thread boundary (a worker's receiver thread sets
#: the flag it reads), so it must be cheap but need not be instant —
#: a few hundred conflicts of latency is well under a second.
CANCEL_CHECK_EVERY = 256


def luby_sequence(n: int) -> List[int]:
    """First ``n`` elements of the Luby restart sequence (testing helper)."""
    seq: List[int] = []
    u, v = 1, 1
    for _ in range(n):
        seq.append(v)
        if (u & -u) == v:
            u += 1
            v = 1
        else:
            v *= 2
    return seq


class Stats:
    """Solver statistics, exposed for benchmarking."""

    __slots__ = ("conflicts", "decisions", "propagations", "restarts",
                 "learnt_deleted", "glue_learnts", "trail_reuses")

    def __init__(self) -> None:
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learnt_deleted = 0
        self.glue_learnts = 0
        self.trail_reuses = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class CdclSolver:
    """Conflict-driven clause-learning SAT solver."""

    def __init__(self) -> None:
        self.nvars = 0
        self._clauses: List[List[int]] = []      # problem clauses
        self._learnts: List[List[int]] = []
        self._learnt_act: Dict[int, float] = {}  # id(clause) -> activity
        self._learnt_lbd: Dict[int, int] = {}    # id(clause) -> glue level
        self._learnt_set: Dict[int, List[int]] = {}
        self._watches: List[List[List[int]]] = [[], []]  # lit -> clauses
        self._value: List[int] = [_UNASSIGNED, _UNASSIGNED]  # lit -> value
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._polarity: List[bool] = [False]
        self._activity: List[float] = [0.0]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._order: List[tuple] = []  # max-heap via negated activities
        self._queued: List[float] = [_NOT_QUEUED]  # var -> newest key
        self._ok = True
        self._model: List[int] = []
        self.stats = Stats()
        #: why the last :meth:`solve` returned None ("conflicts",
        #: "cancelled" or "deadline"); None after a definite answer.
        self.stop_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) DIMACS index."""
        self.nvars += 1
        self._value.append(_UNASSIGNED)
        self._value.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._polarity.append(False)
        self._activity.append(0.0)
        self._watches.append([])
        self._watches.append([])
        self._queued.append(0.0)
        heapq.heappush(self._order, (0.0, self.nvars))
        return self.nvars

    def _to_internal(self, lit: int) -> int:
        var = abs(lit)
        if var == 0 or var > self.nvars:
            raise FormalError(f"literal {lit} references an unknown variable")
        return 2 * var + (1 if lit < 0 else 0)

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a problem clause (DIMACS literals).

        Returns False if the formula is already trivially unsatisfiable.
        """
        return self.add_clauses((lits,))

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        """Add problem clauses in order, each as :meth:`add_clause` does.

        Returns False if the formula is already trivially unsatisfiable;
        the clauses after the one that made it so are not read.
        """
        if not self._ok:
            return False
        # Incremental use: clauses may arrive between solve() calls while
        # the trail still holds a model.  Unit clauses must be asserted at
        # level 0 (they are not stored), so drop back first.
        self._backtrack(0)
        nvars = self.nvars
        values = self._value
        level = self._level
        watches = self._watches
        stored = self._clauses
        for lits in clauses:
            seen: Dict[int, int] = {}
            clause: List[int] = []
            for lit in lits:
                if lit < 0:
                    var = -lit
                    phase = 1
                else:
                    var = lit
                    phase = 0
                if var == 0 or var > nvars:
                    raise FormalError(
                        f"literal {lit} references an unknown variable")
                prior = seen.get(var)
                if prior is not None:
                    if prior != phase:
                        break  # tautology: x | ~x
                    continue
                seen[var] = phase
                internal = 2 * var + phase
                value = values[internal]
                if value != _UNASSIGNED and level[var] == 0:
                    if value == 1:
                        break  # already satisfied at top level
                    continue  # already falsified at top level
                clause.append(internal)
            else:
                if len(clause) > 1:
                    stored.append(clause)
                    watches[clause[0] ^ 1].append(clause)
                    watches[clause[1] ^ 1].append(clause)
                elif not clause or not self._enqueue(clause[0], None) \
                        or self._propagate() is not None:
                    self._ok = False
                    return False
        return True

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------
    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        values = self._value
        value = values[lit]
        if value != _UNASSIGNED:
            return value == 1
        values[lit] = 1
        values[lit ^ 1] = 0
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None."""
        trail = self._trail
        watches = self._watches
        values = self._value
        level = self._level
        reason = self._reason
        decision_level = len(self._trail_lim)
        qhead = start = self._qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            watch_list = iter(watches[lit])
            watches[lit] = keep = []
            false_lit = lit ^ 1
            for clause in watch_list:
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                fval = values[first]
                if fval == 1:
                    keep.append(clause)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if values[other]:  # true or unassigned: watch it
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other ^ 1].append(clause)
                        break
                else:
                    keep.append(clause)
                    if fval == _UNASSIGNED:
                        values[first] = 1
                        values[first ^ 1] = 0
                        var = first >> 1
                        level[var] = decision_level
                        reason[var] = clause
                        trail.append(first)
                    else:
                        # Conflict: restore the remaining watches and report.
                        keep.extend(watch_list)
                        self.stats.propagations += qhead - start
                        self._qhead = len(trail)
                        return clause
        self.stats.propagations += qhead - start
        self._qhead = qhead
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _rescale_activity(self) -> None:
        """Scale every activity and the bump increment by 1e-100; the
        order's entries of unassigned variables go stale (see the module
        docstring)."""
        activity = self._activity
        for v in range(1, self.nvars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100

    def _bump_clause(self, clause: List[int]) -> None:
        """Bump a learnt clause (callers skip problem clauses)."""
        key = id(clause)
        self._learnt_act[key] += self._cla_inc
        if self._learnt_act[key] > 1e20:
            for k in self._learnt_act:
                self._learnt_act[k] *= 1e-20
            self._cla_inc *= 1e-20
        # Glucose-style dynamic LBD: a clause participating in conflict
        # analysis has all literals assigned, so its glue can be refreshed
        # (it only ever improves, protecting it from deletion).
        old = self._learnt_lbd.get(key, 0)
        if old > 2:
            levels = self._level
            lbd = len({levels[q >> 1] for q in clause})
            if lbd < old:
                self._learnt_lbd[key] = lbd

    def _analyze(self, conflict: List[int]) -> tuple:
        """First-UIP learning; returns (learnt clause, backtrack level)."""
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = bytearray(self.nvars + 1)
        counter = 0
        lit = -1
        clause: Optional[List[int]] = conflict
        trail = self._trail
        index = len(trail) - 1
        current_level = len(self._trail_lim)
        levels = self._level
        activity = self._activity
        var_inc = self._var_inc
        learnt_act = self._learnt_act
        while True:
            assert clause is not None, "reason missing during conflict analysis"
            if id(clause) in learnt_act:
                self._bump_clause(clause)
            lits = iter(clause)
            if lit != -1:
                next(lits)  # a reason's first literal is the one it implied
            for q in lits:
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    activity[var] += var_inc
                    if activity[var] > 1e100:
                        self._rescale_activity()
                        var_inc = self._var_inc
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            clause = self._reason[var]
        learnt[0] = lit ^ 1
        # Conflict-clause minimization: drop literals implied by the rest.
        if len(learnt) > 1:
            marked = set(q >> 1 for q in learnt[1:])
            kept = [learnt[0]]
            for q in learnt[1:]:
                reason = self._reason[q >> 1]
                if reason is None:
                    kept.append(q)
                    continue
                if all(
                    (r >> 1) in marked or levels[r >> 1] == 0
                    for r in reason
                    if (r >> 1) != (q >> 1)
                ):
                    continue  # redundant
                kept.append(q)
            learnt = kept
        if len(learnt) == 1:
            return learnt, 0
        # Backtrack level = second highest decision level in the clause.
        max_i = 1
        for i in range(2, len(learnt)):
            if levels[learnt[i] >> 1] > levels[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, levels[learnt[1] >> 1]

    def _backtrack(self, target_level: int) -> None:
        if len(self._trail_lim) <= target_level:
            return
        bound = self._trail_lim[target_level]
        values = self._value
        polarity = self._polarity
        reason = self._reason
        push = heapq.heappush
        order = self._order
        activity = self._activity
        queued = self._queued
        for lit in reversed(self._trail[bound:]):
            var = lit >> 1
            polarity[var] = not lit & 1
            values[lit] = values[lit ^ 1] = _UNASSIGNED
            reason[var] = None
            act = activity[var]
            if queued[var] != act:
                queued[var] = act
                push(order, (-act, var))
        del self._trail[bound:]
        del self._trail_lim[target_level:]
        self._qhead = len(self._trail)

    def _record_learnt(self, clause: List[int], lbd: int = 0) -> None:
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            return
        self._learnts.append(clause)
        self._learnt_act[id(clause)] = self._cla_inc
        self._learnt_lbd[id(clause)] = lbd
        self._learnt_set[id(clause)] = clause
        if lbd and lbd <= 2:
            self.stats.glue_learnts += 1
        self._watches[clause[0] ^ 1].append(clause)
        self._watches[clause[1] ^ 1].append(clause)
        self._enqueue(clause[0], clause)

    def _reduce_db(self) -> None:
        """Drop half the learnt clauses, worst glue (LBD) first.

        Glue clauses (LBD <= 2) and binaries are always kept — they are the
        learnts that keep paying for themselves (Audemard & Simon 2009)."""
        if not self._learnts:
            return
        locked = set()
        for var in range(1, self.nvars + 1):
            reason = self._reason[var]
            if reason is not None and id(reason) in self._learnt_act:
                locked.add(id(reason))
        lbd = self._learnt_lbd
        act = self._learnt_act
        order = sorted(
            self._learnts,
            key=lambda c: (-lbd.get(id(c), 0), act[id(c)]),
        )
        drop = set()
        for clause in order[: len(order) // 2]:
            key = id(clause)
            if key in locked or len(clause) <= 2:
                continue
            if lbd.get(key, 3) <= 2:
                continue
            drop.add(key)
        if not drop:
            return
        self._learnts = [c for c in self._learnts if id(c) not in drop]
        for key in drop:
            del self._learnt_act[key]
            del self._learnt_lbd[key]
            del self._learnt_set[key]
        self.stats.learnt_deleted += len(drop)
        for lit in range(2, 2 * self.nvars + 2):
            self._watches[lit] = [
                c for c in self._watches[lit] if id(c) not in drop
            ]

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _decide(self) -> Optional[int]:
        order = self._order
        values = self._value
        activity = self._activity
        queued = self._queued
        pop = heapq.heappop
        while order:
            neg_act, var = pop(order)
            key = -neg_act
            if queued[var] == key:
                queued[var] = _NOT_QUEUED
            if values[2 * var] == _UNASSIGNED and key == activity[var]:
                return 2 * var + (0 if self._polarity[var] else 1)
        for var in range(1, self.nvars + 1):
            if values[2 * var] == _UNASSIGNED:
                return 2 * var + (0 if self._polarity[var] else 1)
        return None

    def _restart_level(self, base: int) -> int:
        """Restart target with trail reuse (van der Tak et al. 2011).

        Decision levels whose decision variable out-scores the best
        unassigned variable would be re-made verbatim after a full
        restart, so the trail prefix up to the first out-scored decision
        is kept instead of being rebuilt by propagation."""
        order = self._order
        values = self._value
        activity = self._activity
        queued = self._queued
        while order:
            neg_act, var = order[0]
            key = -neg_act
            if values[2 * var] == _UNASSIGNED and key == activity[var]:
                break
            heapq.heappop(order)
            if queued[var] == key:
                queued[var] = _NOT_QUEUED
        if not order:
            return base
        best = -order[0][0]
        trail = self._trail
        lim = self._trail_lim
        level = base
        while level < len(lim):
            pos = lim[level]
            if pos >= len(trail):
                break
            if activity[trail[pos] >> 1] < best:
                break
            level += 1
        return level

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        cancel_check: Optional[Callable[[], bool]] = None,
        deadline: Optional[float] = None,
    ) -> Optional[bool]:
        """Solve the formula.

        Returns True (SAT), False (UNSAT), or None if ``conflict_limit``
        was exhausted.  On SAT, :meth:`model_value` reads the model.

        ``cancel_check`` is polled every :data:`CANCEL_CHECK_EVERY`
        conflicts; returning True abandons the search with None, exactly
        like an exhausted conflict budget — cooperative preemption for
        solves whose answer nobody wants anymore (a cancelled distributed
        batch).  A definite sat/unsat answer is never affected: the check
        only ever converts *remaining* search into an early exit.

        ``deadline`` (a ``time.monotonic()`` instant) is the wall-clock
        budget, polled at the same cadence; expiring abandons the search
        with None.  After any None return, :attr:`stop_reason` says why
        ("conflicts", "cancelled" or "deadline") so callers can report a
        distinguishable *timeout* instead of a generic unknown.
        """
        self.stop_reason: Optional[str] = None
        self._model = []
        if not self._ok:
            return False
        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return False
        internal_assumptions = [self._to_internal(a) for a in assumptions]
        restart_idx = 0
        luby = luby_sequence(64)
        conflicts_until_restart = 100 * luby[0]
        conflicts_at_start = self.stats.conflicts
        max_learnts = max(2000, len(self._clauses) // 2)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                if len(self._trail_lim) == 0:
                    self._ok = False
                    return False
                if (
                    conflict_limit is not None
                    and self.stats.conflicts - conflicts_at_start
                    >= conflict_limit
                ):
                    self.stop_reason = "conflicts"
                    self._backtrack(0)
                    return None
                if (
                    (cancel_check is not None or deadline is not None)
                    and (self.stats.conflicts - conflicts_at_start)
                    % CANCEL_CHECK_EVERY == 0
                ):
                    if cancel_check is not None and cancel_check():
                        self.stop_reason = "cancelled"
                        self._backtrack(0)
                        return None
                    if deadline is not None \
                            and time.monotonic() >= deadline:
                        self.stop_reason = "deadline"
                        self._backtrack(0)
                        return None
                learnt, back_level = self._analyze(conflict)
                # LBD (glue) of the learnt clause: number of distinct
                # decision levels, computed while everything is assigned.
                levels = self._level
                lbd = len({levels[q >> 1] for q in learnt})
                # Backtracking may undo assumption pseudo-decisions; the
                # main loop re-places them (and detects assumptions that
                # have become falsified by learnt units).
                self._backtrack(back_level)
                self._record_learnt(learnt, lbd)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                conflicts_until_restart -= 1
                if len(self._learnts) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                continue
            if conflicts_until_restart <= 0 and len(self._trail_lim) > len(
                internal_assumptions
            ):
                self.stats.restarts += 1
                restart_idx += 1
                if restart_idx >= len(luby):
                    luby = luby_sequence(2 * len(luby))
                conflicts_until_restart = 100 * luby[restart_idx]
                base = min(len(internal_assumptions), len(self._trail_lim))
                target = self._restart_level(base)
                if target > base:
                    self.stats.trail_reuses += 1
                self._backtrack(target)
                continue
            # Place assumptions as pseudo-decisions.
            placed_all = True
            for i, lit in enumerate(internal_assumptions):
                if len(self._trail_lim) > i:
                    continue
                value = self._value[lit]
                if value == 0:
                    return False  # assumption falsified by the formula
                self._trail_lim.append(len(self._trail))
                if value == _UNASSIGNED:
                    self._enqueue(lit, None)
                placed_all = False
                break
            if not placed_all:
                continue
            decision = self._decide()
            if decision is None:
                self._model = self._value[::2]
                return True
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model_value(self, lit: int) -> bool:
        """Value of a DIMACS literal in the last model."""
        if not self._model:
            raise FormalError("no model available (last solve was not SAT)")
        var = abs(lit)
        if var > self.nvars:
            raise FormalError(f"unknown variable {var}")
        value = self._model[var]
        if value == _UNASSIGNED:
            value = 0  # don't-care variables default to false
        return bool(value) if lit > 0 else not bool(value)

    def model(self) -> List[bool]:
        """The last model as a list indexed by variable (index 0 unused)."""
        return [False] + [self.model_value(v) for v in range(1, self.nvars + 1)]
