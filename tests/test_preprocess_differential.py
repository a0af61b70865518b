"""Differential fuzzing of the CNF pre-/inprocessor.

Every suite drives seeded random CNF instances (small enough for exhaustive
enumeration) through the solver with and without preprocessing and compares
against brute force: the SAT/UNSAT verdict must agree exactly, and every
SAT model must satisfy the *original* clauses — which exercises bounded
variable elimination's model-reconstruction stack end to end.

The standalone :class:`Simplifier` is also pinned exactly: a digest of
its output on fixed formulas, and a differential against
:class:`ReferenceSimplifier`, the straightforward implementation it
replaced, which must agree on the whole result and the final
subsumption budget.

``REPRO_FUZZ_SCALE`` multiplies the iteration counts (CI can turn the
screws); the ``slow`` marker gates an extra high-volume pass.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import random
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import pytest

from repro.engine.obligation import (ProofObligation, decode_cnf, encode_cnf,
                                     pack_model, solve_obligation)
from repro.errors import FormalError
from repro.formal.preprocess import (
    ReconstructionEntry,
    Simplifier,
    SimplifyingSolver,
    SimplifyResult,
    SimplifyStats,
    reconstruct_model,
    simplify_clauses,
)
from repro.formal.solver import CdclSolver

FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))


def brute_force_sat(nvars, clauses):
    for bits in itertools.product([False, True], repeat=nvars):
        ok = True
        for clause in clauses:
            if not any(
                bits[abs(l) - 1] if l > 0 else not bits[abs(l) - 1]
                for l in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


def random_cnf(rng, max_vars=12):
    nvars = rng.randint(1, max_vars)
    nclauses = rng.randint(1, 3 * nvars)
    clauses = []
    for _ in range(nclauses):
        size = rng.randint(1, 5)
        clauses.append(
            [rng.randint(1, nvars) * rng.choice([1, -1]) for _ in range(size)]
        )
    return nvars, clauses


def make_solver(cls, nvars, clauses, **kwargs):
    solver = cls(**kwargs) if kwargs else cls()
    for _ in range(nvars):
        solver.new_var()
    solver.add_clauses(clauses)
    return solver


def assert_model_satisfies(solver, clauses):
    for clause in clauses:
        # Tautologies are dropped on add; they hold in any assignment.
        if any(-l in clause for l in clause):
            continue
        assert any(solver.model_value(l) for l in clause), \
            f"model violates original clause {clause}"


def run_verdict_cases(seed, count, **solver_kwargs):
    rng = random.Random(seed)
    for _ in range(count):
        nvars, clauses = random_cnf(rng)
        expected = brute_force_sat(nvars, clauses)
        raw = make_solver(CdclSolver, nvars, clauses)
        assert raw.solve() is expected
        pre = make_solver(SimplifyingSolver, nvars, clauses, **solver_kwargs)
        assert pre.solve() is expected, \
            f"preprocessing changed the verdict on {clauses}"
        if expected:
            assert_model_satisfies(raw, clauses)
            assert_model_satisfies(pre, clauses)
            # Verdicts are stable across repeated solves.
            assert pre.solve() is True
            assert_model_satisfies(pre, clauses)


def test_preprocessed_verdicts_agree_with_brute_force():
    run_verdict_cases(seed=101, count=160 * FUZZ_SCALE)


def test_preprocessed_verdicts_with_forced_inprocessing():
    """min_pending=1 forces a simplification rebuild on every solve."""
    run_verdict_cases(seed=202, count=80 * FUZZ_SCALE, min_pending=1)


def test_assumption_differential():
    rng = random.Random(303)
    for _ in range(120 * FUZZ_SCALE):
        nvars, clauses = random_cnf(rng)
        assumptions = sorted(
            {rng.randint(1, nvars) * rng.choice([1, -1])
             for _ in range(rng.randint(0, 3))},
            key=abs,
        )
        # Drop contradictory assumption pairs (x and -x).
        assumptions = [a for a in assumptions if -a not in assumptions]
        expected = brute_force_sat(
            nvars, clauses + [[a] for a in assumptions]
        )
        pre = make_solver(SimplifyingSolver, nvars, clauses)
        assert pre.solve(assumptions=assumptions) is expected
        if expected:
            assert_model_satisfies(pre, clauses)
            for a in assumptions:
                assert pre.model_value(a)
        # The solver stays usable: an assumption-free solve matches
        # brute force on the bare formula.
        assert pre.solve() is brute_force_sat(nvars, clauses)


def test_incremental_inprocessing_differential():
    """Interleave clause batches and solves: covers inprocessing rebuilds
    and the resurrection of eliminated variables."""
    rng = random.Random(404)
    for _ in range(80 * FUZZ_SCALE):
        nvars = rng.randint(2, 10)
        pre = make_solver(
            SimplifyingSolver, nvars, [],
            min_pending=rng.choice([1, 4, 10_000]),
        )
        accumulated = []
        unsat_seen = False
        for _ in range(rng.randint(2, 4)):
            batch = []
            for _ in range(rng.randint(1, 12)):
                size = rng.randint(1, 4)
                batch.append([
                    rng.randint(1, nvars) * rng.choice([1, -1])
                    for _ in range(size)
                ])
            accumulated.extend(batch)
            pre.add_clauses(batch)
            assumptions = [
                rng.randint(1, nvars) * rng.choice([1, -1])
                for _ in range(rng.randint(0, 2))
            ]
            assumptions = [a for a in assumptions if -a not in assumptions]
            expected = brute_force_sat(
                nvars, accumulated + [[a] for a in assumptions]
            )
            outcome = pre.solve(assumptions=assumptions)
            if unsat_seen:
                assert outcome is False
                continue
            assert outcome is expected
            if outcome:
                assert_model_satisfies(pre, accumulated)
                for a in assumptions:
                    assert pre.model_value(a)
            if not brute_force_sat(nvars, accumulated):
                unsat_seen = True


def test_simplifier_preserves_satisfiability():
    """The standalone pass: the simplified formula is equisatisfiable and
    any of its models reconstructs to a model of the original."""
    rng = random.Random(505)
    for _ in range(120 * FUZZ_SCALE):
        nvars, clauses = random_cnf(rng, max_vars=10)
        expected = brute_force_sat(nvars, clauses)
        result = simplify_clauses(nvars, clauses)
        if not result.ok:
            assert expected is False
            continue
        reduced = result.clauses + [[u] for u in result.units]
        assert brute_force_sat(nvars, reduced) is expected
        assert result.nvars == nvars
        if expected:
            inner = make_solver(CdclSolver, nvars, reduced)
            assert inner.solve() is True
            base = [False] + [inner.model_value(v)
                              for v in range(1, nvars + 1)]
            full = reconstruct_model(base, result.stack)
            for clause in clauses:
                if any(-l in clause for l in clause):
                    continue
                assert any(
                    full[abs(l)] == (l > 0) for l in clause
                ), f"reconstructed model violates {clause}"


def test_frozen_variables_survive_elimination():
    rng = random.Random(606)
    for _ in range(40 * FUZZ_SCALE):
        nvars, clauses = random_cnf(rng, max_vars=8)
        frozen = {rng.randint(1, nvars) for _ in range(2)}
        result = simplify_clauses(nvars, clauses, frozen=frozen)
        for var in frozen:
            assert var not in result.eliminated


@pytest.mark.slow
def test_fuzz_slow_high_volume():
    """Deep pass for CI's full runs (scaled further by REPRO_FUZZ_SCALE)."""
    run_verdict_cases(seed=9001, count=400 * FUZZ_SCALE)
    run_verdict_cases(seed=9002, count=100 * FUZZ_SCALE, min_pending=1)


# ----------------------------------------------------------------------
# The standalone Simplifier, pinned exactly
# ----------------------------------------------------------------------
def lcg_tseitin(seed, inputs, gates, extra):
    """A Tseitin AND network over ``inputs`` free variables plus
    ``extra`` random 2-4 literal constraints, drawn from a 64-bit LCG so
    the formula does not depend on the ``random`` module's algorithms."""
    state = seed

    def draw(bound):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) \
            % (1 << 64)
        return (state >> 33) % bound

    nvars = inputs
    clauses = []

    def lit():
        return (draw(nvars) + 1) * (1 if draw(2) else -1)

    for _ in range(gates):
        a, b = lit(), lit()
        nvars += 1
        clauses += [[-nvars, a], [-nvars, b], [nvars, -a, -b]]
    for _ in range(extra):
        clauses.append([lit() for _ in range(2 + draw(3))])
    return nvars, clauses


def simplifier_outcome(result):
    """Everything a pass returns, in a JSON-ready form: the stack with
    its active flags, and ``eliminated`` as (variable, entries) pairs."""
    def entries(stack):
        return [[lit, list(clause), active] for lit, clause, active in stack]

    return [
        result.ok, result.nvars, result.clauses, result.units,
        entries(result.stack),
        [[var, entries(stack)] for var, stack in result.eliminated.items()],
        result.stats.as_dict(),
    ]


class _FirstBatch(Exception):
    pass


#: The fingerprint of :func:`first_orc_obligation`, ``6569169f1a034b20``
#: under :func:`reference_fingerprint_v1`.
ORC_FRAME1_FINGERPRINT = "690adbc4bc7c74e1"


def reference_fingerprint_v1(obligation):
    """The fingerprint obligations had while they carried a list of
    clause lists (salt ``upec-obligation-v1``), computed from the
    decoded ``cnf``: the salt, a ``b"1"`` where a preprocessing flag
    was once hashed, ``nvars``, each clause's literals as 64-bit
    integers followed by ``;``, then the assumptions and the sorted
    frozen set.  It keeps the pins taken before the flat format
    checkable: the same obligations must still hash to them."""
    h = hashlib.sha256(b"upec-obligation-v1")
    h.update(b"1")
    h.update(array("q", [obligation.nvars]).tobytes())
    for clause in decode_cnf(obligation.cnf):
        h.update(array("q", clause).tobytes())
        h.update(b";")
    h.update(b"|a|")
    h.update(array("q", obligation.assumptions).tobytes())
    h.update(b"|f|")
    h.update(array("q", sorted(obligation.frozen)).tobytes())
    return h.hexdigest()


def first_orc_obligation():
    """The first obligation ``ProofEngine(jobs=1)`` exports for the
    ``orc`` methodology run (D in cache, k=2): frame 1 under the full
    commitment, the first of the stream that
    ``test_obligation_stream_is_pinned`` pins.  The run stops there."""
    from repro.core import UpecMethodology, UpecScenario
    from repro.engine import ProofEngine
    from repro.soc import SocConfig, build_soc
    from repro.soc.config import FORMAL_CONFIG_KWARGS

    class Recorder(ProofEngine):
        def solve_ordered(self, obligations, early_stop=None):
            self.exported = list(obligations)
            raise _FirstBatch

    soc = build_soc(SocConfig.orc(**FORMAL_CONFIG_KWARGS))
    with Recorder(jobs=1) as engine:
        with pytest.raises(_FirstBatch):
            UpecMethodology(soc, UpecScenario(secret_in_cache=True),
                            engine=engine).run(k=2)
    return engine.exported[0]


def pinned_input(case):
    """(nvars, clauses, frozen, Simplifier keyword arguments)."""
    if case == "orc-frame1":
        obligation = first_orc_obligation()
        assert reference_fingerprint_v1(obligation)[:16] == \
            "6569169f1a034b20"
        assert obligation.fingerprint()[:16] == ORC_FRAME1_FINGERPRINT
        frozen = set(obligation.frozen)
        frozen.update(abs(a) for a in obligation.assumptions)
        # SimplifyingSolver's configuration of the pass.
        kwargs = dict(occ_limit=16, resolvent_limit=24, max_rounds=2,
                      probing=True)
        return obligation.nvars, decode_cnf(obligation.cnf), frozen, kwargs
    nvars, clauses = lcg_tseitin(11, inputs=60, gates=400, extra=30)
    kwargs = {"subsume_budget": 2000} if case == "tseitin-budget" else {}
    return nvars, clauses, range(1, 6), kwargs


#: (digest, subsumption budget left) per pinned input.
PINNED_SIMPLIFIER = {
    "tseitin": ("d5f3e27f6088ee7a", 1497187),
    # The budget runs out in the middle of a subsumption pass.
    "tseitin-budget": ("ff5c671178a02dec", -1),
    "orc-frame1": ("6f32f19e8e8846da", 1436040),
}


@pytest.mark.parametrize("case", sorted(PINNED_SIMPLIFIER))
def test_simplifier_output_is_pinned(case):
    """A digest of the database, units, reconstruction stack (with its
    active flags), eliminated map and counters of one pass, and the
    subsumption budget it left.  A change to ``Simplifier`` that keeps
    every decision keeps these; one that moves any has to say so."""
    nvars, clauses, frozen, kwargs = pinned_input(case)
    simplifier = Simplifier(nvars, clauses, frozen=frozen, **kwargs)
    outcome = simplifier_outcome(simplifier.run())
    digest = hashlib.sha256(json.dumps(outcome).encode()).hexdigest()[:16]
    assert (digest, simplifier.subsume_budget) == PINNED_SIMPLIFIER[case]


def _sig(clause: Sequence[int]) -> int:
    s = 0
    for lit in clause:
        s |= 1 << (lit & 63)
    return s


class ReferenceSimplifier:
    """The straightforward pass :class:`Simplifier` replaced: occurrence
    dicts, a set per subsumption candidate, and a fresh list and set per
    resolvent.  Kept as the reference the differential below compares
    against, decision for decision."""

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
        self.assign: Dict[int, bool] = {}
        self.clauses: List[Optional[List[int]]] = []
        self.sigs: List[int] = []
        self.occ: Dict[int, List[int]] = {}
        self.stack: List[ReconstructionEntry] = []
        self.eliminated: Dict[int, List[ReconstructionEntry]] = {}
        for clause in clauses:
            self.stats.clauses_in += 1
            if not self._add_input(clause):
                break

    def _add_input(self, lits: Sequence[int]) -> bool:
        seen: Dict[int, bool] = {}
        clause: List[int] = []
        for lit in lits:
            var = abs(lit)
            if var == 0 or var > self.nvars:
                raise FormalError(
                    f"literal {lit} references an unknown variable")
            sign = lit > 0
            prev = seen.get(var)
            if prev is not None:
                if prev != sign:
                    return True
                continue
            seen[var] = sign
            fixed = self.assign.get(var)
            if fixed is not None:
                if fixed == sign:
                    return True
                continue
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

    def _store(self, clause: List[int]) -> int:
        ci = len(self.clauses)
        self.clauses.append(clause)
        self.sigs.append(_sig(clause))
        for lit in clause:
            self.occ.setdefault(lit, []).append(ci)
        return ci

    def _assign_unit(self, lit: int) -> bool:
        todo = [lit]
        clauses = self.clauses
        while todo:
            l = todo.pop()
            var = abs(l)
            sign = l > 0
            prev = self.assign.get(var)
            if prev is not None:
                if prev != sign:
                    return False
                continue
            self.assign[var] = sign
            self.stats.units_fixed += 1
            for ci in self.occ.get(l, ()):
                clauses[ci] = None
            for ci in self.occ.get(-l, ()):
                clause = clauses[ci]
                if clause is None:
                    continue
                try:
                    clause.remove(-l)
                except ValueError:
                    continue
                self.sigs[ci] = _sig(clause)
                if not clause:
                    return False
                if len(clause) == 1:
                    todo.append(clause[0])
        return True

    def _subsume_round(self) -> bool:
        changed = False
        order = sorted(
            (ci for ci, c in enumerate(self.clauses) if c is not None),
            key=lambda ci: len(self.clauses[ci]),  # type: ignore[arg-type]
        )
        for ci in order:
            if self.subsume_budget <= 0 or not self.ok:
                break
            if self.clauses[ci] is None:
                continue
            if self._backward(ci):
                changed = True
        return changed

    def _backward(self, ci: int) -> bool:
        clauses = self.clauses
        sigs = self.sigs
        clause = clauses[ci]
        assert clause is not None
        changed = False
        best = min(clause, key=lambda l: len(self.occ.get(l, ())))
        for di in self.occ.get(best, ()):
            if di == ci:
                continue
            other = clauses[di]
            if other is None or len(other) < len(clause):
                continue
            if sigs[ci] & ~sigs[di]:
                continue
            self.subsume_budget -= len(other)
            other_set = set(other)
            if best not in other_set:
                continue
            if all(l in other_set for l in clause):
                clauses[di] = None
                self.stats.clauses_subsumed += 1
                changed = True
        for l in list(clause):
            if clauses[ci] is not clause:
                break
            need = sigs[ci] & ~(1 << (l & 63))
            for di in self.occ.get(-l, ()):
                if di == ci:
                    continue
                other = clauses[di]
                if other is None or len(other) < len(clause):
                    continue
                if need & ~sigs[di]:
                    continue
                self.subsume_budget -= len(other)
                other_set = set(other)
                if -l not in other_set:
                    continue
                if all(q in other_set for q in clause if q != l):
                    other.remove(-l)
                    sigs[di] = _sig(other)
                    self.stats.literals_strengthened += 1
                    changed = True
                    if len(other) == 1:
                        unit = other[0]
                        clauses[di] = None
                        if not self._assign_unit(unit):
                            self.ok = False
                            return changed
            if self.subsume_budget <= 0:
                break
        return changed

    def _probe_round(self) -> bool:
        bin_count: Dict[int, int] = {}
        for clause in self.clauses:
            if clause is not None and len(clause) == 2:
                for l in clause:
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
        val: Dict[int, bool] = {abs(lit): lit > 0}
        queue = [lit]
        clauses = self.clauses
        while queue:
            p = queue.pop()
            for ci in self.occ.get(-p, ()):
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

    def _occurrences(self, lit: int) -> List[int]:
        alive = []
        for ci in self.occ.get(lit, ()):
            clause = self.clauses[ci]
            if clause is not None and lit in clause:
                alive.append(ci)
        if lit in self.occ:
            self.occ[lit] = alive
        return alive

    @staticmethod
    def _resolve(c1: Sequence[int], c2: Sequence[int],
                 var: int) -> Optional[List[int]]:
        result = [l for l in c1 if abs(l) != var]
        seen = set(result)
        for l in c2:
            if abs(l) == var:
                continue
            if -l in seen:
                return None
            if l not in seen:
                seen.add(l)
                result.append(l)
        return result

    def _try_eliminate(self, var: int) -> bool:
        if var in self.frozen or var in self.assign or var in self.eliminated:
            return False
        pos = self._occurrences(var)
        neg = self._occurrences(-var)
        if not pos and not neg:
            return False
        clauses = self.clauses
        resolvents: List[List[int]] = []
        if pos and neg:
            if min(len(pos), len(neg)) > self.occ_limit:
                return False
            if len(pos) * len(neg) > 4 * self.occ_limit * self.occ_limit:
                return False
            limit = len(pos) + len(neg)
            dedup: Set[Tuple[int, ...]] = set()
            for ci in pos:
                for cj in neg:
                    r = self._resolve(clauses[ci], clauses[cj], var)
                    if r is None:
                        continue
                    if len(r) > self.resolvent_limit:
                        return False
                    key = tuple(sorted(r))
                    if key in dedup:
                        continue
                    dedup.add(key)
                    resolvents.append(r)
                    if len(resolvents) > limit:
                        return False
        else:
            self.stats.pure_literals += 1
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
        def weight(v: int) -> int:
            return (len(self.occ.get(v, ())) + len(self.occ.get(-v, ())))

        order = sorted(
            (v for v in range(1, self.nvars + 1)
             if v not in self.assign and v not in self.eliminated
             and v not in self.frozen),
            key=weight,
        )
        changed = False
        for v in order:
            if not self.ok:
                break
            if self._try_eliminate(v):
                changed = True
        return changed

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


def random_simplifier_case(rng):
    """A raw random CNF (with repeated literals, tautologies and units)
    or a Tseitin AND network with random constraints, a random frozen
    set, and random limits: tiny budgets and limits included.

    A quarter of the cases spread the variables 64 apart, so that every
    positive literal sets the same signature bit and every negative one
    another.  The signature test then passes nearly every occurrence,
    and the budget charges and stale-occurrence tests behind it decide.
    """
    if rng.random() < 0.5:
        nvars = rng.randint(1, 40)
        clauses = [
            [rng.randint(1, nvars) * rng.choice([1, -1])
             for _ in range(rng.choice([1, 2, 2, 2, 3, 3, 3, 3, 4, 5]))]
            for _ in range(rng.randint(1, 3 * nvars))
        ]
    else:
        inputs = rng.randint(2, 30)
        nvars = inputs
        clauses = []
        for _ in range(rng.randint(1, 120)):
            a = rng.randint(1, nvars) * rng.choice([1, -1])
            b = rng.randint(1, nvars) * rng.choice([1, -1])
            nvars += 1
            clauses += [[-nvars, a], [-nvars, b], [nvars, -a, -b]]
        for _ in range(rng.randint(0, 8)):
            clauses.append([rng.randint(1, nvars) * rng.choice([1, -1])
                            for _ in range(rng.randint(1, 4))])
        rng.shuffle(clauses)
    frozen = {rng.randint(1, nvars) for _ in range(rng.randint(0, 4))}
    if rng.random() < 0.25:
        def spread(lit):
            return (64 * (abs(lit) - 1) + 1) * (1 if lit > 0 else -1)

        clauses = [[spread(lit) for lit in clause] for clause in clauses]
        frozen = {spread(var) for var in frozen}
        nvars = spread(nvars)
    kwargs = dict(
        occ_limit=rng.choice([0, 1, 2, 4, 16, 16]),
        resolvent_limit=rng.choice([0, 2, 3, 24, 24]),
        subsume_budget=rng.choice([0, 1, 2, 5, 20, 100, 1000, 1_500_000]),
        probe_budget=rng.choice([0, 1, 5, 50, 200_000]),
        probe_candidates=rng.choice([0, 1, 3, 128]),
        max_rounds=rng.choice([0, 1, 2, 3, 3, 5]),
        probing=rng.random() < 0.7,
    )
    return nvars, clauses, frozen, kwargs


#: Strengthening removes -1 from the second clause, and a later
#: subsumption scan of -1's occurrences meets that stale entry with its
#: signature and length tests passing (1, 65 and 129 share a bit).
STALE_OCCURRENCE = (129, [[129, -1], [65, -1, -129], [65, -129], [65, 129]],
                    set(), {"probing": False, "max_rounds": 1})


def test_simplifier_matches_reference():
    """Same database, units, stack, eliminated map, counters and final
    subsumption budget as :class:`ReferenceSimplifier` on every input."""
    rng = random.Random(707)
    cases = itertools.chain(
        [STALE_OCCURRENCE],
        (random_simplifier_case(rng) for _ in range(400 * FUZZ_SCALE)))
    exhausted = eliminated = strengthened = 0
    for nvars, clauses, frozen, kwargs in cases:
        outcomes = []
        for cls in (ReferenceSimplifier, Simplifier):
            simplifier = cls(nvars, [list(c) for c in clauses],
                             frozen=frozen, **kwargs)
            outcomes.append((simplifier_outcome(simplifier.run()),
                             simplifier.subsume_budget))
        assert outcomes[1] == outcomes[0], (nvars, clauses, frozen, kwargs)
        stats = outcomes[0][0][-1]
        exhausted += outcomes[0][1] <= 0 < kwargs["subsume_budget"]
        eliminated += stats["vars_eliminated"] > 0
        strengthened += stats["literals_strengthened"] > 0
    # The corpus reaches the paths whose bookkeeping is subtle.
    assert exhausted and eliminated and strengthened


# ----------------------------------------------------------------------
# solve_obligation against the cold path it replaced
# ----------------------------------------------------------------------
class SnapshotStore:
    """The warm-start half of a ``ResultCache``, in memory: each stored
    snapshot is kept as its canonical JSON."""

    def __init__(self) -> None:
        self.entries: Dict[str, str] = {}

    def store_simplified(self, fingerprint, payload) -> None:
        self.entries[fingerprint] = json.dumps(payload, sort_keys=True,
                                               separators=(",", ":"))

    def lookup_simplified(self, fingerprint):
        entry = self.entries.get(fingerprint)
        return None if entry is None else json.loads(entry)


class AbsentCountingSolver(SimplifyingSolver):
    """:class:`SimplifyingSolver` whose search counts its decisions on
    variables that no loaded clause and no assumption mentions: the
    decisions ``solve_obligation``, which numbers its search by the
    snapshot, never makes."""

    def __init__(self, assumptions: Sequence[int]) -> None:
        super().__init__()
        self.mentioned = {abs(lit) for lit in assumptions}
        self.absent_decisions = 0

    def _rebuild(self) -> bool:
        ok = super()._rebuild()
        self.mentioned.update(abs(lit) for clause in self._db
                              for lit in clause)
        decide = self._inner._decide

        def counting_decide():
            lit = decide()
            if lit is not None and lit >> 1 not in self.mentioned:
                self.absent_decisions += 1
            return lit

        self._inner._decide = counting_decide
        return ok


def reference_solve_obligation(obligation, store):
    """The cold path ``solve_obligation`` had before it ran
    :class:`Simplifier` directly: a :class:`SimplifyingSolver` fed the
    obligation clause by clause, whose snapshot is read from its
    database and the active entries of its stack.  Returns the status,
    the packed model, the stats and the search's decisions on variables
    absent from the snapshot."""
    solver = AbsentCountingSolver(obligation.assumptions)
    for _ in range(obligation.nvars):
        solver.new_var()
    for var in obligation.frozen:
        solver.freeze_var(var)
    solver.add_clauses(decode_cnf(obligation.cnf))
    outcome = solver.solve(assumptions=obligation.assumptions,
                           conflict_limit=obligation.conflict_limit)
    stats = solver.stats.as_dict()
    for key, value in solver.simplify_stats.as_dict().items():
        stats[f"simplify_{key}"] = value
    if solver._ok and solver._did_initial and not solver._pending:
        store.store_simplified(obligation.fingerprint(), {
            "nvars": solver.nvars,
            "clauses": [list(clause) for clause in solver._db],
            "stack": [[entry[0], list(entry[1])]
                      for entry in solver._stack if entry[2]],
        })
    status = {True: "sat", False: "unsat", None: "unknown"}[outcome]
    model = pack_model(solver.model()) if outcome else None
    return status, model, stats, solver.absent_decisions


def expected_verdict(obligation, store):
    """Status, model and stats ``solve_obligation`` must return: the
    reference's, with ``decisions`` and ``propagations`` each lower by
    the reference's decisions on absent variables (each was one
    decision, and one trail entry propagated), and that count."""
    status, model, stats, absent = reference_solve_obligation(obligation,
                                                              store)
    stats["decisions"] -= absent
    stats["propagations"] -= absent
    return (status, model, stats), absent


def random_obligation(rng):
    """A raw random CNF, a random 3-CNF near the satisfiability threshold
    (hard enough for the search to meet its conflict limit) or a Tseitin
    AND network with random constraints, under random frozen variables,
    assumptions and conflict limit.  A clause never holds a literal and
    its negation, as no exported obligation's does: the reference
    dropped tautologies before the pass counted its input, while
    ``solve_obligation`` hands the pass every clause (see the test after
    the differential)."""
    def clause_over(nvars, sizes=(1, 2, 2, 3, 3, 3, 4, 5)):
        size = min(nvars, rng.choice(sizes))
        lits = [var * rng.choice([1, -1])
                for var in rng.sample(range(1, nvars + 1), size)]
        if rng.random() < 0.2:
            lits.append(rng.choice(lits))   # a repeated literal
        return lits

    kind = rng.random()
    if kind < 0.4:
        nvars = rng.randint(1, 30)
        clauses = [clause_over(nvars)
                   for _ in range(rng.randint(1, 4 * nvars))]
    elif kind < 0.6:
        nvars = rng.randint(20, 40)
        clauses = [clause_over(nvars, (3,))
                   for _ in range(int(rng.uniform(3.8, 4.6) * nvars))]
    else:
        nvars = rng.randint(2, 20)
        clauses = []
        for _ in range(rng.randint(1, 80)):
            a, b = (var * rng.choice([1, -1])
                    for var in rng.sample(range(1, nvars + 1), 2))
            nvars += 1
            clauses += [[-nvars, a], [-nvars, b], [nvars, -a, -b]]
        clauses += [clause_over(nvars) for _ in range(rng.randint(0, 8))]
        rng.shuffle(clauses)
    frozen = sorted({rng.randint(1, nvars)
                     for _ in range(rng.randint(0, 4))})
    assumptions = [var * rng.choice([1, -1]) for var in
                   rng.sample(range(1, nvars + 1), min(nvars,
                                                       rng.randint(0, 3)))]
    return ProofObligation(
        name="random", nvars=nvars, cnf=encode_cnf(clauses),
        assumptions=assumptions, frozen=frozen,
        conflict_limit=rng.choice([None, None, 1, 2, 5, 50]))


def assert_matches_reference(obligation):
    """Status, model and stats as the reference has them, but for the
    decisions on absent variables.  A solve the search leaves open
    stores the reference's snapshot, byte for byte, and the unlimited
    retry warm-starts from it to the unlimited cold verdict; a definite
    one stores nothing.  Returns the verdict, whether it stored a
    snapshot, whether the reference did (it does unless loading the
    pass's output refutes the formula) and the absent decisions."""
    ref_store, store = SnapshotStore(), SnapshotStore()
    expected, absent = expected_verdict(obligation, ref_store)
    verdict = solve_obligation(obligation, simp_cache=store)
    assert (verdict.status, verdict.model, verdict.stats) == expected
    if verdict.status == "unknown":
        assert store.entries == ref_store.entries
        retry = dataclasses.replace(obligation, conflict_limit=None)
        warm = solve_obligation(retry, simp_cache=store)
        cold = solve_obligation(retry)
        assert (warm.status, warm.model) == (cold.status, cold.model)
        assert warm.stats["simplify_warm_starts"] == 1
    else:
        assert store.entries == {}
    return verdict, bool(store.entries), bool(ref_store.entries), absent


def test_solve_obligation_matches_reference():
    rng = random.Random(808)
    statuses = set()
    opened = settled = refuted = absent = 0
    for _ in range(200 * FUZZ_SCALE):
        verdict, stored, ref_stored, skipped = assert_matches_reference(
            random_obligation(rng))
        statuses.add(verdict.status)
        opened += stored
        settled += verdict.status != "unknown" and ref_stored
        refuted += not ref_stored
        absent += skipped
    # The corpus reaches every answer: open solves that stored their
    # snapshot, definite ones that stored none where the reference
    # stored one, formulas the pass refutes, and searches the reference
    # spent decisions on variables absent from the snapshot.
    assert statuses == {"sat", "unsat", "unknown"}
    assert opened and settled and refuted and absent


def test_solve_obligation_matches_reference_on_orc_frame1():
    obligation = first_orc_obligation()
    assert reference_fingerprint_v1(obligation)[:16] == "6569169f1a034b20"
    assert obligation.fingerprint()[:16] == ORC_FRAME1_FINGERPRINT
    verdict, stored, ref_stored, absent = assert_matches_reference(
        obligation)
    assert verdict.sat and ref_stored and not stored
    # Most of this SAT search's decisions were on absent variables.
    assert absent > verdict.stats["decisions"]
    # The frame takes 114 conflicts, so a limit of one leaves it open:
    # the snapshot is the reference's, and the unlimited retry
    # warm-starts to the unlimited cold verdict.
    assert verdict.stats["conflicts"] == 114
    limited = dataclasses.replace(obligation, conflict_limit=1)
    opened, stored, _ref_stored, _absent = assert_matches_reference(limited)
    assert opened.status == "unknown" and stored


def give_up(solver, *args, **kwargs):
    """A ``CdclSolver.solve`` that stops at once, as an exhausted
    conflict limit does."""
    solver.stop_reason = "conflicts"
    return None


def test_solve_obligation_counts_every_input_clause(monkeypatch):
    """Tautologies and repeated literals reach the pass, which drops
    them as the reference's buffering did: everything but the count of
    input clauses (and the absent decisions) agrees.  The formula is
    too small to reach a conflict, so a search that gives up at once
    leaves the solve open to compare the snapshot."""
    obligation = ProofObligation(
        name="tautologies", nvars=4,
        cnf=encode_cnf([[1, 2, -1], [2, 3, 2], [-2, 4], [3, -3],
                        [-4, -3, 1]]),
        assumptions=[-1], frozen=[4])
    ref_store, store = SnapshotStore(), SnapshotStore()
    (status, model, stats), _absent = expected_verdict(obligation,
                                                       ref_store)
    stats["simplify_clauses_in"] += 2
    verdict = solve_obligation(obligation, simp_cache=store)
    assert (verdict.status, verdict.model, verdict.stats) == \
        (status, model, stats)
    assert verdict.sat and store.entries == {}
    with monkeypatch.context() as patch:
        patch.setattr(CdclSolver, "solve", give_up)
        assert solve_obligation(obligation,
                                simp_cache=store).status == "unknown"
    assert ref_store.entries and store.entries == ref_store.entries
