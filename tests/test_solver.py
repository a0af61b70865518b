"""Unit and property tests for the CDCL SAT solver."""

import hashlib
import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormalError
from repro.formal.preprocess import SimplifyingSolver
from repro.formal.solver import CdclSolver, luby_sequence

#: ``REPRO_FUZZ_SCALE`` multiplies the property tests' example counts
#: (CI's nightly differential leg turns it up).
FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))


def brute_force_sat(nvars, clauses):
    """Reference: exhaustive satisfiability check."""
    for bits in itertools.product([False, True], repeat=nvars):
        ok = True
        for clause in clauses:
            if not any(
                bits[abs(l) - 1] if l > 0 else not bits[abs(l) - 1] for l in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


def make_solver(nvars, clauses):
    solver = CdclSolver()
    for _ in range(nvars):
        solver.new_var()
    solver.add_clauses(clauses)
    return solver


def pigeonhole(pigeons, holes):
    """PHP(pigeons, holes): variable ``i * holes + j + 1`` puts pigeon
    ``i`` in hole ``j``; unsatisfiable when pigeons > holes."""
    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, j), -var(b, j)])
    return pigeons * holes, clauses


def check_model(solver, clauses):
    for clause in clauses:
        assert any(solver.model_value(l) for l in clause), f"clause {clause} unsat"


def test_trivial_sat():
    solver = make_solver(1, [[1]])
    assert solver.solve() is True
    assert solver.model_value(1) is True
    assert solver.model_value(-1) is False


def test_trivial_unsat():
    solver = make_solver(1, [[1], [-1]])
    assert solver.solve() is False


def test_empty_formula_is_sat():
    solver = make_solver(3, [])
    assert solver.solve() is True


def test_empty_clause_is_unsat():
    solver = CdclSolver()
    solver.new_var()
    assert solver.add_clause([]) is False
    assert solver.solve() is False


def test_tautology_dropped():
    solver = make_solver(2, [[1, -1], [2]])
    assert solver.solve() is True
    assert solver.model_value(2)


def test_duplicate_literals_handled():
    solver = make_solver(2, [[1, 1, 2]])
    assert solver.solve() is True


def test_unknown_variable_rejected():
    solver = CdclSolver()
    with pytest.raises(FormalError):
        solver.add_clause([1])
    with pytest.raises(FormalError):
        solver._to_internal(0)


def test_unit_propagation_chain():
    # x1 -> x2 -> x3 -> x4, x1 forced.
    clauses = [[1], [-1, 2], [-2, 3], [-3, 4]]
    solver = make_solver(4, clauses)
    assert solver.solve() is True
    assert all(solver.model_value(v) for v in range(1, 5))


def test_pigeonhole_3_into_2_unsat():
    """PHP(3,2): 3 pigeons into 2 holes — classic small UNSAT instance."""
    solver = make_solver(*pigeonhole(3, 2))
    assert solver.solve() is False


def test_pigeonhole_4_into_3_unsat():
    solver = make_solver(*pigeonhole(4, 3))
    assert solver.solve() is False
    assert solver.stats.conflicts > 0


def test_assumptions_sat_then_unsat():
    solver = make_solver(2, [[1, 2]])
    assert solver.solve(assumptions=[-1]) is True
    assert solver.model_value(2) is True
    assert solver.solve(assumptions=[-1, -2]) is False
    # Solver remains usable after an UNSAT-under-assumptions result.
    assert solver.solve() is True


def test_contradictory_assumptions():
    solver = make_solver(2, [[1, 2]])
    assert solver.solve(assumptions=[1, -1]) is False
    assert solver.solve() is True


def test_assumption_against_unit():
    solver = make_solver(1, [[1]])
    assert solver.solve(assumptions=[-1]) is False
    assert solver.solve(assumptions=[1]) is True


def test_incremental_reuse_many_queries():
    # 8-bit adder-free sanity: x_i distinct queries under assumptions.
    solver = make_solver(4, [[1, 2], [3, 4], [-1, -3]])
    results = []
    for a in ([1], [-1], [3], [1, 3]):
        results.append(solver.solve(assumptions=a))
    assert results == [True, True, True, False]


def test_model_requires_sat():
    solver = make_solver(1, [[1], [-1]])
    assert solver.solve() is False
    with pytest.raises(FormalError):
        solver.model_value(1)


@pytest.mark.parametrize("factory", [CdclSolver, SimplifyingSolver])
def test_model_cleared_by_a_non_sat_answer(factory):
    solver = factory()
    for _ in range(2):
        solver.new_var()
    solver.add_clause([1, 2])
    assert solver.solve() is True
    assert solver.solve(assumptions=[-1, -2]) is False
    # The earlier model violates the assumptions just refuted.
    with pytest.raises(FormalError):
        solver.model_value(1)
    # An empty clause makes the formula UNSAT: no model may outlive it.
    assert solver.solve() is True
    solver.add_clause([])
    assert solver.solve() is False
    with pytest.raises(FormalError):
        solver.model_value(1)


def test_model_vector():
    solver = make_solver(2, [[1], [-2]])
    assert solver.solve() is True
    model = solver.model()
    assert model[1] is True and model[2] is False


def test_conflict_limit_returns_none():
    # PHP(5,4) takes enough conflicts to hit a tiny limit.
    solver = make_solver(*pigeonhole(5, 4))
    result = solver.solve(conflict_limit=2)
    assert result is None
    # And it can still finish the proof afterwards.
    assert solver.solve() is False


def test_luby_sequence():
    assert luby_sequence(15) == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


@st.composite
def random_cnf(draw):
    nvars = draw(st.integers(min_value=1, max_value=8))
    nclauses = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(nclauses):
        size = draw(st.integers(min_value=1, max_value=4))
        clause = [
            draw(st.integers(min_value=1, max_value=nvars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(size)
        ]
        clauses.append(clause)
    return nvars, clauses


@settings(max_examples=150 * FUZZ_SCALE, deadline=None)
@given(random_cnf())
def test_solver_agrees_with_brute_force(problem):
    nvars, clauses = problem
    solver = make_solver(nvars, clauses)
    expected = brute_force_sat(nvars, clauses)
    assert solver.solve() is expected
    if expected:
        check_model(solver, clauses)


@settings(max_examples=60 * FUZZ_SCALE, deadline=None)
@given(random_cnf(), st.lists(st.integers(min_value=1, max_value=4), max_size=3))
def test_solver_assumptions_agree_with_brute_force(problem, assumed_vars):
    nvars, clauses = problem
    assumptions = sorted({v for v in assumed_vars if v <= nvars})
    solver = make_solver(nvars, clauses)
    expected = brute_force_sat(nvars, clauses + [[a] for a in assumptions])
    assert solver.solve(assumptions=assumptions) is expected
    if expected:
        check_model(solver, clauses)
        for a in assumptions:
            assert solver.model_value(a)


@settings(max_examples=40 * FUZZ_SCALE, deadline=None)
@given(random_cnf())
def test_solver_stable_across_repeat_solves(problem):
    nvars, clauses = problem
    solver = make_solver(nvars, clauses)
    first = solver.solve()
    assert solver.solve() is first


def test_cancel_check_aborts_search():
    from repro.formal.solver import CANCEL_CHECK_EVERY

    # PHP(8,7): thousands of conflicts to refute, so the poll (every
    # CANCEL_CHECK_EVERY conflicts) is guaranteed to fire.
    solver = make_solver(*pigeonhole(8, 7))
    assert solver.solve(cancel_check=lambda: True) is None
    # The abort happens at the first poll, not after the full refutation.
    assert solver.stats.conflicts <= 2 * CANCEL_CHECK_EVERY
    # A cancelled solver is reusable (backtracked to level 0).
    assert solver.solve(conflict_limit=1) is None


def test_cancel_check_false_does_not_change_verdicts():
    solver = make_solver(2, [[1, 2], [-1, 2]])
    assert solver.solve(cancel_check=lambda: False) is True
    unsat = make_solver(1, [[1], [-1]])
    assert unsat.solve(cancel_check=lambda: False) is False


# ----------------------------------------------------------------------
# Search trajectory
# ----------------------------------------------------------------------
def lcg_3sat(n, seed):
    """Random 3-SAT at clause/variable ratio 4.26 from a 64-bit LCG, so
    the formula is the same on every Python version."""
    x = seed

    def draw():
        nonlocal x
        x = (x * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        return x >> 33

    clauses = []
    for _ in range(int(4.26 * n)):
        variables = []
        while len(variables) < 3:
            var = draw() % n + 1
            if var not in variables:
                variables.append(var)
        clauses.append([var if draw() & 1 else -var for var in variables])
    return n, clauses


STAT_FIELDS = ("conflicts", "decisions", "propagations", "restarts",
               "learnt_deleted", "glue_learnts", "trail_reuses")


@pytest.mark.parametrize("formula, expected, stats, model_hash", [
    pytest.param(pigeonhole(8, 7), False,
                 (3358, 4010, 42617, 16, 996, 17, 9), None, id="php-8-7"),
    pytest.param(lcg_3sat(175, 3), False,
                 (7523, 8866, 262800, 30, 3985, 101, 25), None,
                 id="lcg-175-seed3"),
    pytest.param(lcg_3sat(200, 4), True,
                 (7169, 8587, 275269, 30, 3975, 37, 26), "6fdc5841ad658af3",
                 id="lcg-200-seed4"),
])
def test_search_trajectory_is_pinned(formula, expected, stats, model_hash):
    """Exact search counts, and the exact SAT model, on formulas that
    exercise learnt-clause deletion (PHP) and the 1e100 activity rescale
    (both LCG formulas).  A change to the solver's internals that keeps
    every decision, propagation, conflict, learnt clause, restart and
    deletion in the same order keeps these numbers; a heuristic change
    moves them and has to say so."""
    nvars, clauses = formula
    solver = make_solver(nvars, clauses)
    assert solver.solve() is expected
    assert solver.stats.as_dict() == dict(zip(STAT_FIELDS, stats))
    if expected:
        check_model(solver, clauses)
        digest = hashlib.sha256(bytes(solver.model())).hexdigest()[:16]
        assert digest == model_hash
