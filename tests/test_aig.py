"""Unit tests for the AIG and its CNF mapping."""

import itertools
import os
import random

import pytest

from repro.errors import FormalError
from repro.formal.aig import FALSE, TRUE, Aig, CnfMapper
from repro.formal.bmc import SatContext
from repro.formal.preprocess import SimplifyingSolver

#: ``REPRO_FUZZ_SCALE`` multiplies the differential tests' example counts
#: (CI's nightly differential leg turns it up).
FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))


def test_constants():
    aig = Aig()
    assert aig.const(False) == FALSE
    assert aig.const(True) == TRUE


def test_and_simplifications():
    aig = Aig()
    a = aig.new_input()
    assert aig.and_(a, FALSE) == FALSE
    assert aig.and_(FALSE, a) == FALSE
    assert aig.and_(a, TRUE) == a
    assert aig.and_(TRUE, a) == a
    assert aig.and_(a, a) == a
    assert aig.and_(a, a ^ 1) == FALSE


def test_structural_hashing():
    aig = Aig()
    a, b = aig.new_inputs(2)
    n1 = aig.and_(a, b)
    n2 = aig.and_(b, a)
    assert n1 == n2
    size_before = len(aig)
    aig.and_(a, b)
    assert len(aig) == size_before


def test_mux_simplifications():
    aig = Aig()
    a, b, s = aig.new_inputs(3)
    assert aig.mux_(TRUE, a, b) == a
    assert aig.mux_(FALSE, a, b) == b
    assert aig.mux_(s, a, a) == a


def test_evaluate_gates_exhaustively():
    aig = Aig()
    a, b = aig.new_inputs(2)
    nodes = {
        "and": aig.and_(a, b),
        "or": aig.or_(a, b),
        "xor": aig.xor_(a, b),
        "xnor": aig.xnor_(a, b),
        "implies": aig.implies_(a, b),
        "not": aig.not_(a),
    }
    python_ops = {
        "and": lambda x, y: x and y,
        "or": lambda x, y: x or y,
        "xor": lambda x, y: x != y,
        "xnor": lambda x, y: x == y,
        "implies": lambda x, y: (not x) or y,
        "not": lambda x, y: not x,
    }
    for x, y in itertools.product([False, True], repeat=2):
        values = aig.evaluate(list(nodes.values()), {a: x, b: y})
        for (name, _), got in zip(nodes.items(), values):
            assert got == python_ops[name](x, y), name


def test_evaluate_mux_exhaustively():
    aig = Aig()
    s, a, b = aig.new_inputs(3)
    m = aig.mux_(s, a, b)
    for sv, av, bv in itertools.product([False, True], repeat=3):
        (got,) = aig.evaluate([m], {s: sv, a: av, b: bv})
        assert got == (av if sv else bv)


def test_evaluate_requires_positive_input_lits():
    aig = Aig()
    a = aig.new_input()
    with pytest.raises(FormalError):
        aig.evaluate([a], {a ^ 1: True})


def test_evaluate_missing_input_rejected():
    aig = Aig()
    a, b = aig.new_inputs(2)
    n = aig.and_(a, b)
    with pytest.raises(FormalError):
        aig.evaluate([a], {b: True})
    # But the AND node itself evaluates if all leaves are known.
    assert aig.evaluate([n], {a: True, b: True}) == [True]


def test_and_or_all():
    aig = Aig()
    bits = aig.new_inputs(3)
    conj = aig.and_all(bits)
    disj = aig.or_all(bits)
    assert aig.and_all([]) == TRUE
    assert aig.or_all([]) == FALSE
    values = aig.evaluate([conj, disj], {bits[0]: True, bits[1]: True, bits[2]: False})
    assert values == [False, True]


def test_cone_topological():
    aig = Aig()
    a, b, c = aig.new_inputs(3)
    ab = aig.and_(a, b)
    abc = aig.and_(ab, c)
    cone = aig.cone([abc])
    assert cone.index(ab >> 1) < cone.index(abc >> 1)
    # Inputs are not in the cone list.
    assert (a >> 1) not in cone


def test_cnf_mapper_equivalence():
    """SAT on the Tseitin encoding agrees with direct evaluation."""
    ctx = SatContext()
    aig, mapper = ctx.aig, ctx.mapper
    a, b, c = aig.new_inputs(3)
    formula = aig.or_(aig.and_(a, b), aig.xor_(b, c))
    target = mapper.assumption(formula)
    assert mapper.solver.solve(assumptions=[target]) is True
    model = {
        lit: mapper.model_lit(lit) for lit in (a, b, c)
    }
    (value,) = aig.evaluate([formula], model)
    assert value is True
    # Force the formula false and check again.
    assert mapper.solver.solve(assumptions=[-target]) is True
    model = {lit: mapper.model_lit(lit) for lit in (a, b, c)}
    (value,) = aig.evaluate([formula], model)
    assert value is False


def test_cnf_mapper_constants():
    mapper = SatContext().mapper
    assert mapper.solver.solve(assumptions=[mapper.assumption(TRUE)]) is True
    assert mapper.solver.solve(assumptions=[mapper.assumption(FALSE)]) is False
    assert mapper.model_lit(TRUE) is True
    assert mapper.model_lit(FALSE) is False


def test_cnf_mapper_unsat_on_contradiction():
    ctx = SatContext()
    a = ctx.aig.new_input()
    mapper = ctx.mapper
    mapper.assert_true(a)
    mapper.assert_true(a ^ 1)
    assert mapper.solver.solve() is False


def test_cnf_mapper_incremental_sharing():
    """Emitting the same cone twice adds no new clauses."""
    ctx = SatContext()
    a, b = ctx.aig.new_inputs(2)
    n = ctx.aig.and_(a, b)
    mapper = ctx.mapper
    mapper.assumption(n)
    emitted = mapper.clauses_emitted
    mapper.assumption(n)
    assert mapper.clauses_emitted == emitted


def test_model_lit_for_unconstrained_node():
    ctx = SatContext()
    a = ctx.aig.new_input()
    b = ctx.aig.new_input()
    mapper = ctx.mapper
    mapper.assert_true(a)
    assert mapper.solver.solve() is True
    # b never reached the solver; defaults to False.
    assert mapper.model_lit(b) is False
    assert mapper.model_lit(b ^ 1) is True


def test_num_ands():
    aig = Aig()
    a, b = aig.new_inputs(2)
    base = aig.num_ands()
    aig.and_(a, b)
    assert aig.num_ands() == base + 1


# ----------------------------------------------------------------------
# Differentials: incremental mapping and witness reads against the
# whole-cone walks they replace
# ----------------------------------------------------------------------
class ConeWalkMapper(CnfMapper):
    """Reference mapper: maps a root by iterating its whole cone
    (``Aig.cone``), skipping nodes that are already mapped."""

    def lit_to_solver(self, lit):
        if lit == FALSE or lit == TRUE:
            return super().lit_to_solver(lit)
        node = lit >> 1
        if node not in self._node_var:
            for inner in self.aig.cone([lit]):
                if inner in self._node_var:
                    continue
                fanins = self.aig.fanins(inner * 2)
                a = self._leaf_or_var(fanins[0])
                b = self._leaf_or_var(fanins[1])
                v = self.solver.new_var()
                self.solver.add_and(v, a, b)
                self.clauses_emitted += 3
                self._node_var[inner] = v
            if node not in self._node_var:
                self._node_var[node] = self.solver.new_var()
        var = self._node_var[node]
        return -var if lit & 1 else var


def grow_and_map(ctx, seed):
    """Grow a seeded random AIG in ``ctx`` while asserting, assuming and
    freezing random literals of it, in a seeded random interleaving."""
    rng = random.Random(seed)
    aig = ctx.aig
    lits = aig.new_inputs(3)
    for _ in range(rng.randrange(20, 80)):
        action = rng.random()
        lit = rng.choice(lits) ^ rng.randrange(2)
        if action < 0.5:
            other = rng.choice(lits) ^ rng.randrange(2)
            gate = rng.choice((aig.and_, aig.or_, aig.xor_))
            lits.append(gate(lit, other))
        elif action < 0.55:
            lits.append(aig.new_input())
        elif action < 0.65:
            ctx.assert_lit(lit, frame=rng.choice((None, 0, 1, 2)))
        elif action < 0.85:
            ctx.mapper.assumption(lit)
        else:
            ctx.mapper.freeze_lit(lit)
    return rng


def recorded_formula(ctx):
    """The recorded clauses in emission order with their tags, the frozen
    set, the variable count and the mapper's clause count."""
    log = ctx.solver
    return (log.expand(), log.frozen, log.nvars,
            ctx.mapper.clauses_emitted)


def fresh_walk_values(ctx, in_process=False):
    """Every node's value with a fresh evaluation: mapped nodes read the
    model, unmapped free inputs read False, and unmapped AND nodes are
    evaluated from their fan-in under an adopted model, False under an
    in-process one.  Node indices are topological, so one pass does."""
    aig, node_var = ctx.aig, ctx.mapper._node_var
    values = [False] * len(aig)
    for node in range(1, len(aig)):
        var = node_var.get(node)
        fanins = aig.fanins(2 * node)
        if var is not None:
            values[node] = ctx.solver.model_value(var)
        elif fanins is not None and not in_process:
            a, b = fanins
            values[node] = (values[a >> 1] ^ bool(a & 1)) and \
                (values[b >> 1] ^ bool(b & 1))
    return values


def assert_model_lits(ctx, in_process=False):
    values = fresh_walk_values(ctx, in_process)
    for node, value in enumerate(values):
        assert ctx.value(2 * node) == value, node
        assert ctx.value(2 * node + 1) == (not value), node
    return values


def adopt_random_model(ctx, rng):
    ctx.adopt_model([rng.random() < 0.5
                     for _ in range(ctx.solver.nvars + 1)])


def test_mapping_matches_whole_cone_walk():
    for seed in range(60 * FUZZ_SCALE):
        ctx, ref = SatContext(), SatContext()
        ref.mapper = ConeWalkMapper(ref.aig, ref.solver)
        grow_and_map(ctx, seed)
        grow_and_map(ref, seed)
        assert recorded_formula(ctx) == recorded_formula(ref), seed
        assert ctx.mapper._node_var == ref.mapper._node_var, seed


def test_model_lit_matches_fresh_walks_across_adoptions_and_mapping():
    changed_after_mapping = 0
    for seed in range(60 * FUZZ_SCALE):
        ctx = SatContext()
        rng = grow_and_map(ctx, seed)
        adopt_random_model(ctx, rng)
        assert_model_lits(ctx)
        adopt_random_model(ctx, rng)
        before = assert_model_lits(ctx)
        # Map an unmapped node that reads True under the adoption: it
        # now reads its (absent, so False) model value, and unmapped
        # nodes above it are re-evaluated from it.
        node_var = ctx.mapper._node_var
        unmapped = [node for node in range(1, len(ctx.aig))
                    if node not in node_var]
        targets = [node for node in unmapped if before[node]]
        if targets:
            ctx.mapper.assumption(2 * rng.choice(targets))
            after = assert_model_lits(ctx)
            changed_after_mapping += sum(
                before[node] != after[node] for node in unmapped
                if node not in node_var)
        if ctx.solve() is True:
            assert_model_lits(ctx, in_process=True)
        adopt_random_model(ctx, rng)
        assert_model_lits(ctx)
    # The post-adoption mapping case really exercised a stale value.
    assert changed_after_mapping > 0


def test_model_lit_rereads_parent_after_post_adoption_mapping():
    ctx = SatContext()
    a, b = ctx.aig.new_inputs(2)
    gate = ctx.aig.and_(a, b)
    parent = ctx.aig.and_(gate, a)
    ctx.mapper.assumption(a)
    ctx.mapper.assumption(b)
    ctx.adopt_model([False, True, True])
    assert ctx.value(gate) and ctx.value(parent)
    # gate gets a variable past the adopted model, which reads False;
    # the unmapped parent must follow it.
    ctx.mapper.assumption(gate)
    assert not ctx.value(gate)
    assert not ctx.value(parent)


# ----------------------------------------------------------------------
# Differential: the on-demand in-place solver against the eagerly fed
# proxy it replaces
# ----------------------------------------------------------------------
class EagerClauseLog:
    """Reference log: a transparent proxy that records every clause, with
    its tag, in emission order and feeds it straight to a solver built up
    front (a gate as its three Tseitin clauses, untagged)."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.recorded = []
        self.frozen = set()
        self._adopted = None
        self.unit_tag = None

    def add_clause(self, lits):
        clause = lits if type(lits) is list else list(lits)
        ok = self.inner.add_clause(clause)
        self.recorded.append((clause, self.unit_tag))
        return ok

    def add_and(self, v, a, b):
        triple = ([-v, a], [-v, b], [v, -a, -b])
        ok = True
        for clause in triple:
            ok = self.inner.add_clause(clause) and ok
        self.recorded += ((clause, None) for clause in triple)
        return ok

    def expand(self):
        return list(self.recorded)

    def freeze_var(self, var):
        self.frozen.add(var)
        self.inner.freeze_var(var)

    def solve(self, assumptions=(), conflict_limit=None, deadline=None):
        self._adopted = None
        return self.inner.solve(assumptions=assumptions,
                                conflict_limit=conflict_limit,
                                deadline=deadline)

    def adopt_model(self, model):
        self._adopted = list(model)

    def model_value(self, lit):
        if self._adopted is not None:
            var = abs(lit)
            value = self._adopted[var] if var < len(self._adopted) else False
            return value if lit > 0 else not value
        return self.inner.model_value(lit)

    @property
    def simplify_stats(self):
        return self.inner.simplify_stats

    def __getattr__(self, name):
        return getattr(self.inner, name)


def eager_context():
    ctx = SatContext()
    ctx.solver = EagerClauseLog(SimplifyingSolver())
    ctx.mapper = CnfMapper(ctx.aig, ctx.solver)
    return ctx


def model_error(ctx):
    with pytest.raises(FormalError) as exc:
        ctx.solver.model_value(1)
    return str(exc.value)


def solver_state(solver):
    """The clause databases a solver holds, in order, and its trail
    (white-box: small random formulas rarely let a reordered database
    change an answer or a model)."""
    if isinstance(solver, SimplifyingSolver):
        return (solver._db, solver._pending, sorted(solver._frozen),
                solver_state(solver._inner))
    return solver._clauses, solver._learnts, solver._trail


def assert_same_after_solve(pair, outcome):
    ctx, ref = pair
    assert solver_state(ctx.solver.inner) == solver_state(ref.solver.inner)
    assert ctx.solver.stop_reason == ref.solver.stop_reason
    assert ctx.stats() == ref.stats()
    nvars = ref.solver.nvars
    if outcome is True:
        assert [ctx.solver.model_value(v) for v in range(1, nvars + 1)] == \
            [ref.solver.model_value(v) for v in range(1, nvars + 1)]
    else:
        assert model_error(ctx) == model_error(ref)


def run_solve_session(pair, seed):
    """Drive both contexts through one seeded random session: AIG
    growth, frame-tagged assertions, freezes, mapping, and solves under
    random assumptions and conflict limits, each step applied to both.
    Returns the number of solves."""
    rng = random.Random(seed)
    ctx, ref = pair
    lits = ctx.aig.new_inputs(3)
    assert ref.aig.new_inputs(3) == lits
    for context in pair:
        context.mapper.assumption(lits[0])
    assert model_error(ctx) == model_error(ref)
    assert ctx.stats() == ref.stats()
    solves = 0
    for _ in range(rng.randrange(40, 160)):
        action = rng.random()
        lit = rng.choice(lits) ^ rng.randrange(2)
        if action < 0.45:
            other = rng.choice(lits) ^ rng.randrange(2)
            gate = rng.choice(("and_", "or_", "xor_"))
            grown = [getattr(c.aig, gate)(lit, other) for c in pair]
            assert grown[0] == grown[1]
            lits.append(grown[0])
        elif action < 0.5:
            grown = [c.aig.new_input() for c in pair]
            assert grown[0] == grown[1]
            lits.append(grown[0])
        elif action < 0.53:
            frame = rng.choice((None, 0, 1, 2))
            for context in pair:
                context.assert_lit(lit, frame=frame)
        elif action < 0.65:
            for context in pair:
                context.mapper.freeze_lit(lit)
        elif action < 0.78:
            for context in pair:
                context.mapper.assumption(lit)
        else:
            assumptions = [rng.choice(lits) ^ rng.randrange(2)
                           for _ in range(rng.randrange(4))]
            limit = rng.choice((None, None, 1, 2, 5))
            outcomes = [c.solve(assumptions=assumptions,
                                conflict_limit=limit) for c in pair]
            assert outcomes[0] == outcomes[1]
            assert_same_after_solve(pair, outcomes[0])
            solves += 1
    assert recorded_formula(ctx) == recorded_formula(ref)
    return solves


# The one configuration left keeps its test id.
@pytest.mark.parametrize((), [pytest.param(id="simplifying")])
def test_on_demand_solver_matches_eager_proxy(monkeypatch):
    resurrected = []
    resurrect = SimplifyingSolver._resurrect

    def counting(self, var):
        resurrected.append(var)
        return resurrect(self, var)

    monkeypatch.setattr(SimplifyingSolver, "_resurrect", counting)
    solves = 0
    for seed in range(40 * FUZZ_SCALE):
        pair = (SatContext(), eager_context())
        solves += run_solve_session(pair, seed)
    assert solves > 0
    # Growth after a simplifying solve really brought eliminated
    # variables back.
    assert resurrected


# The one configuration left keeps its test id.
@pytest.mark.parametrize((), [pytest.param(id="simplifying")])
def test_out_of_range_literals_raise_when_recorded():
    for make in (SatContext, eager_context):
        ctx = make()
        ctx.mapper.assumption(ctx.aig.new_input())
        log = ctx.solver
        for clause in ([2], [1, -2], [0]):
            with pytest.raises(FormalError, match=f"literal {clause[-1]} "
                               "references an unknown variable"):
                log.add_clause(clause)
        for var in (2, 0):
            with pytest.raises(FormalError, match=f"unknown variable {var}"):
                log.freeze_var(var)
        # Gates whose output or either fan-in is 0 or past nvars (2): the
        # eager reference's solver names the bad literal of the first
        # clause it rejects, which may carry the opposite sign.
        v = log.new_var()
        recorded = log.expand()
        for gate, bad in (((0, 1, -1), 0), ((3, 1, -1), 3),
                          ((v, 0, 1), 0), ((v, 1, 0), 0),
                          ((v, 3, 1), 3), ((v, 1, -3), 3)):
            with pytest.raises(FormalError, match=f"literal -?{bad} "
                               "references an unknown variable"):
                log.add_and(*gate)
            assert log.expand() == recorded, gate


def test_gate_must_follow_its_fan_in():
    """A gate row's output is the newest variable, recorded once, over
    older fan-ins: the order the slicer's backward pass and the model
    completion rely on.  Anything else is refused before recording."""
    ctx = SatContext()
    log = ctx.solver
    a, b = log.new_var(), log.new_var()
    v = log.new_var()
    for gate in ((a, b, -b), (v, a, v), (v, -v, b)):
        with pytest.raises(FormalError, match="not the newest variable"):
            log.add_and(*gate)
    assert log.add_and(v, a, -b)
    with pytest.raises(FormalError, match="not the newest variable"):
        log.add_and(v, b, -a)
    assert log.expand() == [([-v, a], None), ([-v, -b], None),
                            ([v, -a, b], None)]


def test_engine_run_builds_no_in_place_solver(monkeypatch):
    """An obligation-engine methodology run only exports frames, so its
    model's clause log never builds a solver."""
    from repro.core import UpecMethodology, UpecScenario, methodology
    from repro.engine import ProofEngine
    from repro.soc import SocConfig, build_soc
    from repro.soc.config import FORMAL_CONFIG_KWARGS

    models = []

    class RecordingModel(methodology.UpecModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    monkeypatch.setattr(methodology, "UpecModel", RecordingModel)
    soc = build_soc(SocConfig.orc(**FORMAL_CONFIG_KWARGS))
    with ProofEngine(jobs=1) as engine:
        result = UpecMethodology(soc, UpecScenario(secret_in_cache=True),
                                 engine=engine).run(k=2)
    assert result.verdict == "insecure"
    (model,) = models
    log = model.context.solver
    assert log.gates and log.inner is None
