"""Engine microbenchmarks: SAT solver, bit-blaster, simulator throughput.

Not a paper table — these quantify the substrate the UPEC runtimes rest
on (our pure-Python CDCL vs. the paper's commercial checker), so the
absolute runtime differences in Tab. I/II are interpretable.

The ``preprocess`` group pairs each instance family with a raw-CNF
(``CdclSolver``) and a simplified (``SimplifyingSolver``) run, so the
payoff of the SatELite-style pre-/inprocessor (``repro.formal.preprocess``)
is measured directly on the clause shapes the engine actually emits.
The ``upec-sat`` group times the flagship methodology, which always
preprocesses.
"""

import random

import pytest

from repro.formal import Aig, BmcEngine, CdclSolver, SimplifyingSolver
from repro.hdl import Circuit, mux
from repro.sim import CompiledSimulator
from repro.soc import SocConfig, build_soc
from repro.soc import isa
from repro.soc.simulator import SocSim


def pigeonhole_cnf(pigeons, holes):
    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-var(i1, j), -var(i2, j)])
    return pigeons * holes, clauses


def random_3sat(nvars, nclauses, seed):
    rng = random.Random(seed)
    clauses = []
    for _ in range(nclauses):
        clause_vars = rng.sample(range(1, nvars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in clause_vars])
    return clauses


@pytest.mark.benchmark(group="solver")
def test_solver_pigeonhole_unsat(benchmark):
    """PHP(6,5): a canonical hard-ish UNSAT instance."""
    def run():
        nvars, clauses = pigeonhole_cnf(6, 5)
        solver = CdclSolver()
        for _ in range(nvars):
            solver.new_var()
        solver.add_clauses(clauses)
        assert solver.solve() is False

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.benchmark(group="solver")
def test_solver_random_3sat(benchmark):
    """Random 3-SAT near the phase transition (ratio 4.2)."""
    def run():
        nvars = 120
        solver = CdclSolver()
        for _ in range(nvars):
            solver.new_var()
        solver.add_clauses(random_3sat(nvars, int(nvars * 4.2), seed=7))
        assert solver.solve() in (True, False)

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.benchmark(group="formal")
def test_bmc_counter_proof(benchmark):
    """BMC of a counter property from reset: bit-blasting and
    unrolling.  Structural hashing folds every frame's bad literal to
    FALSE, so no obligation is exported or solved."""
    def run():
        c = Circuit("counter")
        cnt = c.reg("cnt", 16, init=0)
        c.next(cnt, cnt + 1)
        c.finalize()
        engine = BmcEngine(c, init="reset")
        assert engine.check_always(cnt.ne(50), k=20).holds

    benchmark.pedantic(run, rounds=3, iterations=1)


# ----------------------------------------------------------------------
# Preprocessing instance families (raw CDCL vs. simplified)
# ----------------------------------------------------------------------
class _CnfBuilder:
    """Tiny Tseitin emitter for hand-built benchmark circuits."""

    def __init__(self):
        self.nvars = 0
        self.clauses = []

    def var(self):
        self.nvars += 1
        return self.nvars

    def xor(self, a, b):
        v = self.var()
        self.clauses.extend(
            [[-v, a, b], [-v, -a, -b], [v, -a, b], [v, a, -b]])
        return v


def parity_miter_cnf(n):
    """Left-fold vs. balanced-tree parity of the same bits, forced to
    differ: UNSAT, and every gate variable is functionally defined —
    the shape bounded variable elimination collapses."""
    cnf = _CnfBuilder()
    bits = [cnf.var() for _ in range(n)]
    left = bits[0]
    for x in bits[1:]:
        left = cnf.xor(left, x)
    layer = list(bits)
    while len(layer) > 1:
        nxt = [cnf.xor(layer[i], layer[i + 1])
               for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    cnf.clauses.append([cnf.xor(left, layer[0])])
    return cnf.nvars, cnf.clauses


def padded_pigeonhole_cnf(pigeons, holes, chain, seed):
    """PHP core where every literal is routed through an equivalence
    chain (buffer gates), as Tseitin encodings of deep netlists do; the
    simplifier strips the padding back to the core."""
    rng = random.Random(seed)
    nvars = pigeons * holes
    clauses = []
    alias = {}
    for v in range(1, nvars + 1):
        chain_vars = [v]
        prev = v
        for _ in range(chain):
            nvars += 1
            clauses.extend([[-nvars, prev], [nvars, -prev]])
            prev = nvars
            chain_vars.append(nvars)
        alias[v] = chain_vars

    def a(lit):
        v = rng.choice(alias[abs(lit)])
        return v if lit > 0 else -v

    def var(i, j):
        return i * holes + j + 1

    base = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                base.append([-var(i1, j), -var(i2, j)])
    clauses.extend([a(l) for l in c] for c in base)
    return nvars, clauses


def _solve_family(solver_cls, nvars, clauses):
    solver = solver_cls()
    for _ in range(nvars):
        solver.new_var()
    solver.add_clauses(clauses)
    assert solver.solve() is False


@pytest.mark.benchmark(group="preprocess")
@pytest.mark.parametrize("solver_cls", [CdclSolver, SimplifyingSolver],
                         ids=["raw", "preprocessed"])
def test_solver_parity_miter(benchmark, solver_cls):
    nvars, clauses = parity_miter_cnf(36)
    benchmark.pedantic(
        lambda: _solve_family(solver_cls, nvars, clauses),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="preprocess")
@pytest.mark.parametrize("solver_cls", [CdclSolver, SimplifyingSolver],
                         ids=["raw", "preprocessed"])
def test_solver_padded_pigeonhole(benchmark, solver_cls):
    nvars, clauses = padded_pigeonhole_cnf(6, 5, chain=6, seed=3)
    benchmark.pedantic(
        lambda: _solve_family(solver_cls, nvars, clauses),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="upec-sat")
def test_upec_methodology_sat_cost(benchmark):
    """The flagship workload: the full Fig.-5 methodology on the secure
    design (Tab. I, D in cache) on the incremental in-context solver."""
    from repro.core import UpecMethodology, UpecScenario
    from repro.soc.config import FORMAL_CONFIG_KWARGS

    soc = build_soc(SocConfig.secure(**FORMAL_CONFIG_KWARGS))

    def run():
        result = UpecMethodology(
            soc, UpecScenario(secret_in_cache=True), engine=None,
        ).run(k=2)
        assert result.verdict == "secure_bounded"

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.benchmark(group="sim")
def test_soc_simulation_throughput(benchmark):
    """Cycles/second of the full SoC RTL under simulation."""
    soc = build_soc(SocConfig.secure())
    program = [i.encode() for i in [
        isa.li(1, 1), isa.li(2, 0),
        isa.add(2, 2, 1),
        isa.bne(2, 0, -1),
        isa.jal(0, 0),
    ]]

    def run():
        sim = SocSim(soc, program)
        sim.step(300)

    result = benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.benchmark(group="sim")
def test_plain_simulator_throughput(benchmark):
    """Baseline: compiled-simulator stepping cost on a small circuit."""
    c = Circuit("t")
    a = c.reg("a", 32, init=1)
    b = c.reg("b", 32, init=2)
    c.next(a, a + b)
    c.next(b, mux(a[0], a ^ b, b))
    c.finalize()

    def run():
        sim = CompiledSimulator(c)
        for _ in range(2000):
            sim.step()

    benchmark.pedantic(run, rounds=3, iterations=1)
