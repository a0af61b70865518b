"""Differential fuzzing of cone-of-influence obligation slicing.

An exported (sliced) obligation must be equisatisfiable with an
in-place solve of the full recorded formula, and a sliced model must
expand (via the remap table) to a model of that full formula —
exercised on seeded random miter contexts, and end to end on the
methodology against its in-context (``engine=None``) path and on the
closure step against in-place queries of its checks, one at a time.  A
saturating obligation's found set must be exactly the targets such
per-target queries find satisfiable.  A second family of tests pins
down the history-independence guarantee: the fingerprint of a sliced
frame obligation must not move when unrelated frames, registers or
commitments grow the shared context, which is what makes the proof
cache hit across window lengths, worker counts and runs.

The slicer and the model completion read the clause log's gate rows.
``reference_slice_cnf`` and ``reference_complete_model`` are the
clause-list implementations they replaced, kept here as differential
references: fed the log's expanded clauses, with each gate's clause
indices and the root clause indices derived from its gate rows, they
must give the same ``SliceResult`` (its flat ``cnf`` decoded to the
reference's clause list) and the same completed model.

``REPRO_FUZZ_SCALE`` multiplies the iteration counts (CI can turn the
screws); the ``slow`` marker gates an extra high-volume pass.
"""

import json
import os
import random
from array import array
from dataclasses import replace
from itertools import compress

import pytest

from repro.core import UpecChecker, UpecMethodology, UpecModel, UpecScenario
from repro.dist.protocol import obligation_from_wire, obligation_to_wire
from repro.dist.scheduler import Scheduler
from repro.engine import ProofEngine, ProofObligation, ResultCache, \
    Verdict, decode_cnf, encode_cnf, solve_obligation
from repro.engine import slice as slice_module
from repro.engine.slice import SliceResult, slice_cnf
from repro.formal.aig import FALSE, TRUE
from repro.formal.bmc import SatContext
from repro.soc import SocConfig, build_soc
from repro.soc.config import FORMAL_CONFIG_KWARGS

FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))

SCENARIO = UpecScenario(secret_in_cache=True)
VARIANTS = ("secure", "orc", "meltdown", "pmp_bug")


def _soc(name):
    return build_soc(getattr(SocConfig, name)(**FORMAL_CONFIG_KWARGS))


# ----------------------------------------------------------------------
# Random miter contexts
# ----------------------------------------------------------------------
def random_expr(rng, aig, leaves, depth):
    """A random AIG literal over ``leaves`` (inputs and subexpressions)."""
    if depth <= 0 or rng.random() < 0.25:
        lit = rng.choice(leaves)
        return lit ^ 1 if rng.random() < 0.5 else lit
    op = rng.randrange(5)
    a = random_expr(rng, aig, leaves, depth - 1)
    b = random_expr(rng, aig, leaves, depth - 1)
    if op == 0:
        return aig.and_(a, b)
    if op == 1:
        return aig.or_(a, b)
    if op == 2:
        return aig.xor_(a, b)
    if op == 3:
        return aig.not_(aig.and_(a, b))
    return aig.mux_(random_expr(rng, aig, leaves, depth - 1), a, b)


def random_miter_context(rng):
    """A context with asserted units (some frame-tagged), *unrelated
    mapped-but-unasserted cones* (the history a slice must drop) and a
    miter-style query target: two random cones over shared inputs,
    assumed to differ."""
    ctx = SatContext()
    aig = ctx.aig
    inputs = aig.new_inputs(rng.randint(3, 8))
    for _ in range(rng.randint(0, 3)):
        frame = rng.choice([None, 0, 1, 2, 3])
        ctx.assert_lit(random_expr(rng, aig, inputs, 2), frame=frame)
    for _ in range(rng.randint(0, 3)):
        # Other queries' cones: emitted into the shared CNF but never
        # asserted — exactly what a slice must leave out.
        ctx.mapper.assumption(random_expr(rng, aig, inputs, 3))
    left = random_expr(rng, aig, inputs, rng.randint(2, 4))
    right = random_expr(rng, aig, inputs, rng.randint(2, 4))
    target = aig.xor_(left, right)
    if rng.random() < 0.5:
        ctx.mapper.assumption(random_expr(rng, aig, inputs, 3))
    return ctx, target


# ----------------------------------------------------------------------
# The flat CNF codec
# ----------------------------------------------------------------------
def test_cnf_codec_round_trip():
    """``decode_cnf(encode_cnf(c)) == c`` on seeded random clause lists,
    with empty clauses and literals at ``±nvars``; the encoding is each
    clause's literals and a 0, back to back.  The flat ``cnf`` the
    slicer writes is compared with the reference slicer's clause lists
    through ``decode_cnf``, so the codec is checked on its own first."""
    assert encode_cnf([[1, -2], [], [3]]) == array("i", [1, -2, 0, 0, 3, 0])
    assert decode_cnf(array("i")) == []
    assert decode_cnf(array("i", [0, 0])) == [[], []]
    rng = random.Random(2519)
    for _ in range(300 * FUZZ_SCALE):
        nvars = rng.choice([1, 2, 7, 2**31 - 1])
        clauses = [
            [rng.choice([nvars, -nvars, rng.randint(1, nvars),
                         -rng.randint(1, nvars)])
             for _ in range(rng.choice([0, 0, 1, 2, 3, 9]))]
            for _ in range(rng.randint(0, 12))]
        cnf = encode_cnf(clauses)
        assert cnf.count(0) == len(clauses)
        decoded = decode_cnf(cnf)
        assert decoded == clauses
        # Fresh lists: editing one leaves the array alone.
        for clause in decoded:
            clause.append(1)
        assert decode_cnf(cnf) == clauses


# ----------------------------------------------------------------------
# Reference: the clause-list slicer and model completion
# ----------------------------------------------------------------------
def reference_formula(log):
    """The log in the form the clause-list slicer read: the expanded
    clauses and their tags, each gate variable's three clause indices,
    and the indices of every other (root) clause.  A gate's clauses are
    found by content, row by row, so this does not share the log's merge
    of rows and roots."""
    expanded = log.expand()
    clauses = [clause for clause, _ in expanded]
    tags = [tag for _, tag in expanded]
    definitions, roots = {}, []
    rows = iter(log.gates)
    gates = list(zip(rows, rows, rows))
    row = ci = 0
    while ci < len(clauses):
        if row < len(gates):
            v, a, b = gates[row]
            if clauses[ci:ci + 3] == [[-v, a], [-v, b], [v, -a, -b]] \
                    and tags[ci:ci + 3] == [None] * 3:
                definitions[v] = [ci, ci + 1, ci + 2]
                row += 1
                ci += 3
                continue
        roots.append(ci)
        ci += 1
    assert row == len(gates), "a gate row has no triple in the expansion"
    return clauses, tags, definitions, roots


def reference_slice_cnf(clauses, nvars, definitions, roots, tags,
                        assumptions, frozen, unit_cutoff=None):
    """The clause-list cone-of-influence slicer: a reached variable pulls
    in the clauses that define it, and the kept clause indices are
    sorted back into emission order.  Its ``SliceResult`` holds the kept
    clauses as a list in ``cnf``: what the slicer's flat ``cnf`` must
    decode to."""
    reached = bytearray(nvars + 1)
    stack = []
    keep = []
    for lit in assumptions:
        var = abs(lit)
        if not reached[var]:
            reached[var] = 1
            stack.append(var)
    for ci in roots:
        tag = tags[ci]
        if unit_cutoff is not None and tag is not None and tag > unit_cutoff:
            continue
        keep.append(ci)
        for lit in clauses[ci]:
            var = abs(lit)
            if not reached[var]:
                reached[var] = 1
                stack.append(var)
    while stack:
        for ci in definitions.get(stack.pop(), ()):
            keep.append(ci)
            for lit in clauses[ci]:
                var = abs(lit)
                if not reached[var]:
                    reached[var] = 1
                    stack.append(var)

    keep.sort()
    ordered = list(compress(range(nvars + 1), reached))
    if len(ordered) == nvars:
        return SliceResult(
            nvars=nvars,
            cnf=[clauses[ci] for ci in keep],
            assumptions=list(assumptions),
            frozen=sorted(frozen),
            remap=None,
            vars_in=nvars,
            clauses_in=len(clauses),
            clauses_out=len(keep),
        )
    number = [0] * (2 * nvars + 1)
    for new, var in enumerate(ordered, 1):
        number[var] = new
        number[-var] = -new
    renumber = number.__getitem__
    return SliceResult(
        nvars=len(ordered),
        cnf=[list(map(renumber, clauses[ci])) for ci in keep],
        assumptions=list(map(renumber, assumptions)),
        frozen=sorted(number[v] for v in frozen if reached[v]),
        remap=[0] + ordered,
        vars_in=nvars,
        clauses_in=len(clauses),
        clauses_out=len(keep),
    )


def reference_complete_model(log, obligation, values):
    """The clause-triple model completion: a dropped gate's fan-ins are
    read back from the first two clauses of its definition."""
    clauses, _, definitions, _ = reference_formula(log)
    model = [False] * (log.nvars + 1)
    known = bytearray(log.nvars + 1)
    n = len(values)
    if obligation.remap is None:
        for var in range(1, min(n, log.nvars + 1)):
            model[var] = values[var]
            known[var] = 1
    else:
        for new in range(1, len(obligation.remap)):
            old = obligation.remap[new]
            if old <= log.nvars:
                model[old] = values[new] if new < n else False
                known[old] = 1
    for var, def_idx in definitions.items():
        if known[var]:
            continue
        c0 = clauses[def_idx[0]]
        c1 = clauses[def_idx[1]]
        a = c0[1] if c0[0] == -var else c0[0]
        b = c1[1] if c1[0] == -var else c1[0]
        va = model[a] if a > 0 else not model[-a]
        vb = model[b] if b > 0 else not model[-b]
        model[var] = va and vb
        known[var] = 1
    return model


def assert_slice_matches_reference(log, assumptions, unit_cutoff=None):
    """The gate-row slice of ``log`` equals the clause-list reference's,
    field by field, its ``cnf`` decoded; returns it."""
    sliced = slice_cnf(log, assumptions, unit_cutoff)
    clauses, tags, definitions, roots = reference_formula(log)
    reference = reference_slice_cnf(
        clauses, log.nvars, definitions, roots, tags, assumptions,
        log.frozen, unit_cutoff)
    assert replace(sliced, cnf=decode_cnf(sliced.cnf)) == reference
    return sliced


def assert_completion_matches_reference(ctx, obligation, rng):
    """Completing a random model of ``obligation`` gives the reference's
    completed model."""
    values = [rng.random() < 0.5 for _ in range(obligation.nvars + 1)]
    assert ctx.complete_model(obligation, values) == \
        reference_complete_model(ctx.solver, obligation, values)


def assert_model_covers_log(obligation, verdict, ctx, unit_cutoff=None):
    """The completed worker model must satisfy every recorded clause of
    the *full* context formula — except units the frame cutoff
    deliberately dropped — and every assumption of the query."""
    model = ctx.complete_model(obligation, verdict.model_list())

    def holds(lit):
        var = abs(lit)
        value = model[var] if var < len(model) else False
        return value if lit > 0 else not value

    for clause, tag in ctx.solver.expand():
        if unit_cutoff is not None and tag is not None and tag > unit_cutoff:
            continue
        assert any(holds(lit) for lit in clause), \
            f"completed model violates recorded clause {clause}"
    for lit in obligation.meta.get("dimacs_assumptions", ()):
        assert holds(lit)


def run_random_miters(seed, count):
    rng = random.Random(seed)
    proper_slices = 0
    for _ in range(count):
        ctx, target = random_miter_context(rng)
        if target in (0, 1):
            continue  # structurally constant miter: nothing to solve
        sliced = ctx.export_obligation("sliced", assumptions=[target])
        dimacs = [ctx.mapper.assumption(target)]
        sliced.meta["dimacs_assumptions"] = dimacs
        log = ctx.solver
        assert sliced.size()["clauses"] <= len(log.expand())
        assert sliced.nvars <= log.nvars
        if sliced.remap is not None:
            proper_slices += 1
        assert_slice_matches_reference(log, dimacs)
        for cutoff in (0, 1, 2):
            assert_slice_matches_reference(log, dimacs, unit_cutoff=cutoff)
        assert_completion_matches_reference(ctx, sliced, rng)
        vs = solve_obligation(sliced)
        # The reference: the full recorded formula, solved in place.
        full = ctx.solve(assumptions=[target])
        assert vs.status == ("sat" if full else "unsat"), \
            "slicing changed the verdict of a random miter"
        if vs.sat:
            assert_model_covers_log(sliced, vs, ctx)
        # Determinism: re-exporting the same query is bit-identical.
        again = ctx.export_obligation("sliced", assumptions=[target])
        assert again.fingerprint() == sliced.fingerprint()
    # The harness must actually exercise the remap/completion machinery,
    # not just identity slices.
    assert proper_slices > count // 4


# The one configuration left keeps its test id.
@pytest.mark.parametrize((), [pytest.param(id="True")])
def test_random_miters_sliced_matches_unsliced():
    run_random_miters(seed=1701, count=60 * FUZZ_SCALE)


def test_random_frame_cutoff_matches_rebuilt_reference():
    """A frame-``t`` slice keeps exactly the units of frames ``<= t``
    (plus untagged ones): its verdict must match an in-place solve of a
    reference context that only ever asserted those units."""
    rng = random.Random(2702)
    for _ in range(40 * FUZZ_SCALE):
        nin = rng.randint(3, 7)
        n_units = rng.randint(1, 4)
        plan = []
        for _ in range(n_units):
            plan.append((rng.choice([None, 0, 1, 2, 3]),
                         rng.randint(0, 10**9)))
        cutoff = rng.randint(0, 3)
        target_seed = rng.randint(0, 10**9)

        def build(frames_kept):
            ctx = SatContext()
            inputs = ctx.aig.new_inputs(nin)
            for frame, seed in plan:
                if frames_kept is not None and frame is not None \
                        and frame > frames_kept:
                    continue
                ctx.assert_lit(
                    random_expr(random.Random(seed), ctx.aig, inputs, 2),
                    frame=frame,
                )
            target = random_expr(random.Random(target_seed), ctx.aig,
                                 inputs, 3)
            return ctx, target

        ctx_all, target = build(None)
        if target in (0, 1):
            continue
        sliced = ctx_all.export_obligation(
            "cut", assumptions=[target], frame=cutoff)
        assert_slice_matches_reference(
            ctx_all.solver, [ctx_all.mapper.assumption(target)],
            unit_cutoff=cutoff)
        assert_completion_matches_reference(ctx_all, sliced, rng)
        ctx_ref, target_ref = build(cutoff)
        reference = ctx_ref.solve(assumptions=[target_ref])
        verdict = solve_obligation(sliced)
        assert verdict.status == ("sat" if reference else "unsat"), \
            "frame cutoff changed the verdict vs. a rebuilt reference"
        if verdict.sat:
            # The completed model is a real execution: it satisfies every
            # recorded clause except the deliberately dropped later-frame
            # units.
            assert_model_covers_log(sliced, verdict, ctx_all,
                                    unit_cutoff=cutoff)


# ----------------------------------------------------------------------
# Saturating obligations: the loop against per-target queries
# ----------------------------------------------------------------------
def random_saturation_case(rng):
    """A random miter context, its assumptions (the miter, some of the
    time) and a random target list that can hold the constants and
    duplicates."""
    ctx, miter = random_miter_context(rng)
    aig = ctx.aig
    inputs = [2 * node for node in range(1, len(aig))
              if aig.is_input(2 * node)]
    assumptions = [miter] if rng.random() < 0.7 else []
    targets = [random_expr(rng, aig, inputs, rng.randint(0, 3))
               for _ in range(rng.randint(1, 6))]
    targets.append(TRUE)
    if rng.random() < 0.3:
        targets.append(FALSE)
    targets += rng.sample(targets, rng.randint(0, 2))
    rng.shuffle(targets)
    return ctx, assumptions, targets


def assert_saturation_matches_queries(ctx, obligation, verdict,
                                      assumptions, targets):
    """The loop's found set against in-place queries of the full recorded
    formula, one per target; and each query's completed model satisfies
    every recorded clause and the assumptions, and makes true exactly
    the targets it is credited with plus ones found before."""
    reference = {i for i, target in enumerate(targets)
                 if ctx.solve(assumptions=assumptions + [target])}
    found = [i for indices in verdict.found for i in indices]
    assert len(found) == len(set(found))
    assert len(verdict.models) == len(verdict.found)
    if verdict.status in ("sat", "unsat"):
        assert set(found) == reference
        assert verdict.sat == bool(found)
    else:
        assert verdict.status == "unknown"
        assert set(found) <= reference
    dimacs_assumptions = [ctx.mapper.assumption(lit) for lit in assumptions]
    dimacs_targets = [ctx.mapper.assumption(lit) for lit in targets]
    earlier = set()
    for query, indices in enumerate(verdict.found):
        model = ctx.complete_model(obligation, verdict.model_list(query))

        def holds(lit):
            return model[lit] if lit > 0 else not model[-lit]

        for clause, _ in ctx.solver.expand():
            assert any(holds(lit) for lit in clause), \
                f"query {query}'s model violates recorded clause {clause}"
        assert all(holds(lit) for lit in dimacs_assumptions)
        true = {i for i, lit in enumerate(dimacs_targets) if holds(lit)}
        assert set(indices) == true - earlier
        earlier |= true


def assert_saturation_round_trips(obligation, verdict, cache):
    """Targets, found sets and models survive the wire, the verdict's
    dict form, a cache store and lookup and the broker memo; an
    undecided verdict is neither cached nor memoized."""
    wire = json.loads(json.dumps(obligation_to_wire(obligation)))
    back = obligation_from_wire(wire)
    assert back.targets == obligation.targets
    assert back.fingerprint() == obligation.fingerprint()
    again = solve_obligation(back)
    assert (again.status, again.found, again.models) == \
        (verdict.status, verdict.found, verdict.models)
    # The targets are part of the question, and so of the cache key.
    assert replace(obligation, targets=[]).fingerprint() != \
        obligation.fingerprint()
    data = Verdict.from_dict(json.loads(json.dumps(verdict.to_dict())))
    assert (data.status, data.found, data.models) == \
        (verdict.status, verdict.found, verdict.models)
    cache.store(obligation, verdict)
    hit = cache.lookup(obligation)
    scheduler = Scheduler()
    scheduler.complete("w", {"batch_id": "b", "seq": 0,
                             "verdict": verdict.to_dict()})
    memo = scheduler.memo.get(verdict.fingerprint)
    if verdict.status in ("sat", "unsat"):
        assert (hit.status, hit.found, hit.models) == \
            (verdict.status, verdict.found, verdict.models)
        assert Verdict.from_dict(memo).found == verdict.found
    else:
        assert hit is None and memo is None


def test_saturation_matches_per_target_queries(tmp_path):
    """Seeded differential of the saturating loop on random miters, under
    random conflict limits: a definite verdict finds exactly the targets
    that per-target in-place queries find satisfiable, a stopped one a
    subset, and every model is a real execution that makes its targets
    true."""
    rng = random.Random(4242)
    seen = {"sat": 0, "unsat": 0, "unknown": 0}
    multi_query = 0
    for case in range(100 * FUZZ_SCALE):
        ctx, assumptions, targets = random_saturation_case(rng)
        obligation = ctx.export_obligation(
            "saturate", assumptions=assumptions, targets=targets,
            conflict_limit=rng.choice([None, None, 1, 2, 3, 10]))
        assert len(obligation.targets) == len(targets)
        verdict = solve_obligation(obligation)
        seen[verdict.status] += 1
        multi_query += len(verdict.found) > 1
        assert_saturation_matches_queries(ctx, obligation, verdict,
                                          assumptions, targets)
        assert_saturation_round_trips(
            obligation, verdict, ResultCache(str(tmp_path / str(case))))
    # The corpus reaches every outcome, and loops of several queries.
    assert min(seen.values()) > 0 and multi_query > 0, (seen, multi_query)


def test_saturation_stops_on_cancel_and_deadline():
    """A cancel and a wall-clock budget bound the loop as a whole, also
    between queries too short to poll them: the verdict is undecided and
    keeps what the finished queries found."""
    # Two targets that no model makes true together: one query each.
    obligation = ProofObligation(
        name="two", nvars=2, cnf=encode_cnf([[-1, -2]]), assumptions=[],
        targets=[1, 2])
    full = solve_obligation(obligation)
    assert full.sat and sorted(full.found) == [[0], [1]]
    polls = iter([False])
    stopped = solve_obligation(obligation,
                               cancel_check=lambda: next(polls, True))
    assert stopped.status == "unknown"
    assert (stopped.found, stopped.models) == \
        (full.found[:1], full.models[:1])
    timed_out = solve_obligation(replace(obligation, wall_budget=1e-9))
    assert timed_out.status == "timeout" and timed_out.found == []


# ----------------------------------------------------------------------
# End-to-end: engine (sliced obligations) vs. the in-context solver
# ----------------------------------------------------------------------
def _alert_sig(alert):
    return None if alert is None else \
        (alert.frame, alert.kind, alert.diff_reg_names())


def _methodology_sig(result):
    return (
        result.verdict,
        result.k,
        result.iterations,
        list(result.removed_regs),
        [_alert_sig(alert) for alert in result.p_alerts],
        _alert_sig(result.l_alert),
    )


def _engine_run(soc, k, **engine_kwargs):
    """One methodology run on its own engine, closed afterwards."""
    with ProofEngine(**engine_kwargs) as engine:
        return UpecMethodology(soc, SCENARIO, engine=engine).run(k=k)


def test_methodology_slice_differential_all_variants():
    """Acceptance: on every design variant the sliced engine run reaches
    the verdict of the in-context solve of the full formula (the
    counterexample models, and so the P-alert sequences, may differ).
    Slicing was actually exercised, and it never grew an export."""
    with ProofEngine(jobs=1) as engine:
        for name in VARIANTS:
            soc = _soc(name)
            inline = UpecMethodology(soc, SCENARIO, engine=None).run(k=2)
            sliced = UpecMethodology(soc, SCENARIO, engine=engine).run(k=2)
            assert sliced.verdict == inline.verdict, name
            stats = sliced.stats
            assert stats["obligations_exported"] > 0, name
            assert stats["slice_clauses_out"] <= \
                stats["slice_clauses_in"], name


def test_tab1_frame_obligations_match_reference_slicer(monkeypatch):
    """Every frame obligation the four Tab.-I cells export at k=2 is
    sliced exactly as the clause-list reference slices it."""
    compared = []

    def checked(log, assumptions, unit_cutoff=None):
        compared.append(unit_cutoff)
        return assert_slice_matches_reference(log, assumptions, unit_cutoff)

    monkeypatch.setattr(slice_module, "slice_cnf", checked)
    with ProofEngine(jobs=1) as engine:
        for name in VARIANTS:
            UpecMethodology(_soc(name), SCENARIO, engine=engine).run(k=2)
    # Frame obligations carry their frame as the cutoff.
    assert len(compared) >= len(VARIANTS) and None not in compared


def test_closure_slice_differential():
    """The closure step's sliced saturating obligation must refute
    exactly the checks that in-place queries of the full recorded
    formula, one per check, refute."""
    from repro.core import InductiveDiffProof
    from repro.core.closure import CondEq

    soc = _soc("secure")
    invariant = [
        CondEq(soc.resp_buf, cond=None),
        CondEq(soc.secret_cache_data_reg, cond=None),
    ]
    proof = InductiveDiffProof(soc, SCENARIO, invariant)
    sliced = proof.check_step(conflict_limit=200_000)
    model, checks = proof.step_checks()
    reference = [
        (name, target == 0 or model.context.solve(
            assumptions=[target], conflict_limit=200_000) is False)
        for name, target in checks
    ]
    assert [(ob.name, ob.holds) for ob in sliced.obligations] == reference
    assert not sliced.holds
    assert sliced.stats["obligations_exported"] == 1
    assert sliced.stats["slice_clauses_out"] <= \
        sliced.stats["slice_clauses_in"]


def test_bmc_slice_differential():
    """Sliced BMC frame obligations reach the counter's known first
    failing frame, with or without a caller's engine."""
    from repro.formal import BmcEngine
    from repro.hdl import Circuit

    def check(engine):
        c = Circuit("counter")
        cnt = c.reg("cnt", 8, init=0)
        c.next(cnt, cnt + 1)
        c.finalize()
        return BmcEngine(c, init="symbolic", engine=engine) \
            .check_always(cnt.ne(5), k=8,
                          initial_assumptions=[cnt.eq(0)])

    with ProofEngine(jobs=1) as engine:
        sliced = check(engine)
    for result in (check(None), sliced):
        assert not result.holds and result.depth == 5
        assert result.witness.value("cnt", 5) == 5
        assert result.stats["obligations_exported"] == 9


# ----------------------------------------------------------------------
# Cache stability: history-independent fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_invariant_under_context_growth():
    """The same frame-k commitment query fingerprints identically before
    and after unrelated growth of the shared SatContext (longer windows,
    other frames' obligations, other commitments)."""
    soc = _soc("secure")
    model = UpecModel(soc, SCENARIO)
    regs = model.default_commitment()
    first = model.frame_obligation(regs, 1)
    assert first is not None
    baseline = first.fingerprint()

    # Unrelated growth: deeper frames are unrolled, their window
    # assumptions asserted, their commitment diff cones emitted and
    # frozen, and a different commitment is exported.
    model.frame_obligation(regs, 2)
    model.frame_obligation(regs[: len(regs) // 2], 2)

    again = model.frame_obligation(regs, 1)
    assert again.fingerprint() == baseline
    assert again.nvars == first.nvars
    assert again.cnf == first.cnf


def test_fingerprint_identical_across_fresh_contexts():
    """Two independent models of the same design/scenario produce
    bit-identical obligations for the same (commitment, frame) query —
    the property that makes the proof cache hit across runs."""
    soc = _soc("secure")
    sigs = []
    for _ in range(2):
        model = UpecModel(soc, SCENARIO)
        regs = model.default_commitment()
        sigs.append([model.frame_obligation(regs, t).fingerprint()
                     for t in (1, 2)])
    assert sigs[0] == sigs[1]


def test_warm_cache_hits_at_longer_window(tmp_path):
    """A warm cache from a k=2 run serves the shared prefix frames of a
    k=3 run: iteration-1 obligations do not depend on the window
    length."""
    soc = _soc("secure")
    first = _engine_run(soc, 2, jobs=1, cache_dir=str(tmp_path))
    longer = _engine_run(soc, 3, jobs=1, cache_dir=str(tmp_path))
    assert first.stats["engine_cache_hits"] == 0
    assert longer.stats["engine_cache_hits"] > 0
    assert longer.stats["engine_cache_hits"] >= \
        first.stats["engine_cache_misses"] - 1  # frame 3 & beyond are new
    assert longer.verdict == first.verdict


def test_warm_cache_shared_between_jobs_settings(tmp_path):
    """jobs=1 (lazy export) and jobs=2 (eager export) produce the same
    obligation stream: a cache warmed by one is fully hit by the other,
    including the refinement iterations after a P-alert."""
    soc = _soc("orc")
    seq = _engine_run(soc, 2, jobs=1, cache_dir=str(tmp_path))
    par = _engine_run(soc, 2, jobs=2, cache_dir=str(tmp_path))
    assert par.stats["engine_cache_hits"] > 0
    assert par.stats["engine_cache_misses"] == 0
    assert _methodology_sig(par) == _methodology_sig(seq)
    # Bit-identical obligations mean bit-identical adopted models, so
    # even the witness values agree between the two schedules.
    assert [a.to_dict() for a in par.p_alerts] == \
        [a.to_dict() for a in seq.p_alerts]


@pytest.mark.parametrize("jobs", [1, 2])
def test_checker_stops_unrolling_after_alert_at_jobs1(jobs):
    """The one step rule of the engine path: in-process (jobs=1) the
    checker exports one frame per step and never unrolls or exports a
    frame past the first alert; on a pool it exports the whole window at
    once, so every sibling is in flight.  On orc the first alert is at
    frame 1 of 3."""
    soc = _soc("orc")
    model = UpecModel(soc, SCENARIO)
    with ProofEngine(jobs=jobs) as engine:
        result = UpecChecker(model, engine=engine).check(k=3)
    assert result.status == "alert" and result.alert.frame == 1
    exported = model.stats()["obligations_exported"]
    assert exported == (1 if jobs == 1 else 3)


@pytest.mark.slow
def test_slice_fuzz_slow_high_volume():
    """Deep pass for CI's full runs (scaled further by REPRO_FUZZ_SCALE)."""
    run_random_miters(seed=9101, count=300 * FUZZ_SCALE)
