"""Bounded model checking / interval property checking driver.

:class:`SatContext` owns the AIG, the CNF mapping and the solver, and lets
clients assert AIG literals permanently or pass them as per-query
assumptions (the incremental interface used by the UPEC methodology).

:class:`BmcEngine` is the single-circuit front end: safety properties of the
form "assumptions during t..t+k imply the assertion at every cycle" with a
reset or symbolic (any-state, IPC-style) initial state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FormalError
from repro.formal.aig import Aig, CnfMapper
from repro.formal.bitblast import bits_to_int
from repro.formal.preprocess import SimplifyingSolver, SimplifyStats
from repro.formal.solver import Stats
from repro.formal.unroll import Unroller
from repro.hdl.circuit import Circuit
from repro.hdl.expr import Expr, Reg


class ClauseLog:
    """Clause recorder of a :class:`SatContext`, with an in-place solver
    built on demand.

    :class:`SatContext` routes every clause through this log so the full
    problem formula is available as data — that is what lets a context
    *export* self-contained proof obligations instead of only solving
    them in place.  The log owns the variable count and records the
    clauses, the frozen variables, each clause's frame tag, and which
    clauses define which gate (:meth:`note_definition`).

    Only an in-place :meth:`solve` needs a solver.  The first one builds
    a :class:`SimplifyingSolver` and replays into it, in order, the
    variable count, the frozen set and the recorded clauses; after that,
    variables, clauses and freezes reach it as they are recorded.  The
    replay is exact because before its first solve the solver only
    buffers: it has eliminated nothing yet, so nothing is resurrected.
    The replayed solver is therefore in the state an eagerly fed one
    would be in, and every later call finds it so.  A context that only
    exports obligations never builds one.

    The log also supports adopting a model that was computed elsewhere
    (by a worker process or a cache hit), so witness extraction reads
    external models through the exact same ``model_value`` path as
    in-process ones.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.clauses: List[List[int]] = []
        self.frozen: Set[int] = set()
        #: The in-place solver; None until the first :meth:`solve`.
        self.inner = None
        self._adopted: Optional[List[bool]] = None
        #: Per-clause frame tag (None = frame-independent).  Clients set
        #: ``unit_tag`` around an assertion so the obligation slicer can
        #: exclude units belonging to later frames.
        self.tags: List[Optional[int]] = []
        self.unit_tag: Optional[int] = None
        #: var -> indices of the clauses that define it (Tseitin triples,
        #: claimed by :meth:`note_definition`); ``roots`` holds the
        #: indices of every unclaimed clause (asserted units).  Together
        #: they give the cone-of-influence slicer its fan-in direction.
        self.definitions: Dict[int, List[int]] = {}
        self.roots: List[int] = []

    def new_var(self) -> int:
        self.nvars += 1
        if self.inner is not None:
            self.inner.new_var()
        return self.nvars

    def add_clause(self, lits) -> bool:
        """Record a clause (and hand it to the solver, once built).

        Returns False when the solver finds the formula trivially
        unsatisfiable; before it is built, only an empty clause does."""
        # The solvers build their own normalized copies, so the log can
        # keep the caller's list (CnfMapper always passes fresh ones)
        # instead of copying every clause on the emission path.
        clause = lits if type(lits) is list else list(lits)
        nvars = self.nvars
        for lit in clause:
            if not (lit and -nvars <= lit <= nvars):
                raise FormalError(
                    f"literal {lit} references an unknown variable")
        self.roots.append(len(self.clauses))
        self.clauses.append(clause)
        self.tags.append(self.unit_tag)
        if self.inner is None:
            return bool(clause)
        return self.inner.add_clause(clause)

    def note_definition(self, var: int, count: int) -> None:
        """Claim the last ``count`` clauses as the definition of ``var``
        (called by :class:`~repro.formal.aig.CnfMapper` right after it
        emits a gate's Tseitin triple)."""
        self.definitions[var] = self.roots[-count:]
        del self.roots[-count:]

    def freeze_var(self, var: int) -> None:
        """Protect a variable from elimination (see
        :meth:`SimplifyingSolver.freeze_var`)."""
        if not 0 < var <= self.nvars:
            raise FormalError(f"unknown variable {var}")
        self.frozen.add(var)
        if self.inner is not None:
            self.inner.freeze_var(var)

    def _build(self):
        """The in-place solver, fed everything recorded so far."""
        solver = SimplifyingSolver()
        for _ in range(self.nvars):
            solver.new_var()
        for var in self.frozen:
            solver.freeze_var(var)
        for clause in self.clauses:
            solver.add_clause(clause)
        return solver

    def solve(self, assumptions: Sequence[int] = (),
              conflict_limit: Optional[int] = None,
              deadline: Optional[float] = None) -> Optional[bool]:
        self._adopted = None
        if self.inner is None:
            self.inner = self._build()
        return self.inner.solve(assumptions=assumptions,
                                conflict_limit=conflict_limit,
                                deadline=deadline)

    @property
    def stats(self) -> Stats:
        """Search counters (all zero before the first solve)."""
        return self.inner.stats if self.inner is not None else Stats()

    @property
    def simplify_stats(self) -> SimplifyStats:
        """Simplifier counters (zero before the first solve)."""
        if self.inner is None:
            return SimplifyStats()
        return self.inner.simplify_stats

    @property
    def stop_reason(self) -> Optional[str]:
        """Why the last :meth:`solve` returned None (see
        :attr:`CdclSolver.stop_reason`)."""
        return self.inner.stop_reason if self.inner is not None else None

    def adopt_model(self, model: Sequence[bool]) -> None:
        """Install an externally computed model; ``model_value`` reads it
        until the next in-process ``solve``."""
        self._adopted = list(model)

    def model_value(self, lit: int) -> bool:
        if self._adopted is not None:
            var = abs(lit)
            value = self._adopted[var] if var < len(self._adopted) else False
            return value if lit > 0 else not value
        if self.inner is None:
            raise FormalError("no model available (last solve was not SAT)")
        return self.inner.model_value(lit)


class SatContext:
    """Shared AIG + CNF + solver state for a sequence of related queries.

    The CNF goes through the SatELite-style pre-/inprocessor of
    :mod:`repro.formal.preprocess` before every search, on either path.

    Queries can either be solved in place (:meth:`solve`, incremental)
    or exported as self-contained :class:`ProofObligation` values
    (:meth:`export_obligation`) for the scheduler/cache layers of
    :mod:`repro.engine`.  The context's :class:`ClauseLog` records the
    formula either way and builds the in-place solver at the first
    :meth:`solve`, replaying what it recorded: before its first solve a
    solver only buffers, so the replayed one answers exactly as an
    eagerly fed one would, and a context that only exports never builds
    one.
    """

    def __init__(self) -> None:
        self.aig = Aig()
        self.solver = ClauseLog()
        self.mapper = CnfMapper(self.aig, self.solver)
        self._slice_totals: Dict[str, int] = {}

    def assert_lit(self, lit: int, frame: Optional[int] = None) -> None:
        """Permanently assert an AIG literal.

        ``frame`` tags the resulting unit clause with the unrolling frame
        it belongs to, so sliced obligations for earlier frames can leave
        it (and its cone) out."""
        log = self.solver
        log.unit_tag = frame
        try:
            self.mapper.assert_true(lit)
        finally:
            log.unit_tag = None

    def export_obligation(
        self,
        name: str,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        wall_budget: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
        frame: Optional[int] = None,
    ):
        """Snapshot the cone of influence of AIG-literal assumptions as a
        serializable :class:`repro.engine.obligation.ProofObligation`.

        The obligation carries only the clauses that can influence the
        assumptions plus the asserted units — canonically renumbered, so
        its fingerprint does not depend on how the shared context grew.
        ``frame`` additionally drops units tagged with a later frame (the
        UPEC per-frame window assumptions).
        """
        from repro.engine.obligation import ProofObligation
        from repro.engine.slice import slice_cnf

        # Mapping the assumptions may emit their cones; do it before the
        # clause snapshot so the obligation is self-contained.
        dimacs = [self.mapper.assumption(lit) for lit in assumptions]
        log = self.solver
        sliced = slice_cnf(
            clauses=log.clauses,
            nvars=log.nvars,
            definitions=log.definitions,
            roots=log.roots,
            tags=log.tags,
            assumptions=dimacs,
            frozen=log.frozen,
            unit_cutoff=frame,
        )
        totals = self._slice_totals
        totals["obligations_exported"] = \
            totals.get("obligations_exported", 0) + 1
        for key, value in sliced.stats().items():
            totals[key] = totals.get(key, 0) + value
        return ProofObligation(
            name=name,
            nvars=sliced.nvars,
            clauses=sliced.clauses,
            assumptions=sliced.assumptions,
            frozen=sliced.frozen,
            conflict_limit=conflict_limit,
            wall_budget=wall_budget,
            meta=dict(meta or {}),
            remap=sliced.remap,
        )

    def adopt_model(self, model: Sequence[bool]) -> None:
        """Expose an external verdict's model to ``value``/``word_value``."""
        self.solver.adopt_model(model)

    def complete_model(self, obligation, values: Sequence[bool]) -> List[bool]:
        """Extend an exported obligation's model to the full context
        formula.

        Variables the slice kept take the worker's values via the remap
        (the identity when ``remap`` is None); every gate variable the
        slice dropped — or that was only mapped *after* the export, as
        the shared context kept growing — is *evaluated* from its
        recorded Tseitin definition (children were emitted first, so one
        forward pass suffices).  The result is a consistent execution of
        the recorded formula — witness traces read through ``value`` /
        ``word_value`` never show gate values that contradict their
        fan-in — rather than a zero-fill that merely matches on the
        sliced variables.
        """
        log = self.solver
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
        clauses = log.clauses
        for var, def_idx in log.definitions.items():
            if known[var]:
                continue
            # v <-> a & b: the triple's first two clauses are [-v, a]
            # and [-v, b]; fan-in variables precede v in emission order,
            # so their values (kept, evaluated, or free-input False) are
            # final by the time v is reached.
            c0 = clauses[def_idx[0]]
            c1 = clauses[def_idx[1]]
            a = c0[1] if c0[0] == -var else c0[0]
            b = c1[1] if c1[0] == -var else c1[0]
            va = model[a] if a > 0 else not model[-a]
            vb = model[b] if b > 0 else not model[-b]
            model[var] = va and vb
            known[var] = 1
        return model

    def adopt_verdict(self, obligation, verdict) -> None:
        """Adopt a worker verdict's model for witness extraction,
        completing out-of-slice gates via :meth:`complete_model`."""
        self.adopt_model(self.complete_model(obligation,
                                             verdict.model_list()))

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Optional[bool]:
        """Solve under AIG-literal assumptions.

        Returns True (SAT), False (UNSAT) or None (conflict limit or
        wall-clock ``deadline`` reached — the solver's ``stop_reason``
        says which).
        """
        dimacs = [self.mapper.assumption(lit) for lit in assumptions]
        return self.solver.solve(assumptions=dimacs,
                                 conflict_limit=conflict_limit,
                                 deadline=deadline)

    def value(self, lit: int) -> bool:
        """Model value of an AIG literal after a SAT result."""
        return self.mapper.model_lit(lit)

    def word_value(self, bits: Sequence[int]) -> int:
        """Model value of a literal vector as an unsigned integer."""
        return bits_to_int([self.value(bit) for bit in bits])

    def stats(self) -> Dict[str, int]:
        data = self.solver.stats.as_dict()
        data["aig_nodes"] = len(self.aig)
        data["cnf_vars"] = self.solver.nvars
        data["cnf_clauses_emitted"] = self.mapper.clauses_emitted
        data.update(self._slice_totals)
        for key, value in self.solver.simplify_stats.as_dict().items():
            data[f"simplify_{key}"] = value
        return data


@dataclass
class Witness:
    """A counterexample trace: register values per frame."""

    frames: List[Dict[str, int]]
    failed_frame: int
    inputs: List[Dict[str, int]] = field(default_factory=list)

    def value(self, reg_name: str, frame: int) -> int:
        return self.frames[frame][reg_name]

    def render(self, signals: Optional[Sequence[str]] = None) -> str:
        from repro.sim.trace import Trace

        names = list(signals) if signals else sorted(self.frames[0])
        trace = Trace(names)
        for frame in self.frames:
            trace.record({name: frame.get(name, 0) for name in names})
        return trace.render()


@dataclass
class BmcResult:
    """Outcome of a bounded check."""

    holds: bool
    depth: int
    witness: Optional[Witness] = None
    runtime_s: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds


class BmcEngine:
    """Bounded safety checking of one circuit.

    With ``engine`` set (a :class:`repro.engine.ProofEngine`), each
    frame's query is exported as a proof obligation and dispatched to
    the scheduler/cache layers; otherwise queries are solved on the
    context's incremental in-process solver.
    """

    def __init__(self, circuit: Circuit, init: str = "reset",
                 engine=None) -> None:
        self.circuit = circuit.finalize()
        self.context = SatContext()
        self.unroller = Unroller(circuit, self.context.aig, init=init)
        self.engine = engine

    def extract_witness(self, depth: int, failed_frame: int) -> Witness:
        frames: List[Dict[str, int]] = []
        for t in range(depth + 1):
            values: Dict[str, int] = {}
            for reg in self.circuit.regs.values():
                values[reg.name] = self.context.word_value(
                    self.unroller.reg_bits(reg, t)
                )
            frames.append(values)
        return Witness(frames=frames, failed_frame=failed_frame)

    def check_always(
        self,
        assertion: Expr,
        k: int,
        assumptions: Sequence[Expr] = (),
        initial_assumptions: Sequence[Expr] = (),
        conflict_limit: Optional[int] = None,
    ) -> BmcResult:
        """Check that ``assertion`` holds at cycles 0..k.

        ``assumptions`` are constrained at every cycle of the window;
        ``initial_assumptions`` only at cycle 0.
        """
        if assertion.width != 1:
            raise FormalError("assertion must be a 1-bit expression")
        start = time.perf_counter()
        self.unroller.extend_to(k)
        for expr in initial_assumptions:
            self.context.assert_lit(self.unroller.expr_lit(expr, 0), frame=0)
        for t in range(k + 1):
            for expr in assumptions:
                self.context.assert_lit(self.unroller.expr_lit(expr, t),
                                        frame=t)
        if self.engine is not None:
            return self._check_frames_engine(k, assertion, conflict_limit,
                                             start)
        for t in range(k + 1):
            bad = self.unroller.expr_lit(assertion, t) ^ 1
            outcome = self.context.solve(
                assumptions=[bad], conflict_limit=conflict_limit
            )
            if outcome is None:
                raise FormalError(
                    f"conflict limit exhausted at frame {t} "
                    f"(limit={conflict_limit})"
                )
            if outcome:
                witness = self.extract_witness(k, t)
                return BmcResult(
                    holds=False,
                    depth=t,
                    witness=witness,
                    runtime_s=time.perf_counter() - start,
                    stats=self.context.stats(),
                )
        return BmcResult(
            holds=True,
            depth=k,
            runtime_s=time.perf_counter() - start,
            stats=self.context.stats(),
        )

    def _check_frames_engine(self, k: int, assertion: Expr,
                             conflict_limit: Optional[int],
                             start: float) -> BmcResult:
        """Obligation-based frame checks via the scheduler/cache engine."""
        since = self.engine.stats()
        obligations = []
        for t in range(k + 1):
            bad = self.unroller.expr_lit(assertion, t) ^ 1
            obligations.append(self.context.export_obligation(
                name=f"bmc[{self.circuit.name}]@t{t}",
                assumptions=[bad], conflict_limit=conflict_limit,
                meta={"kind": "bmc-frame", "circuit": self.circuit.name,
                      "frame": t, "k": k},
            ))
        verdicts = self.engine.solve_ordered(
            obligations, early_stop=lambda v: not v.unsat
        )
        stats = dict(self.context.stats())
        stats.update(self.engine.stats(since=since))
        for t, verdict in enumerate(verdicts):
            if verdict is None or verdict.unsat:
                continue
            if verdict.sat:
                self.context.adopt_verdict(obligations[t], verdict)
                witness = self.extract_witness(k, t)
                return BmcResult(
                    holds=False, depth=t, witness=witness,
                    runtime_s=time.perf_counter() - start, stats=stats,
                )
            raise FormalError(
                f"conflict limit exhausted at frame {t} "
                f"(limit={conflict_limit})"
            )
        return BmcResult(
            holds=True, depth=k,
            runtime_s=time.perf_counter() - start, stats=stats,
        )
