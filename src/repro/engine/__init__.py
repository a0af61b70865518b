"""Obligation-based verification engine.

Decouples *what must be proved* from *where it is solved*, in three
layers:

* **obligation** (:mod:`repro.engine.obligation`) — serializable
  :class:`ProofObligation` values (self-contained CNF slice +
  assumptions + metadata) with :class:`Verdict` results; exported by
  :meth:`repro.formal.bmc.SatContext.export_obligation` and
  :meth:`repro.core.model.UpecModel.frame_obligation` instead of being
  solved inline.  Every export is cut to the query's cone of influence
  (:mod:`repro.engine.slice`) and canonically renumbered, so the same
  logical query is bit-identical — and cache-key identical — no matter
  how the shared context grew.
* **scheduler** (:mod:`repro.engine.pool`) — :class:`SolverPool` runs
  obligation batches on a ``multiprocessing`` worker pool (in-process at
  ``jobs=1``), consuming results in submission order with early-cancel
  of sibling obligations.  ``solve_ordered`` is the one entry point, a
  single obligation is a batch of one.  :class:`ScenarioSweep`
  (:mod:`repro.engine.sweep`) is the coarse-grained variant that grids
  whole Tab.-I/II methodology runs over workers.
* **cache** (:mod:`repro.engine.cache`) — :class:`ResultCache`, a
  persistent on-disk verdict store keyed by the obligation's content
  fingerprint, so methodology re-runs skip already-proved obligations.

:class:`ProofEngine` ties the three together and is what the formal
stack (``UpecChecker``, ``UpecMethodology``, ``InductiveDiffProof``,
``BmcEngine``, ``prove_by_induction``) accepts as its ``engine``
parameter; without one, those call sites solve on their incremental
in-context solver.

The scheduler seam is pluggable: :mod:`repro.dist` provides
:class:`~repro.dist.remote.RemotePool`, a SolverPool-compatible
scheduler that ships obligations to a network broker
(``ProofEngine(pool=...)`` / :class:`~repro.dist.remote.RemoteEngine`),
sharding the same workloads across machines with bit-identical
verdicts.
"""

from repro.engine.cache import CACHE_MAX_ENV, ResultCache
from repro.engine.obligation import (
    SAT,
    UNKNOWN,
    UNSAT,
    ProofObligation,
    Verdict,
    decode_cnf,
    encode_cnf,
    pack_model,
    solve_obligation,
    unpack_model,
)
from repro.engine.pool import ProofEngine, SolverPool
from repro.engine.slice import SliceResult, slice_cnf
from repro.engine.sweep import (
    CELL_ALERT_WINDOW,
    CELL_METHODOLOGY,
    ScenarioSweep,
    SweepCell,
    SweepOutcome,
    SweepResult,
)

__all__ = [
    "CACHE_MAX_ENV",
    "CELL_ALERT_WINDOW",
    "CELL_METHODOLOGY",
    "ProofEngine",
    "ProofObligation",
    "ResultCache",
    "SAT",
    "ScenarioSweep",
    "SliceResult",
    "SolverPool",
    "SweepCell",
    "SweepOutcome",
    "SweepResult",
    "UNKNOWN",
    "UNSAT",
    "Verdict",
    "decode_cnf",
    "encode_cnf",
    "pack_model",
    "slice_cnf",
    "solve_obligation",
    "unpack_model",
]
