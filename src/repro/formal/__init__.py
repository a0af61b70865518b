"""SAT-based formal verification engine.

Layers, bottom up: CDCL solver (:mod:`repro.formal.solver`), CNF
pre-/inprocessing (:mod:`repro.formal.preprocess`), AIG with structural
hashing and Tseitin CNF mapping (:mod:`repro.formal.aig`), word-level
bit-blasting (:mod:`repro.formal.bitblast`), sequential unrolling
(:mod:`repro.formal.unroll`) and the BMC/IPC driver (:mod:`repro.formal.bmc`).
"""

from repro.formal.aig import Aig, CnfMapper
from repro.formal.bmc import BmcEngine, BmcResult, SatContext, Witness
from repro.formal.bitblast import BitBlaster, bits_to_int, const_bits
from repro.formal.induction import InductionResult, prove_by_induction
from repro.formal.preprocess import (
    Simplifier,
    SimplifyingSolver,
    SimplifyResult,
    SimplifyStats,
    reconstruct_model,
)
from repro.formal.solver import CdclSolver, luby_sequence
from repro.formal.unroll import Unroller

__all__ = [
    "Aig",
    "BitBlaster",
    "BmcEngine",
    "BmcResult",
    "CdclSolver",
    "CnfMapper",
    "InductionResult",
    "SatContext",
    "Simplifier",
    "SimplifyingSolver",
    "SimplifyResult",
    "SimplifyStats",
    "Unroller",
    "Witness",
    "bits_to_int",
    "const_bits",
    "luby_sequence",
    "prove_by_induction",
    "reconstruct_model",
]
