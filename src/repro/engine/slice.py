"""Cone-of-influence slicing of recorded CNF into history-independent
proof obligations.

:meth:`repro.formal.bmc.SatContext.export_obligation` snapshots the
formula a :class:`~repro.formal.bmc.ClauseLog` recorded.  Taken whole,
that snapshot would be the *entire* unrolling history: every frame,
register and commitment the shared context ever touched would ride
along in every obligation, inflating worker pickling cost and making
cache fingerprints fragile — any unrelated context growth would change
the bytes.

So every export goes through the slicer, which cuts the snapshot down
to the clauses that can actually influence the query.  Raw CNF has no
direction (a clause mentioning a variable could define it or consume
it), so the :class:`ClauseLog` records two extra facts at emission
time:

* **definitions** — the Tseitin clauses that *define* a gate variable
  (marked by :class:`repro.formal.aig.CnfMapper` as it emits each AND
  node's triple), giving the traversal its fan-in direction;
* **root clauses** — everything else (asserted units), optionally
  tagged with the unrolling frame they belong to.

The cone is then the least set containing the assumption variables and
the selected root clauses, closed under "a reached variable pulls in its
defining clauses (and their fan-in variables)".  Clauses defining gates
*outside* the cone are dropped: they constrain only fresh variables the
query never reads, so the slice is equisatisfiable with the full
formula under the same assumptions, and any model of the slice extends
to a model of the full formula by evaluating the dropped gates.

Finally the surviving variables are renumbered 1..m in increasing
original order and a remap table (new -> old) is kept on the
obligation, so a worker's model maps back onto the exporting context
via ``SatContext.adopt_verdict`` (which also re-evaluates the dropped
gates so witness reads stay consistent with the circuit).  The
renumbering is canonical relative to the order in which the query's own
cone was emitted: once a query has been mapped, any amount of unrelated
growth — deeper frames, other registers' diff cones, other commitments
— leaves its re-exports bit-identical, and two contexts that walk the
same frames in the same order (the UPEC methodology's frame-ordered
walk, at any worker count) produce bit-identical obligations and hence
identical cache fingerprints across windows, jobs settings and runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

@dataclass
class SliceResult:
    """A sliced, canonically renumbered CNF plus its remap table."""

    nvars: int                    # variable count after renumbering
    clauses: List[List[int]]      # renumbered clauses, original order
    assumptions: List[int]        # renumbered assumption literals
    frozen: List[int]             # renumbered frozen variables (sorted)
    remap: Optional[List[int]]    # new var -> original var; None = identity
    vars_in: int                  # context variable count before slicing
    clauses_in: int               # recorded clause count before slicing

    def stats(self) -> Dict[str, int]:
        return {
            "slice_vars_in": self.vars_in,
            "slice_vars_out": self.nvars,
            "slice_clauses_in": self.clauses_in,
            "slice_clauses_out": len(self.clauses),
        }


def slice_cnf(
    clauses: Sequence[List[int]],
    nvars: int,
    definitions: Dict[int, List[int]],
    roots: Sequence[int],
    tags: Sequence[Optional[int]],
    assumptions: Sequence[int],
    frozen: Set[int],
    unit_cutoff: Optional[int] = None,
) -> SliceResult:
    """Compute the cone-of-influence slice of a recorded CNF.

    ``definitions`` maps a gate variable to the indices of the clauses
    that define it; ``roots`` lists the indices of all non-definitional
    clauses (asserted units), each optionally frame-tagged in ``tags``.
    With ``unit_cutoff`` set, root clauses tagged with a *later* frame
    are excluded — the UPEC model tags its per-frame window assumptions
    so a frame-``t`` obligation depends only on frames ``0..t``.

    ``frozen`` variables are *not* cone seeds (freezing other frames for
    witness extraction must not change this obligation); the frozen set
    is intersected with the cone instead.
    """
    reached: Set[int] = set()
    stack: List[int] = []

    def reach(var: int) -> None:
        if var not in reached:
            reached.add(var)
            stack.append(var)

    keep: List[int] = []
    for lit in assumptions:
        reach(abs(lit))
    for ci in roots:
        tag = tags[ci]
        if unit_cutoff is not None and tag is not None and tag > unit_cutoff:
            continue
        keep.append(ci)
        for lit in clauses[ci]:
            reach(abs(lit))
    while stack:
        var = stack.pop()
        for ci in definitions.get(var, ()):
            keep.append(ci)
            for lit in clauses[ci]:
                reach(abs(lit))

    keep.sort()
    if len(reached) == nvars:
        # Every variable survived: the (monotone) renumbering would be
        # the identity, so skip it — and drop the remap, which would
        # otherwise bloat every pickled obligation for nothing.
        return SliceResult(
            nvars=nvars,
            clauses=[clauses[ci] for ci in keep],
            assumptions=list(assumptions),
            frozen=sorted(frozen),
            remap=None,
            vars_in=nvars,
            clauses_in=len(clauses),
        )
    ordered = sorted(reached)
    new_of: Dict[int, int] = {old: i for i, old in enumerate(ordered, 1)}
    remap = [0] + ordered
    sliced = [
        [lit // abs(lit) * new_of[abs(lit)] for lit in clauses[ci]]
        for ci in keep
    ]
    return SliceResult(
        nvars=len(ordered),
        clauses=sliced,
        assumptions=[lit // abs(lit) * new_of[abs(lit)]
                     for lit in assumptions],
        frozen=sorted(new_of[v] for v in frozen if v in new_of),
        remap=remap,
        vars_in=nvars,
        clauses_in=len(clauses),
    )
