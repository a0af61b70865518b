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
it), so the :class:`ClauseLog` keeps the direction the formula was
emitted with, in two kinds of rows:

* **gate rows** — one ``(v, a, b)`` row per AND node that
  :class:`repro.formal.aig.CnfMapper` maps, standing for the Tseitin
  clauses ``[-v, a]``, ``[-v, b]``, ``[v, -a, -b]`` that *define* the
  gate variable ``v`` from its fan-in ``a``, ``b``;
* **root clauses** — everything else (asserted units), optionally
  tagged with the unrolling frame they belong to, and placed among the
  gate rows by the number of rows emitted before each.

The cone is then the least set containing the assumption variables and
the variables of the selected root clauses, closed under "a reached
gate variable pulls in its row (and its fan-in variables)".  A gate is
mapped after its fan-in, so one backward pass over the rows closes it.
Gate rows *outside* the cone are dropped: they constrain only fresh
variables the query never reads, so the slice is equisatisfiable with
the full formula under the same assumptions, and any model of the slice
extends to a model of the full formula by evaluating the dropped gates.

Finally the surviving variables are renumbered 1..m in increasing
original order, and the kept rows, expanded to their clauses, and the
kept root clauses are merged back in emission order into the flat,
zero-terminated ``cnf`` of :mod:`repro.engine.obligation`.  The rows
are emitted column-wise, with no Python loop per gate or per clause:
each of the ``v``, ``a`` and ``b`` columns is compressed by the mask of
rows whose output the cone reached and renumbered, and the columns (and
their negations) fill a block of ten slots a gate,
``-v a 0 -v b 0 v -a -b 0``, by strided slice assignment.  Each kept
root clause is spliced in where it was emitted: a running count of the
kept rows recorded before it gives its cut in the block.  A remap table
(new -> old) is kept on the obligation, so a worker's model maps back
onto the exporting context via ``SatContext.adopt_verdict`` (which also
re-evaluates the dropped gates so witness reads stay consistent with
the circuit).  The renumbering is canonical relative to the order in
which the query's own cone was emitted: once a query has been mapped,
any amount of unrelated growth — deeper frames, other registers' diff
cones, other commitments — leaves its re-exports bit-identical, and two
contexts that walk the same frames in the same order (the UPEC
methodology's frame-ordered walk, at any worker count) produce
bit-identical obligations and hence identical cache fingerprints across
windows, jobs settings and runs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from operator import neg
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.formal.bmc import ClauseLog


@dataclass
class SliceResult:
    """A sliced, canonically renumbered CNF plus its remap table."""

    nvars: int                    # variable count after renumbering
    cnf: array                    # renumbered clauses, original order, flat
    assumptions: List[int]        # renumbered assumption literals
    frozen: List[int]             # renumbered frozen variables (sorted)
    remap: Optional[List[int]]    # new var -> original var; None = identity
    vars_in: int                  # context variable count before slicing
    clauses_in: int               # recorded clause count before slicing
    clauses_out: int              # clause count of ``cnf``

    def stats(self) -> Dict[str, int]:
        return {
            "slice_vars_in": self.vars_in,
            "slice_vars_out": self.nvars,
            "slice_clauses_in": self.clauses_in,
            "slice_clauses_out": self.clauses_out,
        }


def slice_cnf(
    log: "ClauseLog",
    assumptions: Sequence[int],
    unit_cutoff: Optional[int] = None,
) -> SliceResult:
    """Compute the cone-of-influence slice of a recorded CNF.

    The cone is seeded by the assumption variables and the variables of
    the root clauses it keeps.  With ``unit_cutoff`` set, root clauses
    tagged with a *later* frame are excluded — the UPEC model tags its
    per-frame window assumptions so a frame-``t`` obligation depends only
    on frames ``0..t``.

    The log's ``frozen`` variables are *not* cone seeds (freezing other
    frames for witness extraction must not change this obligation); the
    frozen set is intersected with the cone instead.
    """
    nvars = log.nvars
    gates = log.gates
    reached = bytearray(nvars + 1)
    for lit in assumptions:
        reached[lit if lit > 0 else -lit] = 1
    kept: List[Tuple[List[int], int]] = []
    for clause, tag, before in zip(log.root_clauses, log.root_tags,
                                   log.root_gates):
        if unit_cutoff is not None and tag is not None and tag > unit_cutoff:
            continue
        kept.append((clause, before))
        for lit in clause:
            reached[lit if lit > 0 else -lit] = 1
    # Close the cone under fan-in in one backward pass: every gate that
    # reads a gate's output comes after its row, so a row is reached, if
    # at all, before the pass gets to it.
    rows = reversed(gates)
    for b, a, v in zip(rows, rows, rows):
        if reached[v]:
            reached[a if a > 0 else -a] = 1
            reached[b if b > 0 else -b] = 1

    ordered = list(compress(range(nvars + 1), reached))
    # Indexed by original literal; a negative one reads from the end.
    if len(ordered) == nvars:
        # Every variable survived: the (monotone) renumbering is the
        # identity, so the obligation carries no remap, which would
        # otherwise bloat every pickled obligation for nothing.
        number = list(range(nvars + 1))
        number += range(-nvars, 0)
        remap = None
    else:
        number = [0] * (2 * nvars + 1)
        for new, var in enumerate(ordered, 1):
            number[var] = new
            number[-var] = -new
        remap = [0] + ordered
    renumber = number.__getitem__
    # The kept gate rows, column by column: a row is kept exactly when
    # the cone reached its output.
    outputs = gates[0::3]
    mask = bytes(map(reached.__getitem__, outputs))
    v = array("i", map(renumber, compress(outputs, mask)))
    a = array("i", map(renumber, compress(gates[1::3], mask)))
    b = array("i", map(renumber, compress(gates[2::3], mask)))
    nv = array("i", map(neg, v))
    block = array("i", [0]) * (10 * len(v))
    block[0::10] = nv
    block[1::10] = a
    block[3::10] = nv
    block[4::10] = b
    block[6::10] = v
    block[7::10] = array("i", map(neg, a))
    block[8::10] = array("i", map(neg, b))
    # Splice each kept root clause in after the kept rows emitted
    # before it.
    cnf = array("i")
    scanned = emitted = 0
    for root, before in kept:
        upto = emitted + mask.count(1, scanned, before)
        cnf += block[10 * emitted:10 * upto]
        cnf.extend(map(renumber, root))
        cnf.append(0)
        scanned, emitted = before, upto
    cnf += block[10 * emitted:]
    return SliceResult(
        nvars=len(ordered),
        cnf=cnf,
        assumptions=list(map(renumber, assumptions)),
        frozen=sorted(number[var] for var in log.frozen if reached[var]),
        remap=remap,
        vars_in=nvars,
        # Three clauses a gate, as many as the row has entries.
        clauses_in=len(log.root_clauses) + len(gates),
        clauses_out=3 * len(v) + len(kept),
    )
