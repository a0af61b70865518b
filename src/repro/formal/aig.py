"""And-Inverter Graph with structural hashing.

The AIG is the bit-level backbone of the formal engine.  Word-level
expressions are bit-blasted into AIG literals; the two-instance UPEC miter
relies on structural hashing to merge all logic outside the secret's cone of
influence (both SoC instances share input and register variables wherever the
initial states are constrained equal, so identical cones hash to identical
nodes — the complexity mitigation of Sec. V-B of the paper).

Literal encoding: node index ``n`` has positive literal ``2n`` and negated
literal ``2n + 1``.  Node 0 is the constant FALSE, so literal 0 is FALSE and
literal 1 is TRUE.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from repro.errors import FormalError

if TYPE_CHECKING:
    from repro.formal.bmc import ClauseLog

FALSE = 0
TRUE = 1


class Aig:
    """A mutable AIG with hash-consed AND nodes."""

    def __init__(self) -> None:
        # nodes[i] is None for inputs/constant, else (lit_a, lit_b).
        self._nodes: List[Optional[Tuple[int, int]]] = [None]  # node 0 = FALSE
        self._strash: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_input(self) -> int:
        """Allocate a fresh primary input; returns its positive literal."""
        self._nodes.append(None)
        return 2 * (len(self._nodes) - 1)

    def new_inputs(self, count: int) -> List[int]:
        return [self.new_input() for _ in range(count)]

    def const(self, value: bool) -> int:
        return TRUE if value else FALSE

    def and_(self, a: int, b: int) -> int:
        """AND of two literals with standard simplifications."""
        if a == FALSE or b == FALSE or a == (b ^ 1):
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        key = (a, b) if a < b else (b, a)
        node = self._strash.get(key)
        if node is not None:
            return 2 * node
        self._nodes.append(key)
        node = len(self._nodes) - 1
        self._strash[key] = node
        return 2 * node

    def not_(self, a: int) -> int:
        return a ^ 1

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: int, b: int) -> int:
        # (a & ~b) | (~a & b)
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def xnor_(self, a: int, b: int) -> int:
        return self.xor_(a, b) ^ 1

    def mux_(self, sel: int, if_true: int, if_false: int) -> int:
        if sel == TRUE:
            return if_true
        if sel == FALSE:
            return if_false
        if if_true == if_false:
            return if_true
        return self.or_(self.and_(sel, if_true), self.and_(sel ^ 1, if_false))

    def and_all(self, lits: Iterable[int]) -> int:
        result = TRUE
        for lit in lits:
            result = self.and_(result, lit)
        return result

    def or_all(self, lits: Iterable[int]) -> int:
        result = FALSE
        for lit in lits:
            result = self.or_(result, lit)
        return result

    def implies_(self, a: int, b: int) -> int:
        return self.or_(a ^ 1, b)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of nodes (including constant and inputs)."""
        return len(self._nodes)

    def num_ands(self) -> int:
        return sum(1 for n in self._nodes if n is not None)

    def is_input(self, lit: int) -> bool:
        node = lit >> 1
        return node != 0 and self._nodes[node] is None

    def fanins(self, lit: int) -> Optional[Tuple[int, int]]:
        return self._nodes[lit >> 1]

    def cone(self, roots: Sequence[int]) -> List[int]:
        """Nodes (indices) in the transitive fan-in of ``roots``, topologically
        ordered (children first).  AND nodes only."""
        seen: Set[int] = set()
        order: List[int] = []
        stack: List[Tuple[int, bool]] = []
        for root in roots:
            stack.append((root >> 1, False))
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            fanins = self._nodes[node]
            if fanins is None:
                continue  # input or constant
            stack.append((node, True))
            stack.append((fanins[0] >> 1, False))
            stack.append((fanins[1] >> 1, False))
        return order

    # ------------------------------------------------------------------
    # Evaluation (testing / counterexample replay)
    # ------------------------------------------------------------------
    def evaluate(self, roots: Sequence[int], inputs: Dict[int, bool]) -> List[bool]:
        """Evaluate root literals given input-literal assignments.

        ``inputs`` maps positive input literals to boolean values.
        """
        values: Dict[int, bool] = {0: False}
        for lit, val in inputs.items():
            if lit & 1:
                raise FormalError("input assignments must use positive literals")
            values[lit >> 1] = bool(val)

        def lit_value(lit: int) -> bool:
            return values[lit >> 1] ^ bool(lit & 1)

        for node in self.cone(roots):
            fanins = self._nodes[node]
            assert fanins is not None
            values[node] = lit_value(fanins[0]) and lit_value(fanins[1])
        result = []
        for root in roots:
            if (root >> 1) not in values:
                raise FormalError(f"unassigned input node {root >> 1}")
            result.append(lit_value(root))
        return result


class CnfMapper:
    """Incremental Tseitin transformation of AIG cones into a clause log.

    Each AIG node is mapped to a variable of the
    :class:`~repro.formal.bmc.ClauseLog` on demand; repeated calls share
    previously emitted clauses, so the UPEC methodology can assert many
    different proof obligations over one unrolled model.

    Each AND node becomes a fresh variable ``v`` defined by the Tseitin
    clauses ``[-v, a]``, ``[-v, b]``, ``[v, -a, -b]`` over its children's
    literals, which the log takes as one ``add_and(v, a, b)`` row: that
    gives cone-of-influence slicing its fan-in direction.

    Invariant: a mapped AND node's cone is fully mapped, because a node is
    only mapped after both of its children.  Mapping a new root therefore
    walks its fan-in only down to mapped nodes, and still emits the
    unmapped nodes in the order a walk of the root's whole cone
    (:meth:`Aig.cone`) gives them: the same variables and clauses.
    """

    def __init__(self, aig: Aig, solver: "ClauseLog") -> None:
        self.aig = aig
        self.solver = solver
        self._node_var: Dict[int, int] = {}
        self.clauses_emitted = 0
        # Node values read under an adopted model (see model_lit), valid
        # for the adopted model object they were read under and until the
        # next node is mapped.
        self._eval_model: Optional[Sequence[bool]] = None
        self._eval_values: Dict[int, bool] = {}

    def lit_to_solver(self, lit: int) -> int:
        """Return the DIMACS literal corresponding to an AIG literal,
        emitting Tseitin clauses for its cone as needed."""
        if lit == FALSE or lit == TRUE:
            # Materialize a constant variable once.  Its defining unit is
            # frame-independent, so shield it from any frame tag the
            # log is currently applying to asserted units — a sliced
            # obligation must never drop the constant's clause.
            var = self._node_var.get(0)
            if var is None:
                log = self.solver
                var = log.new_var()
                tag = log.unit_tag
                log.unit_tag = None
                log.add_clause([-var])  # node 0 is FALSE
                log.unit_tag = tag
                self._node_var[0] = var
            return -var if lit == TRUE else var
        node = lit >> 1
        var = self._node_var.get(node)
        if var is None:
            self._map_cone(node)
            var = self._node_var[node]
        return -var if lit & 1 else var

    def _map_cone(self, root: int) -> None:
        """Map an unmapped node and the unmapped part of its fan-in,
        children first.  The walk is :meth:`Aig.cone`'s, except that it
        stops at mapped nodes (whose cones are fully mapped)."""
        node_var = self._node_var
        fanins_of = self.aig.fanins
        solver = self.solver
        add_and = solver.add_and
        seen: Set[int] = set()
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                fanins = fanins_of(2 * node)
                a = self._leaf_or_var(fanins[0])
                b = self._leaf_or_var(fanins[1])
                v = solver.new_var()
                add_and(v, a, b)  # v <-> a & b
                self.clauses_emitted += 3
                node_var[node] = v
                continue
            if node in seen or node in node_var:
                continue
            seen.add(node)
            fanins = fanins_of(2 * node)
            if fanins is None:
                continue  # input: mapped by its parent (or below)
            stack.append((node, True))
            stack.append((fanins[0] >> 1, False))
            stack.append((fanins[1] >> 1, False))
        if root not in node_var:
            # Root is an input node; allocate a variable for it.
            node_var[root] = solver.new_var()
        # A newly mapped node reads its model value, no longer its
        # fan-in's, so values read under an adopted model are stale.
        self._eval_model = None

    def _leaf_or_var(self, lit: int) -> int:
        node = lit >> 1
        if node == 0:
            return self.lit_to_solver(lit)
        if node not in self._node_var:
            if self.aig.fanins(lit) is None:
                self._node_var[node] = self.solver.new_var()
            else:  # pragma: no cover - cone() yields children first
                raise FormalError("AND node visited before its children")
        var = self._node_var[node]
        return -var if lit & 1 else var

    def assert_true(self, lit: int) -> None:
        """Add a unit clause forcing an AIG literal to hold."""
        self.solver.add_clause([self.lit_to_solver(lit)])

    def freeze_lit(self, lit: int) -> None:
        """Mark an AIG literal's variable as witness-relevant: a
        simplifying solver must not eliminate it, so counterexample
        values come from the search rather than from don't-care
        reconstruction."""
        self.solver.freeze_var(abs(self.lit_to_solver(lit)))

    def assumption(self, lit: int) -> int:
        """DIMACS literal usable as a solver assumption."""
        return self.lit_to_solver(lit)

    def model_lit(self, lit: int) -> bool:
        """Value of an AIG literal in the solver's current model.

        For in-process models, literals never sent to the solver are
        unconstrained and default to False (don't-care semantics in
        counterexamples).  Under an *adopted* external model (a worker
        verdict, possibly from a sliced obligation) unmapped gates are
        instead evaluated from their fan-in, so witness reads are a
        consistent execution of the circuit no matter which clauses the
        obligation carried or how far this context happened to grow.
        """
        if lit == FALSE:
            return False
        if lit == TRUE:
            return True
        node = lit >> 1
        var = self._node_var.get(node)
        if var is None:
            adopted = self.solver._adopted
            if adopted is not None:
                return bool(lit & 1) ^ self._eval_unmapped(node, adopted)
            return bool(lit & 1)
        return self.solver.model_value(-var if lit & 1 else var)

    def _eval_unmapped(self, node: int, adopted: Sequence[bool]) -> bool:
        """Evaluate an unmapped node's cone, grounding at mapped nodes
        (their adopted model values) and at free inputs (False).

        Values are kept across calls, so each node is evaluated at most
        once per adopted model: every adoption installs a new model
        object, and mapping a node clears them (see :meth:`_map_cone`)."""
        if adopted is not self._eval_model:
            self._eval_model = adopted
            self._eval_values = {0: False}
        values = self._eval_values
        value = values.get(node)
        if value is not None:
            return value
        solver = self.solver
        node_var = self._node_var
        stack: List[Tuple[int, bool]] = [(node, False)]
        while stack:
            inner, expanded = stack.pop()
            if expanded:
                a, b = self.aig.fanins(2 * inner)
                va = values[a >> 1] ^ bool(a & 1)
                vb = values[b >> 1] ^ bool(b & 1)
                values[inner] = va and vb
                continue
            if inner in values:
                continue
            var = node_var.get(inner)
            if var is not None:
                values[inner] = solver.model_value(var)
                continue
            fanins = self.aig.fanins(2 * inner)
            if fanins is None:
                values[inner] = False  # free input outside every cone
                continue
            stack.append((inner, True))
            stack.append((fanins[0] >> 1, False))
            stack.append((fanins[1] >> 1, False))
        return values[node]
