"""Property tests: bit-blasted semantics must match the simulator."""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormalError
from repro.formal.aig import Aig
from repro.formal.bitblast import (
    BitBlaster,
    bits_to_int,
    const_bits,
    equals,
    mux_bits,
    ripple_adder,
    subtractor,
    unsigned_less_than,
)
from repro.hdl import Circuit, cat, const, mux, select, sext, zext
from repro.hdl.analysis import topo_order
from repro.hdl.expr import Input, Reg
from repro.sim import Simulator

#: ``REPRO_FUZZ_SCALE`` multiplies the differential test's example count
#: (CI's nightly differential leg turns it up).
FUZZ_SCALE = max(1, int(os.environ.get("REPRO_FUZZ_SCALE", "1")))


def blast_inputs(circuit, expr):
    """Blast expr over fresh AIG inputs for each circuit input; returns
    (aig, input_bit_map, output_bits)."""
    aig = Aig()
    input_bits = {
        node: aig.new_inputs(node.width) for node in circuit.inputs.values()
    }

    def leaf(node):
        return input_bits[node]

    blaster = BitBlaster(aig, leaf, {})
    return aig, input_bits, blaster.blast(expr)


def eval_blasted(aig, input_bits, out_bits, input_values):
    assignment = {}
    for node, bits in input_bits.items():
        value = input_values[node.name]
        for i, bit in enumerate(bits):
            assignment[bit] = bool((value >> i) & 1)
    return bits_to_int(aig.evaluate(out_bits, assignment))


def check_expr_matches_sim(build, names_widths, input_values):
    """Build an expression twice: simulate and bit-blast, compare."""
    c = Circuit("t")
    inputs = {name: c.input(name, width) for name, width in names_widths}
    expr = build(inputs)
    c.output("o", expr)
    c.finalize()
    sim_value = Simulator(c).step(input_values)["o"]
    aig, input_bits, out_bits = blast_inputs(c, expr)
    blast_value = eval_blasted(aig, input_bits, out_bits, input_values)
    assert blast_value == sim_value, f"sim={sim_value} blast={blast_value}"


BYTE = st.integers(min_value=0, max_value=255)


@settings(max_examples=80 * FUZZ_SCALE, deadline=None)
@given(BYTE, BYTE, st.sampled_from(
    ["add", "sub", "and", "or", "xor", "eq", "ne", "ult", "ule"]))
def test_binary_ops_match(x, y, op):
    builders = {
        "add": lambda i: i["a"] + i["b"],
        "sub": lambda i: i["a"] - i["b"],
        "and": lambda i: i["a"] & i["b"],
        "or": lambda i: i["a"] | i["b"],
        "xor": lambda i: i["a"] ^ i["b"],
        "eq": lambda i: i["a"].eq(i["b"]),
        "ne": lambda i: i["a"].ne(i["b"]),
        "ult": lambda i: i["a"].ult(i["b"]),
        "ule": lambda i: i["a"].ule(i["b"]),
    }
    check_expr_matches_sim(
        builders[op], [("a", 8), ("b", 8)], {"a": x, "b": y}
    )


@settings(max_examples=40 * FUZZ_SCALE, deadline=None)
@given(BYTE)
def test_unary_and_structure_ops_match(x):
    check_expr_matches_sim(lambda i: ~i["a"], [("a", 8)], {"a": x})
    check_expr_matches_sim(lambda i: i["a"] << 3, [("a", 8)], {"a": x})
    check_expr_matches_sim(lambda i: i["a"] >> 2, [("a", 8)], {"a": x})
    check_expr_matches_sim(lambda i: i["a"][2:6], [("a", 8)], {"a": x})
    check_expr_matches_sim(lambda i: i["a"].any(), [("a", 8)], {"a": x})
    check_expr_matches_sim(lambda i: i["a"].all(), [("a", 8)], {"a": x})
    check_expr_matches_sim(
        lambda i: cat(i["a"][4:8], i["a"][0:4]), [("a", 8)], {"a": x}
    )


@settings(max_examples=40 * FUZZ_SCALE, deadline=None)
@given(st.integers(min_value=0, max_value=15))
def test_extensions_match(x):
    check_expr_matches_sim(lambda i: zext(i["a"], 8), [("a", 4)], {"a": x})
    check_expr_matches_sim(lambda i: sext(i["a"], 8), [("a", 4)], {"a": x})


@settings(max_examples=40 * FUZZ_SCALE, deadline=None)
@given(st.booleans(), BYTE, BYTE)
def test_mux_matches(s, x, y):
    check_expr_matches_sim(
        lambda i: mux(i["s"], i["a"], i["b"]),
        [("s", 1), ("a", 8), ("b", 8)],
        {"s": int(s), "a": x, "b": y},
    )


@settings(max_examples=30 * FUZZ_SCALE, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.lists(BYTE, min_size=8, max_size=8))
def test_select_matches(idx, choices):
    check_expr_matches_sim(
        lambda i: select(i["i"], [const(v, 8) for v in choices]),
        [("i", 3)],
        {"i": idx},
    )


@settings(max_examples=30 * FUZZ_SCALE, deadline=None)
@given(BYTE)
def test_shift_to_zero(x):
    check_expr_matches_sim(lambda i: i["a"] << 8, [("a", 8)], {"a": x})
    check_expr_matches_sim(lambda i: i["a"] >> 9, [("a", 8)], {"a": x})


@settings(max_examples=60 * FUZZ_SCALE, deadline=None)
@given(BYTE, BYTE, st.booleans())
def test_adder_primitive(x, y, cin):
    aig = Aig()
    a = aig.new_inputs(8)
    b = aig.new_inputs(8)
    out = ripple_adder(aig, a, b, aig.const(cin))
    assignment = {bit: bool((x >> i) & 1) for i, bit in enumerate(a)}
    assignment.update({bit: bool((y >> i) & 1) for i, bit in enumerate(b)})
    got = bits_to_int(aig.evaluate(out, assignment))
    assert got == (x + y + int(cin)) & 0xFF


@settings(max_examples=60 * FUZZ_SCALE, deadline=None)
@given(BYTE, BYTE)
def test_comparator_primitives(x, y):
    aig = Aig()
    a = aig.new_inputs(8)
    b = aig.new_inputs(8)
    lt = unsigned_less_than(aig, a, b)
    eq = equals(aig, a, b)
    sub = subtractor(aig, a, b)
    assignment = {bit: bool((x >> i) & 1) for i, bit in enumerate(a)}
    assignment.update({bit: bool((y >> i) & 1) for i, bit in enumerate(b)})
    lt_v, eq_v = aig.evaluate([lt, eq], assignment)
    assert lt_v == (x < y)
    assert eq_v == (x == y)
    assert bits_to_int(aig.evaluate(sub, assignment)) == (x - y) & 0xFF


def test_width_mismatch_rejected():
    aig = Aig()
    a = aig.new_inputs(4)
    b = aig.new_inputs(8)
    with pytest.raises(FormalError):
        ripple_adder(aig, a, b, aig.const(False))
    with pytest.raises(FormalError):
        equals(aig, a, b)
    with pytest.raises(FormalError):
        unsigned_less_than(aig, a, b)
    with pytest.raises(FormalError):
        mux_bits(aig, aig.const(True), a, b)


def test_const_bits():
    aig = Aig()
    bits = const_bits(aig, 0b1010, 4)
    assert [b for b in bits] == [aig.const(False), aig.const(True)] * 2


def test_structural_sharing_across_instances():
    """Two identical cones over the same leaves collapse to one (the UPEC
    miter-sharing property)."""
    c = Circuit("t")
    a = c.input("a", 8)
    b = c.input("b", 8)
    expr1 = (a + b) ^ (a & b)
    expr2 = (a + b) ^ (a & b)  # distinct Expr DAG, same structure
    c.finalize()
    aig = Aig()
    input_bits = {a: aig.new_inputs(8), b: aig.new_inputs(8)}
    blaster = BitBlaster(aig, lambda n: input_bits[n], {})
    bits1 = blaster.blast(expr1)
    size_after_first = len(aig)
    bits2 = blaster.blast(expr2)
    assert bits1 == bits2
    assert len(aig) == size_after_first


# ----------------------------------------------------------------------
# Differential: memo-pruned walk against a whole-cone topo_order walk
# ----------------------------------------------------------------------
class TopoOrderBlaster(BitBlaster):
    """Reference blaster: lists the root's whole cone with ``topo_order``
    and blasts every node not yet memoized, in that order."""

    def blast(self, expr):
        cached = self.memo.get(id(expr))
        if cached is not None:
            return cached[1]
        for node in topo_order([expr]):
            if id(node) not in self.memo:
                self.memo[id(node)] = (node, self._blast_node(node))
        return self.memo[id(expr)][1]


def random_expr_pool(rng, size):
    """A seeded random 4-bit expression DAG over inputs, registers and a
    constant, every new node reusing earlier ones."""
    pool = [Input(f"i{n}", 4) for n in range(3)]
    pool += [Reg(f"r{n}", 4) for n in range(2)]
    pool.append(const(rng.randrange(16), 4))
    for _ in range(size):
        a, b, c = (rng.choice(pool) for _ in range(3))
        op = rng.randrange(8)
        if op == 0:
            pool.append(a + b)
        elif op == 1:
            pool.append(a - b)
        elif op == 2:
            pool.append(rng.choice((a & b, a | b, a ^ b)))
        elif op == 3:
            pool.append(~a)
        elif op == 4:
            pool.append(mux(a.ult(b), b, c))
        elif op == 5:
            pool.append(cat(a[0:2], b[2:4]))
        elif op == 6:
            pool.append(rng.choice((a << 1, a >> 2)))
        else:
            pool.append(zext(cat(a.eq(b), c.any()), 4))
    return pool


def blast_sequence(blaster_class, pool, roots):
    """Blast ``roots`` in order through one memo, with leaf bits
    allocated on first use (inputs memoized, as the unroller does)."""
    aig = Aig()
    memo = {}
    reg_bits = {}

    def leaf(node):
        if isinstance(node, Reg):
            if node not in reg_bits:
                reg_bits[node] = aig.new_inputs(node.width)
            return reg_bits[node]
        memo[id(node)] = (node, aig.new_inputs(node.width))
        return memo[id(node)][1]

    blaster = blaster_class(aig, leaf, memo)
    bits = [blaster.blast(pool[i]) for i in roots]
    return bits, [aig.fanins(2 * node) for node in range(len(aig))]


def test_blast_matches_topo_order_walk():
    for seed in range(60 * FUZZ_SCALE):
        rng = random.Random(seed)
        pool = random_expr_pool(rng, rng.randrange(5, 60))
        roots = [rng.randrange(len(pool))
                 for _ in range(rng.randrange(1, 12))]
        assert blast_sequence(BitBlaster, pool, roots) == \
            blast_sequence(TopoOrderBlaster, pool, roots), seed
