"""Exhaustive validation of the two-instance miter construction.

For small random circuits, the hand-built UPEC-style miter (shared
variables for all state except a designated secret register) must agree
with brute-force simulation over *all* shared initial states and secret
pairs.  This pins the semantics of variable sharing, unrolling and
bit-blasting against ground truth.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formal import Aig, SatContext, Unroller
from repro.hdl import Circuit, cat, mux
from test_sim import ReferenceSimulator


def build_random_circuit(spec):
    """A 3-register circuit whose wiring is drawn by hypothesis.

    ``secret`` (2 bits) models the protected data; ``a``/``b`` (2 bits
    each) are ordinary state.  The observation target is ``b``.
    """
    sel_a, sel_b, use_secret_in_a, use_secret_in_b, op = spec
    c = Circuit("rand")
    secret = c.reg("secret", 2, init=None)
    a = c.reg("a", 2, init=None)
    b = c.reg("b", 2, init=None)

    def pick(sel, base):
        choices = [base + 1, base ^ 3, mux(base[0], base, base + 2)]
        return choices[sel % 3]

    a_next = pick(sel_a, a)
    if use_secret_in_a:
        a_next = a_next + secret if op else a_next ^ secret
    b_next = pick(sel_b, b)
    if use_secret_in_b:
        b_next = b_next ^ a
    c.next(secret, secret)
    c.next(a, a_next)
    c.next(b, b_next)
    return c.finalize(), secret, a, b


def miter_diff_exists_sat(circuit, secret, watch, k):
    """SAT-based: can `watch` differ at any cycle <= k when only `secret`
    differs initially?"""
    ctx = SatContext()
    u1 = Unroller(circuit, ctx.aig, init="symbolic")
    shared = {
        reg: u1.reg_bits(reg, 0)
        for reg in circuit.regs.values()
        if reg is not secret
    }
    u2 = Unroller(circuit, ctx.aig, init="symbolic", init_bits=shared)
    aig = ctx.aig
    for t in range(1, k + 1):
        bits1 = u1.reg_bits(watch, t)
        bits2 = u2.reg_bits(watch, t)
        diff = aig.or_all(aig.xor_(x, y) for x, y in zip(bits1, bits2))
        if diff == 0:
            continue
        if ctx.solve(assumptions=[diff]):
            return True
    return False


def miter_diff_exists_brute(circuit, secret_name, watch_name, k):
    """Ground truth: enumerate every shared state and secret pair."""
    for a0, b0 in itertools.product(range(4), repeat=2):
        for s1, s2 in itertools.combinations(range(4), 2):
            sim1 = ReferenceSimulator(circuit, init_overrides={
                "secret": s1, "a": a0, "b": b0})
            sim2 = ReferenceSimulator(circuit, init_overrides={
                "secret": s2, "a": a0, "b": b0})
            for _ in range(k):
                sim1.step()
                sim2.step()
                if sim1.peek(watch_name) != sim2.peek(watch_name):
                    return True
    return False


@settings(max_examples=25, deadline=None)
@given(st.tuples(
    st.integers(0, 2), st.integers(0, 2),
    st.booleans(), st.booleans(), st.booleans(),
))
def test_miter_agrees_with_exhaustive_simulation(spec):
    circuit, secret, a, b = build_random_circuit(spec)
    k = 3
    sat_verdict = miter_diff_exists_sat(circuit, secret, b, k)
    brute_verdict = miter_diff_exists_brute(circuit, "secret", "b", k)
    assert sat_verdict == brute_verdict, spec
