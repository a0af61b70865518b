"""Cycle-accurate simulation of mini-HDL circuits."""

from repro.sim.compile import CompiledSimulator, compile_circuit
from repro.sim.trace import Trace

__all__ = [
    "CompiledSimulator",
    "Trace",
    "compile_circuit",
]
