"""Simulation wrapper for the SoC: program loading, running, observation.

:class:`SocSim` drives the RTL through :class:`repro.sim.CompiledSimulator`
(``self.sim``, which observes registers by name), providing program/memory
loading, architectural state extraction (for lock-step comparison against
the ISS) and cache-coherent memory reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim import CompiledSimulator
from repro.soc import isa
from repro.soc.soc import Soc


class SocSim:
    """A running SoC instance."""

    def __init__(
        self,
        soc: Soc,
        program: Sequence[int],
        memory: Optional[Sequence[int]] = None,
        init_overrides: Optional[Dict[str, int]] = None,
    ) -> None:
        self.soc = soc
        config = soc.config
        if len(program) > config.imem_words:
            raise SimulationError(
                f"program of {len(program)} words exceeds imem size"
            )
        overrides: Dict[str, int] = {}
        for i, word in enumerate(program):
            overrides[f"imem[{i}]"] = word
        for i, value in enumerate(memory or []):
            overrides[f"dmem[{i}]"] = value
        overrides.update(init_overrides or {})
        self.sim = CompiledSimulator(soc.circuit, init_overrides=overrides)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self.sim.cycle

    def step(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            self.sim.step()

    def run_until_halt(self, halt_pc: int, max_cycles: int = 10_000) -> int:
        """Run until the pipeline spins at a ``jal x0, 0`` halt loop and all
        younger stages have drained."""
        def halted(sim) -> bool:
            # The halt loop (jal x0, 0) keeps re-executing; it has settled
            # once the instance in WB is the halt jal itself.
            return (
                sim.peek("memwb_valid") == 1
                and sim.peek("memwb_pc") == halt_pc
            )

        executed = self.sim.run(max_cycles, until=halted)
        if not halted(self.sim):
            raise SimulationError(
                f"did not reach halt at pc={halt_pc} within {max_cycles} cycles"
            )
        return executed

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def reg(self, index: int) -> int:
        if index == 0:
            return 0
        return self.sim.peek(f"x{index}")

    def arch_state(self) -> Dict[str, int]:
        """Architectural state in the ISS's dictionary format."""
        state = {f"x{i}": self.reg(i) for i in range(isa.NUM_REGS)}
        for name in ("pc", "mode", "mepc", "pmpaddr0", "pmpaddr1"):
            state[name] = self.sim.peek(name)
        state["mcause"] = self.sim.peek("mcause")
        state["pmpcfg0"] = self.sim.peek("pmpcfg0")
        state["pmpcfg1"] = self.sim.peek("pmpcfg1")
        return state

    def mem_read(self, addr: int) -> int:
        """Cache-coherent memory read (architectural memory view)."""
        config = self.soc.config
        eff = addr & (config.dmem_words - 1)
        idx = eff & (config.cache_lines - 1)
        tag = eff >> config.index_bits
        if (
            self.sim.peek(f"dc_valid[{idx}]") == 1
            and self.sim.peek(f"dc_tag[{idx}]") == tag
        ):
            return self.sim.peek(f"dc_data[{idx}]")
        return self.sim.peek(f"dmem[{eff}]")

    def cache_line(self, idx: int) -> Dict[str, int]:
        return {
            "valid": self.sim.peek(f"dc_valid[{idx}]"),
            "dirty": self.sim.peek(f"dc_dirty[{idx}]"),
            "tag": self.sim.peek(f"dc_tag[{idx}]"),
            "data": self.sim.peek(f"dc_data[{idx}]"),
        }

    def cache_snapshot(self) -> List[Dict[str, int]]:
        return [
            self.cache_line(i) for i in range(self.soc.config.cache_lines)
        ]
