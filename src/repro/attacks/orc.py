"""The Orc attack (Sec. III of the paper), end to end on the simulator.

One attack iteration runs the instruction sequence of Fig. 2 for a guess
``g`` and measures the executed cycle count between the two ``csrr cycle``
bracketing instructions.  On the Orc-vulnerable design, trap entry after
the squashed dependent load is serialized behind the RAW-hazard drain
exactly when the secret's cache-line index equals the guessed line — the
one guess with deviant timing reveals ``log2(cache_lines)`` bits of the
secret.  On the secure design the timing is flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ReproError
from repro.soc import Soc, SocSim
from repro.soc.programs import build_image, orc_sequence
from repro.attacks.timing import TimingSeries


@dataclass
class OrcResult:
    """Outcome of a full Orc attack loop."""

    series: TimingSeries
    recovered_index: Optional[int]
    true_index: int
    excluded_guess: int

    @property
    def success(self) -> bool:
        return self.recovered_index == self.true_index


def measure_orc_iteration(soc: Soc, secret: int, guess: int) -> int:
    """Run one Fig.-2 iteration; returns the measured cycle delta
    (x7 - x6, i.e. the attacker's own timing measurement)."""
    config = soc.config
    image = build_image(config, orc_sequence(config, guess))
    memory = [0] * config.dmem_words
    memory[soc.secret_eff_addr] = secret & 0xFF
    sim = SocSim(soc, image.words, memory=memory)
    sim.run_until_halt(image.halt_pc, max_cycles=5000)
    t0 = sim.reg(3)
    t1 = sim.reg(7)
    return (t1 - t0) & 0xFF


def run_orc_attack(soc: Soc, secret: int) -> OrcResult:
    """Iterate all guesses (the paper's loop over ``#test_value``).

    The guess equal to the protected address's own line index is excluded:
    priming that line evicts the cached secret, a structural constraint the
    paper notes ("the only requirement is that protected_addr and
    accessible_addr reside in the cache").
    """
    config = soc.config
    excluded = soc.secret_line_index
    guesses: List[int] = [
        g for g in range(config.cache_lines) if g != excluded
    ]
    cycles = [measure_orc_iteration(soc, secret, g) for g in guesses]
    series = TimingSeries(
        label=f"orc@{soc.config.name}", guesses=guesses, cycles=cycles
    )
    recovered = series.outlier()
    return OrcResult(
        series=series,
        recovered_index=recovered,
        true_index=config.line_index(secret),
        excluded_guess=excluded,
    )
