"""Meltdown-style attack (Fig. 1 / Sec. VII-B) on the simulator.

The squashed dependent load of the Fig.-2 sequence leaves a cache
*footprint* when refills are not cancelled on exceptions: the line indexed
by the secret value is filled with the secret value's tag.  The attacker
then probes candidate addresses and times each load — the single fast
(hit) probe equals the secret's effective address.

Each probe candidate gets a fresh run (boot re-primes the secret line), so
probe misses cannot pollute one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.soc import Soc, SocSim
from repro.soc.programs import build_image, meltdown_sequence
from repro.attacks.timing import TimingSeries

#: Prime region tag-distinct from typical probe targets (see demo configs).
DEFAULT_PRIME_BASE = 16


@dataclass
class MeltdownResult:
    series: TimingSeries
    recovered_value: Optional[int]
    true_value: int
    skipped: List[int]

    @property
    def success(self) -> bool:
        return self.recovered_value == self.true_value


def measure_probe(soc: Soc, secret: int, probe_addr: int,
                  prime_base: int = DEFAULT_PRIME_BASE) -> int:
    """One full attack run probing a single candidate address."""
    config = soc.config
    image = build_image(
        config, meltdown_sequence(config, probe_addr, prime_base)
    )
    memory = [0] * config.dmem_words
    memory[soc.secret_eff_addr] = secret & 0xFF
    sim = SocSim(soc, image.words, memory=memory)
    sim.run_until_halt(image.halt_pc, max_cycles=8000)
    return (sim.reg(7) - sim.reg(6)) & 0xFF


def run_meltdown_attack(
    soc: Soc,
    secret: int,
    prime_base: int = DEFAULT_PRIME_BASE,
) -> MeltdownResult:
    """Probe every candidate effective address.

    Addresses inside the protected region are skipped (probing them traps);
    addresses inside the prime region would hit trivially and are skipped
    as well.  The attacker learns the secret's effective address — i.e.
    ``log2(dmem_words)`` bits of the secret.
    """
    config = soc.config
    skipped: List[int] = []
    guesses: List[int] = []
    cycles: List[int] = []
    for candidate in range(config.dmem_words):
        if candidate == soc.secret_eff_addr:
            skipped.append(candidate)   # probing the protected word traps
            continue
        if prime_base <= candidate < prime_base + config.cache_lines:
            skipped.append(candidate)   # primed: would hit trivially
            continue
        guesses.append(candidate)
        cycles.append(measure_probe(soc, secret, candidate, prime_base))
    series = TimingSeries(
        label=f"meltdown@{config.name}", guesses=guesses, cycles=cycles
    )
    recovered = series.outlier()
    return MeltdownResult(
        series=series,
        recovered_value=recovered,
        true_value=secret & (config.dmem_words - 1),
        skipped=skipped,
    )


def cache_footprint_difference(
    soc: Soc, secret_a: int, secret_b: int
) -> List[int]:
    """Fig.-1 experiment: run the identical illegal-access sequence with
    two different secrets; return the cache lines whose *footprint*
    (valid bit and tag — the program-observable metadata) differs.

    On a vulnerable design the squashed load's refill leaves a
    secret-dependent footprint; on the secure design the list is empty.
    """
    snapshots = {}
    config = soc.config
    for name, secret in (("secret_a", secret_a), ("secret_b", secret_b)):
        image = build_image(config, meltdown_sequence(
            config, probe_addr=0, prime_base=DEFAULT_PRIME_BASE))
        memory = [0] * config.dmem_words
        memory[soc.secret_eff_addr] = secret & 0xFF
        sim = SocSim(soc, image.words, memory=memory)
        sim.run_until_halt(image.halt_pc, max_cycles=8000)
        snapshots[name] = sim.cache_snapshot()
    differing = []
    for i, (a, b) in enumerate(zip(snapshots["secret_a"], snapshots["secret_b"])):
        if (a["valid"], a["tag"]) != (b["valid"], b["tag"]):
            differing.append(i)
    return differing
