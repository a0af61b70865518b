"""Covert-channel attack demonstrations on the simulated SoC."""

from repro.attacks.meltdown import (
    MeltdownResult,
    cache_footprint_difference,
    measure_probe,
    run_meltdown_attack,
)
from repro.attacks.orc import (
    OrcResult,
    measure_orc_iteration,
    run_orc_attack,
)
from repro.attacks.timing import TimingSeries

__all__ = [
    "MeltdownResult",
    "OrcResult",
    "TimingSeries",
    "cache_footprint_difference",
    "measure_orc_iteration",
    "measure_probe",
    "run_meltdown_attack",
    "run_orc_attack",
]
