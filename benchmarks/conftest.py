"""Shared fixtures and helpers for the benchmark suite.

Each benchmark regenerates one table or figure of the paper.  Benchmarks
print their paper-style rows to stdout (run pytest with ``-s`` to see
them) and also assert the qualitative *shape* the paper reports, so a
regression in any reproduced phenomenon fails the suite.

Environment knob:

``UPEC_BENCH_FULL=1``
    Run the full (slow) proof windows used for EXPERIMENTS.md instead of
    the CI-sized ones.
"""

import os

import pytest

FULL = os.environ.get("UPEC_BENCH_FULL", "0") == "1"


def full_runs() -> bool:
    return FULL


@pytest.fixture(scope="session")
def formal_socs():
    """The four design variants in the small formal geometry."""
    from repro.soc import SocConfig, build_soc
    from repro.soc.config import FORMAL_CONFIG_KWARGS

    return {
        name: build_soc(getattr(SocConfig, name)(**FORMAL_CONFIG_KWARGS))
        for name in ("secure", "orc", "meltdown", "pmp_bug")
    }


@pytest.fixture(scope="session")
def sim_socs():
    """The design variants in the larger simulation geometry."""
    from repro.soc import SocConfig, build_soc
    from repro.soc.config import SIM_CONFIG_KWARGS

    return {
        name: build_soc(getattr(SocConfig, name)(**SIM_CONFIG_KWARGS))
        for name in ("secure", "orc", "meltdown")
    }
