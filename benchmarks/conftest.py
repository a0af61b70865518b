"""Shared fixtures and helpers for the benchmark suite.

Each benchmark regenerates one table or figure of the paper.  Benchmarks
print their paper-style rows to stdout (run pytest with ``-s`` to see
them) and also assert the qualitative *shape* the paper reports, so a
regression in any reproduced phenomenon fails the suite.

Environment knobs:

``UPEC_BENCH_FULL=1``
    Run the full (slow) proof windows used for EXPERIMENTS.md instead of
    the CI-sized ones.
``UPEC_BENCH_JOBS=n``
    Worker-count ceiling for the engine-sweep throughput benchmarks
    (default: the machine's CPU count; the sweep group still always
    measures jobs=1 as the baseline).
"""

import os

import pytest

FULL = os.environ.get("UPEC_BENCH_FULL", "0") == "1"


def full_runs() -> bool:
    return FULL


def bench_jobs_ceiling() -> int:
    """Largest worker count worth benchmarking on this machine."""
    try:
        return max(1, int(os.environ.get("UPEC_BENCH_JOBS",
                                         str(os.cpu_count() or 1))))
    except ValueError:
        return 1


@pytest.fixture(scope="session")
def proof_engine():
    """A shared obligation engine (in-process, no cache) so benchmarks
    exercise the same scheduler layer the CLI and methodology use."""
    from repro.engine import ProofEngine

    engine = ProofEngine(jobs=1)
    yield engine
    engine.close()


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
