"""The benchmark's own test: repeatable counts and a sound tracer.

Not part of the repository's test suite (a cold grid takes about 20 s).
Run it from the repository root::

    python -m pytest perfbench/check_bench.py -q
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import grid
import run
from tracer import Tracer

SEED = 7
#: Counts that must repeat exactly for a fixed seed; later changes can
#: cite them as counts.
COUNTS = ("formal.solver.conflicts", "formal.solver.decisions",
          "formal.solver.propagations", "engine.cache.hit_ratio")

#: Layers the warm grid goes through; each must record time, so a
#: wrapper patched where the package never calls it fails the test.
WARM_LAYERS = ("core.model.build_s", "core.model.unroll_s",
               "core.model.witness_s", "formal.bmc.export_s",
               "formal.bmc.adopt_s", "engine.slice.slice_s",
               "engine.obligation.fingerprint_s", "engine.cache.lookup_s")
#: The cold grid also searches, simplifies and stores.
COLD_LAYERS = WARM_LAYERS + (
    "formal.solver.search_s", "formal.preprocess.simplify_s",
    "engine.obligation.load_s", "engine.cache.store_s")
#: Least share of the cells' wall-clock the named layers must account
#: for.  The rest is the root spans' own time, where work no wrapper
#: covers lands.  At seed 7 the named layers covered 0.992 of a warm
#: grid and 0.999 of a cold one; without the ``frame_obligation``
#: wrapper a warm grid reads about 0.4.
MIN_COVERAGE = 0.97

pytestmark = pytest.mark.skipif(not grid.use_checkout_sources(),
                                reason="no sources under src/repro")


def traced_grid(session, order, oracle):
    tracer = Tracer()
    with tracer:
        cells = session.run_grid(order, oracle, tracer=tracer)
    assert tracer.first_open() is None
    metrics = run.layer_metrics(tracer, cells, None)
    return cells, tracer, {name: value for name, (value, _) in
                           metrics.items()}


def assert_layers_covered(metrics, layers):
    assert [name for name in layers if metrics[name] <= 0] == []
    assert metrics["trace.coverage_ratio"] >= MIN_COVERAGE


def signatures(cells):
    return {cell.variant: cell.signature for cell in cells}


def test_cold_counts_repeat_exactly(tmp_path):
    workload = run.WORKLOADS["tab1-cold"]
    order = grid.cell_order(SEED)
    oracle = grid.load_oracle()
    seen = []
    for _ in range(2):
        session = workload.setup(tmp_path, order, oracle)
        try:
            cells, _, metrics = traced_grid(session, order, oracle)
        finally:
            session.close()
        assert not [cell.error for cell in cells if cell.failed]
        assert_layers_covered(metrics, COLD_LAYERS)
        seen.append({name: metrics[name] for name in COUNTS})
    print("tab1-cold seed", SEED, seen[0])
    assert seen[0] == seen[1]
    assert seen[0]["formal.solver.conflicts"] > 0


def test_warm_counts_tracer_and_signatures(tmp_path):
    workload = run.WORKLOADS["tab1-warm"]
    order = grid.cell_order(SEED)
    oracle = grid.load_oracle()
    session = workload.setup(tmp_path, order, oracle)
    try:
        plain = session.run_grid(order, oracle)
        traced = [traced_grid(session, order, oracle) for _ in range(2)]
    finally:
        session.close()
    counts = [{name: m[name] for name in COUNTS} for _, _, m in traced]
    print("tab1-warm seed", SEED, counts[0])
    assert counts[0] == counts[1]
    assert counts[0]["engine.cache.hit_ratio"] == 1.0
    # A traced grid reaches the same verdicts as an untraced one.
    assert signatures(plain) == signatures(traced[0][0]) == oracle
    for cells, tracer, metrics in traced:
        assert_layers_covered(metrics, WARM_LAYERS)
        # Spans nest: all self-times under the root spans add up to the
        # externally timed cells.
        cell_s = sum(cell.seconds for cell in cells)
        assert sum(tracer.self_times(under="bench.cell").values()) == \
            pytest.approx(cell_s, rel=0.02)


def test_host_adjustment_of_reference_work():
    # Work made of reference chunks slows exactly as the probe's chunks
    # do, so only the part of the slowdown that HOST_SENSITIVITY leaves
    # in may remain, however fast the host runs just now.
    chunks = 2000
    with grid.HostProbe() as host:
        start = time.perf_counter()
        for _ in range(chunks):
            grid.reference_chunk()
        wall = time.perf_counter() - start
    assert host.count >= 10
    adjusted, slowdown = run.host_adjusted([(wall, host)])
    nominal = chunks * run.REF_CHUNK_S
    left_in = slowdown ** (1 - run.HOST_SENSITIVITY)
    assert adjusted == pytest.approx(nominal * left_in, rel=0.1)


def test_refuses_a_directory_without_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tab1-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
