"""The Tab.-I grid: four design variants, "D in cache", window k=2.

Each cell is one ``UpecMethodology.run`` in the small formal geometry.
A cell's *signature* — verdict, k, iterations, P-alert frames, L-alert
frame and register set, removed registers — is what every run is checked
against: the sequential ``ProofEngine(jobs=1)`` oracle in ``oracle.json``.

Run ``python3 perfbench/grid.py`` from the repository root to recompute
the oracle and print it; ``--write`` stores it in ``oracle.json``.
``--fill DIR CELL...`` runs one cold sequential grid in that cell order
into the cache directory ``DIR`` (the warm workload's set-up).
"""

from __future__ import annotations

import contextlib
import json
import random
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = Path(__file__).resolve().parent / "oracle.json"

VARIANTS = ("secure", "orc", "meltdown", "pmp_bug")
SECURE_CELLS = ("secure", "pmp_bug")
INSECURE_CELLS = ("orc", "meltdown")
K = 2

#: Counters summed over a grid's cells, from ``MethodologyResult.stats``.
STAT_KEYS = (
    "conflicts", "decisions", "propagations", "simplify_vars_eliminated",
    "engine_cache_hits", "engine_cache_misses", "engine_obligations_solved",
    "slice_clauses_in", "slice_clauses_out",
)


def use_checkout_sources() -> bool:
    """Put the checkout's ``src`` first on the import path.  False when
    the checkout holds no sources (nothing to benchmark)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def cell_order(seed: int) -> List[str]:
    """The seed's permutation of the cells: it decides which cell's
    cached work later cells reuse."""
    order = list(VARIANTS)
    random.Random(seed).shuffle(order)
    return order


def build_soc(variant: str):
    from repro.soc import SocConfig, build_soc
    from repro.soc.config import FORMAL_CONFIG_KWARGS

    return build_soc(getattr(SocConfig, variant)(**FORMAL_CONFIG_KWARGS))


def build_socs() -> Dict[str, object]:
    return {variant: build_soc(variant) for variant in VARIANTS}


def signature(result) -> Dict:
    l_alert = result.l_alert
    return {
        "verdict": result.verdict,
        "k": result.k,
        "iterations": result.iterations,
        "p_alert_frames": [alert.frame for alert in result.p_alerts],
        "l_alert": None if l_alert is None else {
            "frame": l_alert.frame,
            "regs": sorted(l_alert.diff_reg_names()),
        },
        "removed_regs": list(result.removed_regs),
    }


#: Loop count of the reference chunk; about 0.3 ms on a 2 GHz Xeon.
REF_LOOPS = 2000
#: Seconds between two reference chunks while a probe is on.
REF_INTERVAL = 0.025


def reference_chunk() -> None:
    """A fixed piece of pure-Python work that uses nothing of the package,
    so no change to the program moves its time; only the host does."""
    table: Dict[int, int] = {}
    for i in range(REF_LOOPS):
        key = i & 255
        table[key] = table.get(key, 0) + len(str(i))


class HostProbe:
    """Times a reference chunk every ``REF_INTERVAL`` seconds while the
    work under it (a cell, a set-up) runs, from a SIGALRM handler in the
    main thread.

    The chunks sample the speed the host gives the process during the
    work: when other tenants slow the processor, the chunks slow with the
    work.  Each sample runs the chunk twice and times the second run, so
    the caches the work evicted do not count.  ``count`` and ``seconds``
    say how many chunks were timed and how long they took in all;
    ``busy`` is all the time the samples took, which is not the work's."""

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self.busy = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_chunk()
        timed = time.perf_counter()
        reference_chunk()
        end = time.perf_counter()
        self.seconds += end - timed
        self.busy += end - start
        self.count += 1

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Cell:
    """One executed cell: wall-clock, signature, counters, failure, and
    the probe that sampled the host while it ran (None without one)."""

    __slots__ = ("variant", "seconds", "signature", "stats", "error",
                 "host")

    def __init__(self, variant: str, seconds: float,
                 signature: Optional[Dict], stats: Dict[str, int],
                 error: str, host: Optional[HostProbe] = None) -> None:
        self.variant = variant
        self.seconds = seconds
        self.signature = signature
        self.stats = stats
        self.error = error
        self.host = host

    @property
    def failed(self) -> bool:
        return bool(self.error)


def run_cell(variant: str, soc, engine, oracle: Dict,
             probe: bool = False) -> Cell:
    """One cell; with ``probe`` a ``HostProbe`` samples the host's speed
    while it runs."""
    from repro.core import UpecMethodology, UpecScenario

    host = HostProbe() if probe else None
    start = time.perf_counter()
    try:
        with host if host is not None else contextlib.nullcontext():
            result = UpecMethodology(
                soc, UpecScenario(secret_in_cache=True), engine=engine,
            ).run(k=K)
    except Exception as exc:  # a failed cell is counted, not fatal
        return Cell(variant, time.perf_counter() - start, None, {},
                    f"{type(exc).__name__}: {exc}", host)
    seconds = time.perf_counter() - start
    sig = signature(result)
    error = ""
    if result.verdict == "undecided":
        error = f"undecided ({result.reason})"
    elif sig != oracle.get(variant):
        error = "signature differs from the jobs=1 oracle"
    stats = {key: int(result.stats.get(key, 0)) for key in STAT_KEYS}
    return Cell(variant, seconds, sig, stats, error, host)


def run_grid(order: Sequence[str], engine, oracle: Dict, tracer=None,
             before_cell: Optional[Callable[[str], None]] = None,
             after_cell: Optional[Callable[[], None]] = None,
             probe: bool = False) -> List[Cell]:
    """Closed loop: one cell at a time, each starting when the previous
    one finished.  SoCs are built fresh so grids share no state.  With a
    ``tracer`` each cell runs under a ``bench.cell`` root span."""
    socs = build_socs()
    cells = []
    for variant in order:
        if before_cell is not None:
            before_cell(variant)
        args = (variant, socs[variant], engine, oracle, probe)
        cells.append(tracer.run("bench.cell", run_cell, *args)
                     if tracer is not None else run_cell(*args))
        if after_cell is not None:
            after_cell()
    return cells


def grid_times(seconds: Dict[str, float]) -> Dict[str, float]:
    """The end-to-end times from per-cell seconds."""
    return {
        "grid_s": sum(seconds.values()),
        "time_to_secure_s": sum(seconds[v] for v in SECURE_CELLS),
        "time_to_insecure_s": sum(seconds[v] for v in INSECURE_CELLS),
    }


def grid_stats(cells: Sequence[Cell]) -> Dict[str, int]:
    return {key: sum(cell.stats.get(key, 0) for cell in cells)
            for key in STAT_KEYS}


def load_oracle() -> Dict:
    return json.loads(ORACLE.read_text())


def compute_oracle() -> Dict:
    """Each cell alone on a fresh sequential engine with no cache."""
    from repro.engine.pool import ProofEngine

    socs = build_socs()
    oracle = {}
    for variant in VARIANTS:
        engine = ProofEngine(jobs=1)
        try:
            cell = run_cell(variant, socs[variant], engine, {})
        finally:
            engine.close()
        if cell.signature is None:
            raise RuntimeError(f"oracle cell {variant} failed: {cell.error}")
        oracle[variant] = cell.signature
    return oracle


def pigeonhole(pigeons: int, holes: int):
    def var(i: int, j: int) -> int:
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, j), -var(b, j)])
    return pigeons * holes, clauses


def calibrate(repeats: int = 5) -> float:
    """Median seconds of a fixed pure-Python CDCL proof, PHP(7,6).

    Reported next to every result as a reading of the host's speed; no
    metric is divided by it.  (PHP(6,5) solves in about 10 ms, too short
    to time steadily.)"""
    from repro.formal.solver import CdclSolver

    nvars, clauses = pigeonhole(7, 6)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        solver = CdclSolver()
        for _ in range(nvars):
            solver.new_var()
        solver.add_clauses(clauses)
        if solver.solve() is not False:
            raise RuntimeError("PHP(7,6) must be unsatisfiable")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fill_cache(cache_dir: str, order: Sequence[str]) -> int:
    """Run one cold sequential grid into ``cache_dir``; 1 if a cell
    failed against the oracle."""
    from repro.engine.pool import ProofEngine

    with ProofEngine(jobs=1, cache_dir=cache_dir) as engine:
        cells = run_grid(order, engine, load_oracle())
    for cell in cells:
        if cell.failed:
            print(f"FAILED {cell.variant}: {cell.error}", file=sys.stderr)
    return 1 if any(cell.failed for cell in cells) else 0


def main(argv: Sequence[str]) -> int:
    if not use_checkout_sources():
        print("no sources under src/repro", file=sys.stderr)
        return 2
    if argv[:1] == ["--fill"]:
        return fill_cache(argv[1], argv[2:])
    oracle = compute_oracle()
    text = json.dumps(oracle, indent=2, sort_keys=True) + "\n"
    if "--write" in argv:
        ORACLE.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
