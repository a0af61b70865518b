"""UPEC benchmark: the Tab.-I grid run cold, warm, on a local pool and
through the fleet, with an outside-in layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload tab1-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced grid (see ``README.md`` in this directory).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import grid  # noqa: E402
from grid import ROOT, SRC  # noqa: E402

#: Set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 7
#: A run measures every cell at least this many times, and for at least
#: --seconds.  A cell runs in the same state every time (the cache as the
#: cells before it left it).
MIN_SAMPLES = 1
#: Seconds ``grid.reference_chunk`` takes on a quiet 2 GHz Xeon.  The
#: end-to-end times are scaled to a host that runs it this fast.
REF_CHUNK_S = 0.0003
#: How a cell's time grows with the chunk's as the host slows: as its
#: 0.85th power.  Least squares on logs over 39 cold ``secure`` and 39
#: cold ``orc`` cells, at slowdowns of 1.0-2.3, gave 0.86 and 0.83; the
#: chunk stays in the processor's first-level cache and so slows more.
HOST_SENSITIVITY = 0.85
#: Untraced/traced grid pairs in a traced run of a workload that sets
#: up once per run.
TRACE_ROUNDS = 3
#: What a fresh client process imports before its first cell.
IMPORT_PROBE = "import repro.cli"
SCRATCH = ROOT / ".perfbench_tmp"
#: The processors the run may use; a pinned workload runs on the first.
CPUS = os.sched_getaffinity(0)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_probe() -> None:
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                   cwd=ROOT, check=True, timeout=60)


def reap_pool_workers() -> None:
    """Stop process-pool workers a closed engine left running (a
    speculative solve nobody will consume, which would steal the next
    grid's CPU) and wait for them."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


def fill_cache(cache_dir: Path, order) -> None:
    """Run the cells on cold sequential engines in two child processes
    sharing ``cache_dir``.  ``grid.py --fill`` checks each cell against
    the oracle and exits non-zero if one fails."""
    procs = []
    try:
        for pair in zip(grid.SECURE_CELLS, grid.INSECURE_CELLS):
            cells = [variant for variant in order if variant in pair]
            procs.append(subprocess.Popen(
                [sys.executable, str(Path(grid.__file__)), "--fill",
                 str(cache_dir)] + cells,
                env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL))
            os.sched_setaffinity(procs[-1].pid, CPUS)  # not pinned
        codes = [proc.wait(timeout=150) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise RuntimeError(f"warm cache fill failed (exit codes {codes})")


def fleet_size() -> int:
    return max(1, len(os.sched_getaffinity(0)) - 1)


# ----------------------------------------------------------------------
# Sessions: what one set-up yields, and how a grid runs on it
# ----------------------------------------------------------------------
def copy_dir(source, scratch: Path) -> str:
    target = tempfile.mkdtemp(dir=scratch)
    shutil.copytree(source, target, dirs_exist_ok=True)
    return target


class LocalSession:
    """A fresh, empty cache directory and a local engine.

    Before each cell of a grid the session keeps a copy of the cache
    directory, so that ``replay`` can run the cell again in the state it
    had in the grid: the cache holds what the cells before it stored."""

    def __init__(self, scratch: Path, jobs: int) -> None:
        from repro.engine.pool import ProofEngine

        self.scratch = scratch
        self.jobs = jobs
        self.cache_dir = tempfile.mkdtemp(dir=scratch)
        self.engine = ProofEngine(jobs=jobs, cache_dir=self.cache_dir)
        self.before: Dict[str, str] = {}

    def run_grid(self, order, oracle, tracer=None,
                 probe=False) -> List[grid.Cell]:
        return grid.run_grid(order, self.engine, oracle, tracer=tracer,
                             before_cell=self._keep_state, probe=probe)

    def _keep_state(self, variant: str) -> None:
        self.before[variant] = copy_dir(self.cache_dir, self.scratch)

    def replay(self, variant: str, oracle, probe=False) -> grid.Cell:
        """Run ``variant`` alone on a fresh engine over a copy of the
        cache as the grid's earlier cells left it."""
        from repro.engine.pool import ProofEngine

        soc = grid.build_soc(variant)
        cache_dir = copy_dir(self.before[variant], self.scratch)
        try:
            with ProofEngine(jobs=self.jobs, cache_dir=cache_dir) as engine:
                return grid.run_cell(variant, soc, engine, oracle, probe)
        finally:
            reap_pool_workers()
            shutil.rmtree(cache_dir, ignore_errors=True)

    def close(self) -> None:
        self.engine.close()
        reap_pool_workers()
        for path in [self.cache_dir] + list(self.before.values()):
            shutil.rmtree(path, ignore_errors=True)


class WarmSession:
    """A copy of a cache directory that holds every verdict of the grid;
    every grid opens a fresh engine on it.

    The first set-up of a run fills the cache in child processes, so
    neither the fill's time nor its memory lands in the measuring
    process; later set-ups of the run copy it.  Obligations are
    canonical, so the cache holds the same verdicts whatever cell order
    filled it, and the cache merges what sibling processes store in one
    directory: two children, each with one secure and one insecure cell,
    fill it in about half the time of one cold grid."""

    def __init__(self, scratch: Path, order, oracle) -> None:
        filled = scratch / "warm-fill"
        if not filled.is_dir():
            fill_cache(filled, order)
        self.cache_dir = copy_dir(filled, scratch)

    def run_grid(self, order, oracle, tracer=None,
                 probe=False) -> List[grid.Cell]:
        from repro.engine.pool import ProofEngine

        with ProofEngine(jobs=1, cache_dir=self.cache_dir) as engine:
            return grid.run_grid(order, engine, oracle, tracer=tracer,
                                 probe=probe)

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class FleetSession:
    """A broker with an empty memo, ``fleet_size()`` worker processes and
    a ``RemoteEngine`` connected to them."""

    def __init__(self, scratch: Path, workers: int) -> None:
        self.procs: List[subprocess.Popen] = []
        self.engine = None
        self.memo = 0
        self.queued = 0
        try:
            self._start(scratch, workers)
        except BaseException:
            self.close()
            raise

    def _start(self, scratch: Path, workers: int) -> None:
        from repro.dist.remote import RemoteEngine

        log_path = Path(tempfile.mkstemp(dir=scratch, suffix=".log")[1])
        with open(log_path, "w") as log:
            self.procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--host", "127.0.0.1", "--port", "0"],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                cwd=ROOT))
        address = self._await_address(log_path)
        for index in range(workers):
            self.procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", address, "--name", f"bench-{index}"],
                stdout=subprocess.DEVNULL, env=child_env(), cwd=ROOT))
        self.engine = RemoteEngine(address)
        deadline = time.monotonic() + 60
        while len(self.engine.pool.status().get("workers", [])) < workers:
            if time.monotonic() > deadline:
                raise RuntimeError("fleet workers did not register")
            time.sleep(0.02)

    def _await_address(self, log_path: Path) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            found = re.search(r"listening on (\S+:\d+)",
                              log_path.read_text())
            if found:
                return found.group(1)
            if self.procs[0].poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError("broker did not start: "
                           + log_path.read_text()[-500:])

    def sample_status(self) -> None:
        status = self.engine.pool.status()
        self.memo = int(status.get("memo", 0))
        self.queued = max(self.queued, int(status.get("queued", 0)))

    def run_grid(self, order, oracle, tracer=None,
                 probe=False) -> List[grid.Cell]:
        return grid.run_grid(order, self.engine, oracle, tracer=tracer,
                             after_cell=self.sample_status, probe=probe)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
#: Per-layer metrics of layers that only some workloads use (worker
#: processes, the wire); the others leave them out.  At ``jobs=1`` the
#: pool solves in-process, so its metrics cannot move on cold or warm.
EXTRA_LAYERS = ("engine.pool.", "dist.")


class Workload:
    """How a workload sets up; ``README.md`` says why each exists."""

    def __init__(self, name: str, per_grid: bool, make,
                 extra_layers=(), child_rss: bool = False,
                 pinned: bool = True) -> None:
        self.name = name
        #: True: every grid gets its own set-up (fresh cache or fleet).
        self.per_grid = per_grid
        self._make = make
        self.extra_layers = tuple(extra_layers)
        #: True: the work runs in child processes (broker, workers), so
        #: their peak memory counts too.
        self.child_rss = child_rss
        #: True: the measuring process and the set-up's interpreter run on
        #: one processor, the one the host probe samples.  Workloads that
        #: solve in worker processes use every processor.
        self.pinned = pinned

    def setup(self, scratch: Path, order, oracle):
        import_probe()
        return self._make(scratch, order, oracle)


WORKLOADS = {w.name: w for w in (
    Workload("tab1-cold", True,
             lambda scratch, order, oracle: LocalSession(scratch, jobs=1)),
    Workload("tab1-warm", False, WarmSession),
    Workload("tab1-pool", True,
             lambda scratch, order, oracle: LocalSession(scratch, jobs=2),
             extra_layers=("engine.pool.",), pinned=False),
    Workload("tab1-fleet", True,
             lambda scratch, order, oracle: FleetSession(scratch,
                                                         fleet_size()),
             extra_layers=("dist.",), child_rss=True, pinned=False),
)}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def host_adjusted(runs) -> Tuple[float, float]:
    """The mean time of ``(wall-clock, grid.HostProbe)`` runs on a host
    that runs the reference chunk in ``REF_CHUNK_S``, and how much slower
    than that the host ran.

    A run's own work is its wall-clock minus the time the probe's samples
    took.  The chunks, timed at even intervals, give the host's mean
    slowdown over the runs, and the work is divided by the slowdown to
    the power ``HOST_SENSITIVITY``."""
    work = sum(wall - host.busy for wall, host in runs) / len(runs)
    chunks = sum(host.count for _, host in runs)
    if not chunks:
        return work, 1.0
    slowdown = sum(host.seconds for _, host in runs) / chunks / REF_CHUNK_S
    return work / slowdown ** HOST_SENSITIVITY, slowdown


def timed_run(workload: Workload, order, oracle, seconds: float,
              scratch: Path) -> Dict:
    """One grid, then more cells until ``seconds`` have passed since the
    grid started and every cell ran ``MIN_SAMPLES`` times.

    A session that can replay a cell (a fresh cache per grid) runs,
    until the time is up, the cell with the least measured time so far,
    so a short cell gets more repetitions than a long one in the same
    time.  The others run whole grids: the warm cache serves every grid
    alike, and the fleet's broker keeps what earlier cells stored, so
    each fleet grid gets a fresh set-up.  Every cell and set-up runs
    under a ``grid.HostProbe``, and the end-to-end times are
    host-adjusted (see ``host_adjusted``)."""
    log(f"host.calib_s {grid.calibrate():.4f}")
    setups: List[Tuple[float, grid.HostProbe]] = []
    samples: Dict[str, List[float]] = {variant: [] for variant in order}
    cells: List[grid.Cell] = []

    def set_up():
        with grid.HostProbe() as host:
            t0 = time.perf_counter()
            session = workload.setup(scratch, order, oracle)
            wall = time.perf_counter() - t0
        setups.append((wall, host))
        return session

    def record(new: List[grid.Cell]) -> None:
        cells.extend(new)
        for cell in new:
            samples[cell.variant].append(cell.seconds)

    session = set_up()
    try:
        start = time.perf_counter()
        record(session.run_grid(order, oracle, probe=True))
        while True:
            due = [v for v in order if len(samples[v]) < MIN_SAMPLES]
            if time.perf_counter() - start < seconds:
                due = order
            if not due:
                break
            if hasattr(session, "replay"):
                variant = min(due, key=lambda v: sum(samples[v]))
                record([session.replay(variant, oracle, probe=True)])
            else:
                if workload.per_grid:
                    session.close()
                    session = None
                    session = set_up()
                record(session.run_grid(order, oracle, probe=True))
        while len(setups) < SETUP_REPEATS:
            set_up().close()
    finally:
        if session is not None:
            session.close()
    adjusted = {}
    for variant in order:
        adjusted[variant], slowdown = host_adjusted(
            [(cell.seconds, cell.host) for cell in cells
             if cell.variant == variant])
        log(f"{variant}: {len(samples[variant])} run(s), wall-clock median "
            f"{statistics.median(samples[variant]):.4f} s, host "
            f"{slowdown:.3f}x the reference speed, adjusted "
            f"{adjusted[variant]:.4f} s")
    failed = sum(cell.failed for cell in cells)
    metrics = {key: (value, "s")
               for key, value in grid.grid_times(adjusted).items()}
    setup_s = statistics.median(host_adjusted([run])[0] for run in setups)
    log(f"set-ups: wall-clock median "
        f"{statistics.median(wall for wall, _ in setups):.4f} s, adjusted "
        f"median {setup_s:.4f} s")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(workload.child_rss), "MB")
    metrics["cell_pass_ratio"] = ((len(cells) - failed) / len(cells), "ratio")
    log(f"{workload.name}: {len(setups)} set-up(s), "
        f"{len(cells)} cells, {failed} failed")
    return result(cells, metrics)


def traced_run(workload: Workload, order, oracle, scratch: Path) -> Dict:
    """Untraced and traced grids in turn on like set-ups, which of the
    two goes first alternating by round.  The per-layer metrics come
    from the last traced grid; the tracing overhead compares each cell's
    fastest repetition with and without tracing (a process's first grid
    also pays for warming up the interpreter)."""
    from tracer import Tracer

    calib = grid.calibrate()
    plain: List[List[grid.Cell]] = []
    traced: List[List[grid.Cell]] = []
    session = workload.setup(scratch, order, oracle)
    try:
        for index in range(1 if workload.per_grid else TRACE_ROUNDS):
            for step, side in enumerate((plain, traced)[::(-1) ** index]):
                if step and workload.per_grid:
                    session.close()
                    session = workload.setup(scratch, order, oracle)
                if side is plain:
                    plain.append(session.run_grid(order, oracle))
                    continue
                tracer = Tracer()
                with tracer:
                    traced.append(session.run_grid(order, oracle,
                                                   tracer=tracer))
                if tracer.first_open() is not None:
                    raise RuntimeError(
                        f"span {tracer.first_open()} never closed")
        fleet = (session.memo, session.queued) \
            if isinstance(session, FleetSession) else None
    finally:
        session.close()
    metrics = {name: value for name, value in
               layer_metrics(tracer, traced[-1], fleet).items()
               if not name.startswith(EXTRA_LAYERS)
               or name.startswith(workload.extra_layers)}
    plain_s, traced_s = (
        sum(min(cell.seconds for g in grids for cell in g
                if cell.variant == variant) for variant in order)
        for grids in (plain, traced))
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["host.calib_s"] = (calib, "s")
    return result([cell for g in plain + traced for cell in g], metrics)


#: Spans whose self time is the leftover of the layers below them.
COVERAGE_ROOTS = ("bench.cell", "core.methodology.run")


def layer_metrics(tracer, cells: List[grid.Cell], fleet) -> Dict:
    self_s = tracer.self_times()

    def seconds(name: str) -> float:
        return self_s.get(name, 0.0)

    stats = grid.grid_stats(cells)
    local = tracer.local_verdicts
    search_s = seconds("formal.solver.search")
    local_props = sum(v.stats.get("propagations", 0) for v in local)
    lookups = stats["engine_cache_hits"] + stats["engine_cache_misses"]

    pool_calls = tracer.pool_calls("engine.pool.solve_ordered")
    # Calls that went to worker processes (a one-obligation batch is
    # solved in-process).  Parallel solves overlap, so the time a call
    # spent beyond its longest consumed solve is what scheduling cost.
    spawned = [c for c in pool_calls if c.jobs > 1 and c.submitted > 1]
    dispatch_s = sum(c.wall_s - max((v.runtime_s for v in c.consumed),
                                    default=0.0) for c in spawned)
    remote = tracer.pool_calls("dist.remote.solve_ordered")
    round_trip_s = sum(c.wall_s for c in remote)
    worker_s = sum(v.runtime_s for c in remote for v in c.observed)
    wait_s = sum(c.wall_s - max((v.runtime_s for v in c.consumed),
                                default=0.0) for c in remote)

    traced_s = sum(cell.seconds for cell in cells)
    # Self-times of the named layers inside the cells, against the cells'
    # wall-clock.  The root spans' own time is left out: work that no
    # wrapper covers lands there (mostly in ``UpecMethodology.run``), so
    # a missing or mis-targeted wrapper lowers the ratio.
    layers_in_cells = sum(t for name, t in tracer.self_times(
        under="bench.cell").items() if name not in COVERAGE_ROOTS)
    return {
        "formal.solver.search_s": (search_s, "s"),
        "formal.solver.conflicts": (stats["conflicts"], "count"),
        "formal.solver.decisions": (stats["decisions"], "count"),
        "formal.solver.propagations": (stats["propagations"], "count"),
        "formal.solver.propagations_per_s": (
            local_props / search_s if search_s else 0.0, "1/s"),
        "formal.preprocess.simplify_s": (
            seconds("formal.preprocess.simplify"), "s"),
        "formal.preprocess.vars_eliminated": (
            stats["simplify_vars_eliminated"], "count"),
        "engine.obligation.load_s": (seconds("engine.obligation.load"), "s"),
        "engine.obligation.fingerprint_s": (
            seconds("engine.obligation.fingerprint"), "s"),
        "engine.cache.store_s": (seconds("engine.cache.store"), "s"),
        "engine.cache.lookup_s": (seconds("engine.cache.lookup"), "s"),
        "engine.cache.hit_ratio": (
            stats["engine_cache_hits"] / lookups if lookups else 0.0,
            "ratio"),
        "engine.slice.slice_s": (seconds("engine.slice.slice"), "s"),
        "engine.slice.clause_keep_ratio": (
            stats["slice_clauses_out"] / stats["slice_clauses_in"]
            if stats["slice_clauses_in"] else 0.0, "ratio"),
        "formal.bmc.export_s": (seconds("formal.bmc.export"), "s"),
        "formal.bmc.adopt_s": (seconds("formal.bmc.adopt"), "s"),
        "core.model.build_s": (seconds("core.model.build"), "s"),
        "core.model.unroll_s": (seconds("core.model.unroll"), "s"),
        "core.model.witness_s": (seconds("core.model.witness"), "s"),
        "core.methodology.self_s": (seconds("core.methodology.run"), "s"),
        "core.methodology.iterations": (
            sum(c.signature["iterations"] for c in cells if c.signature),
            "count"),
        "engine.pool.dispatch_s": (dispatch_s, "s"),
        "engine.pool.wait_s": (seconds("engine.pool.solve_ordered"), "s"),
        "engine.pool.useful_ratio": (useful(pool_calls), "ratio"),
        "dist.remote.round_trip_s": (round_trip_s, "s"),
        "dist.worker.solve_s": (worker_s, "s"),
        "dist.remote.wait_s": (wait_s, "s"),
        "dist.remote.useful_ratio": (useful(remote), "ratio"),
        "dist.protocol.encode_s": (seconds("dist.protocol.encode"), "s"),
        "dist.protocol.obligation_bytes": (tracer.submit_bytes, "bytes"),
        "dist.broker.memo": (fleet[0] if fleet else 0, "count"),
        "dist.broker.queued": (fleet[1] if fleet else 0, "count"),
        "trace.grid_s": (traced_s, "s"),
        "trace.coverage_ratio": (layers_in_cells / traced_s, "ratio"),
    }


def useful(calls) -> float:
    """Verdicts handed back to the caller over verdicts the client saw
    solved (speculative frames solved past an alert lower it); 1.0 when
    nothing was solved."""
    observed = sum(len(c.observed) for c in calls)
    return sum(len(c.consumed) for c in calls) / observed if observed \
        else 1.0


def result(cells: List[grid.Cell], metrics: Dict) -> Dict:
    failed = [cell for cell in cells if cell.failed]
    for cell in failed:
        log(f"FAILED {cell.variant}: {cell.error}")
    return {
        "correct": not failed,
        "attempted": len(cells),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not grid.use_checkout_sources() or not grid.ORACLE.is_file():
        log("perfbench: run from a checkout that holds src/repro and "
            "perfbench/oracle.json")
        return 2
    # The engine's environment knobs would change what is measured.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    signal.signal(signal.SIGTERM, _terminate)
    workload = WORKLOADS[args.workload]
    if workload.pinned:
        os.sched_setaffinity(0, {min(CPUS)})
    order = grid.cell_order(args.seed)
    oracle = grid.load_oracle()
    log(f"{workload.name}: seed {args.seed}, cell order {order}")
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.trace:
            out = traced_run(workload, order, oracle, scratch)
        else:
            out = timed_run(workload, order, oracle, args.seconds, scratch)
    finally:
        reap_pool_workers()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
