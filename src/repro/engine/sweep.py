"""Scenario sweeps: whole Tab.-I/II grids as one batch job.

A sweep cell is (design variant x scenario x window length).  Two cell
types exist: ``methodology`` cells run the full Fig.-5 loop (Tab. I,
:meth:`ScenarioSweep.table1_grid`), and ``find_first_alert_window``
cells grow the UPEC window until the first counterexample appears — the
window-length-for-alert measurements of Tab. II
(:meth:`ScenarioSweep.table2_grid`).  Cells are completely independent,
so the sweep schedules them across worker processes — this is the
coarse-grained sibling of the per-frame obligation parallelism in
:mod:`repro.engine.pool`, and the two compose with the persistent proof
cache (workers share one cache directory; re-runs of a grid skip every
already-proved obligation).  With ``connect`` set to a broker address
each cell additionally shards its obligations over the distributed
proof service (:mod:`repro.dist`).

Workers rebuild the SoC from the variant name, so only plain data
crosses the process boundary (no circuit pickling); each worker process
memoizes the build per variant, so a grid's repeated rows pay it once.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.soc.config import VARIANTS


#: Cell types: the full Fig.-5 methodology loop (Tab. I) or the
#: grow-the-window-until-alert measurement (Tab. II).
CELL_METHODOLOGY = "methodology"
CELL_ALERT_WINDOW = "find_first_alert_window"


@dataclass
class SweepCell:
    """One (variant, scenario, k) grid point.

    For ``find_first_alert_window`` cells ``k`` is the *maximum* window
    length: the check walks frames 1..k and reports the first alerting
    frame (or proves the whole window)."""

    variant: str
    scenario_kwargs: Dict[str, Any]
    k: int
    label: str = ""
    cell_type: str = CELL_METHODOLOGY

    def __post_init__(self) -> None:
        if not self.label:
            cached = self.scenario_kwargs.get("secret_in_cache", True)
            scen = "cached" if cached else "uncached"
            if self.cell_type == CELL_ALERT_WINDOW:
                self.label = f"{self.variant}/{scen}/window<={self.k}"
            else:
                self.label = f"{self.variant}/{scen}/k={self.k}"


@dataclass
class SweepOutcome:
    """A cell plus its (JSON-serializable) methodology result."""

    cell: SweepCell
    result: Dict[str, Any]
    runtime_s: float = 0.0

    @property
    def verdict(self) -> str:
        return self.result["verdict"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.cell.label,
            "variant": self.cell.variant,
            "scenario": dict(self.cell.scenario_kwargs),
            "k": self.cell.k,
            "cell_type": self.cell.cell_type,
            "runtime_s": self.runtime_s,
            "result": self.result,
        }


@dataclass
class SweepResult:
    """All outcomes of one grid run, in cell order."""

    outcomes: List[SweepOutcome] = field(default_factory=list)
    runtime_s: float = 0.0
    jobs: int = 1

    def verdicts(self) -> Dict[str, str]:
        return {out.cell.label: out.verdict for out in self.outcomes}

    def any_insecure(self) -> bool:
        return any(out.verdict == "insecure" for out in self.outcomes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "runtime_s": self.runtime_s,
            "cells": [out.to_dict() for out in self.outcomes],
        }

    def rows(self) -> List[List[Any]]:
        """Rows for a Tab.-I/II style report table.

        Methodology cells report iteration/P-alert counts; alert-window
        cells have neither and show the first alerting frame instead."""
        rows = []
        for out in self.outcomes:
            result = out.result
            if out.cell.cell_type == CELL_ALERT_WINDOW:
                frame = result.get("alert_frame")
                detail = f"frame {frame}" if frame is not None \
                    else f"none<={out.cell.k}"
                rows.append([
                    out.cell.label,
                    result["verdict"],
                    detail,
                    1 if result.get("alert") else 0,
                    f"{out.runtime_s:.2f}s",
                ])
            else:
                rows.append([
                    out.cell.label,
                    result["verdict"],
                    result["iterations"],
                    len(result["p_alerts"]),
                    f"{out.runtime_s:.2f}s",
                ])
        return rows


#: Per-worker-process SoC memo: grid rows repeat the same few variants,
#: and the circuit build dominates short cells (see ``bench_model_build``).
#: Sharing one Soc across cells is safe — the Soc/Circuit is immutable
#: after ``finalize`` and every cell builds its own UpecModel/SatContext.
_SOC_CACHE: Dict[str, Any] = {}


def _soc_for(variant: str):
    soc = _SOC_CACHE.get(variant)
    if soc is None:
        from repro.soc import SocConfig, build_soc
        from repro.soc.config import FORMAL_CONFIG_KWARGS

        config = getattr(SocConfig, variant)(**FORMAL_CONFIG_KWARGS)
        soc = _SOC_CACHE[variant] = build_soc(config)
    return soc


def _run_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker body: build (or reuse) the SoC, run the cell, return dicts.

    Imports stay inside the function so the engine package has no
    import-time dependency on :mod:`repro.core` (which itself imports the
    engine's obligation layer).
    """
    from repro.core.methodology import UpecMethodology
    from repro.core.model import UpecModel, UpecScenario
    from repro.core.upec import UpecChecker
    from repro.engine.pool import ProofEngine

    start = time.perf_counter()
    soc = _soc_for(payload["variant"])
    scenario = UpecScenario(**payload["scenario"])
    # With a broker address the cell shards its obligations over the
    # distributed proof service; with a cache directory it takes the
    # local obligation path (jobs=1, in-process, so pools never nest
    # inside sweep workers) and verdicts persist; otherwise the
    # incremental in-context solver is used.
    engine = None
    if payload.get("connect"):
        from repro.dist.remote import RemoteEngine

        engine = RemoteEngine(payload["connect"],
                              cache_dir=payload["cache_dir"])
    elif payload["cache_dir"]:
        engine = ProofEngine(jobs=1, cache_dir=payload["cache_dir"])
    try:
        if payload.get("cell_type") == CELL_ALERT_WINDOW:
            model = UpecModel(soc, scenario)
            checker = UpecChecker(model, engine=engine)
            check = checker.find_first_alert_window(
                max_k=payload["k"],
                conflict_limit=payload["conflict_limit"],
            )
            alerted = check.status == "alert"
            result = {
                "verdict": check.status,
                "k": check.k,
                "alert_frame": check.k if alerted else None,
                "alert": check.alert.to_dict() if check.alert is not None
                else None,
                "checked_frames": check.checked_frames,
                "stats": dict(check.stats),
            }
        else:
            methodology = UpecMethodology(
                soc, scenario,
                conflict_limit=payload["conflict_limit"],
                engine=engine,
                wall_budget=payload.get("wall_budget"),
            )
            result = methodology.run(
                k=payload["k"],
                max_iterations=payload["max_iterations"],
            ).to_dict()
    finally:
        if engine is not None:
            engine.close()
    return {
        "result": result,
        "runtime_s": time.perf_counter() - start,
    }


class ScenarioSweep:
    """Run a grid of methodology cells across worker processes."""

    def __init__(
        self,
        cells: Sequence[SweepCell],
        conflict_limit: Optional[int] = None,
        cache_dir: Optional[str] = None,
        max_iterations: int = 64,
        connect: Optional[str] = None,
        wall_budget: Optional[float] = None,
    ) -> None:
        self.cells = list(cells)
        self.conflict_limit = conflict_limit
        self.cache_dir = cache_dir
        self.max_iterations = max_iterations
        self.connect = connect
        self.wall_budget = wall_budget

    # ------------------------------------------------------------------
    @classmethod
    def table1_grid(
        cls,
        variants: Sequence[str] = VARIANTS,
        k: int = 2,
        cached: bool = True,
        uncached: bool = True,
        **kwargs,
    ) -> "ScenarioSweep":
        """The Tab.-I grid: every variant in the 'D in cache' and
        'D not in cache' scenarios."""
        from repro.core.model import UpecScenario

        cells = []
        for variant in variants:
            scenarios = []
            if cached:
                scenarios.append(UpecScenario(secret_in_cache=True))
            if uncached:
                scenarios.append(UpecScenario(secret_in_cache=False))
            for scenario in scenarios:
                cells.append(SweepCell(
                    variant=variant,
                    scenario_kwargs=asdict(scenario),
                    k=k,
                ))
        return cls(cells, **kwargs)

    @classmethod
    def table2_grid(
        cls,
        variants: Sequence[str] = VARIANTS,
        max_k: int = 4,
        cached: bool = True,
        uncached: bool = False,
        **kwargs,
    ) -> "ScenarioSweep":
        """The Tab.-II grid: for every variant, grow the UPEC window up
        to ``max_k`` frames and report the window length at which the
        first alert appears (vulnerable designs) or that the whole
        window proves (fixed designs)."""
        from repro.core.model import UpecScenario

        cells = []
        for variant in variants:
            scenarios = []
            if cached:
                scenarios.append(UpecScenario(secret_in_cache=True))
            if uncached:
                scenarios.append(UpecScenario(secret_in_cache=False))
            for scenario in scenarios:
                cells.append(SweepCell(
                    variant=variant,
                    scenario_kwargs=asdict(scenario),
                    k=max_k,
                    cell_type=CELL_ALERT_WINDOW,
                ))
        return cls(cells, **kwargs)

    # ------------------------------------------------------------------
    def _payload(self, cell: SweepCell) -> Dict[str, Any]:
        return {
            "variant": cell.variant,
            "scenario": dict(cell.scenario_kwargs),
            "k": cell.k,
            "cell_type": cell.cell_type,
            "conflict_limit": self.conflict_limit,
            "wall_budget": self.wall_budget,
            "cache_dir": self.cache_dir,
            "max_iterations": self.max_iterations,
            "connect": self.connect,
        }

    def run(self, jobs: int = 1) -> SweepResult:
        """Execute every cell; in-process at ``jobs=1``."""
        start = time.perf_counter()
        jobs = max(1, int(jobs))
        payloads = [self._payload(cell) for cell in self.cells]
        if jobs == 1 or len(payloads) <= 1:
            raw = [_run_cell(payload) for payload in payloads]
        else:
            with ProcessPoolExecutor(max_workers=jobs) as executor:
                raw = list(executor.map(_run_cell, payloads))
        outcomes = [
            SweepOutcome(cell=cell, result=data["result"],
                         runtime_s=data["runtime_s"])
            for cell, data in zip(self.cells, raw)
        ]
        return SweepResult(
            outcomes=outcomes,
            runtime_s=time.perf_counter() - start,
            jobs=jobs,
        )
