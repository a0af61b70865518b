"""Obligation scheduling: in-process or across a worker pool.

:class:`SolverPool` executes :class:`ProofObligation` batches.  At
``jobs=1`` it solves inline (no subprocess, lazy, stops as soon as the
caller's early-stop predicate fires — exactly the sequential work
profile).  At ``jobs>1`` it fans the batch out on a
``ProcessPoolExecutor``; results are still *consumed in submission
order*, so a frame-ordered walk sees the same first alert as a
sequential run, and once the predicate fires the not-yet-started
sibling obligations are cancelled.

:class:`ProofEngine` wraps a pool with the optional persistent
:class:`ResultCache` and aggregates solver statistics across all the
verdicts it hands out.  It is the single object the formal stack
(checker, methodology, closure, BMC, induction) takes as its ``engine``
parameter.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.cache import ResultCache
from repro.engine.obligation import ProofObligation, Verdict, solve_obligation

#: Per-process cache of pool workers, built once by the executor
#: initializer (pickling the parent's cache per task would ship its
#: whole index every submit).
_POOL_CACHE: Optional[ResultCache] = None


def _pool_worker_init(root: Optional[str],
                      max_bytes: Optional[int]) -> None:
    global _POOL_CACHE
    _POOL_CACHE = ResultCache(root, max_bytes=max_bytes) if root else None


def _pool_solve(obligation: ProofObligation) -> Verdict:
    """Worker-process solve: warm-starts from (and feeds) the shared
    cache directory, exactly like the in-process path."""
    return solve_obligation(obligation, simp_cache=_POOL_CACHE)


class SolverPool:
    """Runs obligations, in-process at ``jobs=1`` or on worker processes."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self._executor: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def _executor_handle(self, cache: Optional[ResultCache] = None) \
            -> ProcessPoolExecutor:
        if self._executor is None:
            # The worker processes open their own handle on the cache
            # directory (multi-process safe by design), so batch solves
            # warm-start and store simplified databases just like the
            # in-process path.  The engine passes one cache for the
            # pool's lifetime; the first batch pins it.
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_pool_worker_init,
                initargs=(getattr(cache, "root", None),
                          getattr(cache, "max_bytes", None)),
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def solve_ordered(
        self,
        obligations: Sequence[ProofObligation],
        early_stop: Optional[Callable[[Verdict], bool]] = None,
        on_verdict: Optional[Callable[[ProofObligation, Verdict], None]] = None,
        cache: Optional[ResultCache] = None,
    ) -> List[Optional[Verdict]]:
        """Solve a batch, consuming results in submission order.

        Returns one entry per obligation; entries after the first verdict
        for which ``early_stop`` returns True are None (cancelled).
        ``on_verdict`` observes every consumed verdict (cache stores).
        ``cache`` enables warm-started preprocessing on the in-process
        path (worker processes use their own caches).
        """
        results: List[Optional[Verdict]] = [None] * len(obligations)
        if self.jobs == 1 or len(obligations) <= 1:
            for i, obligation in enumerate(obligations):
                verdict = solve_obligation(obligation, simp_cache=cache)
                results[i] = verdict
                if on_verdict is not None:
                    on_verdict(obligation, verdict)
                if early_stop is not None and early_stop(verdict):
                    break
            return results

        executor = self._executor_handle(cache)
        futures = [executor.submit(_pool_solve, ob)
                   for ob in obligations]
        stopped = False
        for i, future in enumerate(futures):
            if stopped:
                # Cancel whatever has not started; harvest results that
                # finished anyway so the cache still benefits from them.
                if not future.cancel() and future.done() \
                        and future.exception() is None:
                    verdict = future.result()
                    if on_verdict is not None:
                        on_verdict(obligations[i], verdict)
                continue
            verdict = future.result()
            results[i] = verdict
            if on_verdict is not None:
                on_verdict(obligations[i], verdict)
            if early_stop is not None and early_stop(verdict):
                stopped = True
        return results


class ProofEngine:
    """Solver pool + persistent result cache + statistics aggregation."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        cache: Optional[ResultCache] = None,
        pool=None,
    ) -> None:
        """``pool`` swaps the scheduler: anything with the
        :class:`SolverPool` interface, e.g. a
        :class:`repro.dist.remote.RemotePool` that ships obligations to
        a broker (``jobs`` is then ignored — parallelism is the
        fleet's)."""
        self.pool = pool if pool is not None else SolverPool(jobs)
        self.cache = cache if cache is not None else (
            ResultCache(cache_dir) if cache_dir else None
        )
        self.cache_hits = 0
        self.cache_misses = 0
        self.solved = 0
        self._solver_totals: Dict[str, int] = {}

    @property
    def jobs(self) -> int:
        return self.pool.jobs

    def close(self) -> None:
        self.pool.close()
        if self.cache is not None:
            # Persist batched index updates — including the recency ticks
            # of a fully-warm run that never stored anything.
            self.cache.flush()

    def __enter__(self) -> "ProofEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _account(self, verdict: Verdict) -> None:
        self.solved += 1
        for key, value in verdict.stats.items():
            self._solver_totals[key] = \
                self._solver_totals.get(key, 0) + value

    def solve_ordered(
        self,
        obligations: Sequence[ProofObligation],
        early_stop: Optional[Callable[[Verdict], bool]] = None,
    ) -> List[Optional[Verdict]]:
        """Cache-aware ordered batch solve with sibling cancellation."""
        results: List[Optional[Verdict]] = [None] * len(obligations)
        misses: List[int] = []
        for i, obligation in enumerate(obligations):
            hit = self.cache.lookup(obligation) if self.cache is not None \
                else None
            if hit is not None:
                self.cache_hits += 1
                results[i] = hit
                if early_stop is not None and early_stop(hit):
                    # Obligations after a cached stopping verdict are
                    # unreachable in order semantics; don't submit them.
                    break
            else:
                misses.append(i)

        if misses:
            def on_verdict(ob: ProofObligation, verdict: Verdict) -> None:
                # Misses are counted when actually solved, so obligations
                # cancelled by an earlier alert don't inflate the count.
                if self.cache is not None:
                    self.cache_misses += 1
                self._account(verdict)
                if self.cache is not None:
                    self.cache.store(ob, verdict)

            # Walk the full index range in order, draining cached entries
            # and solved misses alike so early_stop sees every verdict in
            # obligation order.
            pending = [obligations[i] for i in misses]
            solved = self.pool.solve_ordered(
                pending,
                early_stop=early_stop,
                on_verdict=on_verdict,
                cache=self.cache,
            )
            for slot, verdict in zip(misses, solved):
                results[slot] = verdict

        if early_stop is not None:
            # Enforce order semantics over the merged (cached + solved)
            # sequence: everything after the first stopping verdict is
            # dropped, exactly as a sequential run would never reach it.
            for i, verdict in enumerate(results):
                if verdict is not None and early_stop(verdict):
                    for j in range(i + 1, len(results)):
                        results[j] = None
                    break
        return results

    # ------------------------------------------------------------------
    def stats(self, since: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Engine counters — cumulative, or relative to an earlier
        :meth:`stats` snapshot so shared engines can report per-run
        numbers."""
        data = dict(self._solver_totals)
        data["engine_jobs"] = self.jobs
        data["engine_obligations_solved"] = self.solved
        if self.cache is not None:
            data["engine_cache_hits"] = self.cache_hits
            data["engine_cache_misses"] = self.cache_misses
        if since is not None:
            for key in data:
                if key != "engine_jobs":
                    data[key] -= since.get(key, 0)
        return data

