"""Outside-in layer tracer for the UPEC benchmark.

The tracer wraps public functions of the ``repro`` package from the
benchmark's side (class attributes and module attributes are swapped for
timing wrappers and restored afterwards); the program itself is not
changed.  Every call of a wrapped function records one span — name,
start, end, parent — in memory.  A layer's *self time* is its spans'
duration minus the part covered by their child spans, so the self times
of all layers under a root span add up to the root's wall-clock.

Work done in pool or fleet worker processes cannot be wrapped from here;
it is read from the ``Verdict.runtime_s`` and ``Verdict.stats`` that come
back to the client (see :meth:`Tracer.pool_calls`).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: (span name, owner, attribute) for every plain timed wrapper.  Owners
#: are given as import paths and resolved at install time.  Functions the
#: package imports by name into another module are patched where they are
#: called from (``repro.engine.pool.solve_obligation``).
SPANS = [
    ("core.methodology.run", "repro.core.methodology:UpecMethodology", "run"),
    ("core.model.build", "repro.core.model:UpecModel", "__init__"),
    ("core.model.unroll", "repro.core.model:UpecModel", "frame_obligation"),
    ("core.model.witness", "repro.core.model:UpecModel", "witness_frames"),
    ("core.model.witness", "repro.core.model:UpecModel", "differing_regs"),
    ("formal.bmc.export", "repro.formal.bmc:SatContext", "export_obligation"),
    ("formal.bmc.adopt", "repro.formal.bmc:SatContext", "adopt_verdict"),
    ("engine.slice.slice", "repro.engine.slice", "slice_cnf"),
    ("engine.obligation.fingerprint", "repro.engine.obligation:ProofObligation",
     "fingerprint"),
    ("engine.obligation.load", "repro.engine.pool", "solve_obligation"),
    ("engine.cache.lookup", "repro.engine.cache:ResultCache", "lookup"),
    ("engine.cache.lookup", "repro.engine.cache:ResultCache",
     "lookup_simplified"),
    ("engine.cache.store", "repro.engine.cache:ResultCache", "store"),
    ("engine.cache.store", "repro.engine.cache:ResultCache",
     "store_simplified"),
    ("formal.preprocess.simplify", "repro.formal.preprocess:Simplifier", "run"),
    ("formal.solver.search", "repro.formal.solver:CdclSolver", "solve"),
    ("dist.remote.status", "repro.dist.remote:RemotePool", "status"),
    ("dist.protocol.encode", "repro.dist.remote", "obligation_to_wire"),
]

#: Scheduler entry points whose calls are also inspected: the verdicts a
#: call hands back (consumed) and the ones its observer saw (solved).
POOLS = [
    ("engine.pool.solve_ordered", "repro.engine.pool:SolverPool"),
    ("dist.remote.solve_ordered", "repro.dist.remote:RemotePool"),
]


def _resolve(path: str):
    import importlib

    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class PoolCall:
    """One ``solve_ordered`` call as seen from the client."""

    __slots__ = ("jobs", "submitted", "wall_s", "consumed", "observed")

    def __init__(self, jobs: int, submitted: int, wall_s: float,
                 consumed: List[Any], observed: List[Any]) -> None:
        self.jobs = jobs
        self.submitted = submitted
        self.wall_s = wall_s
        self.consumed = consumed      # verdicts returned to the caller
        self.observed = observed      # verdicts the on_verdict hook saw


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self.calls: Dict[str, List[PoolCall]] = defaultdict(list)
        #: Framed bytes of the ``submit`` messages the client sent.
        self.submit_bytes = 0
        #: Verdicts returned by in-process ``solve_obligation`` calls.
        self.local_verdicts: List[Any] = []

    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call records a span."""
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a span of its own (the benchmark's root)."""
        return self.span(name, fn)(*args, **kwargs)

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        for name, path, attr in SPANS:
            owner = _resolve(path)
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        for name, path in POOLS:
            owner = _resolve(path)
            self._patch(owner, "solve_ordered",
                        self._pool_wrapper(name, owner.solve_ordered))
        self._wrap_local_solve()
        self._wrap_wire()
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def _pool_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        timed = self.span(name, fn)

        def solve_ordered(pool, obligations, early_stop=None,
                          on_verdict=None, cache=None):
            observed: List[Any] = []

            def observe(obligation, verdict):
                observed.append(verdict)
                if on_verdict is not None:
                    on_verdict(obligation, verdict)

            start = time.perf_counter()
            results = timed(pool, obligations, early_stop=early_stop,
                            on_verdict=observe, cache=cache)
            tracer.calls[name].append(PoolCall(
                jobs=pool.jobs, submitted=len(obligations),
                wall_s=time.perf_counter() - start,
                consumed=[v for v in results if v is not None],
                observed=observed,
            ))
            return results

        solve_ordered.__wrapped__ = fn
        return solve_ordered

    def _wrap_local_solve(self) -> None:
        """Keep in-process verdicts: their stats give the search counts
        that go with the in-process ``formal.solver.search`` time."""
        import repro.engine.pool as pool

        timed = pool.solve_obligation
        tracer = self

        def solve_obligation(*args, **kwargs):
            verdict = timed(*args, **kwargs)
            tracer.local_verdicts.append(verdict)
            return verdict

        self._patch(pool, "solve_obligation", solve_obligation)

    def _wrap_wire(self) -> None:
        """Time frame encoding and count the bytes of submit frames."""
        import repro.dist.protocol as protocol

        frame = self.span("dist.protocol.encode", protocol.frame_message)
        tracer = self

        def frame_message(message, *args, **kwargs):
            data = frame(message, *args, **kwargs)
            if message.get("type") == "submit":
                tracer.submit_bytes += len(data)
            return data

        self._patch(protocol, "frame_message", frame_message)

    # ------------------------------------------------------------------
    def self_times(self, under: Optional[str] = None) -> Dict[str, float]:
        """Seconds per span name, children's time excluded; with
        ``under``, only spans inside a span of that name (itself
        included) count."""
        totals: Dict[str, float] = defaultdict(float)
        spans = self.spans
        inside = [False] * len(spans)
        for index, (name, start, end, parent) in enumerate(spans):
            # Parents open before their children, so their flag is set.
            inside[index] = under is None or name == under or \
                (parent >= 0 and inside[parent])
            if not inside[index]:
                continue
            duration = end - start
            totals[name] += duration
            if parent >= 0 and inside[parent]:
                totals[spans[parent][0]] -= duration
        return dict(totals)

    def pool_calls(self, name: str) -> List[PoolCall]:
        return list(self.calls.get(name, ()))

    def first_open(self) -> Optional[str]:
        """Name of a span left open (a wrapper that never closed)."""
        return self.spans[self._stack[-1]][0] if self._stack else None
