"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``         print design-variant statistics (``--geometry formal``,
                 the default, or ``sim``: the SoC the attacks run)
``check``        run one UPEC property check
``methodology``  run the full Fig.-5 iterative flow
``sweep``        run a Tab.-I grid of methodology cells across workers
``attack``       run the Orc or Meltdown-style attack on the simulator
``serve``        run a distributed proof-service broker
``worker``       run a proof-service worker against a broker
``chaos-proxy``  run a seeded fault-injecting TCP proxy in front of a
                 broker (resilience testing; see ``repro.dist.chaos``)

The solver-backed commands (``check``, ``methodology``, ``sweep``)
uniformly accept:

``--stats``           print solver / simplifier / engine counters
                      (including slice reduction ratios)
``--json``            machine-readable result on stdout
``--jobs N``          solve proof obligations on N worker processes
``--cache-dir DIR``   persistent proof cache (re-runs skip proved
                      obligations; default: ``$REPRO_ENGINE_CACHE``)
``--conflict-limit``  per-query conflict budget (at least 1)
``--wall-budget S``   per-obligation wall-clock budget in seconds (> 0)
                      (exhaustion yields a distinguishable "timeout"
                      outcome instead of an open-ended solve)
``--connect H:P``     shard proof obligations over a running broker
                      (``repro serve``) and its workers instead of a
                      local pool (default: ``$REPRO_ENGINE_CONNECT``)

Without ``--jobs``, ``--cache-dir`` or ``--connect`` the frames are
solved on the incremental in-context solver; any of the three routes
them through the obligation engine.  Either way every search runs on a
CNF simplified by the SatELite-style preprocessor first.

``attack`` takes ``--stats`` (timing-series counters) and ``--json``
as well; it has no SAT solver, so the solver flags do not apply.

Exit codes
----------
``0``   ``check`` proved the window; ``methodology`` (every ``sweep``
        cell) is secure within the bound; ``attack`` observed no leak
``1``   ``check`` found a P-alert
``2``   ``check`` found an L-alert; ``methodology`` (any ``sweep``
        cell) is insecure; ``attack`` recovered the secret
``3``   inconclusive: a conflict limit, wall budget, poisoned
        obligation or iteration cap stopped ``check``, ``methodology``
        or a ``sweep`` cell short of a verdict (an insecure cell still
        makes ``sweep`` exit 2)
``64``  usage error: anything the argument parser rejects (an unknown
        command, variant or flag, a non-integer ``--k``, an ``attack
        --secret`` that is not an integer in 0..255), ``--jobs`` or
        ``--k`` below 1, ``--conflict-limit`` below 1, ``--wall-budget``
        not positive, a ``sweep --variants`` list naming no variant, a
        malformed broker address, and ``--connect``
        combined with ``--jobs`` on ``check``/``methodology`` (on
        ``sweep`` the two compose — ``--jobs`` fans cells out locally
        while each cell's obligations shard over the broker)
``69``  the distributed proof service failed: an unreachable broker, a
        rejected job, an expired ``submit --wait-timeout``
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional

from repro.core import (
    INCONCLUSIVE,
    SECURE_BOUNDED,
    UNDECIDED,
    UpecChecker,
    UpecMethodology,
    UpecModel,
    UpecScenario,
)
from repro.core.report import format_kv_block, format_table
from repro.errors import DistError, UsageError
from repro.hdl import circuit_stats
from repro.soc import SocConfig, build_soc
from repro.soc.config import (
    FORMAL_CONFIG_KWARGS,
    SIM_CONFIG_KWARGS,
    VARIANTS,
)

#: Environment knob: the default ``--cache-dir`` of the solver-backed
#: commands (a deployment setting, like ``REPRO_ENGINE_CONNECT``).
CACHE_ENV = "REPRO_ENGINE_CACHE"


def _build(variant: str, geometry: str):
    kwargs = FORMAL_CONFIG_KWARGS if geometry == "formal" else SIM_CONFIG_KWARGS
    return build_soc(getattr(SocConfig, variant)(**kwargs))


def _add_variant(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("variant", choices=VARIANTS)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stats", action="store_true",
                        help="print solver/simplifier/engine statistics")
    parser.add_argument("--json", action="store_true",
                        help="print the result as JSON (suppresses the "
                             "human-readable report)")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """The uniform solver/engine flag set of every SAT-backed command."""
    parser.add_argument("--conflict-limit", type=int, default=None)
    parser.add_argument("--wall-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="per-obligation wall-clock budget; an "
                             "exhausted budget reports 'timeout' instead "
                             "of solving open-endedly")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for proof obligations "
                             "(default: the in-context solver)")
    parser.add_argument("--cache-dir",
                        default=os.environ.get(CACHE_ENV) or None,
                        help="persistent proof-result cache directory "
                             "(default: $REPRO_ENGINE_CACHE)")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="shard proof obligations over a distributed "
                             "proof-service broker (see 'repro serve'; "
                             "default: $REPRO_ENGINE_CONNECT)")
    _add_output_flags(parser)


def _validate_jobs(jobs) -> None:
    """The worker count must be a positive integer — ``--jobs 0`` has no
    sensible meaning and must not silently fall through to a one-process
    pool (or to ``multiprocessing`` with a clamped count)."""
    if jobs is not None and jobs < 1:
        raise UsageError(f"--jobs must be a positive integer, got {jobs}")


def _validate_k(k: int) -> None:
    """A window needs at least one frame.  ``--k 0`` must not surface as
    an uncaught ``UpecError``: that exits 1, which ``check`` reserves
    for a P-alert."""
    if k < 1:
        raise UsageError(f"--k must be a positive integer, got {k}")


def _validate_budgets(args) -> None:
    """``--wall-budget -1`` must not silently run without a budget, and
    ``--conflict-limit 0`` must not act as a limit of one conflict."""
    if args.conflict_limit is not None and args.conflict_limit < 1:
        raise UsageError("--conflict-limit must be a positive integer, "
                         f"got {args.conflict_limit}")
    if args.wall_budget is not None and not args.wall_budget > 0:
        raise UsageError("--wall-budget must be a positive number of "
                         f"seconds, got {args.wall_budget}")


def _validate_address(spec: str) -> None:
    """A malformed HOST:PORT is a usage error (exit 64), not a
    connection failure."""
    from repro.dist.protocol import parse_address

    try:
        parse_address(spec)
    except DistError as exc:
        raise UsageError(str(exc)) from None


def _secret_byte(text: str) -> int:
    """``--secret``: one byte, written in any base ``int(text, 0)``
    reads (``107``, ``0x6B``, ``0b1101011``)."""
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if not 0 <= value <= 0xFF:
        raise argparse.ArgumentTypeError(
            f"must be a byte in 0..255, got {text}")
    return value


def _connect_from_args(args) -> str:
    """The effective broker address (flag, else environment), or None."""
    if args.connect:
        return args.connect
    from repro.dist.remote import env_connect

    return env_connect()


def _open_cache(cache_dir: Optional[str]):
    """The proof cache in ``cache_dir`` (flag or ``REPRO_ENGINE_CACHE``),
    None without one.  A directory that cannot be created or read (a
    path under a regular file, say) is a usage error: an uncaught
    ``OSError`` would exit 1, which ``check`` reserves for a P-alert."""
    if cache_dir is None:
        return None
    from repro.engine import ResultCache

    try:
        return ResultCache(cache_dir)
    except OSError as exc:
        raise UsageError(f"cannot use cache directory {cache_dir}: "
                         f"{exc.strerror or exc}") from None


def _engine_from_args(args):
    """An engine when --connect/--jobs/--cache-dir ask for one, else
    None (the incremental in-context solver)."""
    _validate_jobs(args.jobs)
    if args.connect and args.jobs is not None:
        raise UsageError("--jobs does not combine with --connect: the "
                         "broker's worker fleet sets the parallelism")
    # An explicit --jobs wins over the REPRO_ENGINE_CONNECT environment
    # default (flags beat environment defaults; --jobs plus explicit
    # --connect already errored above).
    connect = None if args.jobs is not None else _connect_from_args(args)
    if connect is not None:
        _validate_address(connect)
        from repro.dist.remote import RemoteEngine

        return RemoteEngine(connect, cache=_open_cache(args.cache_dir))
    if args.jobs is None and args.cache_dir is None:
        return None
    from repro.engine import ProofEngine

    return ProofEngine(jobs=args.jobs or 1,
                       cache=_open_cache(args.cache_dir))


def _closing(engine):
    """Close the engine (its pool, its cache's batched index) when the
    run ends; a no-op for the in-context solver."""
    return engine if engine is not None else contextlib.nullcontext()


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def cmd_info(args) -> int:
    soc = _build(args.variant, args.geometry)
    stats = circuit_stats(soc.circuit)
    data = {
        "variant": soc.config.name,
        "secret location": f"dmem[{soc.secret_eff_addr}]",
        "secret cache line": soc.secret_line_index,
        **stats,
        "bypass (Orc opt.)": soc.config.mem_forward_bypass,
        "refill cancel on flush": soc.config.refill_cancel_on_flush,
        "flush waits for mem": soc.config.flush_waits_for_mem,
        "PMP TOR lock rule": soc.config.pmp_tor_lock,
    }
    print(format_kv_block(f"SoC {soc.config.name!r}", data))
    return 0


def cmd_check(args) -> int:
    _validate_k(args.k)
    _validate_budgets(args)
    engine = _engine_from_args(args)
    soc = _build(args.variant, "formal")
    scenario = UpecScenario(secret_in_cache=not args.uncached)
    model = UpecModel(soc, scenario)
    with _closing(engine):
        result = UpecChecker(model, engine=engine).check(
            k=args.k, conflict_limit=args.conflict_limit,
            wall_budget=args.wall_budget,
        )
    human = f"scenario: {scenario.describe()}\n{result.describe()}"
    if args.stats and not args.json:
        human += "\n" + format_kv_block("solver", result.stats)
    if result.alert is not None and not args.json:
        human += "\n" + result.alert.render_witness()
    _emit(args, {"scenario": scenario.describe(), **result.to_dict()}, human)
    if result.alert is not None:
        return 2 if result.alert.is_l_alert else 1
    return 3 if result.status == INCONCLUSIVE else 0


def cmd_methodology(args) -> int:
    _validate_k(args.k)
    _validate_budgets(args)
    engine = _engine_from_args(args)
    soc = _build(args.variant, "formal")
    scenario = UpecScenario(secret_in_cache=not args.uncached)
    with _closing(engine):
        result = UpecMethodology(
            soc, scenario,
            conflict_limit=args.conflict_limit,
            engine=engine,
            wall_budget=args.wall_budget,
        ).run(k=args.k)
    human = result.describe()
    if args.stats and not args.json:
        human += "\n" + format_kv_block("solver", result.stats)
    _emit(args, result.to_dict(), human)
    if result.verdict == SECURE_BOUNDED:
        return 0
    return 3 if result.verdict == UNDECIDED else 2


def cmd_sweep(args) -> int:
    from repro.engine import ScenarioSweep

    _validate_jobs(args.jobs)
    _validate_k(args.k)
    _validate_budgets(args)
    connect = _connect_from_args(args)
    if connect is not None:
        # Unlike check/methodology, --jobs composes with --connect here:
        # it fans cells out locally while each cell's obligations shard
        # over the broker.
        _validate_address(connect)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        # Zero cells would "all be secure" and exit 0.
        raise UsageError(f"--variants names no variant (choose from "
                         f"{', '.join(VARIANTS)})")
    for variant in variants:
        if variant not in VARIANTS:
            print(f"unknown variant {variant!r} (choose from "
                  f"{', '.join(VARIANTS)})", file=sys.stderr)
            return 64
    # Every cell opens the cache itself, possibly in a worker process;
    # open it once here so an unusable directory fails before any cell.
    _open_cache(args.cache_dir)
    sweep = ScenarioSweep.table1_grid(
        variants=variants,
        k=args.k,
        cached=args.scenarios in ("cached", "both"),
        uncached=args.scenarios in ("uncached", "both"),
        conflict_limit=args.conflict_limit,
        cache_dir=args.cache_dir,
        connect=connect,
        wall_budget=args.wall_budget,
    )
    result = sweep.run(jobs=args.jobs or 1)
    human = format_table(
        ["cell", "verdict", "iterations", "P-alerts", "runtime"],
        result.rows(),
    )
    human += (f"\n{len(result.outcomes)} cells in {result.runtime_s:.2f}s "
              f"(jobs={result.jobs})")
    if args.stats and not args.json:
        for out in result.outcomes:
            human += "\n" + format_kv_block(out.cell.label,
                                            out.result["stats"])
    _emit(args, result.to_dict(), human)
    if result.any_insecure():
        return 2
    undecided = any(out.verdict == UNDECIDED for out in result.outcomes)
    return 3 if undecided else 0


def cmd_attack(args) -> int:
    soc = _build(args.variant, "sim")
    if args.kind == "orc":
        from repro.attacks import run_orc_attack

        result = run_orc_attack(soc, args.secret)
        human = result.series.render()
        recovered = result.recovered_index
        true = result.true_index
    else:
        from repro.attacks import run_meltdown_attack

        result = run_meltdown_attack(soc, args.secret)
        rows = [[g, t] for g, t in zip(result.series.guesses,
                                       result.series.cycles)]
        human = format_table(["probe", "cycles"], rows)
        recovered = result.recovered_value
        true = result.true_value
    cycles = list(result.series.cycles)
    stats = {
        "probes": len(result.series.guesses),
        "min_cycles": min(cycles) if cycles else 0,
        "max_cycles": max(cycles) if cycles else 0,
    }
    leaked = recovered is not None
    if leaked:
        human += f"\nrecovered: {recovered} (true: {true})"
    else:
        human += "\nno leak observable (flat timing)"
    if args.stats and not args.json:
        human += "\n" + format_kv_block("attack", stats)
    payload = {
        "kind": args.kind,
        "variant": args.variant,
        "recovered": recovered,
        "true": true,
        "leaked": leaked,
        "guesses": list(result.series.guesses),
        "cycles": cycles,
        "stats": stats,
    }
    _emit(args, payload, human)
    return 2 if leaked else 0


def cmd_serve(args) -> int:
    import time

    from repro.dist.broker import Broker

    if args.heartbeat_timeout < 2.0:
        # Workers heartbeat every 1 s while solving; a tighter timeout
        # evicts healthy busy workers and flaps every batch.
        raise UsageError("--heartbeat-timeout must be at least 2 seconds "
                         f"(got {args.heartbeat_timeout}); workers "
                         "heartbeat once per second")
    if args.max_queued is not None and args.max_queued < 1:
        raise UsageError("--max-queued must be a positive integer "
                         f"(got {args.max_queued})")
    broker = Broker(
        host=args.host, port=args.port,
        heartbeat_timeout=args.heartbeat_timeout,
        http_port=args.http_port,
        cache_dir=args.cache_dir,
        max_queued=args.max_queued,
    )
    try:
        broker.start()
    except OSError as exc:
        raise DistError(
            f"cannot listen on {args.host}:{args.port}: {exc}") from exc
    print(f"proof-service broker listening on {broker.address} "
          f"(heartbeat timeout {broker.heartbeat_timeout:.0f}s)"
          + (f", job API on http://{broker.host}:{broker.http_port}"
             if broker.http_port is not None else "")
          + (f", durable state in {args.cache_dir}"
             if broker.durable else ""),
          flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        broker.stop()
    return 0


def cmd_worker(args) -> int:
    _validate_address(args.connect)
    from repro.dist.worker import Worker

    worker = Worker(
        args.connect,
        cache_dir=args.cache_dir,
        name=args.name,
        max_retries=args.max_retries,
    )
    print(f"worker {worker.name} pulling from {args.connect}"
          + (f" (cache: {args.cache_dir})" if args.cache_dir else ""),
          flush=True)
    try:
        solved = worker.run()
    except KeyboardInterrupt:
        solved = worker.solved
    print(f"worker {worker.name} exiting after {solved} obligations",
          flush=True)
    return 0


def _http_json(url: str, payload=None, timeout: float = 10.0):
    """One request against a broker's job API (stdlib only)."""
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read().decode())
    except urllib.error.HTTPError as exc:
        # 4xx/5xx replies still carry a JSON body worth showing.
        try:
            return exc.code, json.loads(exc.read().decode())
        except ValueError:
            return exc.code, {"error": str(exc)}
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise DistError(f"cannot reach job API at {url}: {exc}") from exc


def cmd_submit(args) -> int:
    import time

    _validate_address(args.api)
    _validate_budgets(args)
    base = f"http://{args.api}"
    spec = {
        "kind": args.kind,
        "variant": args.variant,
        "scenario": "uncached" if args.uncached else "cached",
        "k": args.k,
        "priority": args.priority,
    }
    if args.conflict_limit is not None:
        spec["conflict_limit"] = args.conflict_limit
    if args.wall_budget is not None:
        spec["wall_budget"] = args.wall_budget
    status, reply = _http_json(base + "/jobs", payload=spec)
    if status != 202:
        raise DistError(f"broker rejected the job (HTTP {status}): "
                        f"{reply.get('error', reply)}")
    job_id = reply["id"]
    if not args.wait:
        print(json.dumps(reply, indent=2))
        return 0
    # Progress goes to stderr so `repro submit --wait > result.json`
    # pipes clean JSON.
    print(f"submitted {job_id}; polling...", file=sys.stderr, flush=True)
    deadline = (time.monotonic() + args.wait_timeout
                if args.wait_timeout is not None else None)
    while True:
        status, state = _http_json(f"{base}/jobs/{job_id}")
        if status == 200 and state.get("status") in ("done", "failed"):
            break
        if deadline is not None and time.monotonic() >= deadline:
            # A hung broker (or a job stuck behind a dead fleet) must
            # not pin this client forever: give up loudly, leaving the
            # job id so the caller can re-poll with `repro status`.
            raise DistError(
                f"job {job_id} did not finish within "
                f"--wait-timeout {args.wait_timeout:.0f}s (last status: "
                f"{state.get('status', 'unknown')!r}); it may still "
                f"complete — check with: repro status --api {args.api} "
                f"--job {job_id}")
        time.sleep(args.poll_interval)
    status, result = _http_json(f"{base}/jobs/{job_id}/result")
    print(json.dumps(result, indent=2))
    return 0 if status == 200 else 69


def cmd_chaos_proxy(args) -> int:
    _validate_address(args.listen)
    _validate_address(args.upstream)
    from repro.dist.chaos import ChaosPlan, ChaosProxy
    from repro.dist.protocol import parse_address

    plan = ChaosPlan(
        seed=args.seed, reset_rate=args.reset, stall_rate=args.stall,
        truncate_rate=args.truncate, duplicate_rate=args.duplicate,
        bitflip_rate=args.bitflip, stall_max_s=args.stall_max,
    )
    proxy = ChaosProxy(parse_address(args.listen),
                       parse_address(args.upstream), plan=plan)
    try:
        proxy.start()
    except OSError as exc:
        raise DistError(
            f"cannot listen on {args.listen}: {exc}") from exc
    print(f"chaos proxy {proxy.address} -> "
          f"{args.upstream} (plan: {json.dumps(plan.describe())})",
          flush=True)
    import time
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        proxy.stop()
        print(json.dumps(proxy.stats(), indent=2), file=sys.stderr)
    return 0


def cmd_status(args) -> int:
    _validate_address(args.api)
    base = f"http://{args.api}"
    if args.job:
        status, state = _http_json(f"{base}/jobs/{args.job}")
        print(json.dumps(state, indent=2))
        return 0 if status == 200 else 69
    status, health = _http_json(base + "/healthz")
    print(json.dumps(health, indent=2))
    return 0 if status == 200 else 69


class _Parser(argparse.ArgumentParser):
    """An argument parser whose parse errors exit 64 (usage error), not
    argparse's own 2, which is the code for an insecure verdict.
    Subparsers are built from the same class; ``--help`` still exits 0."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="UPEC: unique program execution checking (DATE 2019 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="design-variant statistics")
    _add_variant(p_info)
    p_info.add_argument(
        "--geometry", choices=("formal", "sim"), default="formal",
        help="SoC geometry (default: formal — the small UPEC geometry)",
    )
    p_info.set_defaults(func=cmd_info)

    p_check = sub.add_parser("check", help="one UPEC property check")
    _add_variant(p_check)
    p_check.add_argument("--k", type=int, default=2)
    p_check.add_argument("--uncached", action="store_true",
                         help="scenario: D not in cache")
    _add_solver_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_meth = sub.add_parser("methodology", help="full Fig.-5 flow")
    _add_variant(p_meth)
    p_meth.add_argument("--k", type=int, default=2)
    p_meth.add_argument("--uncached", action="store_true")
    _add_solver_flags(p_meth)
    p_meth.set_defaults(func=cmd_methodology)

    p_sweep = sub.add_parser(
        "sweep", help="Tab.-I grid: variants x scenarios across workers"
    )
    p_sweep.add_argument("--variants", default=",".join(VARIANTS),
                         help="comma-separated design variants "
                              f"(default: {','.join(VARIANTS)})")
    p_sweep.add_argument("--k", type=int, default=2)
    p_sweep.add_argument("--scenarios",
                         choices=("cached", "uncached", "both"),
                         default="both",
                         help="which Tab.-I columns to run (default: both)")
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_att = sub.add_parser("attack", help="simulator-level attack")
    p_att.add_argument("kind", choices=("orc", "meltdown"))
    _add_variant(p_att)
    p_att.add_argument("--secret", type=_secret_byte, default="0x6B",
                       help="secret byte, 0..255 (default: 0x6B)")
    _add_output_flags(p_att)
    p_att.set_defaults(func=cmd_attack)

    p_serve = sub.add_parser(
        "serve", help="run a distributed proof-service broker"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7769,
                         help="listen port (0 picks an ephemeral port)")
    p_serve.add_argument("--http-port", type=int, default=None,
                         metavar="PORT",
                         help="also serve the HTTP/JSON job API on this "
                              "port (see 'repro submit'/'repro status')")
    p_serve.add_argument("--cache-dir", default=None,
                         help="persist the verdict memo, queue, job and "
                              "quarantine state here, so a restarted "
                              "broker resumes where it stopped")
    p_serve.add_argument("--heartbeat-timeout", type=float, default=10.0,
                         help="seconds of silence before a worker is "
                              "declared dead and its work requeued")
    p_serve.add_argument("--max-queued", type=int, default=None,
                         metavar="N",
                         help="bound the live obligation queue: past N "
                              "queued, submits get a retry-after refusal "
                              "(clients back off) and POST /jobs returns "
                              "503 (default: unbounded)")
    p_serve.set_defaults(func=cmd_serve)

    p_worker = sub.add_parser(
        "worker", help="run a proof-service worker against a broker"
    )
    p_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="broker address (see 'repro serve')")
    p_worker.add_argument("--cache-dir", default=None,
                          help="local proof cache: verdict hits skip the "
                               "solve, a solve left open (conflict limit, "
                               "wall budget, cancel) stores a warm-start "
                               "entry that lets its retry skip "
                               "preprocessing, broker gossip is written "
                               "through")
    p_worker.add_argument("--name", default="",
                          help="worker name shown in broker status")
    p_worker.add_argument("--max-retries", type=int, default=10,
                          help="reconnect attempts before giving up on "
                               "an unreachable broker")
    p_worker.set_defaults(func=cmd_worker)

    p_submit = sub.add_parser(
        "submit", help="submit a verification job to a broker's job API"
    )
    p_submit.add_argument("variant", choices=VARIANTS)
    p_submit.add_argument("--api", required=True, metavar="HOST:PORT",
                          help="broker job-API address "
                               "(see 'repro serve --http-port')")
    p_submit.add_argument("--kind", choices=("methodology", "check"),
                          default="methodology")
    p_submit.add_argument("--k", type=int, default=2)
    p_submit.add_argument("--uncached", action="store_true",
                          help="secret-not-in-cache scenario")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="scheduling priority (higher dispatches "
                               "first; FIFO within a level)")
    p_submit.add_argument("--conflict-limit", type=int, default=None)
    p_submit.add_argument("--wall-budget", type=float, default=None,
                          metavar="SECONDS",
                          help="per-obligation wall-clock budget for the "
                               "job (exhaustion yields 'timeout')")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the job finishes and print "
                               "its result")
    p_submit.add_argument("--poll-interval", type=float, default=1.0,
                          help="seconds between --wait polls")
    p_submit.add_argument("--wait-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="give up on --wait after this long (exit "
                               "69; the job keeps running broker-side "
                               "and stays queryable via 'repro status')")
    p_submit.set_defaults(func=cmd_submit)

    p_chaos = sub.add_parser(
        "chaos-proxy",
        help="seeded fault-injecting TCP proxy in front of a broker",
        description="Run a frame-aware chaos proxy: point workers and "
                    "clients at --listen instead of the broker and the "
                    "proxy injects a reproducible, seed-determined "
                    "schedule of resets, stalls, truncated/duplicated "
                    "frames and payload bit-flips.  Every rate defaults "
                    "to 0 (that fault is off).",
    )
    p_chaos.add_argument("--listen", required=True, metavar="HOST:PORT",
                         help="address to accept client/worker dials on")
    p_chaos.add_argument("--upstream", required=True, metavar="HOST:PORT",
                         help="the real broker address")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="fault-schedule seed (default: 0)")
    p_chaos.add_argument("--reset", type=float, default=0.0,
                         metavar="P", help="per-frame reset probability")
    p_chaos.add_argument("--stall", type=float, default=0.0,
                         metavar="P", help="per-frame stall probability")
    p_chaos.add_argument("--stall-max", type=float, default=0.2,
                         metavar="S",
                         help="longest injected stall (default: 0.2)")
    p_chaos.add_argument("--truncate", type=float, default=0.0,
                         metavar="P",
                         help="per-frame truncation probability")
    p_chaos.add_argument("--duplicate", type=float, default=0.0,
                         metavar="P",
                         help="per-frame duplication probability")
    p_chaos.add_argument("--bitflip", type=float, default=0.0,
                         metavar="P",
                         help="per-frame payload bit-flip probability")
    p_chaos.set_defaults(func=cmd_chaos_proxy)

    p_status = sub.add_parser(
        "status", help="query a broker's job API (/healthz or one job)"
    )
    p_status.add_argument("--api", required=True, metavar="HOST:PORT",
                          help="broker job-API address")
    p_status.add_argument("--job", default=None, metavar="ID",
                          help="show one job instead of service health")
    p_status.set_defaults(func=cmd_status)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except DistError as exc:
        print(f"distributed proof service error: {exc}", file=sys.stderr)
        return 69


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
