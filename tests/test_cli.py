"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info_command(capsys):
    assert main(["info", "orc"]) == 0
    out = capsys.readouterr().out
    assert "orc" in out
    assert "state_bits" in out
    assert "bypass" in out


def test_info_sim_geometry(capsys):
    assert main(["info", "secure", "--geometry", "sim"]) == 0
    out = capsys.readouterr().out
    assert "secure" in out


def test_check_finds_alert_on_orc(capsys):
    rc = main(["check", "orc", "--k", "2"])
    out = capsys.readouterr().out
    assert rc == 1  # P-alert exit code
    assert "P-alert" in out


def test_check_uncached_secure_proves(capsys):
    rc = main(["check", "secure", "--uncached", "--k", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "proved" in out


def test_methodology_insecure_exit_code(capsys):
    rc = main(["methodology", "orc", "--k", "2"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "insecure" in out


# ----------------------------------------------------------------------
# Exit 3: a check, methodology or sweep cell stopped short of a verdict
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_flags", [[], ["--jobs", "1"]],
                         ids=["incremental", "engine"])
def test_check_inconclusive_exits_3(engine_flags, capsys):
    rc = main(["check", "orc", "--k", "2", "--conflict-limit", "1"]
              + engine_flags)
    assert "inconclusive" in capsys.readouterr().out
    assert rc == 3  # not 0, which means "proved"


def test_methodology_undecided_exits_3(capsys):
    rc = main(["methodology", "orc", "--k", "2", "--conflict-limit", "1"])
    assert "undecided" in capsys.readouterr().out
    assert rc == 3  # not 2, which means "insecure"


def _sweep_verdicts(capsys, argv):
    import json

    rc = main(["sweep", "--scenarios", "cached", "--k", "1", "--json"]
              + argv)
    data = json.loads(capsys.readouterr().out)
    return rc, [cell["result"]["verdict"] for cell in data["cells"]]


def test_sweep_undecided_cell_exits_3(capsys):
    rc, verdicts = _sweep_verdicts(
        capsys, ["--variants", "orc", "--conflict-limit", "1"])
    assert verdicts == ["undecided"]
    assert rc == 3


def test_sweep_insecure_cell_wins_over_undecided(capsys):
    # At 150 conflicts per query the orc cell runs out of budget in its
    # refinement loop while the meltdown cell reaches its L-alert.
    rc, verdicts = _sweep_verdicts(
        capsys, ["--variants", "orc,meltdown", "--conflict-limit", "150"])
    assert verdicts == ["undecided", "insecure"]
    assert rc == 2


def test_check_and_methodology_close_their_engine(monkeypatch, capsys):
    """The engine a command builds is closed when the run ends (its
    pool, its cache's batched index), not left to the garbage
    collector."""
    from repro.engine import ProofEngine

    closed = []
    close = ProofEngine.close
    monkeypatch.setattr(ProofEngine, "close",
                        lambda self: closed.append(self) or close(self))
    assert main(["check", "orc", "--k", "1", "--jobs", "1"]) == 1
    assert main(["methodology", "meltdown", "--k", "1", "--jobs", "1"]) == 2
    assert len(closed) == 2


def test_parser_rejects_unknown_variant():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["info", "bogus"])
    assert exc.value.code == 64


def test_parser_requires_command():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 64


@pytest.mark.parametrize("argv", [
    ["methodology", "secure", "--bogus-flag"],
    ["check", "secure", "--k", "x"],
    ["attack", "orc", "secure", "--secret", "zz"],
    ["attack", "orc", "secure", "--secret", "999"],
    ["attack", "meltdown", "secure", "--secret", "-1"],
    ["methodology", "secure", "--no-preprocess"],
], ids=["unknown-flag", "non-integer-k", "non-integer-secret",
        "secret-above-255", "negative-secret", "no-preprocess"])
def test_parse_errors_exit_64_not_the_insecure_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "error:" in capsys.readouterr().err


def test_attack_secret_reads_any_base():
    parser = build_parser()
    for text in ("107", "0x6B", "0b1101011", "0o153"):
        assert parser.parse_args(
            ["attack", "orc", "secure", "--secret", text]).secret == 0x6B
    assert parser.parse_args(["attack", "orc", "secure"]).secret == 0x6B
    assert parser.parse_args(
        ["attack", "orc", "secure", "--secret", "255"]).secret == 255


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--conflict-limit" in capsys.readouterr().out


def test_solver_flags_uniform_across_sat_commands():
    """check / methodology / sweep share one solver flag set."""
    parser = build_parser()
    for argv in (
        ["check", "secure", "--stats", "--json",
         "--jobs", "2", "--cache-dir", "/tmp/c", "--conflict-limit", "9"],
        ["methodology", "secure", "--stats", "--json",
         "--jobs", "2", "--cache-dir", "/tmp/c", "--conflict-limit", "9"],
        ["sweep", "--stats", "--json",
         "--jobs", "2", "--cache-dir", "/tmp/c", "--conflict-limit", "9"],
    ):
        args = parser.parse_args(argv)
        assert args.stats and args.json
        assert args.jobs == 2 and args.cache_dir == "/tmp/c"
        assert args.conflict_limit == 9
    args = parser.parse_args(["attack", "orc", "secure", "--stats",
                              "--json"])
    assert args.stats and args.json


def test_check_json_output(capsys):
    import json

    rc = main(["check", "orc", "--k", "1", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["status"] == "alert"
    assert data["alert"]["kind"] == "P"
    assert "scenario" in data


def test_methodology_json_and_cache(tmp_path, capsys):
    import json

    cache_dir = str(tmp_path / "proofs")
    rc = main(["methodology", "orc", "--k", "1", "--json",
               "--cache-dir", cache_dir])
    first = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert first["verdict"] in ("insecure", "undecided", "secure_bounded")
    assert first["stats"]["engine_cache_hits"] == 0
    main(["methodology", "orc", "--k", "1", "--json",
          "--cache-dir", cache_dir])
    second = json.loads(capsys.readouterr().out)
    assert second["stats"]["engine_cache_hits"] > 0
    assert second["verdict"] == first["verdict"]
    assert second["p_alerts"] == first["p_alerts"]


def test_sweep_command(capsys):
    rc = main(["sweep", "--variants", "secure,orc", "--k", "1",
               "--scenarios", "cached"])
    out = capsys.readouterr().out
    assert rc == 2  # the orc bypass leaks within a single frame
    assert "secure/cached/k=1" in out
    assert "orc/cached/k=1" in out
    assert "insecure" in out


@pytest.mark.parametrize("variants", ["nope", "", ","],
                         ids=["unknown", "empty", "only-commas"])
def test_sweep_rejects_unknown_variant(variants, capsys):
    rc = main(["sweep", "--variants", variants])
    assert rc == 64


def test_attack_stats_flag(capsys):
    rc = main(["attack", "orc", "secure", "--stats"])
    out = capsys.readouterr().out
    assert rc == 0  # the secure design leaks nothing
    assert "probes" in out
    assert "no leak" in out


# ----------------------------------------------------------------------
# Usage-error fail-fast (--jobs) and distributed flags
# ----------------------------------------------------------------------
def test_sweep_jobs_zero_fails_fast(capsys):
    rc = main(["sweep", "--variants", "secure", "--k", "1", "--jobs", "0"])
    assert rc == 64
    err = capsys.readouterr().err
    assert "usage error" in err and "--jobs" in err


def test_sweep_jobs_negative_fails_fast(capsys):
    rc = main(["sweep", "--variants", "secure", "--k", "1", "--jobs", "-3"])
    assert rc == 64
    assert "--jobs" in capsys.readouterr().err


def test_check_and_methodology_reject_nonpositive_jobs(capsys):
    assert main(["check", "secure", "--jobs", "0"]) == 64
    assert main(["methodology", "secure", "--jobs", "-1"]) == 64


# A window below one frame is a usage error, not an uncaught UpecError
# (``check`` reserves exit 1 for "P-alert found").
def test_check_rejects_window_below_one(capsys):
    assert main(["check", "secure", "--k", "0"]) == 64
    assert "--k" in capsys.readouterr().err


def test_methodology_rejects_window_below_one(capsys):
    assert main(["methodology", "secure", "--k", "-1"]) == 64
    assert "--k" in capsys.readouterr().err


def test_sweep_rejects_window_below_one(capsys):
    assert main(["sweep", "--variants", "secure", "--k", "0"]) == 64
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--wall-budget", "-1"), ("--wall-budget", "0"),
    ("--wall-budget", "nan"), ("--conflict-limit", "0"),
    ("--conflict-limit", "-2"),
])
def test_budgets_must_be_positive(flag, value, capsys):
    """A negative wall budget must not silently run unbudgeted, nor a
    zero conflict limit act as a limit of one conflict."""
    for argv in (["check", "secure", "--k", "1"],
                 ["methodology", "secure", "--k", "1"],
                 ["sweep", "--variants", "secure", "--k", "1"],
                 ["submit", "secure", "--api", "127.0.0.1:1"]):
        assert main(argv + [flag, value]) == 64, argv
        assert flag in capsys.readouterr().err


def test_cache_env_is_the_cache_dir_default(monkeypatch):
    """REPRO_ENGINE_CACHE is a deployment default for --cache-dir on the
    solver-backed commands; the flag still wins."""
    monkeypatch.setenv("REPRO_ENGINE_CACHE", "/tmp/env-cache")
    parser = build_parser()
    for argv in (["check", "secure"], ["methodology", "secure"],
                 ["sweep"]):
        assert parser.parse_args(argv).cache_dir == "/tmp/env-cache"
        assert parser.parse_args(argv + ["--cache-dir", "/tmp/c"]) \
            .cache_dir == "/tmp/c"


@pytest.mark.parametrize("argv", [
    ["check", "orc", "--k", "1"],
    ["methodology", "orc", "--k", "1"],
    ["sweep", "--variants", "orc", "--k", "1"],
], ids=["check", "methodology", "sweep"])
def test_unusable_cache_dir_is_a_usage_error(argv, tmp_path, monkeypatch,
                                              capsys):
    """A cache directory under a regular file exits 64 with one line
    naming it — not a traceback exiting 1, ``check``'s P-alert code —
    whether it comes from the flag or from REPRO_ENGINE_CACHE."""
    blocker = tmp_path / "F"
    blocker.write_text("")
    bad = str(blocker / "x")
    assert main(argv + ["--cache-dir", bad]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and bad in err and "Not a directory" in err
    monkeypatch.setenv("REPRO_ENGINE_CACHE", bad)
    assert main(argv) == 64
    assert bad in capsys.readouterr().err


def test_connect_rejects_malformed_address(capsys):
    rc = main(["check", "secure", "--connect", "not-an-address"])
    assert rc == 64
    assert "HOST:PORT" in capsys.readouterr().err


def test_connect_conflicts_with_jobs(capsys):
    rc = main(["methodology", "secure", "--connect", "h:1", "--jobs", "2"])
    assert rc == 64
    assert "--connect" in capsys.readouterr().err


def test_connect_unreachable_broker_exits_69(capsys):
    rc = main(["check", "secure", "--k", "1",
               "--connect", "127.0.0.1:1"])
    assert rc == 69
    assert "cannot reach broker" in capsys.readouterr().err


def test_serve_and_worker_parsers():
    parser = build_parser()
    args = parser.parse_args(["serve", "--port", "0",
                              "--heartbeat-timeout", "2.5"])
    assert args.port == 0 and args.heartbeat_timeout == 2.5
    args = parser.parse_args(["worker", "--connect", "h:1",
                              "--cache-dir", "/tmp/c", "--name", "w9"])
    assert args.connect == "h:1" and args.name == "w9"
    with pytest.raises(SystemExit):
        parser.parse_args(["worker"])  # --connect is required


def test_connect_flag_uniform_across_sat_commands():
    parser = build_parser()
    for argv in (
        ["check", "secure", "--connect", "h:1"],
        ["methodology", "secure", "--connect", "h:1"],
        ["sweep", "--connect", "h:1"],
    ):
        assert parser.parse_args(argv).connect == "h:1"


def test_explicit_jobs_overrides_env_connect(monkeypatch):
    """REPRO_ENGINE_CONNECT is a default, not a mandate: an explicit
    --jobs routes back to the local pool instead of erroring (or
    touching the unreachable broker address)."""
    monkeypatch.setenv("REPRO_ENGINE_CONNECT", "127.0.0.1:1")
    rc = main(["check", "secure", "--uncached", "--k", "1", "--jobs", "1"])
    assert rc == 0  # solved locally; the dead broker was never dialed


def test_explicit_connect_with_jobs_still_errors(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_ENGINE_CONNECT", raising=False)
    rc = main(["check", "secure", "--connect", "h:1", "--jobs", "2"])
    assert rc == 64
    assert "--connect" in capsys.readouterr().err


def test_serve_port_in_use_exits_69(capsys):
    import socket

    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    try:
        rc = main(["serve", "--port", str(port)])
    finally:
        blocker.close()
    assert rc == 69
    assert "cannot listen" in capsys.readouterr().err


def test_connect_port_out_of_range_is_usage_error(capsys):
    rc = main(["check", "secure", "--connect", "127.0.0.1:99999"])
    assert rc == 64
    assert "port out of range" in capsys.readouterr().err


def test_serve_rejects_flappy_heartbeat_timeout(capsys):
    rc = main(["serve", "--port", "0", "--heartbeat-timeout", "0.5"])
    assert rc == 64
    assert "heartbeat" in capsys.readouterr().err


def test_serve_cache_dir_alone_makes_the_broker_durable(monkeypatch,
                                                        tmp_path, capsys):
    """`serve --cache-dir DIR` hands DIR to the broker: a cache
    directory is all it takes to make the broker durable."""
    import time

    import repro.dist.broker as broker_mod

    made = {}

    class FakeBroker:
        heartbeat_timeout = 10.0
        address = "127.0.0.1:7769"
        host = "127.0.0.1"
        http_port = None

        def __init__(self, **kwargs):
            made.update(kwargs)
            self.durable = kwargs.get("cache_dir") is not None

        def start(self):
            return self

        def stop(self):
            made["stopped"] = True

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(broker_mod, "Broker", FakeBroker)
    monkeypatch.setattr(time, "sleep", interrupt)
    cache_dir = str(tmp_path / "broker")
    assert main(["serve", "--port", "0", "--cache-dir", cache_dir]) == 0
    assert made["cache_dir"] == cache_dir and made["stopped"]
    assert f"durable state in {cache_dir}" in capsys.readouterr().out

