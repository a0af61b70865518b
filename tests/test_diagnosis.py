"""Tests for counterexample diagnosis."""

import random

import pytest

from repro.core import UpecChecker, UpecModel, UpecScenario
from repro.core.alerts import Alert, P_ALERT
from repro.core.diagnosis import dependency_graph, diagnose, simple_paths
from repro.hdl.analysis import sequential_cone, sequential_fanin_map
from repro.soc import SocConfig, build_soc
from repro.soc.config import FORMAL_CONFIG_KWARGS

SOC = build_soc(SocConfig.orc(**FORMAL_CONFIG_KWARGS))


def test_dependency_graph_structure():
    graph = dependency_graph(SOC.circuit)
    assert "resp_buf" in graph
    # The response buffer is fed by the cache data array.
    assert any(
        "resp_buf" in graph[f"dc_data[{i}]"]
        for i in range(SOC.config.cache_lines)
    )
    # And memory feeds the cache data through refills: the secret lies in
    # the sequential cone of resp_buf, and every one-cycle edge of that
    # cone is an edge of the graph, so the graph holds a path.
    cone = sequential_cone(SOC.circuit, [SOC.circuit.regs["resp_buf"]])
    assert SOC.secret_mem_reg in cone
    fanin = sequential_fanin_map(SOC.circuit)
    for reg in cone:
        for dep in fanin[reg]:
            assert reg.name in graph[dep.name], (dep.name, reg.name)


def test_diagnose_real_alert():
    model = UpecModel(SOC, UpecScenario(secret_in_cache=True))
    result = UpecChecker(model).check(k=2)
    alert = result.alert
    diagnosis = diagnose(SOC.circuit, alert)
    text = diagnosis.render()
    assert "diagnosis" in text
    assert "resp_buf" in diagnosis.suspects or "resp_buf" in text
    # The source (the cached secret) appears in the suspects, since it
    # differs at frame 0 and feeds the alerting register.
    assert any(s.startswith("dc_data") or s.startswith("dmem")
               for s in diagnosis.suspects)


@pytest.mark.parametrize("variant", ["orc", "meltdown"])
def test_diagnose_suspects_are_pinned(variant):
    soc = SOC if variant == "orc" else \
        build_soc(SocConfig.meltdown(**FORMAL_CONFIG_KWARGS))
    model = UpecModel(soc, UpecScenario(secret_in_cache=True))
    alert = UpecChecker(model).check(k=2).alert
    assert diagnose(soc.circuit, alert).suspects == \
        ["dc_data[0]", "exmem_result", "resp_buf"]


def test_diagnose_steps_track_new_diffs():
    model = UpecModel(SOC, UpecScenario(secret_in_cache=True))
    result = UpecChecker(model).check(k=2)
    diagnosis = diagnose(SOC.circuit, result.alert)
    assert diagnosis.steps
    first = diagnosis.steps[result.alert.frame - 1]
    assert any(
        name in first.new_regs for name in result.alert.diff_reg_names()
    )
    # Every newly differing register names at least one differing feeder
    # (differences cannot appear from nowhere).
    for step in diagnosis.steps:
        for name in step.new_regs:
            assert step.feeders.get(name), (step.frame, name)


def test_diagnose_empty_witness():
    alert = Alert(kind=P_ALERT, frame=1, diffs=[])
    diagnosis = diagnose(SOC.circuit, alert)
    assert diagnosis.steps == []
    assert diagnosis.suspects == []


def paths(graph, source, target, cutoff):
    return sorted(simple_paths(graph, source, target, cutoff))


def test_simple_paths_hand_written_cases():
    # a -> b -> c -> a is a cycle; a -> c is a shortcut; a and d loop on
    # themselves; e is fed by no one.
    graph = {"a": {"a", "b", "c"}, "b": {"c"}, "c": {"a"}, "d": {"d"},
             "e": {"a"}}
    # src == dst: the one-node path alone, never a trip round a cycle or a
    # self-loop, for any cutoff from 0 up.
    for cutoff in range(4):
        assert paths(graph, "a", "a", cutoff) == [["a"]]
        assert paths(graph, "d", "d", cutoff) == [["d"]]
    assert paths(graph, "a", "a", -1) == []
    # Around the cycle, no node repeats.
    assert paths(graph, "b", "a", 5) == [["b", "c", "a"]]
    assert paths(graph, "a", "c", 5) == [["a", "b", "c"], ["a", "c"]]
    # A cutoff of one edge excludes the two-edge path, and 0 excludes all.
    assert paths(graph, "a", "c", 1) == [["a", "c"]]
    assert paths(graph, "a", "c", 0) == []
    assert paths(graph, "e", "c", 2) == [["e", "a", "c"]]
    # Unreachable pairs.
    assert paths(graph, "a", "e", 5) == []
    assert paths(graph, "a", "d", 5) == []


def random_digraph(rng, nodes, density):
    graph = {node: set() for node in range(nodes)}
    for src in range(nodes):
        for dst in range(nodes):
            if rng.random() < density:
                graph[src].add(dst)  # src == dst makes a self-loop
    return graph


def test_simple_paths_match_networkx():
    # networkx 3.3 is the first release whose all_simple_paths yields the
    # one-node path [src] for src == dst; older ones yield nothing.
    nx = pytest.importorskip("networkx", minversion="3.3")
    rng = random.Random(20190325)
    self_loops = 0
    for _ in range(60):
        graph = random_digraph(rng, rng.randint(1, 8), rng.random() * 0.6)
        self_loops += sum(node in graph[node] for node in graph)
        reference = nx.DiGraph()
        reference.add_nodes_from(graph)
        reference.add_edges_from(
            (src, dst) for src in graph for dst in graph[src])
        for cutoff in range(1, 5):
            for src in graph:
                for dst in graph:
                    expected = sorted(
                        nx.all_simple_paths(reference, src, dst, cutoff))
                    assert paths(graph, src, dst, cutoff) == expected, (
                        graph, src, dst, cutoff)
    assert self_loops
