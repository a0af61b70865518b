"""Counterexample diagnosis: locate the hardware carrying a covert channel.

UPEC's selling point over attack-centric analyses is that a counterexample
*points the designer to the HW components that may be involved in the
creation of a covert channel* (Sec. I).  This module turns an alert into:

* the **propagation chain** — which registers carried a difference at each
  cycle of the witness, annotated with the structural one-cycle dependency
  that fed each newly-differing register, and
* a **suspect set** — the microarchitectural registers on any structural
  path from the secret to the first architectural divergence in the
  sequential dependency graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.core.alerts import Alert
from repro.hdl.analysis import sequential_fanin_map
from repro.hdl.circuit import Circuit
from repro.hdl.expr import Reg


@dataclass
class PropagationStep:
    """Differences appearing at one cycle of the witness."""

    frame: int
    new_regs: List[str]
    carried_regs: List[str]
    feeders: Dict[str, List[str]] = field(default_factory=dict)


@dataclass
class Diagnosis:
    """A structured explanation of an alert."""

    alert: Alert
    steps: List[PropagationStep]
    suspects: List[str]

    def render(self) -> str:
        lines = [f"diagnosis of {self.alert.describe()}"]
        for step in self.steps:
            if not step.new_regs and not step.carried_regs:
                continue
            lines.append(f"  cycle t+{step.frame}:")
            for name in step.new_regs:
                feeders = step.feeders.get(name, [])
                via = f"  (fed by {', '.join(feeders)})" if feeders else ""
                lines.append(f"    + {name}{via}")
            if step.carried_regs:
                lines.append(
                    "    = still differing: " + ", ".join(step.carried_regs)
                )
        lines.append("  suspect components: " + ", ".join(self.suspects))
        return "\n".join(lines)


def dependency_graph(circuit: Circuit) -> Dict[str, Set[str]]:
    """The one-cycle register dependency graph as an adjacency map:
    ``graph[a]`` holds every register that ``a`` feeds."""
    fanin = sequential_fanin_map(circuit)
    graph: Dict[str, Set[str]] = {reg.name: set() for reg in fanin}
    for reg, deps in fanin.items():
        for dep in deps:
            graph.setdefault(dep.name, set()).add(reg.name)
    return graph


def simple_paths(graph: Dict[str, Set[str]], source: str, target: str,
                 cutoff: int) -> Iterator[List[str]]:
    """Every path from ``source`` to ``target`` with no repeated register
    and at most ``cutoff`` edges, depth first; ``source == target`` gives
    the one-node path ``[source]`` alone."""
    if source == target:
        if cutoff >= 0:
            yield [source]
        return
    if cutoff < 1:
        return
    path = [source]
    stack = [iter(graph[source])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            path.pop()
        elif node == target:
            yield path + [node]
        elif len(path) < cutoff and node not in path:
            path.append(node)
            stack.append(iter(graph[node]))


def _diff_sets(alert: Alert) -> List[Set[str]]:
    sets: List[Set[str]] = []
    for frame in alert.witness:
        sets.append({
            name for name, (v1, v2) in frame.items() if v1 != v2
        })
    return sets


def diagnose(circuit: Circuit, alert: Alert,
             sources: Optional[List[Reg]] = None) -> Diagnosis:
    """Explain an alert over its witness.

    ``sources`` (default: the registers differing at frame 0) anchor the
    suspect-path computation.
    """
    if not alert.witness:
        return Diagnosis(alert=alert, steps=[], suspects=[])
    graph = dependency_graph(circuit)
    diff_sets = _diff_sets(alert)
    steps: List[PropagationStep] = []
    for frame in range(1, len(diff_sets)):
        previous, current = diff_sets[frame - 1], diff_sets[frame]
        new = sorted(current - previous)
        carried = sorted(current & previous)
        feeders = {}
        for name in new:
            feeders[name] = sorted(
                dep for dep in previous if name in graph.get(dep, ())
            )
        steps.append(PropagationStep(
            frame=frame, new_regs=new, carried_regs=carried,
            feeders=feeders,
        ))

    source_names = (
        [r.name for r in sources] if sources else sorted(diff_sets[0])
    )
    target_names = sorted(
        {reg.name for reg, _, _ in alert.diffs}
    )
    suspects: Set[str] = set()
    for src in source_names:
        for dst in target_names:
            if src in graph and dst in graph:
                for path in simple_paths(
                    graph, src, dst, cutoff=len(alert.witness)
                ):
                    suspects.update(path)
    # Only registers that actually differed somewhere are suspects.
    observed = set().union(*diff_sets) if diff_sets else set()
    suspects &= observed
    return Diagnosis(
        alert=alert, steps=steps, suspects=sorted(suspects),
    )
