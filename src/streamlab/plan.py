"""Execution plan DAGs and their line-oriented textual dump.

A plan is only dumped, never read back. Dump format (byte-deterministic
for fixed inputs):

    node <index> <name> parallelism=<p>
    edge <from-index> <to-index>

Node indices are topological order. Annotated nodes (micro-batch plans)
render the annotation inside the name token as ``<name>[<annotation>]``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PlanNode:
    name: str
    parallelism: int
    annotation: str | None = None


@dataclass(frozen=True)
class ExecutionPlan:
    nodes: tuple[PlanNode, ...]
    edges: tuple[tuple[int, int], ...]


def plan_from_topology(topology, parallelism: int, annotation: str | None = None) -> ExecutionPlan:
    names = topology.node_names()
    nodes = tuple(PlanNode(name, parallelism, annotation) for name in names)
    edges = tuple((i, i + 1) for i in range(len(names) - 1))
    return ExecutionPlan(nodes, edges)


def plan_to_text(plan: ExecutionPlan) -> str:
    lines = []
    for i, node in enumerate(plan.nodes):
        name = node.name if node.annotation is None else f"{node.name}[{node.annotation}]"
        lines.append(f"node {i} {name} parallelism={node.parallelism}")
    for src, dst in plan.edges:
        lines.append(f"edge {src} {dst}")
    return "\n".join(lines) + "\n"

