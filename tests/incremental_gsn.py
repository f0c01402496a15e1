"""The incremental GSN builder that ``gsn._assemble`` replaced, kept as a
differential oracle.

Every insert copies and re-sorts the whole node or edge tuple, scans the
nodes for ids, and checks each supportedBy edge for a cycle with its own
depth-first search over a freshly built child map. That is quadratic or
worse, but each rule is checked in the most direct way, one item at a
time, so the one-pass assembly must agree with it on every input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from euaia_assurance.gsn import (
    LEGAL_EDGES,
    GsnArgument,
    GsnEdge,
    GsnError,
    GsnNode,
    GsnParseError,
    GsnRelation,
    _scan_gsn,
)
from euaia_assurance.triples import Iri


def _node_key(node: GsnNode) -> tuple[int, int]:
    return node.sort_key


def _edge_key(edge: GsnEdge) -> str:
    return f"edge {edge.source} -> {edge.target} {edge.relation.value}"


@dataclass(frozen=True)
class IncrementalArgument:
    nodes: tuple[GsnNode, ...] = ()
    edges: tuple[GsnEdge, ...] = ()

    def node(self, node_id: str) -> GsnNode:
        for node in self.nodes:
            if node.id == node_id:
                return node
        raise KeyError(f"no node {node_id!r}")

    def has_node(self, node_id: str) -> bool:
        return any(node.id == node_id for node in self.nodes)

    def add_node(self, node: GsnNode) -> "IncrementalArgument":
        if self.has_node(node.id):
            raise GsnError(f"duplicate node id {node.id!r}")
        return replace(self, nodes=tuple(sorted(self.nodes + (node,), key=_node_key)))

    def add_edge(self, edge: GsnEdge) -> "IncrementalArgument":
        if edge in self.edges:
            return self
        for endpoint in (edge.source, edge.target):
            if not self.has_node(endpoint):
                raise GsnError(f"edge endpoint {endpoint!r} is not a declared node")
        pair = (self.node(edge.source).kind, self.node(edge.target).kind)
        if pair not in LEGAL_EDGES[edge.relation]:
            raise GsnError(
                f"{edge.relation.value} may not connect {pair[0].value} to {pair[1].value}"
            )
        if edge.relation is GsnRelation.SUPPORTED_BY and self._would_cycle(edge):
            raise GsnError(f"edge {edge.source} -> {edge.target} would create a supportedBy cycle")
        return replace(self, edges=tuple(sorted(self.edges + (edge,), key=_edge_key)))

    def _would_cycle(self, edge: GsnEdge) -> bool:
        children: dict[str, list[str]] = {}
        for existing in self.edges:
            if existing.relation is GsnRelation.SUPPORTED_BY:
                children.setdefault(existing.source, []).append(existing.target)
        stack, seen = [edge.target], set()
        while stack:
            current = stack.pop()
            if current == edge.source:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(children.get(current, ()))
        return False


def parse_gsn_incrementally(text: str) -> GsnArgument:
    """``parse_gsn`` with the assembly done one insert at a time."""
    node_lines, edge_lines, duty_line = _scan_gsn(text)
    argument = IncrementalArgument()
    for lineno, node in node_lines:
        try:
            argument = argument.add_node(node)
        except GsnError as exc:
            raise GsnParseError(str(exc), lineno) from None
    for lineno, edge in edge_lines:
        try:
            argument = argument.add_edge(edge)
        except GsnError as exc:
            raise GsnParseError(str(exc), lineno) from None
    duty_link = None
    if duty_line is not None:
        try:
            Iri.parse(duty_line[1])
        except ValueError as exc:
            raise GsnParseError(str(exc), duty_line[0]) from None
        duty_link = duty_line[1]
    # built past the constructor, whose checks are what this oracle tests
    return tuple.__new__(GsnArgument, (argument.nodes, argument.edges, duty_link))
