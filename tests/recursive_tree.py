"""The recursive argument tree of the factsheet that ``factsheet._argument_tree``
replaced with an explicit stack, kept as a differential oracle.

``describe`` prints a node and then calls itself for each sorted child, so
it runs out of call stack on a deep enough argument. Wherever it finishes,
the stack walk must give the same lines in the same order.
"""

from __future__ import annotations

from euaia_assurance import vocab
from euaia_assurance.factsheet import _one_line
from euaia_assurance.gsn import GsnArgument, GsnNodeKind, GsnRelation
from euaia_assurance.triples import Iri, Store


def argument_tree(argument: GsnArgument, store: Store, counterclaims: list[tuple[Iri, Iri]]) -> list[str]:
    attachments: dict[str, list[str]] = {}
    for edge in argument.edges:
        if edge.relation is GsnRelation.IN_CONTEXT_OF:
            attachments.setdefault(edge.source, []).append(edge.target)
    challenges: dict[Iri, list[str]] = {}
    for counterclaim, node in counterclaims:
        challenges.setdefault(node, []).append(counterclaim.curie.removeprefix("gsn:"))
    evidence: dict[Iri, list[str]] = {}
    for t in store._index(None, 1).get(vocab.EVIDENCED_BY, ()):
        text = t.object.curie if isinstance(t.object, Iri) else _one_line(t.object.text)
        evidence.setdefault(t.subject, []).append(text)

    out: list[str] = []

    def describe(node_id: str, depth: int) -> None:
        node = argument.node(node_id)
        indent = "  " * depth
        line = f"{indent}{node.id} ({node.kind.value}) {_one_line(node.statement)}"
        if node.undeveloped:
            line += " [undeveloped]"
        if node.kind is GsnNodeKind.SOLUTION:
            found = sorted(evidence.get(vocab.gsn_node_iri(node.id), ()))
            if found:
                line += f" [evidence: {', '.join(found)}]"
        for challenger in sorted(challenges.get(vocab.gsn_node_iri(node.id), ())):
            line += f" [challenged by {challenger}]"
        out.append(line)
        for attached in sorted(attachments.get(node.id, ())):
            attached_node = argument.node(attached)
            out.append(f"{indent}  [{attached_node.kind.value} {attached}] {_one_line(attached_node.statement)}")
        for child in sorted(argument.supported_children(node.id)):
            describe(child, depth + 1)

    for root in argument.root_goals():
        describe(root.id, 0)
    return out
