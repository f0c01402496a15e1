"""The ``_view``-based coverage report, open-counterclaim rule and causal
trace that ``coverage`` replaced, kept as a differential oracle, plus a
naive fixed-point reachability for supportedBy trees of any depth.

The old code scans every triple of the store into its own graph view and
asks ``Store.match`` for the rest. It keeps one type per node (the last
in the store's iteration order) and stops the coverage search at
``MAX_PATH_DEPTH`` supportedBy hops. On stores with at most one type per
node and no node further than ``MAX_PATH_DEPTH`` hops below a goal, the
replacement must give equal results. With ``subtree=fixed_point_subtree``
the oracle's report has no depth limit, which the replacement must match
on arguments of any depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from euaia_assurance import vocab
from euaia_assurance.coverage import CausalTrace, CoverageError, CoverageStatus, DutyStatus
from euaia_assurance.duties import DutyRegistry
from euaia_assurance.triples import Iri, Store, Triple, TriplePattern, Variable, serialize_triple

# The replaced coverage search and causal trace both stopped this many
# supportedBy hops from where they started.
MAX_PATH_DEPTH = 12


@dataclass(frozen=True)
class GraphView:
    children: dict[Iri, list[Iri]]
    parents: dict[Iri, list[Iri]]
    kinds: dict[Iri, Iri]
    evidenced: set[Iri]
    operationalized_by: dict[Iri, list[Iri]]


def view(store: Store) -> GraphView:
    children: dict[Iri, list[Iri]] = {}
    parents: dict[Iri, list[Iri]] = {}
    kinds: dict[Iri, Iri] = {}
    evidenced: set[Iri] = set()
    operationalized_by: dict[Iri, list[Iri]] = {}
    for triple in store.triples:
        subject, predicate, obj = triple.subject, triple.predicate, triple.object
        if predicate == vocab.GSN_SUPPORTED_BY and isinstance(obj, Iri):
            children.setdefault(subject, []).append(obj)
            parents.setdefault(obj, []).append(subject)
        elif predicate == vocab.RDF_TYPE and isinstance(obj, Iri):
            kinds[subject] = obj
        elif predicate == vocab.EVIDENCED_BY:
            evidenced.add(subject)
        elif predicate == vocab.OPERATIONALIZES and isinstance(obj, Iri):
            operationalized_by.setdefault(obj, []).append(subject)
    return GraphView(children, parents, kinds, evidenced, operationalized_by)


def open_counterclaims(store: Store) -> list[tuple[Iri, Iri]]:
    rebutted = {b["c"] for b in store.match(TriplePattern(Variable("c"), vocab.REBUTTED_BY, Variable("r")))}
    challenges = store.match(TriplePattern(Variable("c"), vocab.GSN_CHALLENGES, Variable("n")))
    return sorted(
        ((b["c"], b["n"]) for b in challenges if b["c"] not in rebutted and isinstance(b["n"], Iri)),
        key=lambda pair: (pair[0].curie, pair[1].curie),
    )


def capped_subtree(children: dict[Iri, list[Iri]], root: Iri) -> set[Iri]:
    """The nodes at most ``MAX_PATH_DEPTH`` supportedBy hops below ``root``."""
    seen = {root}
    frontier = [root]
    for _ in range(MAX_PATH_DEPTH):
        nxt: list[Iri] = []
        for node in frontier:
            for child in children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        if not nxt:
            break
        frontier = nxt
    return seen


def fixed_point_subtree(children: dict[Iri, list[Iri]], root: Iri) -> set[Iri]:
    """Every node below ``root``: add each edge's target whose source is in the
    set, until a pass over all edges adds nothing.
    """
    edges = [(parent, child) for parent, kids in children.items() for child in kids]
    reached = {root}
    grown = True
    while grown:
        grown = False
        for parent, child in edges:
            if parent in reached and child not in reached:
                reached.add(child)
                grown = True
    return reached


def coverage_report(
    store: Store,
    registry: DutyRegistry,
    subtree: Callable[[dict[Iri, list[Iri]], Iri], set[Iri]] = capped_subtree,
) -> list[DutyStatus]:
    for duty in registry.duties:
        if Triple(vocab.duty_iri(duty.id), vocab.RDF_TYPE, vocab.DUTY) not in store:
            raise CoverageError(
                f"store is missing the registry triples (duty {duty.id}); assert them first"
            )
    graph = view(store)
    open_by_node: dict[Iri, list[Iri]] = {}
    for counterclaim, node in open_counterclaims(store):
        open_by_node.setdefault(node, []).append(counterclaim)
    report: list[DutyStatus] = []
    for duty in registry.duties:
        goals = graph.operationalized_by.get(vocab.duty_iri(duty.id), [])
        solutions: set[Iri] = set()
        challengers: set[Iri] = set()
        has_undeveloped = False
        for goal in goals:
            for node in subtree(graph.children, goal):
                kind = graph.kinds.get(node)
                if kind == Iri("gsn", "Solution") and node in graph.evidenced:
                    solutions.add(node)
                if kind in (Iri("gsn", "Goal"), Iri("gsn", "Strategy")) and not graph.children.get(node):
                    has_undeveloped = True
                challengers.update(open_by_node.get(node, ()))
        if goals and solutions:
            status = CoverageStatus.CONTESTED if challengers else CoverageStatus.COVERED
        elif goals and has_undeveloped:
            status = CoverageStatus.PARTIAL
        else:
            status = CoverageStatus.UNCOVERED
        report.append(
            DutyStatus(
                duty_id=duty.id,
                status=status,
                supporting_solutions=tuple(sorted(s.curie for s in solutions)),
                counterclaims=tuple(sorted(c.curie for c in challengers)),
            )
        )
    return report


def causal_trace(store: Store, attack: Iri) -> list[CausalTrace]:
    if not any(attack in (t.subject, t.predicate, t.object) for t in store.triples):
        raise CoverageError(f"attack {attack.curie} does not appear in the store")
    graph = view(store)

    defenses: dict[Iri, Triple] = {}
    for binding in store.match(TriplePattern(Variable("d"), vocab.MITIGATES, attack)):
        defense = binding["d"]
        if isinstance(defense, Iri):
            defenses[defense] = Triple(defense, vocab.MITIGATES, attack)
    for binding in store.match(TriplePattern(attack, vocab.MITIGATED_BY, Variable("d"))):
        defense = binding["d"]
        if isinstance(defense, Iri):
            defenses[defense] = Triple(attack, vocab.MITIGATED_BY, defense)

    traces: list[CausalTrace] = []
    for defense in sorted(defenses, key=lambda i: i.curie):
        first_hop = defenses[defense]
        for binding in store.match(TriplePattern(Variable("s"), vocab.EVIDENCED_BY, defense)):
            solution = binding["s"]
            if not isinstance(solution, Iri):
                continue
            evidence_hop = Triple(solution, vocab.EVIDENCED_BY, defense)
            _climb(store, graph, solution, (first_hop, evidence_hop), {solution}, traces)
    traces.sort(key=lambda trace: [serialize_triple(h) for h in trace.hops])
    return traces


def _climb(
    store: Store,
    graph: GraphView,
    node: Iri,
    prefix: tuple[Triple, ...],
    visited: set[Iri],
    traces: list[CausalTrace],
) -> None:
    for binding in store.match(TriplePattern(node, vocab.OPERATIONALIZES, Variable("duty"))):
        traces.append(CausalTrace(prefix + (Triple(node, vocab.OPERATIONALIZES, binding["duty"]),)))
    if len(prefix) - 2 >= MAX_PATH_DEPTH:
        return
    for parent in sorted(graph.parents.get(node, ()), key=lambda i: i.curie):
        if parent in visited:
            continue
        hop = Triple(parent, vocab.GSN_SUPPORTED_BY, node)
        _climb(store, graph, parent, prefix + (hop,), visited | {parent}, traces)
