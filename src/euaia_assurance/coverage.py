"""Duty coverage analysis and causal traces over an assembled store.

Coverage asks, per duty: does some goal operationalize it, and does a
supportedBy path from that goal reach a solution backed by evidence?
Path existence is monotone, so asserting more triples can never demote a
covered duty to uncovered; it can only surface a challenge (contested).

A causal trace walks an attack to the duty it ultimately bears on:
attack, mitigating defense, evidencing solution, supporting goals, duty.
Every hop in a trace is a triple literally present in the store, so an
auditor can verify the chain statement by statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import vocab
from .duties import DutyRegistry
from .triples import Iri, Store, Term, Triple, TriplePattern, Variable, serialize_triple

# Searches over supportedBy chains stop at this depth; arguments in
# practice are far shallower.
MAX_PATH_DEPTH = 12


class CoverageError(ValueError):
    """The store is missing triples the analysis depends on."""


class CoverageStatus(Enum):
    COVERED = "covered"
    PARTIAL = "partial"
    UNCOVERED = "uncovered"
    CONTESTED = "contested"


@dataclass(frozen=True)
class DutyStatus:
    duty_id: int
    status: CoverageStatus
    supporting_solutions: tuple[str, ...]
    counterclaims: tuple[str, ...]


@dataclass(frozen=True)
class CausalTrace:
    """An attack-to-duty chain whose hops are verbatim store triples."""

    hops: tuple[Triple, ...]

    @property
    def duty(self) -> Term:
        return self.hops[-1].object


@dataclass(frozen=True)
class _GraphView:
    """Indexes over the argument-and-evidence triples of one store."""

    children: dict[Iri, list[Iri]]
    parents: dict[Iri, list[Iri]]
    kinds: dict[Iri, Iri]
    evidenced: set[Iri]
    operationalized_by: dict[Iri, list[Iri]]


def _view(store: Store) -> _GraphView:
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
    return _GraphView(
        children=children,
        parents=parents,
        kinds=kinds,
        evidenced=evidenced,
        operationalized_by=operationalized_by,
    )


def open_counterclaims(store: Store) -> list[tuple[Iri, Iri]]:
    """The (counterclaim, challenged node) pair of every ``gsn:challenges`` triple
    whose counterclaim has no ``assures:rebuttedBy`` triple, sorted. The coverage
    report contests duties over these pairs and the factsheet lists them.
    """
    rebutted = {b["c"] for b in store.match(TriplePattern(Variable("c"), vocab.REBUTTED_BY, Variable("r")))}
    challenges = store.match(TriplePattern(Variable("c"), vocab.GSN_CHALLENGES, Variable("n")))
    return sorted(
        ((b["c"], b["n"]) for b in challenges if b["c"] not in rebutted and isinstance(b["n"], Iri)),
        key=lambda pair: (pair[0].curie, pair[1].curie),
    )


def _subtree(view: _GraphView, root: Iri) -> set[Iri]:
    seen = {root}
    frontier = [root]
    for _ in range(MAX_PATH_DEPTH):
        nxt: list[Iri] = []
        for node in frontier:
            for child in view.children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        if not nxt:
            break
        frontier = nxt
    return seen


def coverage_report(store: Store, registry: DutyRegistry) -> list[DutyStatus]:
    """One status per duty, ascending by id.

    covered: a supportedBy path from an operationalizing goal reaches a
    solution that has evidence. contested: covered, but an unresolved
    counterclaim challenges a node of the argument subtree. partial: no
    such path yet, but the subtree has an undeveloped branch point (a goal
    or strategy with no support). uncovered: everything else, including
    duties nothing operationalizes.
    """
    for duty in registry.duties:
        if Triple(vocab.duty_iri(duty.id), vocab.RDF_TYPE, vocab.DUTY) not in store:
            raise CoverageError(
                f"store is missing the registry triples (duty {duty.id}); assert them first"
            )
    view = _view(store)
    open_by_node: dict[Iri, list[Iri]] = {}
    for counterclaim, node in open_counterclaims(store):
        open_by_node.setdefault(node, []).append(counterclaim)
    report: list[DutyStatus] = []
    for duty in registry.duties:
        goals = view.operationalized_by.get(vocab.duty_iri(duty.id), [])
        solutions: set[Iri] = set()
        challengers: set[Iri] = set()
        has_undeveloped = False
        for goal in goals:
            subtree = _subtree(view, goal)
            for node in subtree:
                kind = view.kinds.get(node)
                if kind == Iri("gsn", "Solution") and node in view.evidenced:
                    solutions.add(node)
                if kind in (Iri("gsn", "Goal"), Iri("gsn", "Strategy")) and not view.children.get(node):
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


def coverage_to_tsv(report: list[DutyStatus]) -> str:
    """TSV export: dutyId, status, solutions, counterclaims."""
    lines = ["duty\tstatus\tsolutions\tcounterclaims"]
    for status in report:
        lines.append(
            f"{status.duty_id}\t{status.status.value}\t"
            f"{','.join(status.supporting_solutions)}\t{','.join(status.counterclaims)}"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# causal traces

def _mentions(store: Store, term: Iri) -> bool:
    return any(
        term in (t.subject, t.predicate, t.object) for t in store.triples
    )


def causal_trace(store: Store, attack: Iri) -> list[CausalTrace]:
    """All attack-to-duty chains for the given attack.

    Chains run attack, defense (via mitigates or its asserted inverse),
    solution (via evidencedBy), upward through supportedBy to each goal
    that operationalizes a duty. Paths are simple and bounded at
    :data:`MAX_PATH_DEPTH` supportedBy hops. Hops are store triples; when
    the inverse ``mitigatedBy`` triple is asserted it is preferred so the
    first hop's subject is the attack itself.
    """
    if not _mentions(store, attack):
        raise CoverageError(f"attack {attack.curie} does not appear in the store")
    view = _view(store)

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
            _climb(
                store,
                view,
                node=solution,
                prefix=(first_hop, evidence_hop),
                visited={solution},
                traces=traces,
            )
    traces.sort(key=lambda trace: [serialize_triple(h) for h in trace.hops])
    return traces


def _climb(
    store: Store,
    view: _GraphView,
    node: Iri,
    prefix: tuple[Triple, ...],
    visited: set[Iri],
    traces: list[CausalTrace],
) -> None:
    for binding in store.match(TriplePattern(node, vocab.OPERATIONALIZES, Variable("duty"))):
        duty = binding["duty"]
        traces.append(CausalTrace(prefix + (Triple(node, vocab.OPERATIONALIZES, duty),)))
    if len(prefix) - 2 >= MAX_PATH_DEPTH:
        return
    for parent in sorted(view.parents.get(node, ()), key=lambda i: i.curie):
        if parent in visited:
            continue
        hop = Triple(parent, vocab.GSN_SUPPORTED_BY, node)
        _climb(store, view, parent, prefix + (hop,), visited | {parent}, traces)
