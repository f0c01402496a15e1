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

from enum import Enum
from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import vocab
from .triples import Iri, Store, Term, Triple, serialize_triple

if TYPE_CHECKING:
    from .duties import DutyRegistry


class CoverageError(ValueError):
    """The store is missing triples the analysis depends on."""


class CoverageStatus(Enum):
    COVERED = "covered"
    PARTIAL = "partial"
    UNCOVERED = "uncovered"
    CONTESTED = "contested"


class DutyStatus(NamedTuple):
    duty_id: int
    status: CoverageStatus
    supporting_solutions: tuple[str, ...]
    counterclaims: tuple[str, ...]


class CausalTrace(NamedTuple):
    """An attack-to-duty chain whose hops are verbatim store triples."""

    hops: tuple[Triple, ...]

    @property
    def duty(self) -> Term:
        return self.hops[-1].object


def open_counterclaims(store: Store) -> list[tuple[Iri, Iri]]:
    """The (counterclaim, challenged node) pair of every ``gsn:challenges`` triple
    whose counterclaim has no ``assures:rebuttedBy`` triple, sorted. The coverage
    report contests duties over these pairs and the factsheet lists them.
    """
    rebutted = store._index(vocab.REBUTTED_BY, 0)
    return sorted(
        (
            (t.subject, t.object)
            for t in store._index(None, 1).get(vocab.GSN_CHALLENGES, ())
            if t.subject not in rebutted and isinstance(t.object, Iri)
        ),
        key=lambda pair: (pair[0].curie, pair[1].curie),
    )


def _subtree(children: dict[Term, list[Triple]], roots: Iterable[Iri]) -> set[Iri]:
    """Every node on a supportedBy path down from one of the roots, the roots included.
    ``children`` holds the supportedBy triples by subject."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for hop in children.get(stack.pop(), ()):
            child = hop.object
            if child not in seen and isinstance(child, Iri):
                seen.add(child)
                stack.append(child)
    return seen


def _develops(children: dict[Term, list[Triple]], node: Iri) -> bool:
    """Whether a supportedBy triple leads from the node to a node: one to a literal develops nothing."""
    return any(isinstance(hop.object, Iri) for hop in children.get(node, ()))


def _evidenced_solutions(store: Store) -> set[Iri]:
    """What holds evidence, for coverage and traces alike: each node typed
    ``gsn:Solution`` that is the subject of an ``evidencedBy`` triple."""
    evidenced = store._index(vocab.EVIDENCED_BY, 0)
    return {node for node in evidenced if Triple(node, vocab.RDF_TYPE, vocab.SOLUTION) in store}


def coverage_report(store: Store, registry: DutyRegistry) -> list[DutyStatus]:
    """One status per duty, ascending by id.

    covered: a supportedBy path from an operationalizing goal reaches a
    solution that has evidence. contested: covered, but an unresolved
    counterclaim challenges a node of the argument subtree. partial: no
    such path yet, but the subtree has an undeveloped branch point (a goal
    or strategy with no support). uncovered: everything else, including
    duties nothing operationalizes. Paths may be of any length, and a node
    with several types is a solution or a branch point if any type says so.
    """
    for duty in registry.duties:
        if Triple(vocab.duty_iri(duty.id), vocab.RDF_TYPE, vocab.DUTY) not in store:
            raise CoverageError(
                f"store is missing the registry triples (duty {duty.id}); assert them first"
            )
    children = store._index(vocab.GSN_SUPPORTED_BY, 0)
    typed = store._index(vocab.RDF_TYPE, 2)
    evidenced = _evidenced_solutions(store)
    branch_points = {t.subject for kind in (vocab.GOAL, vocab.STRATEGY) for t in typed.get(kind, ())}
    goals = store._index(vocab.OPERATIONALIZES, 2)
    open_by_node: dict[Iri, list[Iri]] = {}
    for counterclaim, node in open_counterclaims(store):
        open_by_node.setdefault(node, []).append(counterclaim)
    report: list[DutyStatus] = []
    for duty in registry.duties:
        subtree = _subtree(children, (t.subject for t in goals.get(vocab.duty_iri(duty.id), ())))
        solutions = subtree & evidenced
        challengers = {c for node in subtree for c in open_by_node.get(node, ())}
        if solutions:
            status = CoverageStatus.CONTESTED if challengers else CoverageStatus.COVERED
        elif not all(_develops(children, node) for node in branch_points.intersection(subtree)):
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

def causal_trace(store: Store, attack: Iri) -> list[CausalTrace]:
    """All attack-to-duty chains for the given attack.

    Chains run attack, defense (via mitigates or its asserted inverse),
    solution (a holder of evidence as coverage counts it, via evidencedBy),
    upward through supportedBy to each goal that operationalizes a duty.
    Paths are simple and of any length, as coverage's are, so the number of
    chains can grow exponentially with shared sub-goals. Hops are store
    triples; when the inverse ``mitigatedBy`` triple is asserted it is
    preferred so the first hop's subject is the attack itself.
    """
    mitigates = store._index(vocab.MITIGATES, 2).get(attack, ())
    defenses = {hop.subject: hop for hop in mitigates}
    mitigated_by = store._index(vocab.MITIGATED_BY, 0).get(attack, ())
    defenses.update((hop.object, hop) for hop in mitigated_by if isinstance(hop.object, Iri))
    if not defenses and not any(attack in t for t in store.triples):  # a defended attack appears
        raise CoverageError(f"attack {attack.curie} does not appear in the store")
    parents = store._index(vocab.GSN_SUPPORTED_BY, 2)
    duties = store._index(vocab.OPERATIONALIZES, 0)
    evidence = store._index(vocab.EVIDENCED_BY, 2)
    solutions = _evidenced_solutions(store)
    stack = [
        (hop.subject, (first_hop, hop), {hop.subject})
        for defense, first_hop in defenses.items()
        for hop in evidence.get(defense, ())
        if hop.subject in solutions
    ]
    traces: list[CausalTrace] = []
    while stack:
        node, prefix, visited = stack.pop()
        traces.extend(CausalTrace(prefix + (hop,)) for hop in duties.get(node, ()))
        for hop in parents.get(node, ()):
            if hop.subject not in visited:
                stack.append((hop.subject, prefix + (hop,), visited | {hop.subject}))
    traces.sort(key=lambda trace: [serialize_triple(h) for h in trace.hops])
    return traces
