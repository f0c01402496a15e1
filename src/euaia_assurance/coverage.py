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

# Causal traces climb at most this many supportedBy hops; coverage has no limit.
MAX_PATH_DEPTH = 12


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
    by_predicate = store._by_predicate
    rebutted = {t.subject for t in by_predicate.get(vocab.REBUTTED_BY, ())}
    return sorted(
        (
            (t.subject, t.object)
            for t in by_predicate.get(vocab.GSN_CHALLENGES, ())
            if t.subject not in rebutted and isinstance(t.object, Iri)
        ),
        key=lambda pair: (pair[0].curie, pair[1].curie),
    )


def _subtree(children: dict[Iri, list[Iri]], roots: Iterable[Iri]) -> set[Iri]:
    """Every node on a supportedBy path down from one of the roots, the roots included."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


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
    by_predicate = store._by_predicate
    children: dict[Iri, list[Iri]] = {}
    for t in by_predicate.get(vocab.GSN_SUPPORTED_BY, ()):
        if isinstance(t.object, Iri):
            children.setdefault(t.subject, []).append(t.object)
    typed: dict[Iri, set[Iri]] = {vocab.SOLUTION: set(), vocab.GOAL: set(), vocab.STRATEGY: set()}
    for t in by_predicate.get(vocab.RDF_TYPE, ()):
        if t.object in typed:
            typed[t.object].add(t.subject)
    evidenced = typed[vocab.SOLUTION].intersection(t.subject for t in by_predicate.get(vocab.EVIDENCED_BY, ()))
    undeveloped = (typed[vocab.GOAL] | typed[vocab.STRATEGY]).difference(children)
    goals: dict[Term, list[Iri]] = {}
    for t in by_predicate.get(vocab.OPERATIONALIZES, ()):
        goals.setdefault(t.object, []).append(t.subject)
    open_by_node: dict[Iri, list[Iri]] = {}
    for counterclaim, node in open_counterclaims(store):
        open_by_node.setdefault(node, []).append(counterclaim)
    report: list[DutyStatus] = []
    for duty in registry.duties:
        subtree = _subtree(children, goals.get(vocab.duty_iri(duty.id), ()))
        solutions = subtree & evidenced
        challengers = {c for node in subtree for c in open_by_node.get(node, ())}
        if solutions:
            status = CoverageStatus.CONTESTED if challengers else CoverageStatus.COVERED
        elif not undeveloped.isdisjoint(subtree):
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
    solution (via evidencedBy), upward through supportedBy to each goal
    that operationalizes a duty. Paths are simple and bounded at
    :data:`MAX_PATH_DEPTH` supportedBy hops. Hops are store triples; when
    the inverse ``mitigatedBy`` triple is asserted it is preferred so the
    first hop's subject is the attack itself.
    """
    if not any(attack in (t.subject, t.predicate, t.object) for t in store.triples):
        raise CoverageError(f"attack {attack.curie} does not appear in the store")
    by_predicate = store._by_predicate
    defenses: dict[Iri, Triple] = {}
    for hop in by_predicate.get(vocab.MITIGATES, ()):
        if hop.object == attack and isinstance(hop.subject, Iri):
            defenses[hop.subject] = hop
    for hop in by_predicate.get(vocab.MITIGATED_BY, ()):
        if hop.subject == attack and isinstance(hop.object, Iri):
            defenses[hop.object] = hop
    parents: dict[Iri, list[Iri]] = {}
    for hop in by_predicate.get(vocab.GSN_SUPPORTED_BY, ()):
        if isinstance(hop.object, Iri):
            parents.setdefault(hop.object, []).append(hop.subject)
    duties: dict[Iri, list[Triple]] = {}
    for hop in by_predicate.get(vocab.OPERATIONALIZES, ()):
        duties.setdefault(hop.subject, []).append(hop)

    traces: list[CausalTrace] = []
    for hop in by_predicate.get(vocab.EVIDENCED_BY, ()):
        if hop.object in defenses and isinstance(hop.subject, Iri):
            _climb(hop.subject, (defenses[hop.object], hop), {hop.subject}, parents, duties, traces)
    traces.sort(key=lambda trace: [serialize_triple(h) for h in trace.hops])
    return traces


def _climb(
    node: Iri,
    prefix: tuple[Triple, ...],
    visited: set[Iri],
    parents: dict[Iri, list[Iri]],
    duties: dict[Iri, list[Triple]],
    traces: list[CausalTrace],
) -> None:
    traces.extend(CausalTrace(prefix + (hop,)) for hop in duties.get(node, ()))
    if len(prefix) - 2 >= MAX_PATH_DEPTH:
        return
    for parent in parents.get(node, ()):
        if parent not in visited:
            hop = Triple(parent, vocab.GSN_SUPPORTED_BY, node)
            _climb(parent, prefix + (hop,), visited | {parent}, parents, duties, traces)
