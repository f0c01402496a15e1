"""The recursive causal trace that ``coverage.causal_trace`` replaced with an
explicit stack, kept as a differential oracle.

``_climb`` extends a trace by one ``supportedBy`` hop and calls itself for
each parent not yet on the path. The replaced code stopped silently after
``MAX_PATH_DEPTH`` hops; here the cap is a parameter, and ``None`` lifts it.
With no cap the stack walk must list the same traces; on stores where no
path climbs more than ``MAX_PATH_DEPTH`` hops, the capped walk must too.
The recursion runs out of call stack on a deep enough chain.
"""

from __future__ import annotations

from euaia_assurance import vocab
from euaia_assurance.coverage import CausalTrace, CoverageError
from euaia_assurance.triples import Iri, Store, Term, Triple, serialize_triple

MAX_PATH_DEPTH = 12


def causal_trace(store: Store, attack: Iri, max_depth: int | None = MAX_PATH_DEPTH) -> list[CausalTrace]:
    mitigates = store._index(vocab.MITIGATES, 2).get(attack, ())
    defenses = {hop.subject: hop for hop in mitigates if isinstance(hop.subject, Iri)}
    mitigated_by = store._index(vocab.MITIGATED_BY, 0).get(attack, ())
    defenses.update((hop.object, hop) for hop in mitigated_by if isinstance(hop.object, Iri))
    if not defenses and not any(attack in t for t in store.triples):
        raise CoverageError(f"attack {attack.curie} does not appear in the store")
    parents = store._index(vocab.GSN_SUPPORTED_BY, 2)
    duties = store._index(vocab.OPERATIONALIZES, 0)
    evidence = store._index(vocab.EVIDENCED_BY, 2)

    traces: list[CausalTrace] = []
    for defense, first_hop in defenses.items():
        for hop in evidence.get(defense, ()):
            if isinstance(hop.subject, Iri):
                _climb(hop.subject, (first_hop, hop), {hop.subject}, parents, duties, traces, max_depth)
    traces.sort(key=lambda trace: [serialize_triple(h) for h in trace.hops])
    return traces


def _climb(
    node: Iri,
    prefix: tuple[Triple, ...],
    visited: set[Iri],
    parents: dict[Term, list[Triple]],
    duties: dict[Term, list[Triple]],
    traces: list[CausalTrace],
    max_depth: int | None,
) -> None:
    traces.extend(CausalTrace(prefix + (hop,)) for hop in duties.get(node, ()))
    if max_depth is not None and len(prefix) - 2 >= max_depth:
        return
    for hop in parents.get(node, ()):
        if hop.subject not in visited:
            _climb(hop.subject, prefix + (hop,), visited | {hop.subject}, parents, duties, traces, max_depth)
