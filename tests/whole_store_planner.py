"""The query planner that ``Store`` used before its lookups were scoped to
predicate buckets, kept as a differential oracle for ``Store.match`` and
``Store.query``.

Every position a pattern binds is looked up in an index of the whole store
by that position, and the smallest of those buckets is scanned; a pattern
that binds nothing scans every triple. A query orders its patterns by that
bucket size and then joins greedily, next taking a pattern that shares a
variable already bound, as ``Store.query`` does.
"""

from __future__ import annotations

from typing import Iterable

from euaia_assurance.triples import Binding, Store, Triple, TriplePattern, Variable, _binding_key


class WholeStorePlanner:
    def __init__(self, store: Store):
        self.triples = store.triples
        self.indexes: list[dict] = [{}, {}, {}]
        for triple in store.triples:
            for index, term in zip(self.indexes, triple):
                index.setdefault(term, []).append(triple)

    def candidates(self, pattern: TriplePattern) -> Iterable[Triple]:
        best: Iterable[Triple] = self.triples
        for term, index in zip(pattern, self.indexes):
            if not isinstance(term, Variable):
                found = index.get(term, ())
                if len(found) <= len(best):
                    best = found
        return best

    def _match_unsorted(self, pattern: TriplePattern) -> list[Binding]:
        out = []
        for triple in self.candidates(pattern):
            binding: Binding = {}
            for want, got in zip(pattern, triple):
                if not isinstance(want, Variable):
                    if want != got:
                        break
                elif binding.setdefault(want.name, got) != got:
                    break
            else:
                out.append(binding)
        return out

    def match(self, pattern: TriplePattern) -> list[Binding]:
        return sorted(self._match_unsorted(pattern), key=_binding_key)

    def query(self, patterns: Iterable[TriplePattern]) -> list[Binding]:
        remaining = sorted(patterns, key=lambda pattern: len(tuple(self.candidates(pattern))))
        plan: list[TriplePattern] = []
        bound_names: set[str] = set()
        while remaining:
            pick = next((p for p in remaining if p.variables() & bound_names), remaining[0])
            remaining.remove(pick)
            plan.append(pick)
            bound_names |= pick.variables()
        solutions: list[Binding] = [{}]
        for pattern in plan:
            solutions = [
                {**binding, **found}
                for binding in solutions
                for found in self._match_unsorted(
                    TriplePattern(
                        *(binding.get(t.name, t) if isinstance(t, Variable) else t for t in pattern)
                    )
                )
            ]
        return sorted(solutions, key=_binding_key)
