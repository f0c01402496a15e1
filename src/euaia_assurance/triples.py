"""Immutable semantic triple store with pattern matching and conjunctive queries.

Statements are subject-predicate-object. IRIs are written as CURIEs
(``prefix:local``) resolved against a namespace map; objects may also be
plain literals. There is no inference of any kind: ``match`` and ``query``
return exactly what was asserted.

All values are immutable. Mutating operations return a new store, so a
store can be shared freely across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

# Namespaces every store knows about, whatever else the caller declares.
DEFAULT_NAMESPACES: dict[str, str] = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "euaia": "https://example.org/ns/euaia#",
    "gsn": "https://example.org/ns/gsn#",
    "assures": "https://example.org/ns/assures#",
    "atk": "https://example.org/ns/attack#",
    "def": "https://example.org/ns/defense#",
    "src": "https://example.org/ns/source#",
}

_PREFIX_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")
_LOCAL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")
_VARIABLE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class NamespaceError(ValueError):
    """An IRI uses a prefix that the store's namespace map does not declare."""


class TripleParseError(ValueError):
    """A triple file line that does not follow the statement grammar."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = "" if line is None else f"line {line}" + ("" if column is None else f", column {column}")
        super().__init__(f"{where}: {message}" if where else message)


@dataclass(frozen=True)
class Iri:
    """A CURIE-form IRI, e.g. ``Iri("euaia", "d9")`` for ``euaia:d9``."""

    prefix: str
    local: str

    def __post_init__(self) -> None:
        if not _PREFIX_RE.match(self.prefix):
            raise ValueError(f"invalid namespace prefix {self.prefix!r}")
        if not _LOCAL_RE.match(self.local):
            raise ValueError(f"invalid local name {self.local!r}")

    @property
    def curie(self) -> str:
        return f"{self.prefix}:{self.local}"

    def expand(self, namespaces: Mapping[str, str]) -> str:
        if self.prefix not in namespaces:
            raise NamespaceError(f"undeclared namespace prefix {self.prefix!r}")
        return namespaces[self.prefix] + self.local

    @staticmethod
    def parse(text: str) -> "Iri":
        prefix, sep, local = text.partition(":")
        if not sep:
            raise ValueError(f"not a prefix:local CURIE: {text!r}")
        return Iri(prefix, local)

    def __str__(self) -> str:
        return self.curie


@dataclass(frozen=True)
class Literal:
    """A UTF-8 literal value with an optional datatype tag."""

    text: str
    datatype: Iri | None = None


Term = Iri | Literal


@dataclass(frozen=True)
class Variable:
    """A named placeholder in a pattern. Shared names join across patterns."""

    name: str

    def __post_init__(self) -> None:
        if not _VARIABLE_RE.match(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")


PatternTerm = Iri | Literal | Variable


@dataclass(frozen=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Term


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> set[str]:
        return {t.name for t in (self.subject, self.predicate, self.object) if isinstance(t, Variable)}


Binding = dict[str, Term]


def _escape_literal(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def serialize_term(term: PatternTerm) -> str:
    """Statement-syntax spelling of a term: ``<curie>``, ``"literal"`` or ``?var``."""
    if isinstance(term, Iri):
        return f"<{term.curie}>"
    if isinstance(term, Literal):
        out = f'"{_escape_literal(term.text)}"'
        if term.datatype is not None:
            out += f"^^<{term.datatype.curie}>"
        return out
    return f"?{term.name}"


def serialize_triple(triple: Triple) -> str:
    return (
        f"{serialize_term(triple.subject)} {serialize_term(triple.predicate)} "
        f"{serialize_term(triple.object)} ."
    )


def _binding_key(binding: Binding) -> str:
    return " ".join(f"?{name}={serialize_term(binding[name])}" for name in sorted(binding))


def _unify(pattern: TriplePattern, triple: Triple) -> Binding | None:
    binding: Binding = {}
    for pat, val in (
        (pattern.subject, triple.subject),
        (pattern.predicate, triple.predicate),
        (pattern.object, triple.object),
    ):
        if isinstance(pat, Variable):
            bound = binding.get(pat.name)
            if bound is None:
                binding[pat.name] = val
            elif bound != val:
                return None
        elif pat != val:
            return None
    return binding


def _substitute(pattern: TriplePattern, binding: Binding) -> TriplePattern:
    def sub(term: PatternTerm) -> PatternTerm:
        if isinstance(term, Variable) and term.name in binding:
            return binding[term.name]
        return term

    return TriplePattern(sub(pattern.subject), sub(pattern.predicate), sub(pattern.object))


@dataclass(frozen=True)
class Store:
    """An immutable set of triples plus the namespace map they resolve against.

    The namespace map always contains :data:`DEFAULT_NAMESPACES`; extra
    prefixes may be layered on top, and a declaration may override a default
    expansion. Every triple is validated against the map at construction.
    """

    triples: frozenset[Triple] = frozenset()
    namespaces: Mapping[str, str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        merged = dict(DEFAULT_NAMESPACES)
        if self.namespaces:
            merged.update(self.namespaces)
        object.__setattr__(self, "namespaces", merged)
        object.__setattr__(self, "triples", frozenset(self.triples))
        for t in self.triples:
            self._check_declared(t)

    def _check_declared(self, triple: Triple) -> None:
        for term in (triple.subject, triple.predicate, triple.object):
            prefixes = []
            if isinstance(term, Iri):
                prefixes.append(term.prefix)
            elif term.datatype is not None:
                prefixes.append(term.datatype.prefix)
            for prefix in prefixes:
                if prefix not in self.namespaces:
                    raise NamespaceError(
                        f"undeclared namespace prefix {prefix!r} in {serialize_triple(triple)}"
                    )

    # ------------------------------------------------------------------
    # container conveniences

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.triples

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self.triples, key=serialize_triple))

    # ------------------------------------------------------------------
    # updates (persistent: each returns a new store)

    def with_namespace(self, prefix: str, expansion: str) -> "Store":
        if not _PREFIX_RE.match(prefix):
            raise NamespaceError(f"invalid namespace prefix {prefix!r}")
        merged = dict(self.namespaces)
        merged[prefix] = expansion
        return Store(self.triples, merged)

    def assert_triple(self, triple: Triple) -> "Store":
        """Add one triple. Set semantics: re-asserting is a no-op."""
        self._check_declared(triple)
        if triple in self.triples:
            return self
        return Store(self.triples | {triple}, self.namespaces)

    def assert_all(self, triples: Iterable[Triple]) -> "Store":
        batch = frozenset(triples)
        if batch <= self.triples:
            return self
        return Store(self.triples | batch, self.namespaces)

    def retract_triple(self, triple: Triple) -> "Store":
        """Remove one triple. Retracting an absent triple is a no-op."""
        if triple not in self.triples:
            return self
        return Store(self.triples - {triple}, self.namespaces)

    # ------------------------------------------------------------------
    # matching

    @cached_property
    def _by_subject(self) -> dict[Iri, tuple[Triple, ...]]:
        return _position_index(self.triples, "subject")

    @cached_property
    def _by_predicate(self) -> dict[Iri, tuple[Triple, ...]]:
        return _position_index(self.triples, "predicate")

    @cached_property
    def _by_object(self) -> dict[Term, tuple[Triple, ...]]:
        return _position_index(self.triples, "object")

    def _candidates(self, pattern: TriplePattern) -> Iterable[Triple]:
        best: Iterable[Triple] | None = None
        best_size = len(self.triples) + 1
        for term, index in (
            (pattern.subject, self._by_subject),
            (pattern.predicate, self._by_predicate),
            (pattern.object, self._by_object),
        ):
            if not isinstance(term, Variable):
                found = index.get(term, ())
                if len(found) < best_size:
                    best, best_size = found, len(found)
        return self.triples if best is None else best

    def _match_unsorted(self, pattern: TriplePattern) -> list[Binding]:
        out = []
        for triple in self._candidates(pattern):
            binding = _unify(pattern, triple)
            if binding is not None:
                out.append(binding)
        return out

    def match(self, pattern: TriplePattern) -> list[Binding]:
        """All bindings of the pattern's variables against asserted triples.

        Results are deterministic: sorted lexicographically on their
        serialized form. An all-constant pattern yields one empty binding
        when the triple is present and nothing otherwise.
        """
        return sorted(self._match_unsorted(pattern), key=_binding_key)

    def query(self, patterns: Iterable[TriplePattern]) -> list[Binding]:
        """Conjunctive query: the natural join of the patterns' matches.

        Shared variable names join; patterns with disjoint variables produce
        a cartesian product. Planning is left-to-right in a greedy order,
        which never changes the result set: next comes a pattern that shares
        a variable already bound, if any, and the most selective one among
        those, so a join is a cross product only when the query is one.
        """
        remaining = list(patterns)
        if not remaining:
            raise ValueError("query requires at least one pattern")

        def estimate(pattern: TriplePattern) -> int:
            bound = self._candidates(pattern)
            return len(self.triples) if bound is self.triples else len(tuple(bound))

        remaining.sort(key=estimate)
        plan: list[TriplePattern] = []
        bound_names: set[str] = set()
        while remaining:
            pick = next((p for p in remaining if p.variables() & bound_names), remaining[0])
            remaining.remove(pick)
            plan.append(pick)
            bound_names |= pick.variables()
        solutions: list[Binding] = [{}]
        for pattern in plan:
            step: list[Binding] = []
            for binding in solutions:
                for found in self._match_unsorted(_substitute(pattern, binding)):
                    merged = dict(binding)
                    merged.update(found)
                    step.append(merged)
            solutions = step
            if not solutions:
                break
        return sorted(solutions, key=_binding_key)


def _position_index(triples: frozenset[Triple], position: str) -> dict:
    index: dict = {}
    for triple in triples:
        index.setdefault(getattr(triple, position), []).append(triple)
    return {key: tuple(val) for key, val in index.items()}


# ----------------------------------------------------------------------
# file format

def _scan_quoted(line: str, start: int, lineno: int | None) -> tuple[str, int]:
    out: list[str] = []
    i = start + 1
    while i < len(line):
        c = line[i]
        if c == '"':
            return "".join(out), i + 1
        if c == "\\":
            if i + 1 >= len(line):
                raise TripleParseError("dangling escape in literal", lineno, i + 1)
            nxt = line[i + 1]
            if nxt == '"':
                out.append('"')
            elif nxt == "\\":
                out.append("\\")
            elif nxt == "n":
                out.append("\n")
            else:
                raise TripleParseError(f"unknown escape \\{nxt}", lineno, i + 1)
            i += 2
        else:
            out.append(c)
            i += 1
    raise TripleParseError("unterminated literal", lineno, start + 1)


def _scan_terms(
    line: str,
    lineno: int | None = None,
    *,
    allow_variables: bool = False,
    allow_bare: bool = False,
    require_dot: bool = True,
) -> list[PatternTerm]:
    terms: list[PatternTerm] = []
    saw_dot = False
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c in " \t":
            i += 1
            continue
        if saw_dot:
            raise TripleParseError("content after terminating '.'", lineno, i + 1)
        if c == "." and (i + 1 == n or line[i + 1] in " \t"):
            saw_dot = True
            i += 1
            continue
        if c == "<":
            j = line.find(">", i + 1)
            if j < 0:
                raise TripleParseError("unterminated '<'", lineno, i + 1)
            try:
                terms.append(Iri.parse(line[i + 1 : j]))
            except ValueError as exc:
                raise TripleParseError(str(exc), lineno, i + 2) from None
            i = j + 1
        elif c == '"':
            text, i = _scan_quoted(line, i, lineno)
            datatype = None
            if line.startswith("^^", i):
                if not line.startswith("^^<", i):
                    raise TripleParseError("expected <curie> after '^^'", lineno, i + 1)
                j = line.find(">", i + 3)
                if j < 0:
                    raise TripleParseError("unterminated datatype", lineno, i + 3)
                try:
                    datatype = Iri.parse(line[i + 3 : j])
                except ValueError as exc:
                    raise TripleParseError(str(exc), lineno, i + 4) from None
                i = j + 1
            terms.append(Literal(text, datatype))
        elif c == "?" and allow_variables:
            match = re.match(r"\?([A-Za-z_][A-Za-z0-9_]*)", line[i:])
            if not match:
                raise TripleParseError("invalid variable name", lineno, i + 1)
            terms.append(Variable(match.group(1)))
            i += match.end()
        elif allow_bare:
            match = re.match(r"[^\s]+", line[i:])
            token = match.group(0)
            try:
                terms.append(Iri.parse(token))
            except ValueError as exc:
                raise TripleParseError(str(exc), lineno, i + 1) from None
            i += match.end()
        else:
            raise TripleParseError(f"unexpected character {c!r}", lineno, i + 1)
    if require_dot and not saw_dot:
        raise TripleParseError("statement must end with ' .'", lineno, n)
    return terms


_PREFIX_LINE_RE = re.compile(r"^@prefix\s+([A-Za-z][A-Za-z0-9_-]*):\s+<([^<>\s]+)>\s*\.?\s*$")


def import_triples(text: str, namespaces: Mapping[str, str] | None = None) -> Store:
    """Parse the line-oriented statement format into a store.

    Grammar per line: ``@prefix p: <expansion>`` headers, ``#`` comments,
    or ``<s> <p> (<o> | "literal") .`` statements. Prefixes must be
    declared (or defaulted) before use; errors carry the line number.
    """
    declared = dict(DEFAULT_NAMESPACES)
    if namespaces:
        declared.update(namespaces)
    seen_in_file: dict[str, str] = {}
    triples: list[Triple] = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@prefix"):
            match = _PREFIX_LINE_RE.match(line)
            if not match:
                raise TripleParseError("malformed @prefix declaration", lineno)
            prefix, expansion = match.group(1), match.group(2)
            if prefix in seen_in_file and seen_in_file[prefix] != expansion:
                raise TripleParseError(f"prefix {prefix!r} redeclared with a different expansion", lineno)
            seen_in_file[prefix] = expansion
            declared[prefix] = expansion
            continue
        terms = _scan_terms(line, lineno)
        if len(terms) != 3:
            raise TripleParseError(f"expected 3 terms, found {len(terms)}", lineno)
        subject, predicate, obj = terms
        if not isinstance(subject, Iri) or not isinstance(predicate, Iri):
            raise TripleParseError("subject and predicate must be IRIs", lineno)
        for term in terms:
            check = (term.datatype,) if isinstance(term, Literal) else (term,)
            for iri in check:
                if iri is not None and iri.prefix not in declared:
                    raise TripleParseError(f"undeclared namespace prefix {iri.prefix!r}", lineno)
        triples.append(Triple(subject, predicate, obj))
    return Store(frozenset(triples), declared)


def export_triples(store: Store) -> str:
    """Deterministic serialization: sorted prefix headers, then sorted statements."""
    lines = [f"@prefix {prefix}: <{expansion}>" for prefix, expansion in sorted(store.namespaces.items())]
    lines.extend(sorted(serialize_triple(t) for t in store.triples))
    return "\n".join(lines) + "\n"


def parse_pattern(text: str) -> TriplePattern:
    """Parse one query pattern, e.g. ``?d rdf:type euaia:Duty``.

    Terms may be ``?variables``, bare CURIEs, ``<curie>`` or ``"literals"``;
    the terminating dot is optional.
    """
    terms = _scan_terms(text, None, allow_variables=True, allow_bare=True, require_dot=False)
    if len(terms) != 3:
        raise TripleParseError(f"expected 3 terms in pattern, found {len(terms)}")
    return TriplePattern(*terms)
