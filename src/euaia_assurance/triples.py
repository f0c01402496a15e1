"""Immutable semantic triple store with pattern matching and conjunctive queries.

Statements are subject-predicate-object. IRIs are written as CURIEs
(``prefix:local``) resolved against a namespace map; objects may also be
plain literals. There is no inference of any kind: ``match`` and ``query``
return exactly what was asserted.

All values are immutable. Terms and triples are tuples, so they hash and
compare in C, and a term never equals a term of another kind. Mutating
operations return a new store, so a store can be shared freely across
threads.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

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

# Whole-string patterns: use fullmatch, since `$` also matches before a final newline.
_PREFIX_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
_EXPANSION_RE = re.compile(r"[^<>\s]+")  # what an @prefix line can spell between < and >
_LOCAL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")
_VARIABLE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class NamespaceError(ValueError):
    """An IRI uses a prefix that the namespace map does not declare, or a
    namespace entry is one that an ``@prefix`` line cannot spell."""


def check_namespace(prefix: str, expansion: str) -> None:
    """Raise :class:`NamespaceError` unless ``@prefix prefix: <expansion>`` is a valid line."""
    if not _PREFIX_RE.fullmatch(prefix):
        raise NamespaceError(f"invalid namespace prefix {prefix!r}")
    if not _EXPANSION_RE.fullmatch(expansion):
        raise NamespaceError(f"invalid expansion {expansion!r} for namespace prefix {prefix!r}")


class InputError(ValueError):
    """Input text that breaks its format: ``line L, column C: message``, as far as known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ", ".join(f"{name} {at}" for name, at in (("line", line), ("column", column)) if at is not None)
        super().__init__(f"{where}: {message}" if where else message)


class TripleParseError(InputError):
    """A triple file line that does not follow the statement grammar."""


def load_json(text: str, what: str, line: int = 1, error: type = InputError) -> object:
    """The JSON value of ``text``, whose first line is ``line``. A text that
    does not parse raises ``error`` at its position as ``what: reason``.
    """
    import json  # here, so that only commands that read JSON load it

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what}: {exc.msg}", line + exc.lineno - 1, exc.colno) from None
    except (ValueError, RecursionError) as exc:  # an integer of over 4,300 digits, or deep nesting
        raise error(f"{what}: {exc}", line) from None


class Iri(namedtuple("Iri", "prefix local")):
    """A CURIE-form IRI, e.g. ``Iri("euaia", "d9")`` for ``euaia:d9``.

    Every way of building one (the constructor, ``parse``, ``_make``,
    ``_replace`` and, from Python 3.13, ``copy.replace``) checks both names.
    """

    __slots__ = ()

    def __new__(cls, prefix: str, local: str) -> "Iri":
        if not _PREFIX_RE.fullmatch(prefix):
            raise ValueError(f"invalid namespace prefix {prefix!r}")
        if not _LOCAL_RE.fullmatch(local):
            raise ValueError(f"invalid local name {local!r}")
        return tuple.__new__(cls, (prefix, local))

    @classmethod
    def _make(cls, iterable: Iterable[str]) -> "Iri":
        return cls(*iterable)

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


class Literal(namedtuple("Literal", "text datatype")):
    """A UTF-8 literal value with an optional datatype tag, an :class:`Iri`.

    The check on the tag keeps a literal from equalling an IRI as a tuple.
    """

    __slots__ = ()

    def __new__(cls, text: str, datatype: Iri | None = None) -> "Literal":
        if datatype is not None and not isinstance(datatype, Iri):
            raise TypeError(f"a literal's datatype must be an Iri, not {type(datatype).__name__}")
        return tuple.__new__(cls, (text, datatype))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Literal":
        return cls(*iterable)


Term = Iri | Literal


class Variable(namedtuple("Variable", "name")):
    """A named placeholder in a pattern. Shared names join across patterns.

    Every way of building one, as for :class:`Iri`, checks the name.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Variable":
        if not _VARIABLE_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        return tuple.__new__(cls, (name,))

    @classmethod
    def _make(cls, iterable: Iterable[str]) -> "Variable":
        return cls(*iterable)


PatternTerm = Iri | Literal | Variable


class Triple(namedtuple("Triple", "subject predicate object")):
    """One statement: an IRI subject and predicate, and an IRI or literal object."""

    __slots__ = ()


class TriplePattern(NamedTuple):
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> set[str]:
        return {t.name for t in self if isinstance(t, Variable)}


Binding = dict[str, Term]


def escape_quoted(text: str) -> str:
    """The body of a quoted string (a literal or a GSN statement) that reads back as ``text``."""
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def serialize_term(term: PatternTerm) -> str:
    """Statement-syntax spelling of a term: ``<curie>``, ``"literal"`` or ``?var``."""
    if isinstance(term, Iri):
        return f"<{term.curie}>"
    if isinstance(term, Literal):
        out = f'"{escape_quoted(term.text)}"'
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
    for pat, val in zip(pattern, triple):
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

    return TriplePattern(*map(sub, pattern))


class Store:
    """An immutable set of triples plus the namespace map they resolve against.

    The namespace map always contains :data:`DEFAULT_NAMESPACES`; extra
    prefixes may be layered on top, and a declaration may override a default
    expansion. Every entry must be one an ``@prefix`` line can spell, and
    every triple is validated against the map at construction. Its fields
    ``triples`` and ``namespaces`` are read-only, and a store is unhashable.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, triples: Iterable[Triple] = frozenset(), namespaces: Mapping[str, str] | None = None):
        self.__dict__.update(triples=triples, namespaces=namespaces)
        self.__post_init__()  # a method of its own, which bench/tracing.py patches to count store builds

    def __post_init__(self) -> None:
        merged = dict(DEFAULT_NAMESPACES)
        if self.namespaces:
            merged.update(self.namespaces)
        for prefix, expansion in merged.items():
            check_namespace(prefix, expansion)
        self.__dict__.update(namespaces=merged, triples=frozenset(self.triples))
        iris = [term if isinstance(term, Iri) else term.datatype for t in self.triples for term in t]
        undeclared = {iri.prefix for iri in iris if iri is not None}.difference(merged)
        if undeclared:  # name the first offending triple
            for t in self.triples:
                for term in t:
                    iri = term if isinstance(term, Iri) else term.datatype
                    if iri is not None and iri.prefix in undeclared:
                        raise NamespaceError(f"undeclared namespace prefix {iri.prefix!r} in {serialize_triple(t)}")

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of an immutable store")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.triples, self.namespaces) == (other.triples, other.namespaces)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(triples={self.triples!r}, namespaces={self.namespaces!r})"

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
        check_namespace(prefix, expansion)
        merged = dict(self.namespaces)
        merged[prefix] = expansion
        return Store(self.triples, merged)

    def assert_triple(self, triple: Triple) -> "Store":
        """Add one triple. Set semantics: re-asserting is a no-op."""
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
        """The smallest index bucket of the positions the pattern binds, or every
        triple when it binds none. Only the indexes of bound positions are built.
        """
        best: Iterable[Triple] = self.triples
        for term, index in zip(pattern, ("_by_subject", "_by_predicate", "_by_object")):
            if not isinstance(term, Variable):
                found = getattr(self, index).get(term, ())
                if len(found) <= len(best):
                    best = found
        return best

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

# A quoted string: `"`, then characters other than `"` and `\`, or the
# escapes `\"`, `\\` and `\n`, then `"`; GSN statements share the grammar.
# A literal adds an optional ^^<datatype>, and fails to match when a '^^'
# that opens none follows it. `{0}` in a piece is what else it may not hold:
# nothing within one line, `\n` across the lines of a whole file.
_QUOTED = r'"([^"\\{0}]*(?:\\["\\n][^"\\{0}]*)*)'
_IRI = r"<([^>{0}]*)>"
_LITERAL = _QUOTED + r'"(?:\^\^' + _IRI + r"|(?!\^\^))"
_QUOTED_BODY_RE = re.compile(_QUOTED.format(""))
_ESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPED = {'"': '"', "\\": "\\", "n": "\n"}


def _unescape(body: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _UNESCAPED[m.group(1)], body) if "\\" in body else body


def scan_quoted(
    line: str, start: int, lineno: int | None, noun: str = "literal", error: type = TripleParseError
) -> tuple[str, int]:
    """The unescaped text of the quoted string at ``line[start]`` and the index
    after its closing quote. Errors name the string as ``noun`` and are raised
    as ``error(message, lineno, column)``.
    """
    body = _QUOTED_BODY_RE.match(line, start)
    stop = body.end()  # at the closing quote, a bad escape or the end
    if line.startswith('"', stop):
        return _unescape(body.group(1)), stop + 1
    if stop == len(line):
        raise error(f"unterminated {noun}", lineno, start + 1)
    if stop + 1 == len(line):
        raise error(f"dangling escape in {noun}", lineno, stop + 1)
    raise error(f"unknown escape \\{line[stop + 1]}", lineno, stop + 1)


# One term at a position, after spaces and tabs. The group that matched
# names the term: 1 <iri>, 2 literal, 3 its ^^<datatype>, 4 the
# terminating '.' at the end of the line, 5 a '.' that more text follows,
# 6 the end of the line, 7 ?variable and 8 a bare CURIE; a statement
# rejects the last two. A malformed term fails to match, and
# `_scan_error` then names the fault.
_TERM_RE = re.compile(
    rf"[ \t]*(?:{_IRI}|{_LITERAL}|(\.)[ \t]*\Z|(\.)(?=[ \t])|(\Z)"
    r'|\?([A-Za-z_][A-Za-z0-9_]*)|([^\s<"?]\S*))'.format("")
)
_BLANKS_RE = re.compile(r"[ \t]*")


def _parse_iri(match: re.Match, group: int, lineno: int | None) -> Iri:
    try:
        return Iri.parse(match.group(group))
    except ValueError as exc:
        raise TripleParseError(str(exc), lineno, match.start(group) + 1) from None


def _scan_error(line: str, pos: int, lineno: int | None, after_dot: bool, pattern: bool) -> TripleParseError:
    """The error for the text at or after ``pos`` that the lexer rejected."""
    i = _BLANKS_RE.match(line, pos).end()
    c = line[i]
    if after_dot:
        return TripleParseError("content after terminating '.'", lineno, i + 1)
    if c == "<":
        return TripleParseError("unterminated '<'", lineno, i + 1)
    if c == '"':
        _, i = scan_quoted(line, i, lineno)
        if not line.startswith("^^<", i):
            return TripleParseError("expected <curie> after '^^'", lineno, i + 1)
        return TripleParseError("unterminated datatype", lineno, i + 3)
    if c == "?" and pattern:
        return TripleParseError("invalid variable name", lineno, i + 1)
    return TripleParseError(f"unexpected character {c!r}", lineno, i + 1)


def _scan_terms(line: str, lineno: int | None, *, pattern: bool = False, pos: int = 0) -> list[PatternTerm]:
    """The terms of one statement line from ``pos`` on, or of one query pattern.

    A statement must end with ' .'; a pattern may also hold ``?variables``
    and bare CURIEs, and its dot is optional.
    """
    terms: list[PatternTerm] = []
    while True:
        match = _TERM_RE.match(line, pos)
        if match is None or match.lastindex > 6 and not pattern:
            raise _scan_error(line, pos, lineno, False, pattern)
        kind = match.lastindex
        if kind == 1:
            terms.append(_parse_iri(match, 1, lineno))
        elif kind == 2:
            terms.append(Literal(_unescape(match.group(2))))
        elif kind == 3:
            terms.append(Literal(_unescape(match.group(2)), _parse_iri(match, 3, lineno)))
        elif kind == 4:
            return terms
        elif kind == 5:
            raise _scan_error(line, match.end(), lineno, True, pattern)
        elif kind == 6:
            if not pattern:
                raise TripleParseError("statement must end with ' .'", lineno, len(line))
            return terms
        elif kind == 7:
            terms.append(Variable(match.group(7)))
        else:
            terms.append(_parse_iri(match, 8, lineno))
        pos = match.end()


# One match per line of a triple file, by the first branch that takes it
# whole: a statement `_scan_terms` would read as two IRIs and an IRI or
# literal object fills groups 1-5 (subject, predicate, object IRI, literal
# body, datatype), an `@prefix` line 6-7 (prefix, expansion), a blank or
# comment line none, and any other line 8. Each branch owns its whitespace,
# which keeps the time to reject a line linear in its length.
_ROW_RE = re.compile(
    rf"^(?:[^\S\n]*{_IRI}[ \t]*{_IRI}[ \t]*(?:{_IRI}|{_LITERAL})[ \t]*\.[^\S\n]*"
    rf"|[^\S\n]*@prefix[^\S\n]+({_PREFIX_RE.pattern}):[^\S\n]+<({_EXPANSION_RE.pattern})>[^\S\n]*(?:\.[^\S\n]*)?"
    r"|[^\S\n]*(?:#.*)?|(.*))$".format(r"\n"),
    re.M,
)


def _read_line(raw: str, lineno: int, declared: Mapping[str, str]) -> Triple:
    """The triple of a line the row pattern rejected: a malformed ``@prefix``
    line or statement. A statement this accepts would match the row pattern,
    so it raises the error that names the line's first fault.
    """
    line = raw.rstrip()
    start = len(line) - len(line.lstrip())  # columns count from the start of the line
    if line.startswith("@prefix", start):
        raise TripleParseError("malformed @prefix declaration", lineno)
    terms = _scan_terms(line, lineno, pos=start)
    if len(terms) != 3:
        raise TripleParseError(f"expected 3 terms, found {len(terms)}", lineno)
    subject, predicate, obj = terms
    if not isinstance(subject, Iri) or not isinstance(predicate, Iri):
        raise TripleParseError("subject and predicate must be IRIs", lineno)
    for iri in (subject, predicate, obj.datatype if isinstance(obj, Literal) else obj):
        if iri is not None and iri.prefix not in declared:
            raise TripleParseError(f"undeclared namespace prefix {iri.prefix!r}", lineno)
    return Triple(subject, predicate, obj)


def import_triples(text: str, namespaces: Mapping[str, str] | None = None) -> Store:
    """Parse the line-oriented statement format into a store.

    Grammar per line: ``@prefix p: <expansion>`` headers, ``#`` comments,
    or ``<s> <p> (<o> | "literal") .`` statements. Prefixes must be
    declared (or defaulted) before use; errors carry the line number.

    One pattern reads every line. A CURIE is parsed and checked against the
    prefixes declared so far when first met, which holds for every later
    line too, as declarations only add prefixes. A line the pattern rejects,
    and a statement that fails a check, is read on its own by
    ``_read_line``, which names the fault.
    """
    declared = dict(DEFAULT_NAMESPACES)
    if namespaces:
        declared.update(namespaces)
    seen_in_file: dict[str, str] = {}
    iris: dict[str, Iri] = {}  # CURIE text -> its one IRI object in this import
    triples: list[Triple] = []

    def first_sight(curie: str) -> Iri | None:
        try:
            iri = Iri.parse(curie)
        except ValueError:
            return None
        if iri.prefix not in declared:
            return None
        iris[curie] = iri
        return iri

    # tuple.__new__ builds a Literal or Triple without the Python frame of its constructor.
    known, new, append = iris.get, tuple.__new__, triples.append
    for lineno, row in enumerate(_ROW_RE.finditer(text), 1):
        s, p, o, body, dt, prefix, expansion, other = row.groups()
        if s is not None:
            subject = known(s) or first_sight(s)
            predicate = known(p) or first_sight(p)
            if o is not None:
                obj = known(o) or first_sight(o)
            elif dt is None:
                obj = new(Literal, (_unescape(body), None))
            else:
                datatype = known(dt) or first_sight(dt)
                obj = datatype and new(Literal, (_unescape(body), datatype))
            if subject and predicate and obj:
                append(new(Triple, (subject, predicate, obj)))
                continue
        elif prefix is not None:
            if seen_in_file.setdefault(prefix, expansion) != expansion:
                raise TripleParseError(f"prefix {prefix!r} redeclared with a different expansion", lineno)
            declared[prefix] = expansion
            continue
        elif other is None:  # a blank or comment line
            continue
        append(_read_line(row.group(), lineno, declared))
    for prefix, expansion in declared.items():
        check_namespace(prefix, expansion)
    # Each CURIE was checked against `declared` when first met, so the store
    # is made without its constructor's second walk over the triples.
    store = object.__new__(Store)
    store.__dict__.update(triples=frozenset(triples), namespaces=declared)
    return store


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
    terms = _scan_terms(text, None, pattern=True)
    if len(terms) != 3:
        raise TripleParseError(f"expected 3 terms in pattern, found {len(terms)}")
    return TriplePattern(*terms)
