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
from typing import Collection, Iterable, Iterator, KeysView, Mapping, NamedTuple, Sequence

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


class _Record(tuple):
    """The base of a tuple record that checks itself in its constructor:
    ``_make``, ``_replace``, ``copy`` and unpickling at every protocol all go
    through that constructor. It comes before the record's namedtuple base,
    whose ``_make`` it replaces."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable) -> "_Record":
        return cls(*iterable)

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)


class Iri(_Record, namedtuple("Iri", "prefix local")):
    """A CURIE-form IRI, e.g. ``Iri("euaia", "d9")`` for ``euaia:d9``.

    Every way of building one (the constructor, ``parse``, ``_make``,
    ``_replace``, from Python 3.13 ``copy.replace``, copying and unpickling)
    checks both names.
    """

    __slots__ = ()

    def __new__(cls, prefix: str, local: str) -> "Iri":
        if not _PREFIX_RE.fullmatch(prefix):
            raise ValueError(f"invalid namespace prefix {prefix!r}")
        if not _LOCAL_RE.fullmatch(local):
            raise ValueError(f"invalid local name {local!r}")
        return tuple.__new__(cls, (prefix, local))

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


class Literal(_Record, namedtuple("Literal", "text datatype")):
    """A UTF-8 literal value with an optional datatype tag, an :class:`Iri`.

    The check on the tag keeps a literal from equalling an IRI as a tuple.
    """

    __slots__ = ()

    def __new__(cls, text: str, datatype: Iri | None = None) -> "Literal":
        if datatype is not None and not isinstance(datatype, Iri):
            raise TypeError(f"a literal's datatype must be an Iri, not {type(datatype).__name__}")
        return tuple.__new__(cls, (text, datatype))


Term = Iri | Literal


class Variable(_Record, namedtuple("Variable", "name")):
    """A named placeholder in a pattern. Shared names join across patterns.

    Every way of building one, as for :class:`Iri`, checks the name.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Variable":
        if not _VARIABLE_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        return tuple.__new__(cls, (name,))


PatternTerm = Iri | Literal | Variable


class Triple(_Record, namedtuple("Triple", "subject predicate object")):
    """One statement: an IRI subject and predicate, and an IRI or literal object.

    Every way of building one, as for :class:`Iri`, checks the terms' types.
    """

    __slots__ = ()

    def __new__(cls, subject: Iri, predicate: Iri, object: Term) -> "Triple":
        if not isinstance(subject, Iri):
            raise TypeError(f"a triple's subject must be an Iri, not {type(subject).__name__}")
        if not isinstance(predicate, Iri):
            raise TypeError(f"a triple's predicate must be an Iri, not {type(predicate).__name__}")
        if not isinstance(object, (Iri, Literal)):
            raise TypeError(f"a triple's object must be an Iri or a Literal, not {type(object).__name__}")
        return tuple.__new__(cls, (subject, predicate, object))


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


class Store:
    """An immutable set of triples plus the namespace map they resolve against.

    The namespace map always contains :data:`DEFAULT_NAMESPACES`; extra
    prefixes may be layered on top, and a declaration may override a default
    expansion. Every entry must be one an ``@prefix`` line can spell, and
    every triple is validated against the map at construction. Its fields
    ``triples`` and ``namespaces`` are read-only, and a store is unhashable.
    The triples are the keys of one dict, so each is held once, in the order
    first given, and every walk over the store visits them in that order.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, triples: Iterable[Triple] = (), namespaces: Mapping[str, str] | None = None):
        self.__dict__.update(_triples=triples, namespaces=namespaces)
        self.__post_init__()  # a method of its own, which bench/tracing.py patches to count store builds

    def __post_init__(self) -> None:
        merged = dict(DEFAULT_NAMESPACES)
        if self.namespaces:
            merged.update(self.namespaces)
        for prefix, expansion in merged.items():
            check_namespace(prefix, expansion)
        triples = dict.fromkeys(self._triples)
        self.__dict__.update(namespaces=merged, _triples=triples)
        _check_prefixes(triples, merged)

    @classmethod
    def _of_checked(cls, triples: dict[Triple, None], namespaces: dict[str, str]) -> "Store":
        """A store made without the walk, of triples that resolve against a full, checked map."""
        store = object.__new__(cls)
        store.__dict__.update(_triples=triples, namespaces=namespaces)
        return store

    @property
    def triples(self) -> KeysView[Triple]:
        """A read-only set view of the triples, each once, in first-occurrence order."""
        return self._triples.keys()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of an immutable store")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.triples, self.namespaces) == (other.triples, other.namespaces)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(triples={list(self._triples)!r}, namespaces={self.namespaces!r})"

    # ------------------------------------------------------------------
    # container conveniences

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples, key=serialize_triple))

    # ------------------------------------------------------------------
    # updates (persistent: each returns a new store)

    def with_namespace(self, prefix: str, expansion: str) -> "Store":
        """Declare one more prefix. The triples resolved already, so only the entry is checked."""
        check_namespace(prefix, expansion)
        return Store._of_checked(self._triples, {**self.namespaces, prefix: expansion})

    def assert_triple(self, triple: Triple) -> "Store":
        """Add one triple. Set semantics: re-asserting is a no-op."""
        return self.assert_all((triple,))

    def assert_all(self, triples: Iterable[Triple]) -> "Store":
        """Add the triples. Only those the store lacks are checked: its own already resolve."""
        fresh = dict.fromkeys(t for t in triples if t not in self._triples)
        if not fresh:
            return self
        _check_prefixes(fresh, self.namespaces)
        return Store._of_checked({**self._triples, **fresh}, self.namespaces)

    def retract_triple(self, triple: Triple) -> "Store":
        """Remove one triple. Retracting an absent triple is a no-op."""
        if triple not in self._triples:
            return self
        kept = self._triples.copy()
        del kept[triple]
        return Store._of_checked(kept, self.namespaces)

    # ------------------------------------------------------------------
    # matching

    def _index(self, predicate: Term | None, position: int) -> dict[Term, list[Triple]]:
        """The predicate's bucket, or with None the whole store, by the term at ``position``; built
        once and shared by every caller, which reads its lists and never changes them. The
        predicate buckets are ``_index(None, 1)``."""
        indexes, key = self.__dict__.setdefault("_indexes", {}), (predicate, position)
        if key not in indexes:
            bucket = self._triples if predicate is None else self._index(None, 1).get(predicate, ())
            indexes[key] = _position_index(bucket, position)
        return indexes[key]

    def _candidates(self, pattern: TriplePattern) -> Collection[Triple]:
        """The triples a pattern may match: itself if it has no variable, else the smallest
        bucket of its bound subject and object in the index of its predicate's bucket,
        or of the whole store when the predicate is a variable, else every triple.
        """
        s, p, o = (not isinstance(term, Variable) for term in pattern)
        if s and p and o:
            return (pattern,) if pattern in self._triples else ()
        if p and not (s or o):
            return self._index(None, 1).get(pattern.predicate, ())
        scope = pattern.predicate if p else None
        found = [self._index(scope, at).get(pattern[at], ()) for at, bound in ((0, s), (2, o)) if bound]
        return min(found, key=len, default=self._triples)

    def _extend(self, binding: Binding, pattern: TriplePattern) -> Iterator[Binding]:
        """The binding extended by each triple that the pattern, with the binding's values put
        in, matches; a variable repeated within the pattern takes one value."""
        pattern = TriplePattern(*(binding.get(t.name, t) if isinstance(t, Variable) else t for t in pattern))
        for triple in self._candidates(pattern):
            extended = dict(binding)
            for term, value in zip(pattern, triple):
                if (extended.setdefault(term.name, value) if isinstance(term, Variable) else term) != value:
                    break
            else:
                yield extended

    def match(self, pattern: TriplePattern) -> list[Binding]:
        """All bindings of the pattern's variables against asserted triples.

        Results are deterministic: sorted lexicographically on their
        serialized form. An all-constant pattern yields one empty binding
        when the triple is present and nothing otherwise.
        """
        return self.query((pattern,))

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

        remaining.sort(key=lambda pattern: len(self._candidates(pattern)))
        plan: list[TriplePattern] = []
        bound_names: set[str] = set()
        while remaining:
            pick = next((p for p in remaining if p.variables() & bound_names), remaining[0])
            remaining.remove(pick)
            plan.append(pick)
            bound_names |= pick.variables()
        solutions: list[Binding] = [{}]
        for pattern in plan:
            solutions = [e for b in solutions for e in self._extend(b, pattern)]
        return sorted(solutions, key=_binding_key)


def _check_prefixes(triples: Iterable[Triple], namespaces: Mapping[str, str]) -> None:
    """Raise :class:`NamespaceError` at the first triple with a prefix ``namespaces`` lacks."""
    for t in triples:
        for term in t:
            iri = term if isinstance(term, Iri) else term.datatype
            if iri is not None and iri.prefix not in namespaces:
                raise NamespaceError(f"undeclared namespace prefix {iri.prefix!r} in {serialize_triple(t)}")


def merge_stores(stores: Sequence[Store]) -> Store:
    """One store of the stores' triples, store by store, each prefix expanded as the
    last store to declare it does. That map declares every prefix of each triple's
    own store, so no triple is checked again."""
    namespaces = dict(DEFAULT_NAMESPACES)  # in the order Store gives a map
    triples: dict[Triple, None] = {}
    for store in stores:
        namespaces.update(store.namespaces)
        triples.update(store._triples)
    return Store._of_checked(triples, namespaces)


def _position_index(triples: Iterable[Triple], position: int) -> dict[Term, list[Triple]]:
    index: dict[Term, list[Triple]] = {}
    for triple in triples:
        index.setdefault(triple[position], []).append(triple)
    return index


# ----------------------------------------------------------------------
# file format

# A quoted string: `"`, then characters other than `"` and `\`, or the
# escapes `\"`, `\\` and `\n`, then `"`; GSN statements share the grammar.
# A literal adds an optional ^^<datatype> of IRI pattern `{1}`, and fails to
# match when a '^^' that opens none follows it. `{0}` in a piece is what else
# it may not hold: nothing within one line, `\n` across the lines of a file.
_QUOTED = r'"([^"\\{0}]*(?:\\["\\n][^"\\{0}]*)*)'
_IRI = r"<([^>{0}]*)>"
_CURIE = rf"<({_PREFIX_RE.pattern}:{_LOCAL_RE.pattern})>"
_LITERAL = _QUOTED + r'"(?:\^\^{1}|(?!\^\^))'
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
    rf'|\?({_VARIABLE_RE.pattern})|([^\s<"?]\S*))'.format("", _IRI.format(""))
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
# whole: a statement of two IRIs and an IRI or literal object, each IRI a
# valid CURIE, fills groups 1-5 (subject, predicate, object IRI, literal
# body, datatype), an `@prefix` line 6-7 (prefix, expansion), a blank or
# comment line none, and any other line 8. Each branch owns its whitespace,
# which keeps the time to reject a line linear in its length.
_ROW_RE = re.compile(
    rf"^(?:[^\S\n]*{_CURIE}[ \t]*{_CURIE}[ \t]*(?:{_CURIE}|{_LITERAL})[ \t]*\.[^\S\n]*"
    rf"|[^\S\n]*@prefix[^\S\n]+({_PREFIX_RE.pattern}):[^\S\n]+<({_EXPANSION_RE.pattern})>[^\S\n]*(?:\.[^\S\n]*)?"
    r"|[^\S\n]*(?:#.*)?|(.*))$".format(r"\n", _CURIE),
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

    One pattern reads every line, and it takes only CURIEs of the grammar as
    IRIs. A CURIE is checked against the prefixes declared so far when first
    met, which holds for every later line too, as declarations only add
    prefixes. A line the pattern rejects, and a statement that fails the
    check, is read on its own by ``_read_line``, which names the fault.
    """
    declared = dict(DEFAULT_NAMESPACES)
    if namespaces:
        declared.update(namespaces)
    seen_in_file: dict[str, str] = {}
    iris: dict[str, Iri] = {}  # CURIE text -> its one IRI object in this import
    triples: list[Triple] = []

    def first_sight(curie: str) -> Iri | None:
        prefix, _, local = curie.partition(":")
        if prefix in declared:
            iris[curie] = new(Iri, (prefix, local))
        return known(curie)

    # tuple.__new__ skips a constructor's Python frame; the row pattern checked an Iri's names.
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
    return Store._of_checked(dict.fromkeys(triples), declared)


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
