"""The line-by-line ``import_triples`` that the one-pattern row lexer
replaced, kept as a differential oracle.

It strips each line of the text, skips blanks and comments, reads
``@prefix`` lines with the declaration pattern it used, and hands every
other line to the character scanner of ``char_scanner``, with its leading
whitespace turned into spaces so that columns count from the start of the
line. Then it checks the term count, the IRI positions and the declared
prefixes, in that order.
The replacement must give the same triples and namespaces, or raise the
same message at the same line and column, on every input.
"""

from __future__ import annotations

import re
from typing import Mapping

from euaia_assurance.triples import DEFAULT_NAMESPACES, Iri, Literal, Store, Triple, TripleParseError

from char_scanner import _scan_terms

_PREFIX_LINE_RE = re.compile(r"^@prefix\s+([A-Za-z][A-Za-z0-9_-]*):\s+<([^<>\s]+)>\s*\.?\s*$")


def import_triples_by_line(text: str, namespaces: Mapping[str, str] | None = None) -> Store:
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
        terms = _scan_terms(" " * (len(raw) - len(raw.lstrip())) + line, lineno)
        if len(terms) != 3:
            raise TripleParseError(f"expected 3 terms, found {len(terms)}", lineno)
        subject, predicate, obj = terms
        if not isinstance(subject, Iri) or not isinstance(predicate, Iri):
            raise TripleParseError("subject and predicate must be IRIs", lineno)
        for iri in (subject, predicate, obj.datatype if isinstance(obj, Literal) else obj):
            if iri is not None and iri.prefix not in declared:
                raise TripleParseError(f"undeclared namespace prefix {iri.prefix!r}", lineno)
        triples.append(Triple(subject, predicate, obj))
    return Store(frozenset(triples), declared)
