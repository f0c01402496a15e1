"""The character-by-character statement scanner that the compiled term
pattern of ``triples._scan_terms`` replaced, kept as a differential oracle.

The scanner walks a line one character at a time and decides
each term by its first character, so every error it raises is the first
one a reader meets going left to right. The lexer must return the same
terms, or raise the same message at the same line and column, on every
input.
"""

from __future__ import annotations

import re

from euaia_assurance.triples import Iri, Literal, PatternTerm, TripleParseError, Variable


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
