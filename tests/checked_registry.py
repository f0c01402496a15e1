"""The duty registry's checked loader, which ``duties.load_registry``
replaced with an unchecked build of the same rows, kept as a test oracle.

The rows in ``duties._ROWS`` are source code, so the checks run here, in the
tests, instead of in every process that loads the registry. ``load_registry``
reads ``duties._ROWS`` when it is called, so a test can hand it other rows.
It raises :class:`RegistryError` for a row out of order, an empty text, an
unknown stakeholder code, a qualifier outside ``QUALIFIER_VOCABULARY``, a
malformed citation or a count other than 23.
"""

from __future__ import annotations

import re

from euaia_assurance import duties as _duties
from euaia_assurance.duties import QUALIFIER_VOCABULARY, ArticleRef, Duty, DutyRegistry
from euaia_assurance.vocab import StakeholderCode


class RegistryError(ValueError):
    """Embedded duty data failed validation at load time."""


_PARAGRAPH_SPEC_RE = re.compile(r"^(\d+)(?:-(\d+))?$")


def _parse_citation(citation: str, duty_id: int) -> tuple[ArticleRef, ...]:
    """Expand a citation like ``73.1,7-8,11`` into per-paragraph refs.

    Compound paragraph ranges expand to explicit lists so ``duty_by_ref``
    can match any paragraph in the range. An annex segment applies to the
    whole citation.
    """
    article: int | None = None
    paragraphs: list[int] = []
    annex: str | None = None
    for segment in (s.strip() for s in citation.split(",")):
        if segment.startswith(("Annex", "An.")):
            # keep only the numeral; the citation string preserves the form
            annex = segment.removeprefix("Annex").removeprefix("An.").strip()
            continue
        if "." in segment:
            head, _, spec = segment.partition(".")
            if article is not None:
                raise RegistryError(f"duty {duty_id}: citation names two articles")
            article = int(head)
        else:
            spec = segment
        if article is None:
            raise RegistryError(f"duty {duty_id}: paragraph spec before article")
        match = _PARAGRAPH_SPEC_RE.match(spec)
        if not match:
            raise RegistryError(f"duty {duty_id}: malformed citation segment {segment!r}")
        start = int(match.group(1))
        end = int(match.group(2)) if match.group(2) else start
        if end < start:
            raise RegistryError(f"duty {duty_id}: descending paragraph range {segment!r}")
        paragraphs.extend(range(start, end + 1))
    if article is None or not paragraphs:
        raise RegistryError(f"duty {duty_id}: citation {citation!r} names no article paragraph")
    return tuple(ArticleRef(article, p, annex) for p in paragraphs)


def load_registry() -> DutyRegistry:
    """Build the registry from the embedded rows, validating as it goes."""
    duties: list[Duty] = []
    for expected_id, (duty_id, citation, codes, text, qualifiers) in enumerate(_duties._ROWS, 1):
        if duty_id != expected_id:
            raise RegistryError(f"duty {duty_id}: out of order (expected {expected_id})")
        if not text:
            raise RegistryError(f"duty {duty_id}: empty text")
        try:
            stakeholders = tuple(StakeholderCode[c.strip()] for c in codes.split(","))
        except KeyError as exc:
            raise RegistryError(f"duty {duty_id}: unknown stakeholder code {exc}") from None
        if not stakeholders:
            raise RegistryError(f"duty {duty_id}: no stakeholders")
        unknown = set(qualifiers) - QUALIFIER_VOCABULARY
        if unknown:
            raise RegistryError(f"duty {duty_id}: qualifiers outside vocabulary: {sorted(unknown)}")
        duties.append(
            Duty(
                id=duty_id,
                citation=citation,
                article_refs=_parse_citation(citation, duty_id),
                stakeholders=stakeholders,
                text=text,
                qualifiers=tuple(qualifiers),
            )
        )
    if len(duties) != 23:
        raise RegistryError(f"expected 23 duties, found {len(duties)}")
    return DutyRegistry(tuple(duties))
