"""Registry of the 23 robustness-relevant EU AI Act duties.

Each duty pairs a paraphrased obligation with its article citation, the
stakeholders it obligates, and any vague qualifier terms the Act uses
("appropriate", "adequate", ...) that require human judgment to assess.
The registry is embedded data, built from its rows without checks: the rows
are source code, and the tests check them against a validating loader.
Loading never touches the network, and the loaded structure is immutable
and safe for concurrent reads.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from . import vocab
from .vocab import StakeholderCode
from .triples import Literal, Triple

# The table of record maps stakeholder A to 14 duties (rows 1-10, 16 and
# 19-21). Narrative summaries of the Act's robustness duties sometimes
# count fifteen for high-risk system providers; this registry follows the
# duty table and keeps the count at 14.
STAKEHOLDER_A_COUNT_NOTE = (
    "Stakeholder A (High-risk AI System Provider) is obligated by 14 duties "
    "in this registry (1-10, 16, 19, 20, 21). Prose summaries occasionally "
    "cite fifteen; the tabulated duties are authoritative here."
)

# Closed vocabulary of qualifier terms that flag human judgment.
QUALIFIER_VOCABULARY = frozenset(
    {
        "reasonably foreseeable",
        "appropriate",
        "adequate",
        "effective",
        "suitable",
        "safe",
        "robustly",
        "reliably",
        "unsuitable",
        "systemic",
        "serious",
        "reasonably likely",
    }
)

PROVENANCE = "paraphrased from EUAIA"


class ArticleRef(NamedTuple):
    """One article citation, down to the paragraph where the Act has one."""

    article: int
    paragraph: int | None = None
    annex: str | None = None

    @property
    def label(self) -> str:
        if self.paragraph is None:
            return str(self.article)
        return f"{self.article}.{self.paragraph}"


class Duty(NamedTuple):
    id: int
    citation: str
    article_refs: tuple[ArticleRef, ...]
    stakeholders: tuple[StakeholderCode, ...]
    text: str
    qualifiers: tuple[str, ...]
    provenance: str = PROVENANCE


# (id, citation, stakeholder codes, text, qualifiers)
_ROWS: tuple[tuple[int, str, str, str, tuple[str, ...]], ...] = (
    (
        1,
        "9.2",
        "A",
        "Identify, evaluate and mitigate reasonably foreseeable risks of the system.",
        ("reasonably foreseeable",),
    ),
    (
        2,
        "9.5",
        "A",
        "Ensure appropriate and adequate risk management measures.",
        ("appropriate", "adequate"),
    ),
    (
        3,
        "10.2",
        "A",
        "Establish confidentiality and security of private data collected for "
        "assurance of other duties (e.g., bias mitigation).",
        (),
    ),
    (
        4,
        "13.3, Annex IV",
        "A",
        "Include information about robustness and cybersecurity (e.g., metrics) "
        "and their limitations in instructions for use.",
        (),
    ),
    (
        5,
        "14.2",
        "A",
        "Design system for effective human oversight regarding safety monitoring "
        "and prevention/minimization of reasonably foreseeable misuse.",
        ("effective", "reasonably foreseeable"),
    ),
    (
        6,
        "14.4",
        "A",
        "Design appropriate functionalities for human overseers to: understand "
        'the system; monitor for "anomalies, dysfunctions and unexpected '
        'performance"; understand, override, and reverse the output; and '
        "intervene or interrupt the system's operation in a safe state.",
        ("appropriate", "safe"),
    ),
    (
        7,
        "15.1",
        "A",
        "Establish an appropriate level of robustness and cybersecurity.",
        ("appropriate",),
    ),
    (
        8,
        "15.4",
        "A",
        'Establish robustness and resilience of system regarding "errors, faults '
        'or inconsistencies."',
        (),
    ),
    (
        9,
        "15.5",
        "A",
        "Establish cybersecurity measures against adversarial and poisoning attacks.",
        (),
    ),
    (10, "17.1", "A", "Establish security-of-supply measures.", ()),
    (11, "31.2", "B", "Satisfy suitable cybersecurity requirements.", ("suitable",)),
    (
        12,
        "50.2",
        "C",
        "Ensure that AI-generated content is robustly and reliably watermarked.",
        ("robustly", "reliably"),
    ),
    (
        13,
        "53.1, An.XI",
        "C",
        "Report on measures used to detect unsuitable data sources and biases; "
        "evaluation of systemic risk; measures for adversarial testing, model "
        "alignment and fine-tuning; system architecture and dependencies.",
        ("unsuitable", "systemic"),
    ),
    (
        14,
        "55.1",
        "C",
        "Establish cybersecurity and adversarially test with respect to systemic risks.",
        (),
    ),
    (
        15,
        "57.6",
        "D",
        "Support safety risk identification, testing, and mitigation in regulatory sandboxes.",
        (),
    ),
    (
        16,
        "58.4",
        "D, A",
        "Prespecify safeguards and conditions for real-world testing.",
        (),
    ),
    (17, "70.3", "D", "Establish safety and cybersecurity expertise.", ()),
    (18, "70.4", "D", "Ensure an adequate level of cybersecurity.", ("adequate",)),
    (
        19,
        "73.1,7-8,11",
        "A, E, F, D",
        "Notify supervising stakeholder of a serious incident.",
        ("serious",),
    ),
    (
        20,
        "73.2-6",
        "A, E",
        "Establish and report on the definite, reasonably likely or suspected "
        "causal link between the system and a serious incident.",
        ("reasonably likely",),
    ),
    (21, "74.12", "A", "Securely provide documentation and data on system.", ()),
    (
        22,
        "78.2",
        "D",
        "Establish cybersecurity measures for data obtained from providers.",
        (),
    ),
    (
        23,
        "92.5,7",
        "C",
        "Supply information on testing, safeguards and risk mitigation measures "
        "at the request of the AI Office.",
        (),
    ),
)


def _parse_citation(citation: str) -> tuple[ArticleRef, ...]:
    """Expand a citation like ``73.1,7-8,11`` into per-paragraph refs.

    Compound paragraph ranges expand to explicit lists so ``duty_by_ref``
    can match any paragraph in the range. An annex segment applies to the
    whole citation.
    """
    article = annex = None
    paragraphs: list[int] = []
    for segment in (s.strip() for s in citation.split(",")):
        if segment.startswith(("Annex", "An.")):
            # keep only the numeral; the citation string preserves the form
            annex = segment.removeprefix("Annex").removeprefix("An.").strip()
            continue
        head, dot, spec = segment.rpartition(".")
        if dot:
            article = int(head)
        start, _, end = spec.partition("-")
        paragraphs.extend(range(int(start), int(end or start) + 1))
    return tuple(ArticleRef(article, p, annex) for p in paragraphs)


class DutyRegistry(NamedTuple):
    """All 23 duties, ordered by id."""

    duties: tuple[Duty, ...]

    def duty(self, duty_id: int) -> Duty:
        for duty in self.duties:
            if duty.id == duty_id:
                return duty
        raise KeyError(f"no duty with id {duty_id}")

    def duties_for_stakeholder(self, code: StakeholderCode | str) -> tuple[Duty, ...]:
        """Duties obligating the given stakeholder, ascending by id."""
        if isinstance(code, str):
            code = StakeholderCode[code]
        return tuple(d for d in self.duties if code in d.stakeholders)

    def duty_by_ref(self, article: int, paragraph: int | None = None) -> Duty | None:
        """Lowest-id duty citing the article (and paragraph, when given)."""
        for duty in self.duties:
            for ref in duty.article_refs:
                if ref.article == article and (paragraph is None or ref.paragraph == paragraph):
                    return duty
        return None


@cache
def load_registry() -> DutyRegistry:
    """Build one duty per embedded row. The rows are not validated here: the tests check them."""
    return DutyRegistry(tuple(
        Duty(duty_id, citation, _parse_citation(citation),
             tuple(StakeholderCode[code.strip()] for code in codes.split(",")), text, qualifiers)
        for duty_id, citation, codes, text, qualifiers in _ROWS
    ))


def registry_to_triples(registry: DutyRegistry) -> list[Triple]:
    """Deterministic triple view: type, citations, obligations, qualifiers."""
    triples: list[Triple] = []
    for duty in registry.duties:
        iri = vocab.duty_iri(duty.id)
        triples.append(Triple(iri, vocab.RDF_TYPE, vocab.DUTY))
        for ref in duty.article_refs:
            triples.append(Triple(iri, vocab.CITES_ARTICLE, Literal(ref.label)))
        for stakeholder in duty.stakeholders:
            triples.append(Triple(iri, vocab.OBLIGATES, vocab.stakeholder_iri(stakeholder.name)))
        for qualifier in duty.qualifiers:
            triples.append(Triple(iri, vocab.HAS_QUALIFIER, Literal(qualifier)))
    return triples


def registry_to_jsonl(registry: DutyRegistry, duties: tuple[Duty, ...] | None = None) -> str:
    """JSON Lines export, one duty per line, stable field order."""
    import json  # here, so that only this export loads it

    lines = []
    for duty in registry.duties if duties is None else duties:
        record = {
            "id": duty.id,
            "articles": [
                {"article": ref.article, "paragraph": ref.paragraph, "annex": ref.annex}
                for ref in duty.article_refs
            ],
            "stakeholders": [code.name for code in duty.stakeholders],
            "text": duty.text,
            "qualifiers": list(duty.qualifiers),
        }
        lines.append(json.dumps(record, ensure_ascii=False))
    return "\n".join(lines) + "\n"
