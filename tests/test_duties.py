from __future__ import annotations

import json
from collections import Counter

import pytest

import checked_registry
from euaia_assurance import duties
from euaia_assurance.duties import (
    PROVENANCE,
    QUALIFIER_VOCABULARY,
    STAKEHOLDER_A_COUNT_NOTE,
    StakeholderCode,
    load_registry,
    registry_to_jsonl,
    registry_to_triples,
)
from euaia_assurance.triples import Iri, Literal


def test_registry_has_exactly_23_duties(registry):
    assert len(registry.duties) == 23
    assert [d.id for d in registry.duties] == list(range(1, 24))


def test_load_registry_is_cached():
    assert load_registry() is load_registry()


def test_registry_equals_the_checked_loader():
    checked = checked_registry.load_registry()
    assert load_registry() == checked
    for duty, expected in zip(load_registry().duties, checked.duties, strict=True):
        assert duty._fields == expected._fields
        for field, value, expected_value in zip(duty._fields, duty, expected, strict=True):
            assert value == expected_value and type(value) is type(expected_value), (duty.id, field)
        for ref, expected_ref in zip(duty.article_refs, expected.article_refs, strict=True):
            assert list(map(type, ref)) == list(map(type, expected_ref)), (duty.id, ref)


@pytest.mark.parametrize(
    "row, message",
    [
        ((2, "9.2", "A", "x", ()), "duty 2: out of order (expected 1)"),
        ((1, "9.2", "A", "", ()), "duty 1: empty text"),
        ((1, "9.2", "Z", "x", ()), "duty 1: unknown stakeholder code 'Z'"),
        ((1, "9.2", "A", "x", ("vague",)), "duty 1: qualifiers outside vocabulary: ['vague']"),
        ((1, "9.5-2", "A", "x", ()), "duty 1: descending paragraph range '9.5-2'"),
        ((1, "9.2, 10.1", "A", "x", ()), "duty 1: citation names two articles"),
        ((1, "Annex IV", "A", "x", ()), "duty 1: citation 'Annex IV' names no article paragraph"),
    ],
)
def test_the_checked_loader_refuses_a_broken_row(monkeypatch, row, message):
    monkeypatch.setattr(duties, "_ROWS", (row, *duties._ROWS[1:]))
    with pytest.raises(checked_registry.RegistryError) as exc:
        checked_registry.load_registry()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "code, expected",
    [
        ("A", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 19, 20, 21]),
        ("B", [11]),
        ("C", [12, 13, 14, 23]),
        ("D", [15, 16, 17, 18, 19, 22]),
        ("E", [19, 20]),
        ("F", [19]),
    ],
)
def test_stakeholder_queries(registry, code, expected):
    assert [d.id for d in registry.duties_for_stakeholder(code)] == expected


def test_stakeholder_a_count_is_documented():
    # the registry carries 14 duties for code A; the note flags the
    # fifteen-duty count that appears in some prose summaries
    assert "14" in STAKEHOLDER_A_COUNT_NOTE
    assert "fifteen" in STAKEHOLDER_A_COUNT_NOTE


def test_stakeholder_display_names():
    assert StakeholderCode.A.display_name == "High-risk AI System Provider"
    assert StakeholderCode.B.display_name == "Notified Body"
    assert StakeholderCode.C.display_name == "General-Purpose AI Provider"
    assert StakeholderCode.D.display_name == "National Competent Authority"
    assert StakeholderCode.E.display_name == "Deployer"
    assert StakeholderCode.F.display_name == "Market Surveillance Authority"


@pytest.mark.parametrize(
    "duty_id, citation, labels",
    [
        (9, "15.5", ["15.5"]),
        (19, "73.1,7-8,11", ["73.1", "73.7", "73.8", "73.11"]),
        (20, "73.2-6", ["73.2", "73.3", "73.4", "73.5", "73.6"]),
        (23, "92.5,7", ["92.5", "92.7"]),
    ],
)
def test_citation_expansion(registry, duty_id, citation, labels):
    duty = registry.duty(duty_id)
    assert duty.citation == citation
    assert [ref.label for ref in duty.article_refs] == labels


def test_annex_citations(registry):
    duty4 = registry.duty(4)
    assert duty4.citation == "13.3, Annex IV"
    assert duty4.article_refs[0].annex == "IV"
    duty13 = registry.duty(13)
    assert duty13.citation == "53.1, An.XI"
    assert duty13.article_refs[0].annex == "XI"


def test_qualifiers_come_from_closed_vocabulary(registry):
    for duty in registry.duties:
        assert set(duty.qualifiers) <= QUALIFIER_VOCABULARY
    assert registry.duty(1).qualifiers == ("reasonably foreseeable",)
    assert registry.duty(12).qualifiers == ("robustly", "reliably")
    assert registry.duty(9).qualifiers == ()


def test_every_duty_is_marked_paraphrased(registry):
    assert all(duty.provenance == PROVENANCE for duty in registry.duties)


def test_duty_9_targets_adversarial_attacks(registry):
    duty = registry.duty(9)
    assert "adversarial" in duty.text
    assert "poisoning" in duty.text
    assert duty.stakeholders == (StakeholderCode.A,)


def test_unknown_duty_id_raises(registry):
    with pytest.raises(KeyError):
        registry.duty(24)


def test_duty_by_ref(registry):
    assert registry.duty_by_ref(15, 5).id == 9
    assert registry.duty_by_ref(73, 3).id == 20
    assert registry.duty_by_ref(73, 1).id == 19
    # article-only lookup returns the lowest-numbered match
    assert registry.duty_by_ref(73).id == 19
    assert registry.duty_by_ref(99) is None


def test_registry_triples_shape(registry):
    triples = registry_to_triples(registry)
    assert len(triples) == len(set(triples)) == 98
    by_predicate = Counter(t.predicate.curie for t in triples)
    assert by_predicate == {
        "rdf:type": 23,
        "euaia:citesArticle": 31,
        "euaia:obligates": 28,
        "euaia:hasQualifier": 16,
    }
    d19 = {t for t in triples if t.subject == Iri("euaia", "d19")}
    obligated = {t.object for t in d19 if t.predicate.curie == "euaia:obligates"}
    assert obligated == {
        Iri("euaia", f"stakeholder{code}") for code in ("A", "E", "F", "D")
    }
    cited = {t.object for t in d19 if t.predicate.curie == "euaia:citesArticle"}
    assert cited == {Literal(label) for label in ("73.1", "73.7", "73.8", "73.11")}


def test_registry_jsonl(registry):
    lines = registry_to_jsonl(registry).strip().split("\n")
    assert len(lines) == 23
    rows = [json.loads(line) for line in lines]
    assert [row["id"] for row in rows] == list(range(1, 24))
    assert list(rows[0]) == ["id", "articles", "stakeholders", "text", "qualifiers"]
    d19 = rows[18]
    assert d19["stakeholders"] == ["A", "E", "F", "D"]
    assert d19["articles"][0] == {"article": 73, "paragraph": 1, "annex": None}
    d4 = rows[3]
    assert d4["articles"] == [{"article": 13, "paragraph": 3, "annex": "IV"}]
