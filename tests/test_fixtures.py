"""Checks of the worked example in ``fixtures/``, its only copy."""

from __future__ import annotations

import pytest

from euaia_assurance.gsn import GsnNodeKind, serialize_gsn, validate
from euaia_assurance.prompt_filter import Verdict, evaluate, parse_corpus, parse_labeled_corpus, train_dynamic
from euaia_assurance.triples import export_triples, import_triples

from conftest import ATTACK, FIXTURES, fixture_text, fixture_triples


def test_exemplar_argument_is_clean(argument):
    assert validate(argument) == []
    assert argument.duty_link == "euaia:d9"
    kinds = [node.kind for node in argument.nodes]
    assert kinds.count(GsnNodeKind.GOAL) == 4
    assert kinds.count(GsnNodeKind.SOLUTION) == 2
    assert kinds.count(GsnNodeKind.COUNTERCLAIM) == 1


def test_gsn_fixture_is_canonical(argument):
    assert serialize_gsn(argument) == fixture_text("art15-5.gsn")


@pytest.mark.parametrize("name", ["knowledge-links.ttl", "dynamic-links.ttl"])
def test_link_fixtures_are_canonical_and_wire_the_attack(name):
    assert export_triples(import_triples(fixture_text(name))) == fixture_text(name)
    assert any(t.subject == ATTACK for t in fixture_triples(name))


def test_toy_corpus_fixtures():
    assert parse_corpus(fixture_text("toy-adversarial.txt")) == ["!x!", "!!y"]
    assert parse_corpus(fixture_text("toy-benign.txt")) == ["xy", "yy"]


def test_toy_labeled_fixture():
    labeled = parse_labeled_corpus((FIXTURES / "toy-labeled.txt").read_text())
    assert [(p, v.value) for p, v in labeled] == [
        ("!x!", "adversarial"),
        ("!!y", "adversarial"),
        ("xy", "benign"),
        ("yy", "benign"),
    ]


def test_big_corpora_fixtures_train_a_separating_model():
    adversarial = parse_corpus((FIXTURES / "adversarial.txt").read_text())
    benign = parse_corpus((FIXTURES / "benign.txt").read_text())
    assert len(adversarial) == len(benign) == 12
    model = train_dynamic(adversarial, benign)
    labeled = [(p, Verdict.ADVERSARIAL) for p in adversarial] + [
        (p, Verdict.BENIGN) for p in benign
    ]
    metrics = evaluate(model, labeled)
    assert metrics.auc is not None and metrics.auc > 0.95
    assert metrics.true_positive_rate >= 0.9
    assert metrics.false_positive_rate <= 0.1
