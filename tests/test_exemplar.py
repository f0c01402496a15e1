"""Checks of the worked example in ``fixtures/``, its only copy."""

from __future__ import annotations

import pytest

import euaia_assurance as ea
from euaia_assurance.gsn import GsnNodeKind

from conftest import ATTACK, FIXTURES, fixture_text, fixture_triples


def test_exemplar_argument_is_clean(argument):
    assert ea.validate(argument) == []
    assert argument.duty_link == "euaia:d9"
    kinds = [node.kind for node in argument.nodes]
    assert kinds.count(GsnNodeKind.GOAL) == 4
    assert kinds.count(GsnNodeKind.SOLUTION) == 2
    assert kinds.count(GsnNodeKind.COUNTERCLAIM) == 1


def test_gsn_fixture_is_canonical(argument):
    assert ea.serialize_gsn(argument) == fixture_text("art15-5.gsn")


@pytest.mark.parametrize("name", ["knowledge-links.ttl", "dynamic-links.ttl"])
def test_link_fixtures_are_canonical_and_wire_the_attack(name):
    assert ea.export_triples(ea.import_triples(fixture_text(name))) == fixture_text(name)
    assert any(t.subject == ATTACK for t in fixture_triples(name))


def test_toy_corpus_fixtures():
    assert ea.parse_corpus(fixture_text("toy-adversarial.txt")) == ["!x!", "!!y"]
    assert ea.parse_corpus(fixture_text("toy-benign.txt")) == ["xy", "yy"]


def test_toy_labeled_fixture():
    labeled = ea.parse_labeled_corpus((FIXTURES / "toy-labeled.txt").read_text())
    assert [(p, v.value) for p, v in labeled] == [
        ("!x!", "adversarial"),
        ("!!y", "adversarial"),
        ("xy", "benign"),
        ("yy", "benign"),
    ]


def test_big_corpora_fixtures_train_a_separating_model():
    adversarial = ea.parse_corpus((FIXTURES / "adversarial.txt").read_text())
    benign = ea.parse_corpus((FIXTURES / "benign.txt").read_text())
    assert len(adversarial) == len(benign) == 12
    model = ea.train_dynamic(adversarial, benign)
    labeled = [(p, ea.Verdict.ADVERSARIAL) for p in adversarial] + [
        (p, ea.Verdict.BENIGN) for p in benign
    ]
    metrics = ea.evaluate(model, labeled)
    assert metrics.auc is not None and metrics.auc > 0.95
    assert metrics.true_positive_rate >= 0.9
    assert metrics.false_positive_rate <= 0.1
