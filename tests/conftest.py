from __future__ import annotations

from pathlib import Path

import pytest

import euaia_assurance as ea

# The worked example for Art. 15(5) (duty 9) lives only in these files.
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ATTACK = ea.Iri("atk", "charCombo")


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def fixture_triples(name: str) -> frozenset[ea.Triple]:
    return ea.import_triples(fixture_text(name)).triples


@pytest.fixture(scope="session")
def registry():
    return ea.load_registry()


@pytest.fixture(scope="session")
def argument():
    return ea.parse_gsn(fixture_text("art15-5.gsn"))


@pytest.fixture(scope="session")
def base_store(registry, argument):
    # registry + argument + static filter links, the smallest store with a
    # complete evidence chain for duty 9
    store = ea.Store().assert_all(ea.registry_to_triples(registry))
    store = store.assert_all(ea.argument_to_triples(argument))
    return store.assert_all(fixture_triples("knowledge-links.ttl"))


@pytest.fixture(scope="session")
def full_store(base_store):
    return base_store.assert_all(fixture_triples("dynamic-links.ttl"))


@pytest.fixture(scope="session")
def toy_corpora():
    return (
        ea.parse_corpus(fixture_text("toy-adversarial.txt")),
        ea.parse_corpus(fixture_text("toy-benign.txt")),
    )


@pytest.fixture(scope="session")
def toy_model(toy_corpora):
    return ea.train_dynamic(*toy_corpora, corpus_ids=("toy-adversarial", "toy-benign"))
