from __future__ import annotations

from pathlib import Path
from typing import KeysView

import pytest

from euaia_assurance.duties import load_registry, registry_to_triples
from euaia_assurance.gsn import argument_to_triples, parse_gsn
from euaia_assurance.prompt_filter import parse_corpus, train_dynamic
from euaia_assurance.triples import Iri, Store, Triple, import_triples

# The worked example for Art. 15(5) (duty 9) lives only in these files.
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ATTACK = Iri("atk", "charCombo")


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def fixture_triples(name: str) -> KeysView[Triple]:
    return import_triples(fixture_text(name)).triples


@pytest.fixture(scope="session")
def registry():
    return load_registry()


@pytest.fixture(scope="session")
def argument():
    return parse_gsn(fixture_text("art15-5.gsn"))


@pytest.fixture(scope="session")
def base_store(registry, argument):
    # registry + argument + static filter links, the smallest store with a
    # complete evidence chain for duty 9
    store = Store().assert_all(registry_to_triples(registry))
    store = store.assert_all(argument_to_triples(argument))
    return store.assert_all(fixture_triples("knowledge-links.ttl"))


@pytest.fixture(scope="session")
def full_store(base_store):
    return base_store.assert_all(fixture_triples("dynamic-links.ttl"))


@pytest.fixture(scope="session")
def toy_corpora():
    return (
        parse_corpus(fixture_text("toy-adversarial.txt")),
        parse_corpus(fixture_text("toy-benign.txt")),
    )


@pytest.fixture(scope="session")
def toy_model(toy_corpora):
    return train_dynamic(*toy_corpora, corpus_ids=("toy-adversarial", "toy-benign"))
