"""IRI vocabulary shared across the toolkit.

Classes and predicates are ordinary IRIs with no inference semantics
attached; consumers query them with plain pattern matching. The two
enumerations the command line offers as choices live here too, so that
building its parser loads no handler module.
"""

from __future__ import annotations

from enum import Enum

from .triples import Iri

RDF_TYPE = Iri("rdf", "type")

# duty registry
DUTY = Iri("euaia", "Duty")
CITES_ARTICLE = Iri("euaia", "citesArticle")
OBLIGATES = Iri("euaia", "obligates")
HAS_QUALIFIER = Iri("euaia", "hasQualifier")

# argument structure
GOAL = Iri("gsn", "Goal")
STRATEGY = Iri("gsn", "Strategy")
SOLUTION = Iri("gsn", "Solution")
GSN_STATEMENT = Iri("gsn", "statement")
GSN_SUPPORTED_BY = Iri("gsn", "supportedBy")
GSN_IN_CONTEXT_OF = Iri("gsn", "inContextOf")
GSN_CHALLENGES = Iri("gsn", "challenges")

# cross-domain assurance links
OPERATIONALIZES = Iri("assures", "operationalizes")
EVIDENCED_BY = Iri("assures", "evidencedBy")
MITIGATES = Iri("assures", "mitigates")
# Inverse of MITIGATES, asserted alongside it so causal chains can start
# with the attack in subject position while staying verbatim store triples.
MITIGATED_BY = Iri("assures", "mitigatedBy")
DERIVED_FROM = Iri("assures", "derivedFrom")
REBUTTED_BY = Iri("assures", "rebuttedBy")
HAS_METRIC = Iri("assures", "hasMetric")
TRAINED_ON = Iri("assures", "trainedOn")

ATTACK = Iri("assures", "Attack")
DEFENSE = Iri("assures", "Defense")
SOURCE = Iri("assures", "Source")
DYNAMIC_FILTER = Iri("def", "dynamicFilter")  # the toolkit's own defense, and the attack it mitigates
CHAR_COMBO = Iri("atk", "charCombo")


def duty_iri(duty_id: int) -> Iri:
    return Iri("euaia", f"d{duty_id}")


def stakeholder_iri(code: str) -> Iri:
    return Iri("euaia", f"stakeholder{code}")


def gsn_node_iri(node_id: str) -> Iri:
    return Iri("gsn", node_id)


class StakeholderCode(Enum):
    """Stakeholder classes the Act addresses, keyed by their table code."""

    A = "High-risk AI System Provider"
    B = "Notified Body"
    C = "General-Purpose AI Provider"
    D = "National Competent Authority"
    E = "Deployer"
    F = "Market Surveillance Authority"

    @property
    def display_name(self) -> str:
        return self.value


class ScriptClass(Enum):
    LATIN = "Latin"
    HAN = "Han"
    CYRILLIC = "Cyrillic"
    GREEK = "Greek"
    COMMON = "Common"
    OTHER = "Other"
