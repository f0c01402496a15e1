"""Assurance tooling for EU AI Act duties and adversarial robustness.

The package keeps a registry of provider duties distilled from the EU AI
Act, represents safety arguments in Goal Structuring Notation, links both
into a small triple store, trains character statistics filters against
prompt injection, and reports duty coverage and causal traces. The
``euaia-assure`` command exposes the same operations on files.

Importing the package loads no submodule: each public name is imported
from its submodule on first use (PEP 562), so a command that never uses
the prompt filter never pays for loading it.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names the package takes from it.
_EXPORTS = {
    "coverage": (
        "CausalTrace", "CoverageError", "CoverageStatus", "DutyStatus", "causal_trace", "coverage_report",
        "coverage_to_tsv",
    ),
    "duties": (
        "ArticleRef", "Duty", "DutyRegistry", "RegistryError", "StakeholderCode", "load_registry",
        "registry_to_jsonl", "registry_to_triples",
    ),
    "factsheet": ("FactsheetError", "render_factsheet", "render_html"),
    "gsn": (
        "Diagnostic", "GsnArgument", "GsnEdge", "GsnError", "GsnNode", "GsnNodeKind", "GsnParseError",
        "GsnRelation", "Severity", "argument_to_triples", "parse_gsn", "render_dot", "serialize_gsn", "validate",
    ),
    "prompt_filter": (
        "CorpusFormatError", "FilterMetrics", "FilterModel", "ModelProvenance", "ScriptClass", "Verdict",
        "classify_dynamic", "classify_static", "compile_blocklist", "evaluate", "filter_to_triples", "load_model",
        "parse_corpus", "parse_labeled_corpus", "save_model", "score", "script_of", "train_dynamic",
    ),
    "triples": (
        "InputError", "Iri", "Literal", "NamespaceError", "Store", "Triple", "TripleParseError", "TriplePattern",
        "Variable", "export_triples", "import_triples", "parse_pattern", "serialize_triple",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
