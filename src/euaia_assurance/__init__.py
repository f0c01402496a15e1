"""Assurance tooling for EU AI Act duties and adversarial robustness.

The package keeps a registry of provider duties distilled from the EU AI
Act, represents safety arguments in Goal Structuring Notation, links both
into a small triple store, trains character statistics filters against
prompt injection, and reports duty coverage and causal traces. The
``euaia-assure`` command exposes the same operations on files.

Names are imported from their submodules (``from euaia_assurance.triples
import Store``), and importing the package loads none of them.
"""

__version__ = "0.1.0"
