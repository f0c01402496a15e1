"""Human-readable factsheet rendering of an assembled assurance case.

The factsheet is deterministic Markdown in six fixed sections: system
identification, duty coverage, argument summary, defense metrics, open
counterclaims, and source provenance. ``render_html`` wraps the same
content as a standalone page with no external resources.

Rendering refuses inconsistent inputs rather than glossing over them: the
argument must validate, its duty link must name a registry duty, and the
store must already contain the registry and argument triples.
"""

from __future__ import annotations

import html as _html
from typing import TYPE_CHECKING

from . import vocab
from .coverage import CoverageStatus, coverage_report, open_counterclaims
from .gsn import _CLASS_IRIS, GsnArgument, GsnNodeKind, GsnRelation, Severity, validate
from .triples import Iri, Literal, Store, Triple, TriplePattern, Variable, serialize_term

if TYPE_CHECKING:
    from .duties import DutyRegistry
    from .prompt_filter import FilterMetrics

TITLE = "Robustness Assurance Factsheet"


class FactsheetError(ValueError):
    """Inputs are inconsistent; the factsheet would misrepresent them."""


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _one_line(text: str) -> str:
    """``text`` as one Markdown line: a line break is shown as ``\\r`` or ``\\n``,
    so that copied text cannot close a fence or start a heading."""
    return text.replace("\r", "\\r").replace("\n", "\\n")


def _check_inputs(registry: DutyRegistry, argument: GsnArgument, store: Store) -> None:
    errors = [d for d in validate(argument) if d.severity is Severity.ERROR]
    if errors:
        raise FactsheetError(f"argument does not validate: {errors[0].subject}: {errors[0].message}")
    if argument.duty_link is not None:
        iri = Iri.parse(argument.duty_link)
        known = {vocab.duty_iri(d.id) for d in registry.duties}
        if iri not in known:
            raise FactsheetError(f"argument duty link {argument.duty_link} is not a registry duty")
    for node in argument.nodes:
        if Triple(vocab.gsn_node_iri(node.id), vocab.RDF_TYPE, _CLASS_IRIS[node.kind]) not in store:
            raise FactsheetError(
                f"store is missing the argument triples (node {node.id}); assert them first"
            )


def render_factsheet(
    registry: DutyRegistry,
    argument: GsnArgument,
    store: Store,
    metrics: FilterMetrics | None = None,
    *,
    system_name: str = "LLM-based system",
) -> str:
    """Render the six-section Markdown factsheet. Pure and deterministic:
    the same inputs produce byte-identical output."""
    _check_inputs(registry, argument, store)
    report = coverage_report(store, registry)
    trained_on = sorted(
        t.object.curie
        for t in store._index(vocab.TRAINED_ON, 0).get(vocab.DYNAMIC_FILTER, ())
        if isinstance(t.object, Iri)
    )

    lines: list[str] = [f"# {TITLE}", ""]

    # 1 ------------------------------------------------------------------
    lines += ["## 1. System identification", ""]
    lines.append(f"- System: {_one_line(system_name)}")
    lines.append(f"- Duty registry: {len(registry.duties)} EU AI Act duties, {registry.duties[0].provenance}")
    lines.append(f"- Assembled store: {len(store)} triples")
    if argument.nodes:
        link = argument.duty_link or "no duty link"
        lines.append(
            f"- Argument: {len(argument.nodes)} nodes, {len(argument.edges)} edges, {link}"
        )
    else:
        lines.append("- Argument: empty")
    lines.append("")

    # 2 ------------------------------------------------------------------
    lines += ["## 2. Duty coverage", ""]
    lines.append("| # | Articles | Stakeholders | Status | Qualifiers | Duty |")
    lines.append("|---|---|---|---|---|---|")
    by_id = {status.duty_id: status for status in report}
    for duty in registry.duties:
        status = by_id[duty.id]
        stakeholders = ", ".join(code.name for code in duty.stakeholders)
        if duty.qualifiers:
            qualifiers = ", ".join(duty.qualifiers) + " (human judgment required)"
        else:
            qualifiers = "none"
        lines.append(
            f"| {duty.id} | {duty.citation} | {stakeholders} | {status.status.value} "
            f"| {qualifiers} | {duty.text} |"
        )
    lines.append("")
    uncovered = 0
    for duty in registry.duties:
        status = by_id[duty.id]
        if status.status is CoverageStatus.UNCOVERED:
            uncovered += 1
            continue
        sentence = (
            f"- Duty {duty.id} ({duty.citation}) is operationalized by a recorded argument"
        )
        if status.status is CoverageStatus.PARTIAL:
            sentence += " whose branches are not yet developed into evidenced solutions."
        else:
            sentence += f" and evidenced by {_count(len(status.supporting_solutions), 'solution')}"
            if status.status is CoverageStatus.CONTESTED:
                open_count = len(status.counterclaims)
                verb = "remains" if open_count == 1 else "remain"
                sentence += f"; {_count(open_count, 'counterclaim')} {verb} open."
            else:
                sentence += "."
        lines.append(sentence)
    lines.append(f"- {uncovered} of {len(registry.duties)} duties have no evidence-supported argument and are uncovered.")
    lines.append("")

    # 3 ------------------------------------------------------------------
    lines += ["## 3. Argument summary", ""]
    counterclaims = open_counterclaims(store)
    if argument.nodes:
        lines.append("```")
        lines.extend(_argument_tree(argument, store, counterclaims))
        lines.append("```")
    else:
        lines.append("None.")
    lines.append("")

    # 4 ------------------------------------------------------------------
    lines += ["## 4. Defense metrics", ""]
    if metrics is None:
        lines.append("None.")
    else:
        lines.append(f"- True positive rate: {metrics.true_positive_rate:.4f}")
        lines.append(f"- False positive rate: {metrics.false_positive_rate:.4f}")
        lines.append(f"- Precision: {metrics.precision:.4f}")
        auc = "undefined (single-class corpus)" if metrics.auc is None else f"{metrics.auc:.4f}"
        lines.append(f"- AUC: {auc}")
        lines.append(
            f"- Evaluation corpus: {metrics.corpus_sizes[0]} adversarial, "
            f"{metrics.corpus_sizes[1]} benign prompts"
        )
        if trained_on:
            lines.append(f"- Dynamic filter trained on: {', '.join(trained_on)}")
    lines.append("")

    # 5 ------------------------------------------------------------------
    lines += ["## 5. Open counterclaims", ""]
    if counterclaims:
        lines.extend(_counterclaim_lines(store, counterclaims))
    else:
        lines.append("None.")
    lines.append("")

    # 6 ------------------------------------------------------------------
    lines += ["## 6. Source provenance", ""]
    provenance = _source_lines(store, trained_on)
    if provenance:
        lines.extend(provenance)
    else:
        lines.append("None.")
    lines.append("")

    return "\n".join(lines)


def _argument_tree(argument: GsnArgument, store: Store, counterclaims: list[tuple[Iri, Iri]]) -> list[str]:
    attachments: dict[str, list[str]] = {}
    for edge in argument.edges:
        if edge.relation is GsnRelation.IN_CONTEXT_OF:
            attachments.setdefault(edge.source, []).append(edge.target)
    challenges: dict[Iri, list[str]] = {}
    for counterclaim, node in counterclaims:
        challenges.setdefault(node, []).append(counterclaim.curie.removeprefix("gsn:"))
    evidence = store._index(vocab.EVIDENCED_BY, 0)

    # Depth first with an explicit stack, roots in canonical order and children
    # sorted, so that no depth of argument exhausts the call stack; a node met
    # again is one "[shown above]" line, and its subtree is not walked again.
    out: list[str] = []
    printed: set[str] = set()
    stack = [(root.id, 0) for root in reversed(argument.root_goals())]
    while stack:
        node_id, depth = stack.pop()
        node = argument.node(node_id)
        indent = "  " * depth
        if node_id in printed:
            out.append(f"{indent}{node.id} ({node.kind.value}) [shown above]")
            continue
        printed.add(node_id)
        line = f"{indent}{node.id} ({node.kind.value}) {_one_line(node.statement)}"
        if node.undeveloped:
            line += " [undeveloped]"
        if node.kind is GsnNodeKind.SOLUTION:
            found = sorted(
                t.object.curie if isinstance(t.object, Iri) else _one_line(t.object.text)
                for t in evidence.get(vocab.gsn_node_iri(node.id), ())
            )
            if found:
                line += f" [evidence: {', '.join(found)}]"
        for challenger in sorted(challenges.get(vocab.gsn_node_iri(node.id), ())):
            line += f" [challenged by {challenger}]"
        out.append(line)
        for attached in sorted(attachments.get(node.id, ())):
            attached_node = argument.node(attached)
            out.append(f"{indent}  [{attached_node.kind.value} {attached}] {_one_line(attached_node.statement)}")
        stack.extend((child, depth + 1) for child in sorted(argument.supported_children(node_id), reverse=True))
    return out


def _counterclaim_lines(store: Store, counterclaims: list[tuple[Iri, Iri]]) -> list[str]:
    """Each open counterclaim of the store, with its ``gsn:statement`` when it has one.

    A counterclaim with several statements shows the first in serialized order.
    """
    statements = store._index(vocab.GSN_STATEMENT, 0)
    lines = []
    for counterclaim, node in counterclaims:
        line = f"- {counterclaim.curie.removeprefix('gsn:')} challenges {node.curie.removeprefix('gsn:')}"
        found = [t.object for t in statements.get(counterclaim, ()) if isinstance(t.object, Literal)]
        lines.append(f"{line}: {_one_line(min(found, key=serialize_term).text)}" if found else line)
    return sorted(lines)


def _source_lines(store: Store, trained_on: list[str]) -> list[str]:
    lines = []
    sources = sorted(t.subject.curie for t in store._index(vocab.RDF_TYPE, 2).get(vocab.SOURCE, ()))
    if sources:
        lines.append(f"- Sources: {', '.join(sources)}")
    for b in store.match(TriplePattern(Variable("x"), vocab.DERIVED_FROM, Variable("s"))):
        if isinstance(b["s"], Iri):
            lines.append(f"- {b['x'].curie} derives from {b['s'].curie}")
    if trained_on:
        lines.append(f"- Training corpora: {', '.join(trained_on)}")
    return lines


# ----------------------------------------------------------------------
# HTML

_STYLE = (
    "body{font-family:Georgia,serif;max-width:60em;margin:2em auto;padding:0 1em;"
    "color:#1a1a1a;background:#ffffff}"
    "table{border-collapse:collapse;width:100%}"
    "th,td{border:1px solid #999;padding:0.3em 0.5em;text-align:left;vertical-align:top}"
    "pre{background:#f4f4f4;padding:0.8em;overflow-x:auto}"
)


def _escape(text: str) -> str:
    return _html.escape(text, quote=False)


def render_html(markdown_text: str) -> str:
    """Standalone HTML page for a factsheet rendered by this module.

    Handles the Markdown subset the renderer emits: headings, pipe tables,
    fenced code blocks, unordered lists and paragraphs. No scripts, no
    external resources.
    """
    body: list[str] = []
    lines = markdown_text.split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("```"):
            block: list[str] = []
            i += 1
            while i < len(lines) and not lines[i].startswith("```"):
                block.append(_escape(lines[i]))
                i += 1
            i += 1
            body.append("<pre><code>" + "\n".join(block) + "</code></pre>")
        elif line.startswith("## "):
            body.append(f"<h2>{_escape(line[3:])}</h2>")
            i += 1
        elif line.startswith("# "):
            body.append(f"<h1>{_escape(line[2:])}</h1>")
            i += 1
        elif line.startswith("|"):
            rows: list[str] = []
            while i < len(lines) and lines[i].startswith("|"):
                rows.append(lines[i])
                i += 1
            body.append(_table_html(rows))
        elif line.startswith("- "):
            items: list[str] = []
            while i < len(lines) and lines[i].startswith("- "):
                items.append(f"<li>{_escape(lines[i][2:])}</li>")
                i += 1
            body.append("<ul>" + "".join(items) + "</ul>")
        elif line.strip():
            body.append(f"<p>{_escape(line.strip())}</p>")
            i += 1
        else:
            i += 1
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8"/>\n'
        f"<title>{_escape(TITLE)}</title>\n"
        f"<style>{_STYLE}</style>\n</head>\n<body>\n" + "\n".join(body) + "\n</body>\n</html>\n"
    )


def _cells(row: str) -> list[str]:
    return [cell.strip() for cell in row.strip().strip("|").split("|")]


def _table_html(rows: list[str]) -> str:
    header = _cells(rows[0])
    out = ["<table>", "<thead><tr>"]
    out.extend(f"<th>{_escape(cell)}</th>" for cell in header)
    out.append("</tr></thead>")
    out.append("<tbody>")
    for row in rows[2:]:
        out.append("<tr>" + "".join(f"<td>{_escape(cell)}</td>" for cell in _cells(row)) + "</tr>")
    out.append("</tbody></table>")
    return "".join(out)
