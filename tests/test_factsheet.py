from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euaia_assurance import vocab
from euaia_assurance.coverage import CoverageError, causal_trace, coverage_report
from euaia_assurance.duties import registry_to_triples
from euaia_assurance.factsheet import FactsheetError, _argument_tree, render_factsheet, render_html
from euaia_assurance.gsn import (
    GsnArgument,
    GsnEdge,
    GsnNode,
    GsnNodeKind,
    GsnRelation,
    argument_to_triples,
    parse_gsn,
)
from euaia_assurance.prompt_filter import Verdict, evaluate, filter_to_triples
from euaia_assurance.triples import Iri, Literal, Store, Triple, TriplePattern, Variable

from recursive_tree import argument_tree as recursive_argument_tree


@pytest.fixture(scope="module")
def toy_metrics(toy_model, toy_corpora):
    adversarial, benign = toy_corpora
    labeled = [(p, Verdict.ADVERSARIAL) for p in adversarial] + [
        (p, Verdict.BENIGN) for p in benign
    ]
    return evaluate(toy_model, labeled)


@pytest.fixture(scope="module")
def rendered(registry, argument, full_store, toy_model, toy_metrics):
    store = full_store.assert_all(filter_to_triples(toy_model, toy_metrics))
    return render_factsheet(registry, argument, store, toy_metrics)


def test_sections_in_order(rendered):
    headings = [line for line in rendered.split("\n") if line.startswith("#")]
    assert headings == [
        "# Robustness Assurance Factsheet",
        "## 1. System identification",
        "## 2. Duty coverage",
        "## 3. Argument summary",
        "## 4. Defense metrics",
        "## 5. Open counterclaims",
        "## 6. Source provenance",
    ]


def test_duty_table_has_23_rows(rendered):
    rows = [
        line
        for line in rendered.split("\n")
        if line.startswith("|") and not line.startswith(("| #", "|--"))
    ]
    assert len(rows) == 23
    nine = next(row for row in rows if row.startswith("| 9 "))
    assert "| contested |" in nine
    assert "| 15.5 |" in nine
    assert sum("| uncovered |" in row for row in rows) == 22


def test_qualifiers_flag_human_judgment(rendered):
    assert "reasonably foreseeable (human judgment required)" in rendered
    nine = next(row for row in rendered.split("\n") if row.startswith("| 9 "))
    assert "| none |" in nine


def test_narrative_lines(rendered):
    assert (
        "- Duty 9 (15.5) is operationalized by a recorded argument and "
        "evidenced by 2 solutions; 1 counterclaim remains open." in rendered
    )
    assert "- 22 of 23 duties have no evidence-supported argument" in rendered


def test_argument_tree_names_evidence_and_challenges(rendered):
    assert "[evidence: def:staticFilter]" in rendered
    assert "[evidence: def:dynamicFilter]" in rendered
    assert "[challenged by CC1]" in rendered
    assert "[undeveloped]" in rendered
    assert "[context C1]" in rendered
    assert "[justification J1]" in rendered


def test_metrics_section(rendered):
    assert "- True positive rate: 1.0000" in rendered
    assert "- AUC: 1.0000" in rendered
    assert "- Dynamic filter trained on: src:toy-adversarial, src:toy-benign" in rendered


def test_counterclaims_section(rendered):
    assert "- CC1 challenges Sn1:" in rendered


def _section(text: str, heading: str) -> list[str]:
    body = text.split(f"## {heading}\n")[1].split("\n## ")[0]
    return [line for line in body.split("\n") if line]


def _challenge(counterclaim: str, node: str, statement: str | None = None) -> list[Triple]:
    cc = Iri("gsn", counterclaim)
    triples = [Triple(cc, Iri("gsn", "challenges"), Iri("gsn", node))]
    if statement is not None:
        triples.append(Triple(cc, Iri("gsn", "statement"), Literal(statement)))
    return triples


def test_store_only_counterclaims_are_listed_with_every_counted_one(registry, argument, full_store):
    store = full_store.assert_all(_challenge("CC2", "G3", "Scores drift as attackers adapt."))
    text = render_factsheet(registry, argument, store)
    assert "evidenced by 2 solutions; 2 counterclaims remain open." in text
    listed = _section(text, "5. Open counterclaims")
    assert listed == [
        "- CC1 challenges Sn1: Low-effort character attacks keep succeeding against deployed "
        "guardrails, so filtering alone may not hold.",
        "- CC2 challenges G3: Scores drift as attackers adapt.",
    ]
    counted = {cc for status in coverage_report(store, registry) for cc in status.counterclaims}
    assert counted == {"gsn:CC1", "gsn:CC2"}
    for curie in counted:
        assert any(line.startswith(f"- {curie.removeprefix('gsn:')} challenges") for line in listed)


def test_counterclaims_rebutted_in_the_store_are_in_neither_section(registry, argument, full_store):
    rebutted_by = Iri("assures", "rebuttedBy")
    store = full_store.assert_all(
        [
            Triple(Iri("gsn", "CC1"), rebutted_by, Iri("src", "fieldStudy")),
            *_challenge("CC2", "G3", "Rebutted elsewhere."),
            Triple(Iri("gsn", "CC2"), rebutted_by, Iri("src", "fieldStudy")),
            *_challenge("CC3", "Sn2", "Thresholds are tuned on the training prompts."),
        ]
    )
    text = render_factsheet(registry, argument, store)
    assert "evidenced by 2 solutions; 1 counterclaim remains open." in text
    assert _section(text, "5. Open counterclaims") == [
        "- CC3 challenges Sn2: Thresholds are tuned on the training prompts."
    ]


def test_argument_tree_marks_follow_the_open_counterclaims_of_the_store(registry, argument, full_store):
    def marked(store: Store) -> dict[str, list[str]]:
        tree = _section(render_factsheet(registry, argument, store), "3. Argument summary")
        return {line.split()[0]: line.split("[challenged by ")[1:] for line in tree if "[challenged by" in line}

    assert marked(full_store) == {"Sn1": ["CC1]"]}
    store = full_store.assert_all(_challenge("CC2", "G3"))
    assert marked(store) == {"Sn1": ["CC1]"], "G3": ["CC2]"]}
    rebuttal = Triple(Iri("gsn", "CC1"), Iri("assures", "rebuttedBy"), Iri("src", "fieldStudy"))
    rebutted = store.assert_triple(rebuttal)
    assert marked(rebutted) == {"G3": ["CC2]"]}


def test_counterclaim_without_a_statement_has_no_colon(registry, argument, full_store):
    text = render_factsheet(registry, argument, full_store.assert_all(_challenge("CC2", "G3")))
    assert "- CC2 challenges G3" in _section(text, "5. Open counterclaims")


def test_lists_read_from_the_index_keep_the_order_of_store_match(registry, argument, full_store):
    """Sections 3, 5 and 6 read the predicate index; each list keeps the order
    (and the first statement) that ``Store.match`` gives."""
    derived_from, statement = Iri("assures", "derivedFrom"), Iri("gsn", "statement")
    trained_on = Iri("assures", "trainedOn")
    extra = [
        *_challenge("CC2", "G3", "zz last"),
        Triple(Iri("gsn", "CC2"), statement, Literal("aa first")),
        Triple(Iri("gsn", "CC2"), statement, Iri("src", "aaNotALiteral")),
        Triple(Iri("gsn", "Sn1"), Iri("assures", "evidencedBy"), Literal("a report")),
        Triple(Iri("gsn", "Sn1"), Iri("assures", "evidencedBy"), Iri("def", "aFirst")),
        *(
            Triple(Iri("atk", subject), derived_from, Iri("src", source))
            for subject, source in [("b", "z"), ("a", "z"), ("c", "y"), ("a2", "y2"), ("a", "y"), ("b", "zz")]
        ),
        Triple(Iri("atk", "d"), derived_from, Literal("not a source")),
        Triple(Iri("src", "y"), Iri("rdf", "type"), Iri("assures", "Source")),
        *(Triple(Iri("def", "dynamicFilter"), trained_on, corpus) for corpus in (Iri("src", "b"), Iri("src", "a"))),
        Triple(Iri("def", "dynamicFilter"), trained_on, Literal("not a corpus")),
        Triple(Iri("def", "staticFilter"), trained_on, Iri("src", "c")),
    ]
    store = full_store.assert_all(extra)
    text = render_factsheet(registry, argument, store)

    derived = store.match(TriplePattern(Variable("x"), derived_from, Variable("s")))
    assert [line for line in _section(text, "6. Source provenance") if "derives from" in line] == [
        f"- {b['x'].curie} derives from {b['s'].curie}" for b in derived if isinstance(b["s"], Iri)
    ]
    assert "- Sources: src:charComboStudy, src:y" in _section(text, "6. Source provenance")
    assert _section(text, "6. Source provenance")[-1] == "- Training corpora: src:a, src:b"
    first = next(
        b["s"].text
        for b in store.match(TriplePattern(Iri("gsn", "CC2"), statement, Variable("s")))
        if isinstance(b["s"], Literal)
    )
    assert f"- CC2 challenges G3: {first}" in _section(text, "5. Open counterclaims")
    assert first == "aa first"
    assert "[evidence: a report, def:aFirst, def:staticFilter]" in text


def test_the_analyses_index_only_the_buckets_they_read(registry, argument, full_store):
    """Coverage, a causal trace and the factsheet group no bucket by hand: they
    read the store's cached indexes of the predicates they use, and index the
    whole store only by predicate."""
    store = Store(full_store.triples)
    coverage_report(store, registry)
    causal_trace(store, Iri("atk", "charCombo"))
    render_factsheet(registry, argument, store)
    assert {(None if p is None else p.curie, at) for p, at in store._indexes} == {
        (None, 1), ("gsn:supportedBy", 0), ("gsn:supportedBy", 2), ("rdf:type", 2), ("assures:evidencedBy", 0),
        ("assures:evidencedBy", 2), ("assures:operationalizes", 0), ("assures:operationalizes", 2),
        ("assures:rebuttedBy", 0), ("assures:mitigates", 2), ("assures:mitigatedBy", 0),
        ("assures:trainedOn", 0), ("gsn:statement", 0),
    }


def test_provenance_section(rendered):
    assert "- Sources: src:charComboStudy" in rendered
    assert "- atk:charCombo derives from src:charComboStudy" in rendered


def test_plain_punctuation(rendered):
    assert "—" not in rendered  # em dash
    assert "–" not in rendered  # en dash


def test_deterministic_output(registry, argument, full_store):
    first = render_factsheet(registry, argument, full_store)
    second = render_factsheet(registry, argument, full_store)
    assert first == second
    assert first.endswith("\n")


def test_metrics_optional(registry, argument, full_store):
    text = render_factsheet(registry, argument, full_store)
    section = text.split("## 4. Defense metrics")[1].split("##")[0]
    assert section.strip() == "None."


def test_empty_argument_renders(registry):
    store = Store().assert_all(registry_to_triples(registry))
    text = render_factsheet(registry, GsnArgument(), store)
    assert "- Argument: empty" in text
    summary = text.split("## 3. Argument summary")[1].split("##")[0]
    assert summary.strip() == "None."
    counterclaims = text.split("## 5. Open counterclaims")[1].split("##")[0]
    assert counterclaims.strip() == "None."
    provenance = text.split("## 6. Source provenance")[1]
    assert provenance.strip() == "None."


def test_copied_texts_keep_to_one_line(registry):
    """Statements, literals and the system name may hold line breaks; each is
    shown as ``\\n`` or ``\\r``, so the six sections and one fence stay."""
    argument = parse_gsn(
        'goal G1 "Top\\n```\\n## 5. Open counterclaims"\n'
        'solution Sn1 "Tested\\n```"\n'
        'context C1 "Scope\\n## 4. Defense metrics"\n'
        "edge G1 -> Sn1 supportedBy\nedge G1 -> C1 inContextOf\n"
    )
    store = Store().assert_all(registry_to_triples(registry)).assert_all(argument_to_triples(argument))
    store = store.assert_all(
        [
            Triple(Iri("gsn", "Sn1"), Iri("assures", "evidencedBy"), Literal("log\n```")),
            *_challenge("CC1", "G1", "Not so\n## 6. Source provenance"),
        ]
    )
    text = render_factsheet(registry, argument, store, system_name="Sys\r\n## 2. Duty coverage")
    lines = text.split("\n")
    assert "\r" not in text
    assert [line for line in lines if line.startswith("## ")] == [
        "## 1. System identification",
        "## 2. Duty coverage",
        "## 3. Argument summary",
        "## 4. Defense metrics",
        "## 5. Open counterclaims",
        "## 6. Source provenance",
    ]
    assert sum(line.startswith("```") for line in lines) == 2
    assert "- System: Sys\\r\\n## 2. Duty coverage" in lines
    assert _section(text, "3. Argument summary") == [
        "```",
        "G1 (goal) Top\\n```\\n## 5. Open counterclaims [challenged by CC1]",
        "  [context C1] Scope\\n## 4. Defense metrics",
        "  Sn1 (solution) Tested\\n``` [evidence: log\\n```]",
        "```",
    ]
    assert _section(text, "5. Open counterclaims") == ["- CC1 challenges G1: Not so\\n## 6. Source provenance"]
    page = render_html(text)
    assert page.count("<h2>") == 6
    assert page.count("<pre>") == 1
    assert page.index("</pre>") < page.index("<h2>4. Defense metrics</h2>")


# ----------------------------------------------------------------------
# refusals


@pytest.mark.parametrize(
    "text, message",
    [
        ('goal G1 "g"\nstrategy S1 "s"\nedge G1 -> S1 supportedBy\n', "S1: strategy has no supporting goal"),
        ('context C1 "c"\n', "argument: non-empty argument has no root goal"),
    ],
    ids=["strategy with no goal", "no root goal"],
)
def test_refuses_invalid_argument(registry, full_store, text, message):
    with pytest.raises(FactsheetError) as exc:
        render_factsheet(registry, parse_gsn(text), full_store)
    assert str(exc.value) == f"argument does not validate: {message}"


def test_refuses_unknown_duty_link(registry, argument, full_store):
    mislinked = argument.with_duty_link("euaia:d99")
    with pytest.raises(FactsheetError):
        render_factsheet(registry, mislinked, full_store)


def test_refuses_store_without_argument_triples(registry, argument):
    store = Store().assert_all(registry_to_triples(registry))
    with pytest.raises(FactsheetError):
        render_factsheet(registry, argument, store)


def test_refuses_a_node_typed_only_as_another_class(registry, argument):
    # Sn1 is a goal in the store but a solution in the argument
    sn1 = Iri("gsn", "Sn1")
    triples = [t for t in argument_to_triples(argument) if t != Triple(sn1, vocab.RDF_TYPE, vocab.SOLUTION)]
    store = Store().assert_all(registry_to_triples(registry))
    store = store.assert_all([*triples, Triple(sn1, vocab.RDF_TYPE, vocab.GOAL)])
    with pytest.raises(FactsheetError) as exc:
        render_factsheet(registry, argument, store)
    assert str(exc.value) == "store is missing the argument triples (node Sn1); assert them first"


def test_refuses_store_without_registry(registry, argument):
    store = Store().assert_all(argument_to_triples(argument))
    with pytest.raises(CoverageError):
        render_factsheet(registry, argument, store)


# ----------------------------------------------------------------------
# HTML


def test_html_is_standalone_and_well_formed(rendered):
    page = render_html(rendered)
    assert page.startswith("<!DOCTYPE html>\n")
    root = ET.fromstring(page.split("\n", 1)[1])
    assert root.tag == "html"
    assert "http://" not in page.replace("http://www.w3.org", "")
    assert "<script" not in page


def test_html_structure(rendered):
    page = render_html(rendered)
    assert page.count("<h1>") == 1
    assert page.count("<h2>") == 6
    assert page.count("<tr>") == 24  # header plus 23 duties
    assert "<pre><code>" in page
    assert "<title>Robustness Assurance Factsheet</title>" in page


def test_html_escapes_angle_brackets():
    page = render_html("# T\n\n- a < b and c > d\n")
    assert "a &lt; b" in page
    ET.fromstring(page.split("\n", 1)[1])


# ----------------------------------------------------------------------
# the argument tree against the recursive walk it replaced


@st.composite
def _trees(draw, forest=False):
    """A random DAG of goals with shared sub-goals, solutions, contexts,
    evidence and open counterclaims; with ``forest``, no goal has two parents."""
    size = draw(st.integers(1, 8))
    goals = [
        GsnNode(f"G{i}", GsnNodeKind.GOAL, f"goal {i}", draw(st.booleans())) for i in range(1, size + 1)
    ]
    solutions = [GsnNode(f"Sn{i}", GsnNodeKind.SOLUTION, f"solution\n{i}") for i in range(1, draw(st.integers(1, 3)))]
    contexts = [GsnNode(f"C{i}", GsnNodeKind.CONTEXT, f"context {i}") for i in range(1, draw(st.integers(1, 3)))]
    goal_ids = st.sampled_from([g.id for g in goals])
    pairs = draw(st.lists(st.tuples(st.integers(1, size), st.integers(1, size)), max_size=16))
    if forest:
        pairs = list({b: (a, b) for a, b in pairs}.values())
    edges = [GsnEdge(f"G{a}", f"G{b}", GsnRelation.SUPPORTED_BY) for a, b in pairs if a < b]
    edges += [GsnEdge(draw(goal_ids), s.id, GsnRelation.SUPPORTED_BY) for s in solutions]
    edges += [GsnEdge(draw(goal_ids), c.id, GsnRelation.IN_CONTEXT_OF) for c in contexts]
    argument = GsnArgument(goals + solutions + contexts, edges)
    node_iris = st.sampled_from([vocab.gsn_node_iri(n.id) for n in argument.nodes])
    items = st.sampled_from([Iri("def", "e1"), Literal("a\nb")])
    evidence = draw(st.lists(st.tuples(node_iris, items), max_size=4))
    store = Store(Triple(node, vocab.EVIDENCED_BY, item) for node, item in evidence)
    counterclaims = draw(st.lists(st.tuples(st.sampled_from([Iri("gsn", "CC1"), Iri("gsn", "CC2")]), node_iris)))
    return argument, store, counterclaims


@settings(max_examples=300, deadline=None)
@given(_trees(forest=True))
def test_argument_tree_matches_the_recursive_walk(case):
    """In a forest no node is met twice, so printing each node once changes nothing."""
    assert _argument_tree(*case) == recursive_argument_tree(*case)


def _node_lines(lines: list[str]) -> list[tuple[str, bool]]:
    """(id, shown above) of each node line of a printed tree, in order; attachment lines are skipped."""
    return [
        (line.split(" ", 1)[0], line.endswith(") [shown above]"))
        for line in map(str.strip, lines)
        if not line.startswith("[")
    ]


@settings(max_examples=300, deadline=None)
@given(_trees())
def test_argument_tree_prints_each_node_once(case):
    argument = case[0]
    nodes = _node_lines(_argument_tree(*case))
    reachable, stack = set(), [root.id for root in argument.root_goals()]
    while stack:
        node_id = stack.pop()
        if node_id not in reachable:
            reachable.add(node_id)
            stack.extend(argument.supported_children(node_id))
    full = {node_id: at for at, (node_id, again) in enumerate(nodes) if not again}
    assert sorted(node_id for node_id, again in nodes if not again) == sorted(reachable)
    supported = [edge for edge in argument.edges if edge.relation is GsnRelation.SUPPORTED_BY]
    assert len(nodes) == len(argument.root_goals()) + len(supported)
    assert all(full[node_id] < at for at, (node_id, again) in enumerate(nodes) if again)


def _diamonds(layers: int) -> GsnArgument:
    """A top goal, then ``layers`` diamonds: two goals that both support the goal
    above and are both supported by one join goal, the next diamond's top; the last
    join goal is supported by one solution. Every path down is printed in full
    without print-once: 2 ** layers of them."""
    nodes = [GsnNode("G1", GsnNodeKind.GOAL, "top"), GsnNode("Sn1", GsnNodeKind.SOLUTION, "evidence")]
    edges = [GsnEdge(f"G{3 * layers + 1}", "Sn1", GsnRelation.SUPPORTED_BY)]
    for top in range(1, 3 * layers, 3):
        nodes += [GsnNode(f"G{top + k}", GsnNodeKind.GOAL, f"goal {top + k}") for k in (1, 2, 3)]
        edges += [GsnEdge(f"G{top}", f"G{top + k}", GsnRelation.SUPPORTED_BY) for k in (1, 2)]
        edges += [GsnEdge(f"G{top + k}", f"G{top + 3}", GsnRelation.SUPPORTED_BY) for k in (1, 2)]
    return GsnArgument(nodes, edges, "euaia:d9")


def test_a_deep_diamond_argument_prints_in_linear_size(registry):
    argument = _diamonds(40)
    assert (len(argument.nodes), len(argument.edges)) == (122, 161)
    store = Store().assert_all(registry_to_triples(registry) + argument_to_triples(argument))
    text = render_factsheet(registry, argument, store)
    tree = text.split("## 3. Argument summary\n\n```\n", 1)[1].split("\n```\n", 1)[0].split("\n")
    assert len(_node_lines(tree)) == 162  # the root goal plus one line per supportedBy edge
    assert len(text.encode("utf-8")) < 25_000
