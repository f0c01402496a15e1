from __future__ import annotations

import copy
import itertools
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from euaia_assurance.gsn import (
    ID_PREFIXES,
    Diagnostic,
    GsnArgument,
    GsnEdge,
    GsnError,
    GsnNode,
    GsnNodeKind,
    GsnParseError,
    GsnRelation,
    Severity,
    argument_to_triples,
    parse_gsn,
    render_dot,
    serialize_gsn,
    validate,
    _strip_comment,
)
from euaia_assurance.triples import Iri, Literal
from char_scanner import strip_comment as char_strip_comment
from incremental_gsn import parse_gsn_incrementally

K = GsnNodeKind
R = GsnRelation

# Spelled out independently of the implementation's table: which
# (relation, source kind, target kind) combinations are legal.
LEGAL = (
    {(R.SUPPORTED_BY, K.GOAL, K.GOAL)}
    | {(R.SUPPORTED_BY, K.GOAL, K.STRATEGY)}
    | {(R.SUPPORTED_BY, K.STRATEGY, K.GOAL)}
    | {(R.SUPPORTED_BY, K.GOAL, K.SOLUTION)}
    | {(R.IN_CONTEXT_OF, s, t) for s in (K.GOAL, K.STRATEGY) for t in (K.CONTEXT, K.JUSTIFICATION)}
    | {(R.CHALLENGES, K.COUNTERCLAIM, t) for t in (K.GOAL, K.STRATEGY, K.SOLUTION)}
)


def node(kind: GsnNodeKind, suffix: int = 1, **kwargs) -> GsnNode:
    return GsnNode(f"{ID_PREFIXES[kind]}{suffix}", kind, f"statement {suffix}", **kwargs)


def pair_argument(source: GsnNode, target: GsnNode) -> GsnArgument:
    return GsnArgument().add_node(source).add_node(target)


# ----------------------------------------------------------------------
# nodes


def test_node_id_must_match_kind_prefix():
    GsnNode("G1", K.GOAL, "x")
    GsnNode("CC12", K.COUNTERCLAIM, "x")
    with pytest.raises(GsnError):
        GsnNode("G1", K.SOLUTION, "x")
    with pytest.raises(GsnError):
        GsnNode("Sn1", K.GOAL, "x")


@pytest.mark.parametrize("bad_id", ["G0", "G01", "G", "g1", "X1", "C1x", "Sn", "G1\n", "Sn2\n"])
def test_node_id_numbering_rules(bad_id):
    kind = {"G": K.GOAL, "C": K.CONTEXT, "S": K.STRATEGY}.get(bad_id[0], K.GOAL)
    if bad_id.startswith("Sn"):
        kind = K.SOLUTION
    with pytest.raises(GsnError):
        GsnNode(bad_id, kind, "x")


def test_context_vs_counterclaim_prefixes():
    # CC must parse as counterclaim, not context "C" with id "C1"-like tail
    assert GsnNode("CC3", K.COUNTERCLAIM, "x").id == "CC3"
    assert GsnNode("C3", K.CONTEXT, "x").id == "C3"
    with pytest.raises(GsnError):
        GsnNode("CC3", K.CONTEXT, "x")


def test_statement_must_be_nonempty():
    with pytest.raises(GsnError):
        GsnNode("G1", K.GOAL, "")


def test_undeveloped_only_on_goals():
    assert node(K.GOAL, undeveloped=True).undeveloped
    for kind in (K.STRATEGY, K.SOLUTION, K.CONTEXT, K.JUSTIFICATION, K.COUNTERCLAIM):
        with pytest.raises(GsnError):
            node(kind, undeveloped=True)


_BAD_NODES = [
    ("G0", K.GOAL, "x", False),
    ("Sn1", K.GOAL, "x", False),
    ("G1", K.GOAL, "", False),
    ("Sn1", K.SOLUTION, "x", True),
]


@pytest.mark.parametrize("fields", _BAD_NODES)
def test_no_path_builds_a_bad_node(fields):
    good = GsnNode("G1", K.GOAL, "x")
    named = dict(zip(GsnNode._fields, fields))
    builders = [
        lambda: GsnNode(*fields),
        lambda: GsnNode(**named),
        lambda: GsnNode._make(fields),
        lambda: good._replace(**named),
    ]
    if hasattr(copy, "replace"):  # Python 3.13+
        builders.append(lambda: copy.replace(good, **named))
    for build in builders:
        with pytest.raises(GsnError):
            build()


def test_node_helpers_build_checked_nodes():
    goal = GsnNode("G1", K.GOAL, "x")
    assert GsnNode._make(["G1", K.GOAL, "x", False]) == goal
    assert type(GsnNode._make(["G1", K.GOAL, "x", False])) is GsnNode
    assert goal._replace(undeveloped=True) == GsnNode("G1", K.GOAL, "x", True)
    assert repr(goal) == "GsnNode(id='G1', kind=<GsnNodeKind.GOAL: 'goal'>, statement='x', undeveloped=False)"
    with pytest.raises(TypeError):
        GsnNode._make(["G1", K.GOAL])
    with pytest.raises(AttributeError):
        goal.statement = "y"


def test_duplicate_node_id_rejected():
    argument = GsnArgument().add_node(node(K.GOAL))
    with pytest.raises(GsnError):
        argument.add_node(GsnNode("G1", K.GOAL, "other"))


# ----------------------------------------------------------------------
# edge legality: all 108 combinations against the independent table


def test_edge_legality_matrix_all_108_combinations():
    checked = 0
    for relation, source_kind, target_kind in itertools.product(R, K, K):
        source = node(source_kind, 1)
        target = node(target_kind, 2)
        argument = pair_argument(source, target)
        should_pass = (relation, source_kind, target_kind) in LEGAL
        if should_pass:
            extended = argument.add_edge(GsnEdge(source.id, target.id, relation))
            assert len(extended.edges) == 1
        else:
            with pytest.raises(GsnError):
                argument.add_edge(GsnEdge(source.id, target.id, relation))
        checked += 1
    assert checked == 108


def test_edge_endpoints_must_be_declared():
    argument = GsnArgument().add_node(node(K.GOAL))
    with pytest.raises(GsnError):
        argument.add_edge(GsnEdge("G1", "G9", R.SUPPORTED_BY))
    with pytest.raises(GsnError):
        argument.add_edge(GsnEdge("G9", "G1", R.SUPPORTED_BY))


def test_adding_same_edge_twice_is_idempotent():
    argument = pair_argument(node(K.GOAL, 1), node(K.GOAL, 2))
    edge = GsnEdge("G1", "G2", R.SUPPORTED_BY)
    once = argument.add_edge(edge)
    assert once.add_edge(edge) == once


# ----------------------------------------------------------------------
# acyclicity of supportedBy


def test_self_loop_rejected():
    argument = GsnArgument().add_node(node(K.GOAL))
    with pytest.raises(GsnError):
        argument.add_edge(GsnEdge("G1", "G1", R.SUPPORTED_BY))


def test_two_node_cycle_rejected():
    argument = pair_argument(node(K.GOAL, 1), node(K.GOAL, 2))
    argument = argument.add_edge(GsnEdge("G1", "G2", R.SUPPORTED_BY))
    with pytest.raises(GsnError):
        argument.add_edge(GsnEdge("G2", "G1", R.SUPPORTED_BY))


def test_randomized_dags_reject_exactly_the_cycle_closing_edges():
    # grow random goal-only DAGs edge by edge; an independent DFS decides,
    # before every insertion, whether the new edge closes a cycle
    rng = random.Random(1509)

    def reaches(edges: set[tuple[str, str]], start: str, goal: str) -> bool:
        stack, seen = [start], set()
        while stack:
            current = stack.pop()
            if current == goal:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(b for a, b in edges if a == current)
        return False

    for _ in range(30):
        size = rng.randint(3, 9)
        argument = GsnArgument()
        for i in range(1, size + 1):
            argument = argument.add_node(GsnNode(f"G{i}", K.GOAL, f"goal {i}"))
        accepted: set[tuple[str, str]] = set()
        for _ in range(size * 3):
            a, b = rng.sample(range(1, size + 1), 2)
            source, target = f"G{a}", f"G{b}"
            if (source, target) in accepted:
                continue
            closes_cycle = reaches(accepted, target, source)
            if closes_cycle:
                with pytest.raises(GsnError):
                    argument.add_edge(GsnEdge(source, target, R.SUPPORTED_BY))
            else:
                argument = argument.add_edge(GsnEdge(source, target, R.SUPPORTED_BY))
                accepted.add((source, target))


def test_context_edges_do_not_count_toward_cycles():
    # inContextOf and challenges may point "backwards" freely
    argument = pair_argument(node(K.GOAL, 1), node(K.GOAL, 2))
    argument = argument.add_edge(GsnEdge("G1", "G2", R.SUPPORTED_BY))
    argument = argument.add_node(GsnNode("CC1", K.COUNTERCLAIM, "doubt"))
    argument = argument.add_edge(GsnEdge("CC1", "G1", R.CHALLENGES))
    assert len(argument.edges) == 2


# ----------------------------------------------------------------------
# validate


def build(nodes, edges, duty=None) -> GsnArgument:
    # raw constructor, bypassing add_node/add_edge checks
    return GsnArgument(nodes=tuple(nodes), edges=tuple(edges), duty_link=duty)


def test_inserts_check_the_whole_result():
    raw = build([node(K.GOAL, 1), node(K.SOLUTION, 1)], [GsnEdge("Sn1", "G1", R.SUPPORTED_BY)])
    with pytest.raises(GsnError, match="supportedBy may not connect solution to goal"):
        raw.add_node(node(K.GOAL, 2))
    with pytest.raises(GsnError, match="supportedBy may not connect solution to goal"):
        raw.add_edge(GsnEdge("G1", "Sn1", R.SUPPORTED_BY))


def test_validate_clean_exemplar(argument):
    assert validate(argument) == []


def test_validate_flags_undeclared_endpoints():
    raw = build([node(K.GOAL)], [GsnEdge("G1", "G7", R.SUPPORTED_BY)])
    diagnostics = validate(raw)
    assert any(d.severity is Severity.ERROR and "G7" in d.message for d in diagnostics)


def test_validate_flags_illegal_pair():
    raw = build(
        [node(K.SOLUTION, 1), node(K.GOAL, 1)],
        [GsnEdge("Sn1", "G1", R.SUPPORTED_BY)],
    )
    assert any(d.severity is Severity.ERROR for d in validate(raw))


def test_validate_flags_supported_by_cycle():
    raw = build(
        [node(K.GOAL, 1), node(K.GOAL, 2)],
        [GsnEdge("G1", "G2", R.SUPPORTED_BY), GsnEdge("G2", "G1", R.SUPPORTED_BY)],
    )
    assert any("cycle" in d.message for d in validate(raw) if d.severity is Severity.ERROR)


def test_validate_flags_strategy_without_supporting_goal():
    raw = build([node(K.GOAL), node(K.STRATEGY)], [GsnEdge("G1", "S1", R.SUPPORTED_BY)])
    diagnostics = validate(raw)
    assert any(d.subject == "S1" and d.severity is Severity.ERROR for d in diagnostics)


def test_validate_warns_on_unsupported_developed_goal():
    raw = build([node(K.GOAL)], [])
    diagnostics = validate(raw)
    assert diagnostics and all(d.severity is Severity.WARNING for d in diagnostics)
    undeveloped = build([GsnNode("G1", K.GOAL, "x", undeveloped=True)], [])
    assert validate(undeveloped) == []


def test_validate_warns_on_idle_counterclaim():
    raw = build(
        [GsnNode("G1", K.GOAL, "x", undeveloped=True), GsnNode("CC1", K.COUNTERCLAIM, "y")],
        [],
    )
    diagnostics = validate(raw)
    assert any(d.subject == "CC1" and d.severity is Severity.WARNING for d in diagnostics)


def test_validate_reports_missing_root_whatever_the_endpoint_names():
    # an undeclared endpoint whose name contains "cycle" is not a cycle
    raw = build([node(K.STRATEGY)], [GsnEdge("S1", "Gcycle", R.SUPPORTED_BY)])
    messages = {d.message for d in validate(raw) if d.severity is Severity.ERROR}
    assert messages == {
        "undeclared endpoint 'Gcycle'",
        "non-empty argument has no root goal",
        "strategy has no supporting goal",
    }


def test_validate_skips_the_root_check_when_there_is_a_cycle():
    raw = build(
        [node(K.GOAL, 1), node(K.GOAL, 2)],
        [GsnEdge("G1", "G2", R.SUPPORTED_BY), GsnEdge("G2", "G1", R.SUPPORTED_BY)],
    )
    messages = [d.message for d in validate(raw) if d.severity is Severity.ERROR]
    assert len(messages) == 1 and messages[0].startswith("supportedBy cycle: ")


def test_validate_orders_errors_before_warnings():
    raw = build(
        [node(K.GOAL), GsnNode("CC1", K.COUNTERCLAIM, "y")],
        [GsnEdge("G1", "G7", R.SUPPORTED_BY)],
    )
    severities = [d.severity for d in validate(raw)]
    assert severities == sorted(severities, key=lambda s: s is Severity.WARNING)


def test_serializers_refuse_invalid_arguments():
    raw = build([node(K.GOAL)], [GsnEdge("G1", "G7", R.SUPPORTED_BY)])
    for operation in (serialize_gsn, render_dot, argument_to_triples):
        with pytest.raises(GsnError):
            operation(raw)


# ----------------------------------------------------------------------
# DSL


def test_parse_minimal_document():
    argument = parse_gsn('goal G1 "all is well" undeveloped\n')
    assert argument.node("G1").undeveloped
    assert argument.edges == ()


def test_parse_order_independent_edges_before_nodes():
    text = 'edge G1 -> Sn1 supportedBy\ngoal G1 "g"\nsolution Sn1 "s"\n'
    argument = parse_gsn(text)
    assert len(argument.edges) == 1


def test_parse_comments_and_quoted_hash():
    text = (
        "# leading comment\n"
        'goal G1 "uses # inside" undeveloped  # trailing comment\n'
    )
    argument = parse_gsn(text)
    assert argument.node("G1").statement == "uses # inside"


def test_parse_statement_escapes():
    argument = parse_gsn('goal G1 "say \\"hi\\" \\\\ twice\\n" undeveloped\n')
    assert argument.node("G1").statement == 'say "hi" \\ twice\n'


@pytest.mark.parametrize(
    "text, message",
    [
        # columns count within the raw line, from its first character
        ('goal G1 "unterminated', "line 1, column 9: unterminated statement"),
        ('goal G1 "dangling\\', "line 1, column 18: dangling escape in statement"),
        ('goal G1 "bad \\q escape"', "line 1, column 14: unknown escape \\q"),
        ("goal G1 unquoted", "line 1, column 9: expected quoted statement"),
        ('  goal G1 "unterminated', "line 1, column 11: unterminated statement"),
        ('goal G1 "g" undeveloped\n\tsolution  Sn1 bare', "line 2, column 16: expected quoted statement"),
    ],
)
def test_statement_scan_errors_name_the_statement(text, message):
    with pytest.raises(GsnParseError) as exc:
        parse_gsn(text)
    assert str(exc.value) == message


def test_parse_duty_line():
    argument = parse_gsn('goal G1 "g" undeveloped\nduty euaia:d9\n')
    assert argument.duty_link == "euaia:d9"


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("widget G1 \"g\"\n", 1),
        ('goal G1 "g" undeveloped\nwidget X\n', 2),
        ('goal 1G "g"\n', 1),
        ('goal G1 "unterminated\n', 1),
        ('goal G1 "g" extra\n', 1),
        ("edge G1 -> G2\n", 1),
        ("edge G1 G2 supportedBy\n", 1),
        ('goal G1 "g" undeveloped\nedge G1 -> G1 butts\n', 2),
        ('goal G1 "g" undeveloped\nduty euaia:d9\nduty euaia:d8\n', 3),
        ("duty not-a-curie\n", 1),
        # duplicate id: the second declaration
        ('goal G1 "a" undeveloped\nsolution Sn1 "s"\ngoal G1 "b"\n', 3),
        # duplicate ids are checked before any edge
        ('edge G1 -> G9 supportedBy\ngoal G1 "a"\ngoal G1 "b"\n', 3),
        # undeclared endpoint
        ('goal G1 "g"\n\nedge G1 -> G2 supportedBy\n', 3),
        # illegal pair, after a legal edge
        ('goal G1 "g"\nsolution Sn1 "s"\nedge G1 -> Sn1 supportedBy\nedge Sn1 -> G1 supportedBy\n', 4),
        # the edge that closes the cycle, not the first edge on it
        (
            'goal G1 "a"\ngoal G2 "b"\ngoal G3 "c"\n'
            "edge G1 -> G2 supportedBy\nedge G3 -> G1 supportedBy\nedge G2 -> G3 supportedBy\n",
            6,
        ),
        # a cycle and an illegal pair: the earlier line wins
        (
            'goal G1 "a"\ngoal G2 "b"\nsolution Sn1 "s"\n'
            "edge G1 -> G2 supportedBy\nedge G2 -> G1 supportedBy\nedge Sn1 -> G1 supportedBy\n",
            5,
        ),
        (
            'goal G1 "a"\ngoal G2 "b"\nsolution Sn1 "s"\n'
            "edge G1 -> G2 supportedBy\nedge Sn1 -> G1 supportedBy\nedge G2 -> G1 supportedBy\n",
            5,
        ),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(GsnParseError) as exc:
        parse_gsn(text)
    assert exc.value.line == lineno


def test_long_chain_listed_bottom_up_reports_the_cycle_closing_line():
    size = 3000
    lines = [f'goal G{i} "goal {i}"' for i in range(1, size + 1)]
    lines += [f"edge G{i} -> G{i + 1} supportedBy" for i in range(size - 1, 0, -1)]
    chain = parse_gsn("\n".join(lines) + "\n")
    assert len(chain.edges) == size - 1
    assert [g.id for g in chain.root_goals()] == ["G1"]
    lines.append(f"edge G{size} -> G1 supportedBy")
    with pytest.raises(GsnParseError) as exc:
        parse_gsn("\n".join(lines) + "\n")
    assert exc.value.line == len(lines)
    assert str(exc.value).endswith(f"edge G{size} -> G1 would create a supportedBy cycle")


# ids drawn from a small pool, goal-heavy so that supportedBy cycles are
# common; G9 and Sn9 are never declared
_GOALS = ("G1", "G2", "G3", "G4")
_OTHERS = ("S1", "S2", "Sn1", "Sn2", "C1", "J1", "CC1")
_DECLARABLE = _GOALS + _OTHERS
_KEYWORD_BY_PREFIX = (
    ("CC", "counterclaim"), ("Sn", "solution"), ("G", "goal"), ("S", "strategy"),
    ("C", "context"), ("J", "justification"),
)


def _node_line(node_id: str, undeveloped: bool) -> str:
    keyword = next(k for prefix, k in _KEYWORD_BY_PREFIX if node_id.startswith(prefix))
    tail = " undeveloped" if undeveloped and keyword == "goal" else ""
    return f'{keyword} {node_id} "about {node_id}"{tail}'


_any_edge = st.builds(
    "edge {} -> {} {}".format,
    st.sampled_from(_DECLARABLE + ("G9", "Sn9")),
    st.sampled_from(_DECLARABLE + ("G9",)),
    st.sampled_from(["supportedBy", "inContextOf", "challenges"]),
)
_goal_edge = st.builds("edge {} -> {} supportedBy".format, st.sampled_from(_GOALS), st.sampled_from(_GOALS))


@st.composite
def _documents(draw) -> list[str]:
    """Node, edge and duty lines in random order: mostly distinct ids, goal
    to goal edges that often close cycles, and now and then a duplicate id,
    an undeclared endpoint, an illegal pair or a malformed duty line."""
    declared = [goal for goal in _GOALS if draw(st.integers(0, 9))]
    declared += draw(st.lists(st.sampled_from(_OTHERS), unique=True))
    lines = [_node_line(node_id, draw(st.booleans())) for node_id in declared]
    if declared and draw(st.integers(0, 7)) == 0:
        lines.append(_node_line(draw(st.sampled_from(declared)), False))
    lines += draw(st.lists(st.one_of(_goal_edge, _goal_edge, _goal_edge, _any_edge), max_size=12))
    lines += draw(st.lists(st.sampled_from(["duty euaia:d9", "duty nocurie", "# comment"]), max_size=1))
    return draw(st.permutations(lines))


_OUTCOMES = (
    ("duplicate node id", "duplicate id"),
    ("is not a declared node", "undeclared endpoint"),
    ("may not connect", "illegal pair"),
    ("would create a supportedBy cycle", "cycle"),
)


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_parse_matches_the_incremental_builder(lines):
    text = "\n".join(lines) + "\n"

    def outcome(parse):
        try:
            return parse(text)
        except GsnParseError as exc:
            return str(exc), exc.line

    expected = outcome(parse_gsn_incrementally)
    if isinstance(expected, GsnArgument):
        event("accepted")
    else:
        event(next((name for text, name in _OUTCOMES if text in expected[0]), "other"))
    assert outcome(parse_gsn) == expected


def test_parse_rejects_semantic_errors_with_location():
    with pytest.raises(GsnError):
        parse_gsn('goal G1 "a"\ngoal G1 "b"\n')
    with pytest.raises(GsnError):
        parse_gsn('goal G1 "a" undeveloped\nsolution Sn1 "s"\nedge Sn1 -> G1 supportedBy\n')


# ----------------------------------------------------------------------
# round trips and canonical form


def test_serialize_empty_argument():
    assert serialize_gsn(GsnArgument()) == ""


def test_exemplar_round_trip(argument):
    text = serialize_gsn(argument)
    assert parse_gsn(text) == argument
    assert serialize_gsn(parse_gsn(text)) == text


def test_serialization_is_canonical_under_insertion_order():
    first = (
        GsnArgument()
        .add_node(node(K.GOAL, 1))
        .add_node(node(K.STRATEGY, 1))
        .add_node(node(K.GOAL, 2))
    )
    first = first.add_edge(GsnEdge("G1", "S1", R.SUPPORTED_BY))
    first = first.add_edge(GsnEdge("S1", "G2", R.SUPPORTED_BY))
    second = (
        GsnArgument()
        .add_node(node(K.GOAL, 2))
        .add_node(node(K.STRATEGY, 1))
        .add_node(node(K.GOAL, 1))
    )
    second = second.add_edge(GsnEdge("S1", "G2", R.SUPPORTED_BY))
    second = second.add_edge(GsnEdge("G1", "S1", R.SUPPORTED_BY))
    assert first == second
    assert serialize_gsn(first) == serialize_gsn(second)


def test_random_arguments_round_trip():
    rng = random.Random(42)
    kinds = list(K)
    for _ in range(40):
        argument = GsnArgument()
        used: list[GsnNode] = []
        for i in range(rng.randint(1, 8)):
            kind = rng.choice(kinds)
            suffix = sum(1 for n in used if n.kind is kind) + 1
            candidate = node(kind, suffix) if kind is not K.GOAL else GsnNode(
                f"G{suffix}", K.GOAL, f"statement {suffix}", undeveloped=rng.random() < 0.4
            )
            argument = argument.add_node(candidate)
            used.append(candidate)
        for _ in range(10):
            if len(used) < 2:
                break
            source, target = rng.sample(used, 2)
            relation = rng.choice(list(R))
            try:
                argument = argument.add_edge(GsnEdge(source.id, target.id, relation))
            except GsnError:
                continue
        if any(d.severity is Severity.ERROR for d in validate(argument)):
            continue
        assert parse_gsn(serialize_gsn(argument)) == argument


# ----------------------------------------------------------------------
# DOT export


def test_render_dot_shapes_and_styles(argument):
    dot = render_dot(argument)
    lines = dot.split("\n")
    assert lines[0] == "digraph gsn {"
    assert dot.rstrip().endswith("}")
    assert '  G1 [shape=box, label="G1' in dot
    assert "parallelogram" in dot          # strategy
    assert "ellipse" in dot                # solution
    assert "note" in dot                   # context
    assert "hexagon" in dot                # justification
    assert "octagon" in dot                # counterclaim
    assert "  G1 -> S1 [style=solid];" in dot
    assert "  S1 -> C1 [style=dashed];" in dot
    assert "  CC1 -> Sn1 [style=dotted];" in dot
    assert "(undeveloped)" in dot


def test_render_dot_escapes_quotes():
    argument = parse_gsn('goal G1 "say \\"hi\\"" undeveloped\n')
    dot = render_dot(argument)
    assert 'say \\"hi\\"' in dot


# ----------------------------------------------------------------------
# triple export


def test_argument_to_triples_counts(argument):
    triples = argument_to_triples(argument)
    # one type + one statement per node, one per edge, one duty link
    assert len(triples) == 2 * len(argument.nodes) + len(argument.edges) + 1


def test_argument_triples_details(argument):
    from euaia_assurance.triples import Triple

    triples = set(argument_to_triples(argument))
    assert Triple(Iri("gsn", "G1"), Iri("rdf", "type"), Iri("gsn", "Goal")) in triples
    assert Triple(Iri("gsn", "CC1"), Iri("rdf", "type"), Iri("gsn", "Counterclaim")) in triples
    assert Triple(Iri("gsn", "G1"), Iri("gsn", "supportedBy"), Iri("gsn", "S1")) in triples
    assert Triple(Iri("gsn", "CC1"), Iri("gsn", "challenges"), Iri("gsn", "Sn1")) in triples
    assert Triple(Iri("gsn", "G1"), Iri("assures", "operationalizes"), Iri("euaia", "d9")) in triples
    statements = {
        t.object for t in triples if t.predicate == Iri("gsn", "statement")
    }
    assert all(isinstance(s, Literal) for s in statements)
    assert len(statements) == len(argument.nodes)


def test_argument_without_duty_link_emits_no_operationalizes():
    argument = GsnArgument().add_node(GsnNode("G1", K.GOAL, "g", undeveloped=True))
    triples = argument_to_triples(argument)
    assert len(triples) == 2
    assert all(t.predicate != Iri("assures", "operationalizes") for t in triples)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet='"#\\ab\n', max_size=24) | st.text(max_size=12))
def test_strip_comment_matches_the_character_loop(line):
    assert _strip_comment(line) == char_strip_comment(line)
