from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverage_oracle as oracle
import recursive_trace
from euaia_assurance import vocab
from euaia_assurance.coverage import (
    CoverageError,
    CoverageStatus,
    causal_trace,
    coverage_report,
    coverage_to_tsv,
    open_counterclaims,
)
from euaia_assurance.duties import registry_to_triples
from euaia_assurance.gsn import argument_to_triples, parse_gsn
from euaia_assurance.triples import Iri, Literal, Store, Triple, serialize_triple

from conftest import ATTACK, fixture_triples
from coverage_oracle import MAX_PATH_DEPTH

RDF_TYPE = Iri("rdf", "type")
SUPPORTED_BY = Iri("gsn", "supportedBy")
EVIDENCED_BY = Iri("assures", "evidencedBy")
OPERATIONALIZES = Iri("assures", "operationalizes")


def registry_store(registry) -> Store:
    return Store().assert_all(registry_to_triples(registry))


# ----------------------------------------------------------------------
# status assignment


def test_registry_alone_is_fully_uncovered(registry):
    report = coverage_report(registry_store(registry), registry)
    assert len(report) == 23
    assert all(s.status is CoverageStatus.UNCOVERED for s in report)
    assert [s.duty_id for s in report] == list(range(1, 24))


def test_exemplar_store_contests_duty_9(registry, base_store):
    report = coverage_report(base_store, registry)
    nine = next(s for s in report if s.duty_id == 9)
    assert nine.status is CoverageStatus.CONTESTED
    assert nine.supporting_solutions == ("gsn:Sn1",)
    assert nine.counterclaims == ("gsn:CC1",)
    assert all(
        s.status is CoverageStatus.UNCOVERED for s in report if s.duty_id != 9
    )


def test_rebuttal_clears_the_contest(registry, base_store):
    rebutted = base_store.assert_triple(
        Triple(Iri("gsn", "CC1"), Iri("assures", "rebuttedBy"), Iri("gsn", "Sn2"))
    )
    nine = next(
        s for s in coverage_report(rebutted, registry) if s.duty_id == 9
    )
    assert nine.status is CoverageStatus.COVERED
    assert nine.counterclaims == ()


def test_dynamic_evidence_widens_solutions(registry, full_store):
    nine = next(
        s for s in coverage_report(full_store, registry) if s.duty_id == 9
    )
    assert nine.supporting_solutions == ("gsn:Sn1", "gsn:Sn2")


def test_partial_when_only_undeveloped_branches(registry):
    gsn_text = (
        'goal G1 "top" \n'
        'strategy S1 "split"\n'
        'goal G2 "pending" undeveloped\n'
        "edge G1 -> S1 supportedBy\n"
        "edge S1 -> G2 supportedBy\n"
        "duty euaia:d9\n"
    )
    argument = parse_gsn(gsn_text)
    store = registry_store(registry).assert_all(argument_to_triples(argument))
    nine = next(s for s in coverage_report(store, registry) if s.duty_id == 9)
    assert nine.status is CoverageStatus.PARTIAL
    assert nine.supporting_solutions == ()


def test_unevidenced_solution_leaf_is_partial_not_covered(registry):
    # a Solution node without an evidencedBy triple proves nothing, and the
    # dangling goal above it counts as an undeveloped branch only if marked
    gsn_text = (
        'goal G1 "top" undeveloped\n'
        "duty euaia:d9\n"
    )
    argument = parse_gsn(gsn_text)
    store = registry_store(registry).assert_all(argument_to_triples(argument))
    nine = next(s for s in coverage_report(store, registry) if s.duty_id == 9)
    assert nine.status is CoverageStatus.PARTIAL


def test_operationalization_required_even_with_evidence(registry, argument):
    # same argument and evidence, duty link removed: nothing operationalizes
    # duty 9, so it stays uncovered
    unlinked = argument.with_duty_link(None)
    store = registry_store(registry).assert_all(argument_to_triples(unlinked))
    store = store.assert_all(fixture_triples("knowledge-links.ttl"))
    report = coverage_report(store, registry)
    assert all(s.status is CoverageStatus.UNCOVERED for s in report)


def test_open_counterclaims_are_the_unrebutted_challenges(full_store):
    cc1, cc2, g1, g3, sn1 = (Iri("gsn", local) for local in ("CC1", "CC2", "G1", "G3", "Sn1"))
    challenges = Iri("gsn", "challenges")
    assert open_counterclaims(full_store) == [(cc1, sn1)]
    # a counterclaim only in the store counts, once per node it challenges
    store = full_store.assert_all([Triple(cc2, challenges, g3), Triple(cc2, challenges, g1)])
    assert open_counterclaims(store) == [(cc1, sn1), (cc2, g1), (cc2, g3)]
    store = store.assert_triple(Triple(cc1, Iri("assures", "rebuttedBy"), Iri("src", "fieldStudy")))
    assert open_counterclaims(store) == [(cc2, g1), (cc2, g3)]


def test_report_requires_registry_triples(registry):
    with pytest.raises(CoverageError):
        coverage_report(Store(), registry)


def test_monotonicity_adding_triples_never_revokes_coverage(registry, full_store):
    # every subset of the full fixture store (plus the registry, which the
    # report requires) must never rank a duty higher than the full store does
    rank = {
        CoverageStatus.UNCOVERED: 0,
        CoverageStatus.PARTIAL: 1,
        CoverageStatus.CONTESTED: 2,
        CoverageStatus.COVERED: 2,
    }
    registry_triples = set(registry_to_triples(registry))
    optional = sorted(
        full_store.triples - registry_triples, key=lambda t: str(t)
    )
    rng = random.Random(2024)
    full_report = {
        s.duty_id: s.status for s in coverage_report(full_store, registry)
    }
    for _ in range(12):
        kept = [t for t in optional if rng.random() < 0.6]
        subset_store = Store().assert_all(registry_triples).assert_all(kept)
        for status in coverage_report(subset_store, registry):
            assert rank[status.status] <= rank[full_report[status.duty_id]]


def test_coverage_tsv_layout(registry, base_store):
    text = coverage_to_tsv(coverage_report(base_store, registry))
    lines = text.strip().split("\n")
    assert lines[0] == "duty\tstatus\tsolutions\tcounterclaims"
    assert len(lines) == 24
    assert lines[9] == "9\tcontested\tgsn:Sn1\tgsn:CC1"
    assert lines[1] == "1\tuncovered\t\t"


# ----------------------------------------------------------------------
# causal traces


def test_base_store_has_exactly_one_trace(base_store):
    traces = causal_trace(base_store, ATTACK)
    assert len(traces) == 1
    (trace,) = traces
    hops = [serialize_triple(h) for h in trace.hops]
    assert hops == [
        "<atk:charCombo> <assures:mitigatedBy> <def:staticFilter> .",
        "<gsn:Sn1> <assures:evidencedBy> <def:staticFilter> .",
        "<gsn:G2> <gsn:supportedBy> <gsn:Sn1> .",
        "<gsn:S1> <gsn:supportedBy> <gsn:G2> .",
        "<gsn:G1> <gsn:supportedBy> <gsn:S1> .",
        "<gsn:G1> <assures:operationalizes> <euaia:d9> .",
    ]
    assert trace.duty == Iri("euaia", "d9")


def test_every_hop_is_a_store_triple(full_store):
    traces = causal_trace(full_store, ATTACK)
    assert len(traces) == 2
    for trace in traces:
        assert trace.hops[0].subject == ATTACK
        assert trace.hops[-1].object == Iri("euaia", "d9")
        for hop in trace.hops:
            assert hop in full_store


def test_trace_requires_known_attack(base_store):
    with pytest.raises(CoverageError):
        causal_trace(base_store, Iri("atk", "unheardOf"))


def test_attack_without_defense_yields_no_traces():
    store = Store().assert_triple(
        Triple(Iri("atk", "lonely"), RDF_TYPE, Iri("assures", "Attack"))
    )
    assert causal_trace(store, Iri("atk", "lonely")) == []


def _chain_store(length: int) -> Store:
    # G1 <- G2 <- ... <- G<length> <- Sn1 <- defense <- attack, with the
    # duty operationalized at the top
    triples = [
        Triple(Iri("atk", "a"), RDF_TYPE, Iri("assures", "Attack")),
        Triple(Iri("atk", "a"), Iri("assures", "mitigatedBy"), Iri("def", "d")),
        Triple(Iri("gsn", "Sn1"), RDF_TYPE, Iri("gsn", "Solution")),
        Triple(Iri("gsn", "Sn1"), EVIDENCED_BY, Iri("def", "d")),
        Triple(Iri("gsn", f"G{length}"), SUPPORTED_BY, Iri("gsn", "Sn1")),
        Triple(Iri("gsn", "G1"), OPERATIONALIZES, Iri("euaia", "d9")),
    ]
    for i in range(1, length):
        triples.append(
            Triple(Iri("gsn", f"G{i}"), SUPPORTED_BY, Iri("gsn", f"G{i + 1}"))
        )
    return Store().assert_all(triples)


def test_trace_follows_long_chains_up_to_the_depth_cap():
    reachable = _chain_store(MAX_PATH_DEPTH - 1)
    assert len(causal_trace(reachable, Iri("atk", "a"))) == 1


def test_trace_follows_chains_past_the_old_depth_cap():
    # the replaced search stopped 12 hops up and listed no trace
    deep = _chain_store(MAX_PATH_DEPTH + 3)
    (trace,) = causal_trace(deep, Iri("atk", "a"))
    assert len(trace.hops) == MAX_PATH_DEPTH + 3 + 3
    assert recursive_trace.causal_trace(deep, Iri("atk", "a")) == []


def test_trace_emits_one_chain_per_operationalized_node():
    # both ends of a diamond operationalize duties: two traces result
    store = _chain_store(2).assert_triple(
        Triple(Iri("gsn", "G2"), OPERATIONALIZES, Iri("euaia", "d7"))
    )
    traces = causal_trace(store, Iri("atk", "a"))
    assert {t.duty for t in traces} == {Iri("euaia", "d7"), Iri("euaia", "d9")}


# ----------------------------------------------------------------------
# the replaced graph view as oracle

_NODES = [Iri("gsn", f"N{i}") for i in range(10)]  # no path longer than MAX_PATH_DEPTH hops
_DEFENSES = [Iri("def", f"d{i}") for i in range(3)]
_ATTACKS = [Iri("atk", "a0"), Iri("atk", "a1")]
_KINDS = [vocab.GOAL, vocab.STRATEGY, vocab.SOLUTION, Iri("gsn", "Counterclaim"), Literal("gsn:Goal")]


def _duty_types(registry) -> list[Triple]:
    return [Triple(vocab.duty_iri(duty.id), vocab.RDF_TYPE, vocab.DUTY) for duty in registry.duties]


@st.composite
def _stores(draw, registry) -> Store:
    """Small stores with at most one type per node, supportedBy cycles, and a
    literal object possible on every predicate coverage and traces read."""
    triples = set(_duty_types(registry))
    for node in _NODES:
        triples.update(Triple(node, vocab.RDF_TYPE, kind) for kind in draw(st.lists(st.sampled_from(_KINDS), max_size=1)))

    def link(subjects, predicate, objects, max_size):
        pairs = st.tuples(st.sampled_from(subjects), st.sampled_from([*objects, Literal("x")]))
        triples.update(Triple(s, predicate, o) for s, o in draw(st.lists(pairs, max_size=max_size)))

    link(_NODES, vocab.GSN_SUPPORTED_BY, _NODES, 16)
    link(_NODES, vocab.EVIDENCED_BY, _DEFENSES, 6)
    link(_NODES, vocab.OPERATIONALIZES, [vocab.duty_iri(d) for d in (1, 2, 3)], 5)
    link(_NODES, vocab.GSN_CHALLENGES, _NODES, 4)
    link(_NODES, vocab.REBUTTED_BY, [Iri("src", "r")], 3)
    link(_DEFENSES, vocab.MITIGATES, _ATTACKS, 4)
    link(_ATTACKS, vocab.MITIGATED_BY, _DEFENSES, 4)
    return Store(frozenset(triples))


def _solution_evidence_only(store: Store) -> Store:
    """The store without the evidencedBy triples of subjects not typed
    gsn:Solution, which the replaced walks took as holders of evidence."""
    return Store(frozenset(
        t for t in store.triples
        if t.predicate != vocab.EVIDENCED_BY or Triple(t.subject, vocab.RDF_TYPE, vocab.SOLUTION) in store
    ))


def _outcome(analysis, *args):
    try:
        return analysis(*args)
    except CoverageError as exc:
        return ("error", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coverage_and_traces_agree_with_the_graph_view_oracle(registry, data):
    store = data.draw(_stores(registry))
    attack = data.draw(st.sampled_from([*_ATTACKS, Iri("atk", "unknown")]))
    assert coverage_report(store, registry) == oracle.coverage_report(store, registry)
    assert open_counterclaims(store) == oracle.open_counterclaims(store)
    expected = _outcome(oracle.causal_trace, _solution_evidence_only(store), attack)
    assert _outcome(causal_trace, store, attack) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coverage_reaches_evidence_at_any_depth(registry, data):
    size = data.draw(st.integers(MAX_PATH_DEPTH + 2, 40))
    nodes = [Iri("gsn", f"N{i}") for i in range(size)]
    spine = data.draw(st.integers(MAX_PATH_DEPTH + 1, size - 1))  # N0 -> ... -> N<spine>
    forward = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(lambda e: e[0] < e[1])
    edges = {(i, i + 1) for i in range(spine)} | set(data.draw(st.lists(forward, max_size=size)))
    triples = set(_duty_types(registry))
    triples.update(Triple(nodes[a], vocab.GSN_SUPPORTED_BY, nodes[b]) for a, b in edges)
    for node in nodes:
        kind = data.draw(st.sampled_from([vocab.GOAL, vocab.STRATEGY, vocab.SOLUTION]))
        triples.add(Triple(node, vocab.RDF_TYPE, kind))
        if data.draw(st.booleans()):
            triples.add(Triple(node, vocab.EVIDENCED_BY, Literal("report")))
    triples.add(Triple(nodes[0], vocab.OPERATIONALIZES, vocab.duty_iri(9)))
    triples.add(Triple(data.draw(st.sampled_from(nodes)), vocab.OPERATIONALIZES, vocab.duty_iri(4)))
    for index in data.draw(st.lists(st.integers(0, size - 1), max_size=3)):
        triples.add(Triple(Iri("gsn", "CC1"), vocab.GSN_CHALLENGES, nodes[index]))
    store = Store(frozenset(triples))
    expected = oracle.coverage_report(store, registry, subtree=oracle.fixed_point_subtree)
    assert coverage_report(store, registry) == expected


@st.composite
def _deep_stores(draw, registry, min_depth: int = 0) -> Store:
    """Stores whose supportedBy spine N0 -> ... -> N<depth> climbs up to 31 hops
    from a solution that evidences a defense of atk:a0 to a goal of duty 9, with
    the registry asserted, a few random supportedBy edges that may close
    cycles, and a literal object possible on every predicate traces read."""
    depth = draw(st.integers(min_depth, 31))
    nodes = [Iri("gsn", f"N{i}") for i in range(depth + 1 + draw(st.integers(0, 3)))]
    triples = set(_duty_types(registry))
    triples.update(Triple(nodes[i], vocab.GSN_SUPPORTED_BY, nodes[i + 1]) for i in range(depth))
    triples.add(Triple(nodes[depth], vocab.RDF_TYPE, vocab.SOLUTION))
    triples.add(Triple(nodes[depth], vocab.EVIDENCED_BY, _DEFENSES[0]))
    triples.add(draw(st.sampled_from([
        Triple(_ATTACKS[0], vocab.MITIGATED_BY, _DEFENSES[0]),
        Triple(_DEFENSES[0], vocab.MITIGATES, _ATTACKS[0]),
    ])))
    triples.add(Triple(nodes[0], vocab.OPERATIONALIZES, vocab.duty_iri(9)))
    for node in nodes:
        triples.update(Triple(node, vocab.RDF_TYPE, kind) for kind in draw(st.lists(st.sampled_from(_KINDS), max_size=1)))

    def link(subjects, predicate, objects, max_size):
        pairs = st.tuples(st.sampled_from(subjects), st.sampled_from([*objects, Literal("x")]))
        triples.update(Triple(s, predicate, o) for s, o in draw(st.lists(pairs, max_size=max_size)))

    link(nodes, vocab.GSN_SUPPORTED_BY, nodes, 6)
    link(nodes, vocab.EVIDENCED_BY, _DEFENSES, 3)
    link(nodes, vocab.OPERATIONALIZES, [vocab.duty_iri(d) for d in (1, 2, 3)], 3)
    link(_DEFENSES, vocab.MITIGATES, _ATTACKS, 3)
    link(_ATTACKS, vocab.MITIGATED_BY, _DEFENSES, 3)
    return Store(frozenset(triples))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_traces_agree_with_the_recursive_walk(registry, data):
    store = data.draw(_deep_stores(registry))
    attack = data.draw(st.sampled_from([*_ATTACKS, Iri("atk", "unknown")]))
    traces = _outcome(causal_trace, store, attack)
    evidenced = _solution_evidence_only(store)
    assert traces == _outcome(recursive_trace.causal_trace, evidenced, attack, None)
    capped = _outcome(recursive_trace.causal_trace, evidenced, attack)
    if isinstance(traces, tuple) or all(len(t.hops) - 3 <= MAX_PATH_DEPTH for t in traces):
        assert capped == traces
    else:  # the replaced walk dropped the deeper traces
        assert set(capped) < set(traces)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_traced_solution_covers_its_duty(registry, data):
    store = data.draw(_deep_stores(registry, min_depth=MAX_PATH_DEPTH + 1))
    report = {vocab.duty_iri(s.duty_id): s.status for s in coverage_report(store, registry)}
    traces = causal_trace(store, _ATTACKS[0])
    for trace in traces:
        if trace.duty in report:
            assert report[trace.duty] in (CoverageStatus.COVERED, CoverageStatus.CONTESTED)
    assert vocab.duty_iri(9) in {trace.duty for trace in traces}  # the spine's trace is listed


def test_evidence_below_the_trace_depth_cap_still_covers(registry):
    store = _chain_store(MAX_PATH_DEPTH + 3).assert_all(_duty_types(registry))
    nine = next(s for s in coverage_report(store, registry) if s.duty_id == 9)
    assert (nine.status, nine.supporting_solutions) == (CoverageStatus.COVERED, ("gsn:Sn1",))
    # the replaced search stopped 12 hops down and called the duty uncovered
    capped = next(s for s in oracle.coverage_report(store, registry) if s.duty_id == 9)
    assert capped.status is CoverageStatus.UNCOVERED


@pytest.mark.parametrize("extra", [vocab.GOAL, vocab.STRATEGY, Iri("gsn", "Context")])
def test_a_second_type_never_demotes_a_solution(registry, base_store, extra):
    store = base_store.assert_triple(Triple(Iri("gsn", "Sn1"), vocab.RDF_TYPE, extra))
    nine = next(s for s in coverage_report(store, registry) if s.duty_id == 9)
    assert (nine.status, nine.supporting_solutions) == (CoverageStatus.CONTESTED, ("gsn:Sn1",))


def test_a_goal_typed_twice_is_undeveloped_if_either_type_says_so(registry):
    goal = Iri("gsn", "G1")
    store = Store(frozenset(_duty_types(registry))).assert_all(
        [
            Triple(goal, vocab.RDF_TYPE, Iri("gsn", "Context")),
            Triple(goal, vocab.RDF_TYPE, vocab.STRATEGY),
            Triple(goal, vocab.OPERATIONALIZES, vocab.duty_iri(9)),
        ]
    )
    nine = next(s for s in coverage_report(store, registry) if s.duty_id == 9)
    assert nine.status is CoverageStatus.PARTIAL
