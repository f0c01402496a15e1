from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euaia_assurance import triples
from euaia_assurance.triples import (
    DEFAULT_NAMESPACES,
    Iri,
    Literal,
    NamespaceError,
    Store,
    Triple,
    TripleParseError,
    TriplePattern,
    Variable,
    _scan_terms,
    export_triples,
    import_triples,
    merge_stores,
    parse_pattern,
    serialize_term,
    serialize_triple,
)

from char_scanner import _scan_terms as char_scan_terms
from line_import import import_triples_by_line
from whole_store_planner import WholeStorePlanner


def iri(curie: str) -> Iri:
    return Iri.parse(curie)


def t(s: str, p: str, o) -> Triple:
    obj = o if isinstance(o, Literal) else iri(o)
    return Triple(iri(s), iri(p), obj)


# ----------------------------------------------------------------------
# terms


def test_iri_parse_and_curie():
    term = Iri.parse("euaia:d9")
    assert term.prefix == "euaia"
    assert term.local == "d9"
    assert term.curie == "euaia:d9"
    assert str(term) == "euaia:d9"


def test_iri_expand():
    assert iri("gsn:G1").expand(DEFAULT_NAMESPACES) == "https://example.org/ns/gsn#G1"
    with pytest.raises(NamespaceError):
        iri("gsn:G1").expand({})


@pytest.mark.parametrize(
    "bad", ["", "nocolon", ":x", "1a:x", "a:", "a b:x", "a:x y", "rdf:type\n", "rdf\n:type"]
)
def test_iri_rejects_malformed(bad):
    with pytest.raises(ValueError):
        Iri.parse(bad)


_BAD_NAMES = [
    ("1a", "x"), ("", "x"), ("a b", "x"), ("rdf\n", "type"), ("a", ""), ("a", "x y"), ("a", "type\n"), ("a", ".x")
]


@pytest.mark.parametrize("prefix, local", _BAD_NAMES)
def test_no_path_builds_an_iri_with_a_bad_name(prefix, local):
    good = Iri("rdf", "type")
    builders = [
        lambda: Iri(prefix, local),
        lambda: Iri(prefix=prefix, local=local),
        lambda: Iri.parse(f"{prefix}:{local}"),
        lambda: Iri._make([prefix, local]),
        lambda: good._replace(prefix=prefix, local=local),
    ]
    if hasattr(copy, "replace"):  # Python 3.13+
        builders.append(lambda: copy.replace(good, prefix=prefix, local=local))
    for build in builders:
        with pytest.raises(ValueError):
            build()


def test_iri_helpers_build_checked_iris():
    term = Iri("rdf", "type")
    assert Iri._make(["gsn", "G1"]) == Iri("gsn", "G1")
    assert type(Iri._make(["gsn", "G1"])) is Iri
    assert term._replace(local="first") == Iri("rdf", "first")
    with pytest.raises(TypeError):
        Iri._make(["rdf"])
    # namedtuple's _replace raises ValueError for an unknown field, and TypeError from Python 3.13
    with pytest.raises(TypeError if sys.version_info >= (3, 13) else ValueError):
        term._replace(other="x")


def test_a_literal_datatype_is_an_iri():
    builders = [
        lambda: Literal("type", "rdf"),
        lambda: Literal(text="type", datatype=("rdf", "type")),
        lambda: Literal._make(["type", "rdf"]),
        lambda: Literal("x")._replace(datatype="rdf:type"),
    ]
    for build in builders:
        with pytest.raises(TypeError, match="a literal's datatype must be an Iri"):
            build()
    assert Literal._make(["5", Iri("rdf", "int")]) == Literal("5", Iri("rdf", "int"))


def test_a_store_refuses_a_triple_of_strings():
    # it once ended in an AttributeError from the prefix check
    with pytest.raises(TypeError, match="a triple's subject must be an Iri, not str"):
        Store([Triple("a", "b", "c")])


def test_a_triple_of_other_types_is_refused_before_it_is_serialized():
    # serialize_triple once ended in an AttributeError
    with pytest.raises(TypeError, match="a triple's subject must be an Iri, not int"):
        serialize_triple(Triple(1, 2, 3))
    subject, predicate = Iri("gsn", "G1"), Iri("rdf", "type")
    with pytest.raises(TypeError, match="a triple's predicate must be an Iri, not Literal"):
        Triple(subject, Literal("type"), subject)
    with pytest.raises(TypeError, match="a triple's object must be an Iri or a Literal, not Variable"):
        Triple(subject, predicate, Variable("x"))
    assert Triple(subject, predicate, Literal("x")).object == Literal("x")


def test_terms_keep_their_fields_and_repr():
    term = Iri("rdf", "type")
    literal = Literal("5", term)
    triple = Triple(term, term, literal)
    assert repr(term) == "Iri(prefix='rdf', local='type')"
    assert repr(Literal("x")) == "Literal(text='x', datatype=None)"
    assert repr(triple) == f"Triple(subject={term!r}, predicate={term!r}, object={literal!r})"
    assert (literal.text, literal.datatype, Literal("x").datatype) == ("5", term, None)
    assert (triple.subject, triple.predicate, triple.object) == (term, term, literal)
    assert Literal(text="5", datatype=term) == literal
    with pytest.raises(AttributeError):
        term.prefix = "gsn"
    with pytest.raises(AttributeError):
        term.extra = 1


@pytest.mark.parametrize("name", ["", "1x", "a b", "a-b", "x\n", "?x"])
def test_no_path_builds_a_variable_with_a_bad_name(name):
    good = Variable("x")
    builders = [
        lambda: Variable(name),
        lambda: Variable(name=name),
        lambda: Variable._make([name]),
        lambda: good._replace(name=name),
    ]
    if hasattr(copy, "replace"):  # Python 3.13+
        builders.append(lambda: copy.replace(good, name=name))
    for build in builders:
        with pytest.raises(ValueError, match="invalid variable name"):
            build()


def test_variable_helpers_build_checked_variables():
    assert Variable._make(["y"]) == Variable("y")
    assert type(Variable._make(["y"])) is Variable
    assert type(Variable("x")._replace(name="y")) is Variable
    assert repr(Variable("x")) == "Variable(name='x')"
    with pytest.raises(TypeError):
        Variable._make(["x", "y"])
    with pytest.raises(AttributeError):
        Variable("x").name = "y"


def test_a_store_is_read_only_and_unhashable():
    store = Store(frozenset({t("atk:a", "rdf:type", "gsn:G1")}))
    for assign in (
        lambda: setattr(store, "triples", frozenset()),
        lambda: setattr(store, "namespaces", {}),
        lambda: setattr(store, "extra", 1),
        lambda: delattr(store, "triples"),
    ):
        with pytest.raises(AttributeError, match="immutable store"):
            assign()
    assert len(store) == 1 and store.namespaces == DEFAULT_NAMESPACES
    with pytest.raises(TypeError):
        hash(store)
    assert store == Store(store.triples) and store != Store()
    assert store != (store.triples, store.namespaces)
    assert repr(Store()) == f"Store(triples=[], namespaces={DEFAULT_NAMESPACES!r})"


_NAME = st.from_regex(r"[a-z][a-z0-9]{0,3}", fullmatch=True)


@settings(max_examples=200, deadline=None)
@given(_NAME, _NAME, st.booleans())
def test_terms_never_equal_across_kinds(prefix, local, typed):
    iri_term = Iri(prefix, local)
    terms = [
        iri_term,
        Literal(f"{prefix}:{local}"),
        Literal(prefix, iri_term if typed else None),
        Literal(local, iri_term),
        Variable(prefix),
        Variable(local),
    ]
    for left in terms:
        for right in terms:
            if type(left) is not type(right):
                assert left != right and not left == right, (left, right)
    assert Triple(iri_term, iri_term, iri_term) != Triple(iri_term, iri_term, terms[1])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Store(frozenset(), {"ex": "http://a b/"}),
         "invalid expansion 'http://a b/' for namespace prefix 'ex'"),
        (lambda: Store(namespaces={"gsn": ""}), "invalid expansion '' for namespace prefix 'gsn'"),
        (lambda: Store(namespaces={"rdf\n": "http://x/"}), "invalid namespace prefix 'rdf\\n'"),
        (lambda: import_triples("", namespaces={"1x": "y"}), "invalid namespace prefix '1x'"),
        (lambda: import_triples("<atk:a> <rdf:type> <assures:Attack> .", {"ex": "a>b"}),
         "invalid expansion 'a>b' for namespace prefix 'ex'"),
    ],
)
def test_store_rejects_namespace_maps_no_prefix_line_can_spell(build, message):
    with pytest.raises(NamespaceError) as exc:
        build()
    assert str(exc.value) == message


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(alphabet="ab1_-\n", max_size=3), st.text(alphabet="htp:/a b<>#\t", max_size=6)))
def test_every_store_exports_a_text_that_reads_back(namespaces):
    try:
        store = Store(frozenset(), namespaces)
    except NamespaceError:
        return
    assert import_triples(export_triples(store)) == store


def test_variable_name_rules():
    assert Variable("who").name == "who"
    with pytest.raises(ValueError):
        Variable("")
    with pytest.raises(ValueError):
        Variable("bad name")
    with pytest.raises(ValueError):
        Variable("x\n")


def test_names_with_a_trailing_newline_are_rejected():
    with pytest.raises(TripleParseError, match="invalid local name 'type\\\\n'"):
        parse_pattern("?s <rdf:type\n> ?o")
    with pytest.raises(NamespaceError):
        Store().with_namespace("ex\n", "https://example.org/ns/ex#")


@pytest.mark.parametrize("expansion", ["", "http://a b/", "http://a\tb/", "http://a<b/", "http://a>b/"])
def test_with_namespace_rejects_expansions_no_prefix_line_can_spell(expansion):
    with pytest.raises(NamespaceError, match="namespace prefix 'ex'"):
        Store().with_namespace("ex", expansion)


def test_serialize_term_forms():
    assert serialize_term(iri("atk:x")) == "<atk:x>"
    assert serialize_term(Literal("hi")) == '"hi"'
    assert serialize_term(Literal("say \"hi\"\n\\")) == '"say \\"hi\\"\\n\\\\"'
    assert serialize_term(Variable("v")) == "?v"
    typed = Literal("5", datatype=iri("rdf:int"))
    assert serialize_term(typed) == '"5"^^<rdf:int>'


def test_literal_never_equals_iri():
    assert Literal("euaia:d9") != iri("euaia:d9")
    store = Store().assert_triple(t("atk:a", "rdf:type", Literal("assures:Attack")))
    assert t("atk:a", "rdf:type", "assures:Attack") not in store


# ----------------------------------------------------------------------
# store semantics


def test_store_is_a_set():
    triple = t("atk:a", "assures:mitigatedBy", "def:f")
    store = Store().assert_triple(triple).assert_triple(triple)
    assert len(store) == 1
    assert triple in store
    store = store.retract_triple(triple)
    assert len(store) == 0
    # retracting an absent triple is a no-op
    assert len(store.retract_triple(triple)) == 0


def test_store_rejects_undeclared_prefix():
    with pytest.raises(NamespaceError):
        Store().assert_triple(
            Triple(Iri("mystery", "x"), iri("rdf:type"), iri("assures:Attack"))
        )
    widened = Store().with_namespace("mystery", "https://example.org/ns/mystery#")
    assert len(widened.assert_triple(
        Triple(Iri("mystery", "x"), iri("rdf:type"), iri("assures:Attack"))
    )) == 1


@pytest.mark.parametrize(
    "triple",
    [
        Triple(Iri("mystery", "x"), iri("rdf:type"), iri("assures:Attack")),
        Triple(iri("atk:a"), Iri("mystery", "p"), iri("assures:Attack")),
        Triple(iri("atk:a"), iri("rdf:type"), Iri("mystery", "o")),
        Triple(iri("atk:a"), iri("gsn:statement"), Literal("x", Iri("mystery", "t"))),
    ],
)
def test_store_names_the_triple_with_an_undeclared_prefix(triple):
    declared = [t("atk:a", "rdf:type", "assures:Attack"), t("atk:b", "gsn:statement", Literal("y"))]
    with pytest.raises(NamespaceError) as exc:
        Store(frozenset(declared + [triple]))
    assert str(exc.value) == f"undeclared namespace prefix 'mystery' in {serialize_triple(triple)}"


def test_store_iteration_is_sorted_and_stable():
    triples = [
        t("gsn:G2", "gsn:supportedBy", "gsn:Sn1"),
        t("atk:a", "rdf:type", "assures:Attack"),
        t("atk:a", "assures:mitigatedBy", "def:f"),
    ]
    store = Store().assert_all(triples)
    listed = [serialize_triple(x) for x in store]
    assert listed == sorted(listed)


def test_default_namespaces_always_present():
    store = Store()
    for prefix in ("rdf", "euaia", "gsn", "assures", "atk", "def", "src"):
        assert prefix in store.namespaces


# ----------------------------------------------------------------------
# match and query against a brute-force oracle

_PREFIX_POOL = ("euaia", "gsn", "atk")
_LOCAL_POOL = tuple(f"n{i}" for i in range(8))
_LITERAL_POOL = ('plain', 'with "quote"', "line\nbreak", "back\\slash", "")
_VAR_POOL = ("s", "p", "o", "x", "y")


def _random_term(rng: random.Random, *, literal_ok: bool):
    if literal_ok and rng.random() < 0.25:
        return Literal(rng.choice(_LITERAL_POOL))
    return Iri(rng.choice(_PREFIX_POOL), rng.choice(_LOCAL_POOL))


def _random_store(rng: random.Random, size: int) -> Store:
    triples = {
        Triple(
            _random_term(rng, literal_ok=False),
            _random_term(rng, literal_ok=False),
            _random_term(rng, literal_ok=True),
        )
        for _ in range(size)
    }
    return Store(frozenset(triples))


def _random_pattern(rng: random.Random) -> TriplePattern:
    def position(literal_ok: bool):
        if rng.random() < 0.45:
            return Variable(rng.choice(_VAR_POOL))
        return _random_term(rng, literal_ok=literal_ok)

    return TriplePattern(position(False), position(False), position(True))


def _oracle_unify(pattern: TriplePattern, triple: Triple):
    binding = {}
    for want, got in (
        (pattern.subject, triple.subject),
        (pattern.predicate, triple.predicate),
        (pattern.object, triple.object),
    ):
        if isinstance(want, Variable):
            if want.name in binding and binding[want.name] != got:
                return None
            binding[want.name] = got
        elif want != got:
            return None
    return binding


def _oracle_match(store: Store, pattern: TriplePattern):
    found = []
    for triple in store.triples:
        binding = _oracle_unify(pattern, triple)
        if binding is not None and binding not in found:
            found.append(binding)
    return sorted(
        found,
        key=lambda b: " ".join(f"?{k}={serialize_term(b[k])}" for k in sorted(b)),
    )


def _oracle_query(store: Store, patterns):
    results = [{}]
    for pattern in patterns:
        narrowed = []
        for binding in results:
            grounded = TriplePattern(
                *(
                    binding.get(term.name, term) if isinstance(term, Variable) else term
                    for term in (pattern.subject, pattern.predicate, pattern.object)
                )
            )
            for extension in _oracle_match(store, grounded):
                merged = {**binding, **extension}
                if merged not in narrowed:
                    narrowed.append(merged)
        results = narrowed
    return sorted(
        results,
        key=lambda b: " ".join(f"?{k}={serialize_term(b[k])}" for k in sorted(b)),
    )


def test_match_and_query_equal_full_scan():
    rng = random.Random(20250819)
    for round_no in range(60):
        store = _random_store(rng, rng.randint(0, 50))
        for _ in range(4):
            pattern = _random_pattern(rng)
            assert store.match(pattern) == _oracle_match(store, pattern)
        patterns = [_random_pattern(rng) for _ in range(rng.randint(1, 3))]
        assert store.query(patterns) == _oracle_query(store, patterns)
        # the first and last pattern share no variable; only the middle one
        # links them (?s evidencedBy ?e, ?g supportedBy ?s, ?g rdf:type Goal)
        evidenced, supported, typed = (_random_term(rng, literal_ok=False) for _ in range(3))
        chain = [
            TriplePattern(Variable("s"), evidenced, Variable("e")),
            TriplePattern(Variable("g"), supported, Variable("s")),
            TriplePattern(Variable("g"), typed, _random_term(rng, literal_ok=True)),
        ]
        assert store.query(chain) == _oracle_query(store, chain)


@pytest.mark.parametrize(
    "pattern, by_predicate, indexes",
    [
        ("?s ?p ?o", False, set()),
        ("gsn:G1 gsn:supportedBy gsn:S1", False, set()),
        ("?s rdf:type ?o", True, {(None, 1)}),
        ("?s rdf:type gsn:Goal", True, {(None, 1), ("rdf:type", 2)}),
        ("gsn:G1 gsn:supportedBy ?o", True, {(None, 1), ("gsn:supportedBy", 0)}),
        ("gsn:G1 ?p ?o", False, {(None, 0)}),
        ("gsn:G1 ?p gsn:S1", False, {(None, 0), (None, 2)}),
    ],
)
def test_match_scopes_its_indexes_to_the_predicate_bucket(base_store, pattern, by_predicate, indexes):
    """A pattern without variables is one set lookup; a bound predicate builds
    the predicate buckets, the store's index by position 1, and at most an
    index of its bucket by the bound subject or object; only a variable
    predicate indexes the whole store by the positions the pattern binds."""
    store = Store(base_store.triples)
    found = store.match(parse_pattern(pattern))
    assert found == _oracle_match(store, parse_pattern(pattern))
    assert len(store._candidates(parse_pattern(pattern))) == len(found)  # no triple scanned in vain
    assert ((None, 1) in vars(store).get("_indexes", {})) is by_predicate
    keys = {(None if p is None else p.curie, at) for p, at in vars(store).get("_indexes", {})}
    assert keys == indexes


def test_a_join_under_bound_predicates_indexes_only_their_buckets(base_store):
    store = Store(base_store.triples)
    chain = [
        parse_pattern("?s assures:evidencedBy ?e"),
        parse_pattern("?g gsn:supportedBy ?s"),
        parse_pattern("?g rdf:type gsn:Goal"),
    ]
    assert store.query(chain) == _oracle_query(store, chain) != []
    assert (None, 0) not in store._indexes and (None, 2) not in store._indexes
    assert {p for p, _ in store._indexes} <= {None, iri("assures:evidencedBy"), iri("gsn:supportedBy"), iri("rdf:type")}


# Small pools, so that random patterns hit: the subject and predicate pools
# overlap, and objects may be literals, with and without a datatype.
_POOL_IRIS = [Iri(prefix, local) for prefix in ("gsn", "atk") for local in ("a", "b", "c")]
_POOL_LITERALS = [Literal(""), Literal("a"), Literal("a", Iri("gsn", "a"))]
_POOL_VARIABLES = [Variable(name) for name in ("x", "y", "z")]
_STORE_TRIPLES = st.builds(
    Triple,
    st.sampled_from(_POOL_IRIS),
    st.sampled_from(_POOL_IRIS[:3]),
    st.sampled_from(_POOL_IRIS + _POOL_LITERALS),
)
_PATTERN_TERMS = st.sampled_from(_POOL_IRIS + _POOL_LITERALS + _POOL_VARIABLES)
_PATTERNS = st.builds(TriplePattern, _PATTERN_TERMS, _PATTERN_TERMS, _PATTERN_TERMS)


@settings(max_examples=400, deadline=None)
@given(st.lists(_STORE_TRIPLES, max_size=40), st.lists(_PATTERNS, min_size=1, max_size=3))
@example([t("gsn:a", "gsn:a", "gsn:a")], [TriplePattern(Variable("x"), Variable("x"), Variable("x"))])
@example([t("gsn:a", "gsn:b", "gsn:c")], [TriplePattern(iri("gsn:a"), iri("gsn:b"), iri("gsn:c"))])
@example(
    [t("gsn:a", "gsn:b", "gsn:c"), t("atk:a", "gsn:a", Literal("a"))],
    [TriplePattern(Variable("x"), iri("gsn:b"), Variable("y")), TriplePattern(Variable("z"), Variable("y"), Literal("a"))],
)
@example(
    [t("gsn:a", "gsn:b", "gsn:c"), t("atk:a", "gsn:a", Literal("a"))],
    [TriplePattern(Variable("x"), iri("gsn:b"), Variable("y")), TriplePattern(Variable("z"), iri("gsn:a"), Literal("a"))],
)
def test_match_and_query_equal_the_whole_store_planner(made, patterns):
    """Bucket-scoped lookups change the candidates, never the answer: every
    pattern matches, and the patterns join, as under the whole-store planner
    and the brute-force oracle, whatever the order the lookups are cached in."""
    store, planner = Store(made), WholeStorePlanner(Store(made))
    for pattern in patterns:
        assert store.match(pattern) == planner.match(pattern) == _oracle_match(store, pattern)
    assert store.query(patterns) == planner.query(patterns) == _oracle_query(store, patterns)
    assert Store(made).query(patterns) == store.query(patterns)


def test_query_requires_patterns():
    with pytest.raises(ValueError):
        Store().query([])


def test_query_ground_pattern_yields_empty_binding(base_store):
    hit = base_store.query([parse_pattern("<atk:charCombo> <rdf:type> <assures:Attack> .")])
    assert hit == [{}]
    miss = base_store.query([parse_pattern("<atk:charCombo> <rdf:type> <assures:Defense> .")])
    assert miss == []


def test_query_joins_on_shared_variables(base_store):
    rows = base_store.query(
        [
            parse_pattern("?g <assures:operationalizes> ?d ."),
            parse_pattern("?d <euaia:obligates> ?who ."),
        ]
    )
    assert rows == [
        {
            "g": iri("gsn:G1"),
            "d": iri("euaia:d9"),
            "who": iri("euaia:stakeholderA"),
        }
    ]


# ----------------------------------------------------------------------
# import / export


def test_export_import_round_trip_fixture_scale(base_store):
    assert import_triples(export_triples(base_store)) == base_store


def test_import_export_random_round_trips():
    rng = random.Random(7)
    for _ in range(25):
        store = _random_store(rng, rng.randint(0, 40))
        assert import_triples(export_triples(store)) == store


def test_export_is_permutation_invariant():
    rng = random.Random(11)
    store = _random_store(rng, 30)
    lines = export_triples(store).split("\n")
    header = [line for line in lines if line.startswith("@prefix")]
    body = [line for line in lines if line and not line.startswith("@prefix")]
    rng.shuffle(body)
    shuffled = "\n".join(header + body) + "\n"
    assert export_triples(import_triples(shuffled)) == export_triples(store)


def test_import_accepts_comments_and_blanks():
    store = import_triples(
        "# a comment\n\n<atk:a> <rdf:type> <assures:Attack> .\n  \n# done\n"
    )
    assert len(store) == 1


def test_import_literal_escapes():
    store = import_triples('<atk:a> <gsn:statement> "say \\"hi\\"\\n\\\\" .')
    (triple,) = list(store)
    assert triple.object == Literal('say "hi"\n\\')


def test_import_custom_prefix():
    text = (
        "@prefix lab: <https://example.org/ns/lab#>\n"
        "<lab:x> <rdf:type> <assures:Attack> .\n"
    )
    store = import_triples(text)
    assert store.namespaces["lab"] == "https://example.org/ns/lab#"
    assert import_triples(export_triples(store)) == store


def test_import_conflicting_redeclaration_fails():
    text = (
        "@prefix lab: <https://example.org/ns/lab#>\n"
        "@prefix lab: <https://example.org/ns/other#>\n"
    )
    with pytest.raises(TripleParseError):
        import_triples(text)


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("<atk:a> <rdf:type> .", "3 terms"),
        ("<atk:a> <rdf:type> <assures:Attack> <atk:b> .", "3 terms"),
        ("<atk:a> <rdf:type> <assures:Attack>", "end with"),
        ('"lit" <rdf:type> <assures:Attack> .', "subject"),
        ('<atk:a> "lit" <assures:Attack> .', "predicate"),
        ('<atk:a> <rdf:type> "unterminated .', "unterminated"),
        ("<atk:a> <rdf:type> <nowhere:b> .", "prefix"),
        ("atk:a <rdf:type> <assures:Attack> .", "unexpected"),
    ],
)
def test_import_rejects_malformed_statements(line, fragment):
    with pytest.raises(TripleParseError) as exc:
        import_triples(line)
    assert fragment.lower() in str(exc.value).lower()
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("@prefix a: <https://e/>" + " " * 100_000 + "x", "line 1: malformed @prefix declaration"),
        (" " * 100_000 + "x", "line 1, column 100001: unexpected character 'x'"),
    ],
    ids=["prefix", "blank"],
)
def test_a_long_blank_run_before_a_stray_character_is_rejected_in_linear_time(text, message):
    start = time.perf_counter()
    with pytest.raises(TripleParseError) as exc:
        import_triples(text)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text",
    ["<" + "a" * 100_000, "<atk:" + "b" * 100_000, "<atk:a> <rdf:type> <atk:" + "b._-" * 25_000 + " ."],
    ids=["prefix", "local", "object"],
)
def test_a_long_unclosed_curie_is_rejected_in_linear_time(text):
    start = time.perf_counter()
    with pytest.raises(TripleParseError) as exc:
        import_triples(text)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == f"line 1, column {text.rindex('<') + 1}: unterminated '<'"


@pytest.mark.parametrize(
    "text, message",
    [
        ("   <atk:a <rdf:type> <gsn:G1> .", "line 1, column 5: invalid local name 'a <rdf:type'"),
        ('\t\t<atk:a> <rdf:type> "x\\q" .', "line 1, column 24: unknown escape \\q"),
        ("\u3000<atk:a> <rdf:type> x .", "line 1, column 21: unexpected character 'x'"),
        ("  <atk:a> <rdf:type> <gsn:G1>  ", "line 1, column 29: statement must end with ' .'"),
    ],
)
def test_error_columns_count_from_the_start_of_the_line(text, message):
    with pytest.raises(TripleParseError) as exc:
        import_triples(text)
    assert str(exc.value) == message


def test_parse_error_reports_later_line_numbers():
    text = "<atk:a> <rdf:type> <assures:Attack> .\n<atk:b> <rdf:type> .\n"
    with pytest.raises(TripleParseError) as exc:
        import_triples(text)
    assert exc.value.line == 2


def test_import_shares_one_object_per_distinct_iri():
    store = import_triples(
        "<atk:a> <rdf:type> <assures:Attack> .\n"
        '<atk:b> <rdf:type> <assures:Attack> .\n<atk:a> <gsn:statement> "s"^^<atk:a> .\n'
    )
    by_text: dict[str, set[int]] = {}
    for triple in store:
        terms = [triple.subject, triple.predicate, triple.object]
        if isinstance(triple.object, Literal):
            terms[2] = triple.object.datatype
        for term in terms:
            by_text.setdefault(term.curie, set()).add(id(term))
    assert by_text.keys() == {"atk:a", "atk:b", "rdf:type", "assures:Attack", "gsn:statement"}
    assert all(len(ids) == 1 for ids in by_text.values())


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("?s rdf:type\x0b?o", "unexpected character '\\x0b'", 12),
        ("?s\r?p ?o", "unexpected character '\\r'", 3),
        ("?s ?p ?o\n", "unexpected character '\\n'", 9),
        ("\u00a0?s ?p ?o", "unexpected character '\\xa0'", 1),
        ("?s ?p ?1", "invalid variable name", 7),
        ("?s ?p <rdf:type", "unterminated '<'", 7),
        ('?s ?p "x"^^rdf:type', "expected <curie> after '^^'", 10),
        ("?s ?p ?o . ?x", "content after terminating '.'", 12),
    ],
)
def test_parse_pattern_rejects_malformed_patterns(text, message, column):
    with pytest.raises(TripleParseError) as exc:
        parse_pattern(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == (f"column {column}: {message}", None, column)


def test_parse_pattern_variables_and_ground_terms():
    pattern = parse_pattern('?s <rdf:type> "lit" .')
    assert pattern.subject == Variable("s")
    assert pattern.predicate == iri("rdf:type")
    assert pattern.object == Literal("lit")
    # the trailing dot is optional for patterns
    assert parse_pattern("?s ?p ?o") == TriplePattern(
        Variable("s"), Variable("p"), Variable("o")
    )


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40))
def test_literal_text_round_trips_through_files(text):
    store = Store().assert_triple(t("atk:a", "gsn:statement", Literal(text)))
    assert import_triples(export_triples(store)) == store


# ----------------------------------------------------------------------
# the compiled lexer against the character scanner it replaced

_CURIES = ("rdf:type", "atk:a1", "gsn:G1", "lab:x", "a:b.c", "x", ":x", "1a:x", "a:", "a b:x", "a:x y", "")
_IRIS = st.sampled_from(_CURIES).map(lambda curie: f"<{curie}>")
_BODIES = st.lists(
    st.one_of(
        st.text(alphabet="ab .<>?^t#\t", max_size=4),
        st.sampled_from(['\\"', "\\\\", "\\n", "\\t", "\\q", "\\", '"']),
    ),
    max_size=4,
).map("".join)
_ENDS = st.sampled_from(['"', "", '"^^<rdf:type>', '"^^<x>', '"^^', '"^^rdf:type', '"^^<gsn:G1', '"^^<a b:c>'])
_LITERALS = st.tuples(_BODIES, _ENDS).map(lambda parts: '"' + parts[0] + parts[1])
_TERMS = st.one_of(
    _IRIS, _LITERALS, st.sampled_from(_CURIES), st.sampled_from(["?s", "?_x1", "?", "?1", "?a-b"])
)
_BLANKS = st.sampled_from([" ", "\t", "  ", " \t", ""])
_STRAYS = st.sampled_from(
    [".", ". ", ".x", "..", "<", ">", '"', "\\", "^", "^^", "#", "@", "<a:b", "<>", "\x0b", "\r", "\n", "\u00a0"]
)
# Three terms and a dot, each part possibly malformed, or any run of pieces.
_LINES = st.one_of(
    st.tuples(_TERMS, _BLANKS, _TERMS, _BLANKS, _TERMS, st.sampled_from(["", " .", ".", " . ", "\t.\t", " . x"]))
    .map("".join),
    st.lists(st.one_of(_TERMS, _BLANKS, _STRAYS), max_size=10).map("".join),
)


def _outcome(scan, *args, **kwargs):
    try:
        return ("terms", scan(*args, **kwargs))
    except TripleParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


@settings(max_examples=500, deadline=None)
@given(_LINES, st.booleans())
@example("?s ?p ?o .\n", True)
@example('<a:b> <c:d> "x\\', False)
@example('<a:b> <c:d> "x"^^<e:f', False)
def test_lexer_agrees_with_the_character_scanner(line, pattern):
    if pattern:
        new = _outcome(_scan_terms, line, None, pattern=True)
        try:
            old = _outcome(char_scan_terms, line, None, allow_variables=True, allow_bare=True, require_dot=False)
        except AttributeError:  # the old bare-token match met whitespace other than space or tab
            assert new[0] == "error" and new[1].startswith(f"column {new[3]}: unexpected character")
            return
    else:
        new = _outcome(_scan_terms, line, 7)
        old = _outcome(char_scan_terms, line, 7)
    assert new == old


_FILE_LINES = st.one_of(
    _LINES,
    st.text(max_size=30),
    st.sampled_from(["@prefix lab: <https://example.org/lab#>", "@prefix lab: <https://x/>", "@prefix bad", "# c", ""]),
    st.sampled_from(["<atk:a> <rdf:type> <assures:Attack> .", '<lab:x> <gsn:statement> "s"^^<lab:t> .']),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FILE_LINES, max_size=6).map("\n".join))
def test_import_returns_a_store_or_a_located_parse_error(text):
    try:
        store = import_triples(text)
    except TripleParseError as exc:
        assert exc.line is not None and 1 <= exc.line <= text.count("\n") + 1
    else:
        assert isinstance(store, Store)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_LINES, st.text(max_size=30)))
def test_parse_pattern_raises_only_parse_errors(text):
    try:
        parse_pattern(text)
    except TripleParseError:
        pass


# ----------------------------------------------------------------------
# the row lexer of import_triples against the line-by-line import it replaced

_LINE_ENDS = st.text(alphabet=" \t\r\x0b\x0c\x1c\x85\xa0\u2003\u3000", max_size=3)
_GAPS = st.text(alphabet=" \t", max_size=3)
_GOOD_CURIES = st.sampled_from(["rdf:type", "atk:a1", "gsn:G1", "gsn:Sn-1.b", "lab:x", "lab:y_2", "src:0"])
# CURIEs at the edges of the grammar `[A-Za-z][A-Za-z0-9_-]*:[A-Za-z0-9_][A-Za-z0-9_.-]*`,
# whose letters are ASCII ones: a second colon, an empty or ill-started name
# and a non-ASCII letter (the Kelvin sign among them) each break it.
_BAD_EDGE_CURIES = (
    "a:b:c", "atk:b:c", "atk::b", ":b", "a:", "atk:", "1a:x", "_a:x", "atk:.x", "atk:-x",
    "\u00e9:x", "atk:\u00e9", "atk\u00e9:x", "atk:x\u00e9", "atk:\u212a",
)
_GOOD_EDGE_CURIES = ("a-_9:x", "atk:_.-", "atk:9.", "A:b")
_ALL_CURIES = st.one_of(
    _GOOD_CURIES,
    st.sampled_from(["late:x", "mystery:p", "1a:x", "a:", "a b:x", "", *_BAD_EDGE_CURIES, *_GOOD_EDGE_CURIES]),
)
_GOOD_BODIES = st.lists(
    st.one_of(
        st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters='"\\\n'), max_size=5),
        st.sampled_from(['\\"', "\\\\", "\\n"]),
    ),
    max_size=4,
).map("".join)


def _statements(curies):
    iris = curies.map(lambda curie: f"<{curie}>")
    datatypes = st.one_of(st.just(""), iris.map(lambda iri: f"^^{iri}"))
    objects = st.one_of(iris, st.tuples(_GOOD_BODIES, datatypes).map(lambda parts: f'"{parts[0]}"{parts[1]}'))
    parts = st.tuples(_LINE_ENDS, iris, _GAPS, iris, _GAPS, objects, _GAPS, _LINE_ENDS)
    return parts.map(lambda p: f"{p[0]}{p[1]}{p[2]}{p[3]}{p[4]}{p[5]}{p[6]}.{p[7]}")


_LAB = "@prefix lab: <https://example.org/lab#>"
_QUIET_LINES = st.one_of(
    _LINE_ENDS,
    st.tuples(_LINE_ENDS, st.text(max_size=12).filter(lambda c: "\n" not in c)).map(lambda p: f"{p[0]}#{p[1]}"),
    st.sampled_from([_LAB, f"  {_LAB} .", "@prefix gsn: <https://example.org/other#>"]),
)
# Valid files: `lab:` is declared before any statement.
_VALID_TEXTS = st.tuples(
    st.lists(_QUIET_LINES, max_size=3),
    st.lists(st.one_of(_statements(_GOOD_CURIES), _QUIET_LINES), max_size=12),
    st.sampled_from(["", "\n", "\r\n"]),
).map(lambda p: "\n".join([*p[0], _LAB, *p[1]]) + p[2])
_ANY_LINES = st.one_of(
    _statements(_ALL_CURIES),
    _statements(_GOOD_CURIES).map(lambda line: line.replace(" ", "\xa0", 1)),
    _QUIET_LINES,
    _FILE_LINES,
    st.sampled_from(["@prefix late: <https://example.org/late#>", "@prefix lab: <https://example.org/other#>"]),
)
_ANY_TEXTS = st.tuples(st.lists(_ANY_LINES, max_size=10), st.sampled_from(["", "\n"])).map(
    lambda p: "\n".join(p[0]) + p[1]
)
_EXTRA_NAMESPACES = st.sampled_from(
    [None, {}, {"lab": "https://example.org/lab#"}, {"late": "https://l/"}, {"a": "https://a/", "A": "https://A/"}]
)


def _import_outcome(read, text, namespaces):
    try:
        store = read(text, namespaces)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    return ("store", sorted(map(repr, store.triples)), store.namespaces)


def _one_object_per_curie(store: Store) -> bool:
    ids: dict[str, set[int]] = {}
    for triple in store.triples:
        for term in (triple.subject, triple.predicate, triple.object, getattr(triple.object, "datatype", None)):
            if isinstance(term, Iri):
                ids.setdefault(term.curie, set()).add(id(term))
    return all(len(found) == 1 for found in ids.values())


@settings(max_examples=500, deadline=None)
@given(st.one_of(_ANY_TEXTS, _VALID_TEXTS), _EXTRA_NAMESPACES)
@example("<atk:a> <rdf:type> <late:x> .\n@prefix late: <https://l/>\n<atk:a> <rdf:type> <late:x> .", None)
@example("@prefix late: <https://l/>\n<atk:a> <rdf:type> <late:x> .\n<late:x> <rdf:type> <gsn:G1> .", None)
@example('<atk:a>\t<rdf:type>  "a\\"b\\n"^^<lab:t> .\u3000\r\n<atk:a> <rdf:type> "x"^^<lab:t> .', {"lab": "https://l/"})
@example("<atk:a> <rdf:type> <a b:x> .\n<atk:a> <rdf:type> <> .", None)
@example("\n\n<atk:a> <rdf:type> <gsn:G1> .", None)
@example("@prefix bad", None)
@example("@prefix lab: <https://a/>\n@prefix lab: <https://b/>", None)
@example("?x <rdf:type> <gsn:G1> .", None)
@example("atk:a <rdf:type> <gsn:G1> .", None)
@example("<atk:a> <rdf:type> .", None)
@example('"s" <rdf:type> <gsn:G1> .', None)
@example("<a:b> <c:d> <e:f> . x", None)
def test_row_lexer_agrees_with_the_line_by_line_import(text, namespaces):
    accepted, read = [], triples._read_line

    def read_line(*args):
        accepted.append(read(*args))  # reached only if the line reader accepts the line
        return accepted[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triples, "_read_line", read_line)
        new = _import_outcome(import_triples, text, namespaces)
    assert accepted == []
    assert new == _import_outcome(import_triples_by_line, text, namespaces)
    if new[0] == "store":
        assert _one_object_per_curie(import_triples(text, namespaces))


_POSITIONS = {
    "subject": "<{}> <rdf:type> <gsn:G1> .",
    "predicate": "<atk:a> <{}> <gsn:G1> .",
    "object": "<atk:a> <rdf:type> <{}> .",
    "datatype": '<atk:a> <rdf:type> "v"^^<{}> .',
}


@pytest.mark.parametrize("position", _POSITIONS)
@pytest.mark.parametrize("curie", _BAD_EDGE_CURIES + _GOOD_EDGE_CURIES)
def test_the_row_pattern_takes_a_curie_where_the_line_import_does(curie, position):
    """Every edge CURIE in every term position, after a valid line and with
    its prefix declared where it has one, reads as the line-by-line import
    reads it: the same store, or the same error text, line and column."""
    text = f"<atk:a> <rdf:type> <gsn:G1> .\n\t{_POSITIONS[position].format(curie)}\n"
    namespaces = {"a": "https://a/", "A": "https://A/", "a-_9": "https://a9/"}
    new = _import_outcome(import_triples, text, namespaces)
    assert new == _import_outcome(import_triples_by_line, text, namespaces)
    if curie in _GOOD_EDGE_CURIES:
        assert new[0] == "store" and len(new[1]) == 2
    else:
        assert new[0] == "error" and new[3:] == (2, _POSITIONS[position].index("{}") + 2)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ANY_TEXTS, _VALID_TEXTS), _EXTRA_NAMESPACES)
def test_an_imported_store_passes_the_checked_constructor(text, namespaces):
    """The import skips the constructor's walk over the triples; building the
    same store through it must accept it and change nothing."""
    try:
        store = import_triples(text, namespaces)
    except ValueError:
        return
    rebuilt = Store(store.triples, store.namespaces)
    assert rebuilt == store
    assert list(rebuilt.namespaces.items()) == list(store.namespaces.items())


_IN_MEMORY = st.lists(
    st.tuples(st.sampled_from(["atk:a", "lab:x", "late:y"]), st.sampled_from(["rdf:type", "lab:p"]))
    .map(lambda pair: t(pair[0], pair[1], "gsn:G1")),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_VALID_TEXTS, _EXTRA_NAMESPACES), max_size=3), _IN_MEMORY)
def test_merged_stores_and_their_additions_equal_the_checked_constructor(parts, made):
    """Merging imported stores walks no triple, and adding triples made in
    memory walks only those; the checked constructor over the union of the
    stores' namespace maps, the last store winning, must agree: the same
    store, or an error that names an added triple."""
    stores = [import_triples(text, namespaces) for text, namespaces in parts]
    merged = merge_stores(stores)
    namespaces: dict[str, str] = {}
    for store in stores:
        namespaces.update(store.namespaces)
    rebuilt = Store(frozenset().union(*(store.triples for store in stores)), namespaces)
    assert merged == rebuilt
    assert list(merged.namespaces.items()) == list(rebuilt.namespaces.items())
    try:
        added = merged.assert_all(made)
    except NamespaceError as exc:
        with pytest.raises(NamespaceError):
            Store(merged.triples | frozenset(made), merged.namespaces)
        assert any(str(exc).endswith(f"' in {serialize_triple(triple)}") for triple in made)
    else:
        assert added == Store(merged.triples | frozenset(made), merged.namespaces)


@settings(max_examples=200, deadline=None)
@given(_VALID_TEXTS)
def test_valid_files_never_reach_the_line_scanner(text):
    """Blank, comment and ``@prefix`` lines stay on the row pattern too."""
    calls = []

    def counted(read):
        def call(*args, **kwargs):
            calls.append(args)
            return read(*args, **kwargs)

        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triples, "_scan_terms", counted(_scan_terms))
        patch.setattr(triples, "_read_line", counted(triples._read_line))
        store = import_triples(text)
    assert calls == []
    assert store == import_triples_by_line(text)


# ----------------------------------------------------------------------
# the order a store keeps: each triple once, where it first came


def _in_first_order(store: Store, given) -> None:
    assert list(store.triples) == list(dict.fromkeys(given))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_STORE_TRIPLES, max_size=12), min_size=1, max_size=3), st.data())
def test_every_way_of_making_a_store_keeps_the_first_occurrence_order(parts, data):
    """Repeats included, within one input and across inputs."""
    made = parts[0]
    everything = [triple for part in parts for triple in part]
    _in_first_order(Store(made), made)
    _in_first_order(Store(iter(made)), made)
    _in_first_order(Store(frozenset(made)), frozenset(made))
    _in_first_order(import_triples("".join(serialize_triple(x) + "\n" for x in made)), made)
    _in_first_order(merge_stores([Store(part) for part in parts]), everything)
    added = Store(made)
    for part in parts[1:]:
        added = added.assert_all(part)
    _in_first_order(added, everything)
    _in_first_order(Store(made).with_namespace("lab", "https://example.org/lab#"), made)
    if everything:
        gone = data.draw(st.sampled_from(everything))
        _in_first_order(added.retract_triple(gone), [x for x in everything if x != gone])


def test_an_imported_store_survives_pickle_and_deepcopy():
    """The triples view is not kept in the store's ``__dict__``: a stored
    ``dict_keys`` would make both raise ``TypeError``."""
    text = "@prefix lab: <https://example.org/lab#>\n" + "".join(
        f"<lab:x{n % 7}> <rdf:type> <gsn:G{n % 3}> .\n" for n in range(20, 0, -1)
    )
    store = import_triples(text)
    pattern = TriplePattern(Variable("s"), iri("rdf:type"), iri("gsn:G1"))
    found = store.match(pattern)  # fills the index caches, which are copied too
    for copied in (pickle.loads(pickle.dumps(store)), copy.deepcopy(store)):
        assert copied == store and copied is not store
        assert list(copied.triples) == list(store.triples)
        assert list(copied.namespaces.items()) == list(store.namespaces.items())
        assert copied.match(pattern) == found


_FIRST_UNDECLARED = """
from euaia_assurance.triples import Iri, Store, Triple
made = [Triple(Iri("foo", f"x{n}"), Iri("rdf", "type"), Iri("gsn", "G1")) for n in range(1, 6)]
for build in (Store, Store().assert_all):
    try:
        build(made)
    except ValueError as exc:
        print(exc)
small = Store([Triple(Iri("gsn", f"G{n}"), Iri("rdf", "type"), Iri("gsn", "Goal")) for n in (3, 1, 2, 1)])
print(repr(small))
print(list(small.triples))
"""


def test_the_first_undeclared_prefix_is_named_in_the_callers_order_whatever_the_hash_seed():
    """A store's ``repr`` and iteration order do not depend on the seed either."""
    src = str(Path(triples.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in range(4):
        done = subprocess.run(
            [sys.executable, "-c", _FIRST_UNDECLARED],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        )
        outputs.add(done.stdout)
    first = [t(f"gsn:G{n}", "rdf:type", "gsn:Goal") for n in (3, 1, 2)]
    assert len(outputs) == 1, outputs
    assert outputs.pop().splitlines() == [
        "undeclared namespace prefix 'foo' in <foo:x1> <rdf:type> <gsn:G1> .",
        "undeclared namespace prefix 'foo' in <foo:x1> <rdf:type> <gsn:G1> .",
        f"Store(triples={first!r}, namespaces={DEFAULT_NAMESPACES!r})",
        repr(first),
    ]
