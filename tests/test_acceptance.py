"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every test in this module exercises a complete behavior at its stated
tolerance and runtime budget, and writes a single PASS/FAIL line through
the captured-output bypass so the verdicts are visible in any run log.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import time

from euaia_assurance.coverage import causal_trace, coverage_report
from euaia_assurance.duties import load_registry, registry_to_triples
from euaia_assurance.factsheet import render_factsheet
from euaia_assurance.gsn import (
    ID_PREFIXES,
    GsnArgument,
    GsnEdge,
    GsnError,
    GsnNode,
    GsnNodeKind,
    GsnRelation,
    argument_to_triples,
    parse_gsn,
    render_dot,
    validate,
)
from euaia_assurance.prompt_filter import (
    ScriptClass,
    Verdict,
    classify_static,
    evaluate,
    filter_to_triples,
    parse_corpus,
    parse_labeled_corpus,
    score,
    script_of,
    train_dynamic,
)
from euaia_assurance.triples import (
    Iri,
    Literal,
    Store,
    Triple,
    TriplePattern,
    Variable,
    export_triples,
    import_triples,
    serialize_term,
    serialize_triple,
)

from conftest import ATTACK, FIXTURES, fixture_text, fixture_triples

TOY_ADVERSARIAL = tuple(parse_corpus(fixture_text("toy-adversarial.txt")))
TOY_BENIGN = tuple(parse_corpus(fixture_text("toy-benign.txt")))


def _gate(capsys, number: int, label: str, budget_seconds: float, body) -> None:
    failures: list[str] = []
    started = time.perf_counter()
    try:
        body(failures)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed criterion
        failures.append(f"crashed: {exc!r}")
    elapsed = time.perf_counter() - started
    if elapsed >= budget_seconds:
        failures.append(f"took {elapsed:.2f}s, budget {budget_seconds:.0f}s")
    verdict = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"acceptance {number} {verdict}: {label} ({elapsed:.2f}s)")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _check(failures: list[str], condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


# ----------------------------------------------------------------------
# 1. duty registry fidelity


def test_acceptance_1_duty_registry(capsys):
    def body(failures):
        registry = load_registry()
        _check(failures, len(registry.duties) == 23, f"{len(registry.duties)} duties")
        c_ids = [d.id for d in registry.duties_for_stakeholder("C")]
        _check(failures, c_ids == [12, 13, 14, 23], f"stakeholder C -> {c_ids}")
        a_ids = [d.id for d in registry.duties_for_stakeholder("A")]
        _check(
            failures,
            a_ids == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 19, 20, 21],
            f"stakeholder A -> {a_ids}",
        )
        from euaia_assurance.duties import STAKEHOLDER_A_COUNT_NOTE

        _check(
            failures,
            "14" in STAKEHOLDER_A_COUNT_NOTE and "fifteen" in STAKEHOLDER_A_COUNT_NOTE,
            "count discrepancy note missing",
        )

    _gate(capsys, 1, "duty registry fidelity", 1.0, body)


# ----------------------------------------------------------------------
# 2. GSN validity suite

K = GsnNodeKind
R = GsnRelation

LEGAL = (
    {(R.SUPPORTED_BY, K.GOAL, K.GOAL)}
    | {(R.SUPPORTED_BY, K.GOAL, K.STRATEGY)}
    | {(R.SUPPORTED_BY, K.STRATEGY, K.GOAL)}
    | {(R.SUPPORTED_BY, K.GOAL, K.SOLUTION)}
    | {
        (R.IN_CONTEXT_OF, s, t)
        for s in (K.GOAL, K.STRATEGY)
        for t in (K.CONTEXT, K.JUSTIFICATION)
    }
    | {(R.CHALLENGES, K.COUNTERCLAIM, t) for t in (K.GOAL, K.STRATEGY, K.SOLUTION)}
)

_DOT_NODE = re.compile(r'^  [A-Za-z0-9]+ \[shape=\w+, label=".*"\];$')
_DOT_EDGE = re.compile(r"^  [A-Za-z0-9]+ -> [A-Za-z0-9]+ \[style=(solid|dashed|dotted)\];$")


def _dot_parses_as_digraph(text: str) -> bool:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "digraph gsn {" or lines[-1] != "}":
        return False
    return all(
        line == "  rankdir=TB;" or _DOT_NODE.match(line) or _DOT_EDGE.match(line)
        for line in lines[1:-1]
    )


def test_acceptance_2_gsn_validity(capsys):
    def body(failures):
        # legality matrix, all 108 combinations
        combos = 0
        for relation, source_kind, target_kind in itertools.product(R, K, K):
            source = GsnNode(f"{ID_PREFIXES[source_kind]}1", source_kind, "s")
            target = GsnNode(f"{ID_PREFIXES[target_kind]}2", target_kind, "t")
            argument = GsnArgument().add_node(source).add_node(target)
            expected_legal = (relation, source_kind, target_kind) in LEGAL
            try:
                argument.add_edge(GsnEdge(source.id, target.id, relation))
                observed_legal = True
            except GsnError:
                observed_legal = False
            if observed_legal != expected_legal:
                failures.append(
                    f"{relation.value} {source_kind.value}->{target_kind.value}: "
                    f"expected legal={expected_legal}"
                )
            combos += 1
        _check(failures, combos == 108, f"{combos} combinations checked")

        # randomized cycle rejection
        rng = random.Random(8)
        for _ in range(20):
            size = rng.randint(3, 8)
            argument = GsnArgument()
            for i in range(1, size + 1):
                argument = argument.add_node(GsnNode(f"G{i}", K.GOAL, f"g{i}"))
            accepted: set[tuple[int, int]] = set()
            for _ in range(size * 2):
                a, b = rng.sample(range(1, size + 1), 2)
                if (a, b) in accepted:
                    continue
                reachable = {b}
                frontier = [b]
                while frontier:
                    node = frontier.pop()
                    for x, y in accepted:
                        if x == node and y not in reachable:
                            reachable.add(y)
                            frontier.append(y)
                closes_cycle = a in reachable
                try:
                    argument = argument.add_edge(
                        GsnEdge(f"G{a}", f"G{b}", R.SUPPORTED_BY)
                    )
                    if closes_cycle:
                        failures.append(f"cycle-closing edge G{a}->G{b} accepted")
                    else:
                        accepted.add((a, b))
                except GsnError:
                    if not closes_cycle:
                        failures.append(f"acyclic edge G{a}->G{b} rejected")

        # exemplar fixture validates clean and exports digraph DOT
        fixture = parse_gsn((FIXTURES / "art15-5.gsn").read_text(encoding="utf-8"))
        diagnostics = validate(fixture)
        _check(failures, diagnostics == [], f"exemplar diagnostics: {diagnostics}")
        _check(
            failures,
            _dot_parses_as_digraph(render_dot(fixture)),
            "DOT export is not a digraph",
        )

    _gate(capsys, 2, "GSN validity suite", 5.0, body)


# ----------------------------------------------------------------------
# 3. triple store oracle equivalence

_PREFIXES = ("euaia", "gsn", "atk", "def")
_LOCALS = tuple(f"n{i}" for i in range(10))
_LITERALS = ("plain", 'quo"te', "multi\nline", "")
_VARS = ("a", "b", "c")


def _binding_sort_key(binding):
    return " ".join(f"?{k}={serialize_term(binding[k])}" for k in sorted(binding))


def _scan_match(store, pattern):
    found = []
    for triple in store.triples:
        binding = {}
        ok = True
        for want, got in (
            (pattern.subject, triple.subject),
            (pattern.predicate, triple.predicate),
            (pattern.object, triple.object),
        ):
            if isinstance(want, Variable):
                if want.name in binding and binding[want.name] != got:
                    ok = False
                    break
                binding[want.name] = got
            elif want != got:
                ok = False
                break
        if ok and binding not in found:
            found.append(binding)
    return sorted(found, key=_binding_sort_key)


def _scan_query(store, patterns):
    rows = [{}]
    for pattern in patterns:
        grounded_rows = []
        for row in rows:
            resolved = TriplePattern(
                *(
                    row.get(t.name, t) if isinstance(t, Variable) else t
                    for t in (pattern.subject, pattern.predicate, pattern.object)
                )
            )
            for extension in _scan_match(store, resolved):
                merged = {**row, **extension}
                if merged not in grounded_rows:
                    grounded_rows.append(merged)
        rows = grounded_rows
    return sorted(rows, key=_binding_sort_key)


def test_acceptance_3_store_oracle_equivalence(capsys):
    def body(failures):
        rng = random.Random(1234)

        def random_iri():
            return Iri(rng.choice(_PREFIXES), rng.choice(_LOCALS))

        def random_object():
            return Literal(rng.choice(_LITERALS)) if rng.random() < 0.3 else random_iri()

        def random_position(literal_ok):
            if rng.random() < 0.45:
                return Variable(rng.choice(_VARS))
            return random_object() if literal_ok else random_iri()

        sizes = [rng.randint(0, 60) for _ in range(170)]
        sizes += [rng.randint(61, 400) for _ in range(25)]
        sizes += [rng.randint(800, 1000) for _ in range(5)]
        for store_no, size in enumerate(sizes):
            store = Store(
                frozenset(
                    Triple(random_iri(), random_iri(), random_object())
                    for _ in range(size)
                )
            )
            for _ in range(3):
                pattern = TriplePattern(
                    random_position(False), random_position(False), random_position(True)
                )
                if store.match(pattern) != _scan_match(store, pattern):
                    failures.append(f"store {store_no}: match mismatch")
            patterns = [
                TriplePattern(
                    random_position(False), random_position(False), random_position(True)
                )
                for _ in range(rng.randint(1, 3))
            ]
            if store.query(patterns) != _scan_query(store, patterns):
                failures.append(f"store {store_no}: query mismatch")
            if import_triples(export_triples(store)) != store:
                failures.append(f"store {store_no}: import(export(s)) != s")
        _check(failures, len(sizes) == 200, f"{len(sizes)} stores exercised")

    _gate(capsys, 3, "triple store oracle equivalence", 30.0, body)


# ----------------------------------------------------------------------
# 4. filter correctness


def test_acceptance_4_filter_correctness(capsys):
    def body(failures):
        model = train_dynamic(TOY_ADVERSARIAL, TOY_BENIGN)
        _check(
            failures,
            abs(model.llr["!"] - math.log(4.0)) < 1e-9,
            f'llr("!") = {model.llr["!"]}, want ln 4',
        )
        labeled = [(p, Verdict.ADVERSARIAL) for p in TOY_ADVERSARIAL] + [
            (p, Verdict.BENIGN) for p in TOY_BENIGN
        ]
        toy_auc = evaluate(model, labeled).auc
        _check(failures, abs(toy_auc - 1.0) < 1e-9, f"toy AUC = {toy_auc}")

        rng = random.Random(5150)
        alphabet = "abcd!?"
        for corpus_no in range(50):
            adversarial = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
                for _ in range(rng.randint(1, 100))
            ]
            benign = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
                for _ in range(rng.randint(1, 100))
            ]
            trained = train_dynamic(adversarial, benign)
            rows = [(p, Verdict.ADVERSARIAL) for p in adversarial] + [
                (p, Verdict.BENIGN) for p in benign
            ]
            trapezoid = evaluate(trained, rows).auc
            positives = [score(trained, p) for p in adversarial]
            negatives = [score(trained, p) for p in benign]
            pairwise = sum(
                1.0 if p > n else 0.5 if p == n else 0.0
                for p in positives
                for n in negatives
            ) / (len(positives) * len(negatives))
            if abs(trapezoid - pairwise) >= 1e-9:
                failures.append(
                    f"corpus {corpus_no}: trapezoid {trapezoid} != pairwise {pairwise}"
                )

        blocklist = ["!", "д", ScriptClass.HAN]
        sample_space = "abcXY!?.дλ水 "
        for prompt_no in range(1000):
            prompt = "".join(
                rng.choice(sample_space) for _ in range(rng.randint(1, 24))
            )
            expected = any(
                c in ("!", "д") or script_of(c) is ScriptClass.HAN for c in prompt
            )
            verdict, _ = classify_static(blocklist, prompt)
            if (verdict is Verdict.ADVERSARIAL) != expected:
                failures.append(f"prompt {prompt_no}: static verdict diverges")

    _gate(capsys, 4, "filter correctness", 10.0, body)


# ----------------------------------------------------------------------
# 5. end-to-end audit trail


def _walkthrough() -> tuple[str, list]:
    registry = load_registry()
    argument = parse_gsn((FIXTURES / "art15-5.gsn").read_text(encoding="utf-8"))
    adversarial = parse_corpus((FIXTURES / "toy-adversarial.txt").read_text())
    benign = parse_corpus((FIXTURES / "toy-benign.txt").read_text())
    model = train_dynamic(
        adversarial, benign, corpus_ids=("toy-adversarial", "toy-benign")
    )
    labeled = parse_labeled_corpus((FIXTURES / "toy-labeled.txt").read_text())
    metrics = evaluate(model, labeled)

    store = Store()
    store = store.assert_all(registry_to_triples(registry))
    store = store.assert_all(argument_to_triples(argument))
    store = store.assert_all(fixture_triples("knowledge-links.ttl"))
    store = store.assert_all(fixture_triples("dynamic-links.ttl"))
    store = store.assert_all(filter_to_triples(model, metrics))

    report = coverage_report(store, registry)
    factsheet = render_factsheet(registry, argument, store, metrics)
    return factsheet, report


def test_acceptance_5_end_to_end_audit_trail(capsys):
    def body(failures):
        first, report = _walkthrough()
        second, _ = _walkthrough()
        _check(failures, first == second, "factsheet bytes differ between runs")
        rows = [
            line
            for line in first.split("\n")
            if line.startswith("|") and not line.startswith(("| #", "|--"))
        ]
        _check(failures, len(rows) == 23, f"{len(rows)} duty rows")
        nine = next((row for row in rows if row.startswith("| 9 ")), "")
        _check(
            failures,
            "| covered |" in nine or "| contested |" in nine,
            f"duty 9 row: {nine}",
        )
        uncovered = sum("| uncovered |" in row for row in rows)
        _check(failures, uncovered == 22, f"{uncovered} uncovered rows")
        statuses = {s.duty_id: s.status.value for s in report}
        _check(
            failures,
            statuses[9] in ("covered", "contested"),
            f"duty 9 status {statuses[9]}",
        )

    _gate(capsys, 5, "end-to-end audit trail", 5.0, body)


# ----------------------------------------------------------------------
# 6. causal trace


def test_acceptance_6_causal_trace(capsys):
    def body(failures):
        store = Store()
        store = store.assert_all(registry_to_triples(load_registry()))
        store = store.assert_all(
            argument_to_triples(
                parse_gsn((FIXTURES / "art15-5.gsn").read_text(encoding="utf-8"))
            )
        )
        store = store.assert_all(fixture_triples("knowledge-links.ttl"))
        store = store.assert_all(fixture_triples("dynamic-links.ttl"))

        traces = causal_trace(store, ATTACK)
        _check(failures, len(traces) >= 1, "no trace found")
        for trace_no, trace in enumerate(traces):
            if trace.duty != Iri("euaia", "d9"):
                failures.append(f"trace {trace_no} ends at {trace.duty}")
            for hop in trace.hops:
                if hop not in store:
                    failures.append(
                        f"trace {trace_no} hop not in store: {serialize_triple(hop)}"
                    )

    _gate(capsys, 6, "causal trace hop verification", 30.0, body)
