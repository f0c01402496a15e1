from __future__ import annotations

import hashlib
import io
import math
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euaia_assurance import prompt_filter
from euaia_assurance.prompt_filter import (
    MAX_LLR,
    MIN_SLICE,
    PIECE,
    CorpusFormatError,
    FilterMetrics,
    FilterModel,
    ModelProvenance,
    ScriptClass,
    Verdict,
    classify_dynamic,
    classify_static,
    compile_blocklist,
    evaluate,
    filter_to_triples,
    load_model,
    parse_corpus,
    parse_labeled_corpus,
    save_model,
    score,
    script_of,
    train_dynamic,
    write_lines,
    _SCRIPT_RANGES,
    _llr_table,
    _trapezoid_auc,
    _youden_threshold,
)
from euaia_assurance.triples import Iri, Literal

import filter_oracle
import roc_oracle
from conftest import fixture_text

TOY_ADV = tuple(parse_corpus(fixture_text("toy-adversarial.txt")))
TOY_BEN = tuple(parse_corpus(fixture_text("toy-benign.txt")))
TOY_LABELED = [(p, Verdict.ADVERSARIAL) for p in TOY_ADV] + [
    (p, Verdict.BENIGN) for p in TOY_BEN
]


@pytest.fixture(scope="module")
def toy():
    return train_dynamic(TOY_ADV, TOY_BEN)


# ----------------------------------------------------------------------
# script classification


@pytest.mark.parametrize(
    "char, script",
    [
        ("a", ScriptClass.LATIN),
        ("Z", ScriptClass.LATIN),
        ("é", ScriptClass.LATIN),      # Latin-1 supplement letter
        ("Ā", ScriptClass.LATIN),      # Latin Extended-A
        ("ƶ", ScriptClass.LATIN),      # Latin Extended-B
        ("Ṡ", ScriptClass.LATIN),      # Latin Extended Additional
        ("0", ScriptClass.COMMON),
        (" ", ScriptClass.COMMON),
        ("!", ScriptClass.COMMON),
        ("λ", ScriptClass.GREEK),
        ("Ω", ScriptClass.GREEK),
        ("д", ScriptClass.CYRILLIC),
        ("Ё", ScriptClass.CYRILLIC),
        ("水", ScriptClass.HAN),
        ("㐀", ScriptClass.HAN),       # extension A block
        ("अ", ScriptClass.OTHER),      # Devanagari
        ("🎉", ScriptClass.OTHER),
    ],
)
def test_script_table(char, script):
    assert script_of(char) is script


def test_script_of_requires_single_character():
    with pytest.raises(ValueError):
        script_of("")
    with pytest.raises(ValueError):
        script_of("ab")


# ----------------------------------------------------------------------
# static filter


def test_classify_static_chars_and_scripts():
    verdict, offenders = classify_static(["!"], "a!b!")
    assert verdict is Verdict.ADVERSARIAL
    assert offenders == ["!"]
    verdict, offenders = classify_static([ScriptClass.CYRILLIC], "pаypаl")
    assert verdict is Verdict.ADVERSARIAL
    assert offenders == ["а"]
    verdict, offenders = classify_static(["!", ScriptClass.CYRILLIC], "plain text")
    assert verdict is Verdict.BENIGN
    assert offenders == []


def test_classify_static_offenders_in_first_seen_order():
    _, offenders = classify_static(["b", "a"], "abab")
    assert offenders == ["a", "b"]


def test_classify_static_input_validation():
    with pytest.raises(ValueError):
        classify_static(["!"], "")
    with pytest.raises(ValueError):
        classify_static(["ab"], "x")


def test_static_verdict_matches_membership_oracle():
    rng = random.Random(99)
    alphabet = "abcXYZ!?.дλ水 "
    blocked_chars = {"!", "д"}
    blocklist = ["!", "д", ScriptClass.HAN]
    for _ in range(500):
        prompt = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        expected = bool(
            (set(prompt) & blocked_chars)
            or any(script_of(c) is ScriptClass.HAN for c in prompt)
        )
        verdict, offenders = classify_static(blocklist, prompt)
        assert (verdict is Verdict.ADVERSARIAL) == expected
        assert bool(offenders) == expected


def test_compiled_blocklist_is_one_character_class():
    pattern = compile_blocklist(["]", "-", ScriptClass.GREEK])
    assert isinstance(pattern, re.Pattern)
    assert classify_static(pattern, "a-b]λ-") == (Verdict.ADVERSARIAL, ["-", "]", "λ"])
    assert classify_static(compile_blocklist([]), "anything") == (Verdict.BENIGN, [])
    with pytest.raises(ValueError):
        compile_blocklist(["!", "ab"])


# Code points at and next to every bound of the script table, inside each
# block, in the gaps between blocks and anywhere, plus the characters that
# are special inside a regular-expression character class.
_BOUNDS = sorted(
    {0, sys.maxunicode} | {p for low, high, _ in _SCRIPT_RANGES for p in (low - 1, low, high, high + 1) if p >= 0}
)
_GAPS = [
    (low, high)
    for low, high in zip(_BOUNDS, _BOUNDS[1:])
    if not any(a <= low <= b or a <= high <= b for a, b, _ in _SCRIPT_RANGES)
]
_CHARS = st.one_of(
    st.sampled_from(_BOUNDS).map(chr),
    st.sampled_from(_SCRIPT_RANGES).flatmap(lambda r: st.integers(r[0], r[1])).map(chr),
    st.sampled_from(_GAPS).flatmap(lambda g: st.integers(g[0], g[1])).map(chr),
    st.integers(0, sys.maxunicode).map(chr),
    st.sampled_from("]\\^-[|"),
)
_BLOCKLISTS = st.lists(st.sampled_from(list(ScriptClass)) | _CHARS, max_size=6)


@settings(max_examples=500, deadline=None)
@given(_BLOCKLISTS, st.text(_CHARS, min_size=1, max_size=30))
def test_static_classify_matches_the_per_character_oracle(blocklist, prompt):
    expected = filter_oracle.classify_static(blocklist, prompt)
    assert classify_static(compile_blocklist(blocklist), prompt) == expected
    assert classify_static(blocklist, prompt) == expected


@pytest.mark.parametrize("script", [ScriptClass.COMMON, ScriptClass.OTHER, ScriptClass.LATIN])
def test_every_table_bound_is_classified_like_the_oracle(script):
    pattern = compile_blocklist([script])
    for point in _BOUNDS:
        prompt = chr(point)
        assert classify_static(pattern, prompt) == filter_oracle.classify_static([script], prompt)


# ----------------------------------------------------------------------
# training: every number frozen by hand from the 4-prompt toy corpora
#
# adversarial counts: ! -> 4, x -> 1, y -> 1   (total 6)
# benign counts:      x -> 1, y -> 3           (total 4)
# vocabulary {!, x, y} plus one shared out-of-vocabulary bucket -> V = 4


def test_toy_llr_table(toy):
    assert toy.vocab_size == 4
    assert toy.alpha == 1.0
    assert toy.llr["!"] == pytest.approx(math.log(4.0), abs=1e-12)
    assert toy.llr["x"] == pytest.approx(math.log(2 / 10) - math.log(2 / 8), abs=1e-12)
    assert toy.llr["y"] == pytest.approx(math.log(2 / 10) - math.log(4 / 8), abs=1e-12)
    assert toy.oov_score == pytest.approx(math.log(1 / 10) - math.log(1 / 8), abs=1e-12)


def test_toy_scores(toy):
    assert score(toy, "!x!") == pytest.approx(0.849815, abs=1e-6)
    assert score(toy, "!!y") == pytest.approx(0.618766, abs=1e-6)
    assert score(toy, "xy") == pytest.approx(-0.569717, abs=1e-6)
    assert score(toy, "yy") == pytest.approx(-0.916291, abs=1e-6)
    # unknown characters fall into the shared out-of-vocabulary bucket
    assert score(toy, "zz") == pytest.approx(toy.oov_score, abs=1e-12)


def test_toy_threshold_is_largest_separating_score(toy):
    assert toy.threshold == pytest.approx(score(toy, "xy"), abs=1e-12)


def test_toy_verdicts(toy):
    assert classify_dynamic(toy, "!x!") is Verdict.ADVERSARIAL
    assert classify_dynamic(toy, "!!y") is Verdict.ADVERSARIAL
    # scores at the threshold stay benign
    assert classify_dynamic(toy, "xy") is Verdict.BENIGN
    assert classify_dynamic(toy, "yy") is Verdict.BENIGN


def test_training_input_validation():
    with pytest.raises(ValueError):
        train_dynamic([], ["x"])
    with pytest.raises(ValueError):
        train_dynamic(["x"], [])
    with pytest.raises(ValueError):
        train_dynamic(["x"], ["y"], alpha=0.0)
    with pytest.raises(ValueError):
        score(train_dynamic(["x"], ["y"]), "")


def test_corpus_duplication_barely_moves_shared_character_scores():
    # with tiny smoothing, repeating every prompt k times must not change
    # the ratio for characters observed in both corpora, nor the
    # out-of-vocabulary bucket
    base = train_dynamic(TOY_ADV, TOY_BEN, alpha=1e-6)
    tripled = train_dynamic(TOY_ADV * 3, TOY_BEN * 3, alpha=1e-6)
    for prompt in ("xy", "yy", "zebra"):
        assert score(base, prompt) == pytest.approx(score(tripled, prompt), abs=1e-3)


def test_duplication_sharpens_one_sided_characters():
    # "!" never occurs in the benign corpus, so k-fold duplication moves
    # its ratio by ln k: the evidence against an unseen character grows
    # with corpus size, by design
    base = train_dynamic(TOY_ADV, TOY_BEN, alpha=1e-6)
    tripled = train_dynamic(TOY_ADV * 3, TOY_BEN * 3, alpha=1e-6)
    assert tripled.llr["!"] - base.llr["!"] == pytest.approx(math.log(3), abs=1e-3)


# ----------------------------------------------------------------------
# evaluation


def test_toy_metrics(toy):
    metrics = evaluate(toy, TOY_LABELED)
    assert metrics.true_positive_rate == 1.0
    assert metrics.false_positive_rate == 0.0
    assert metrics.precision == 1.0
    assert metrics.auc == pytest.approx(1.0, abs=1e-9)
    assert metrics.corpus_sizes == (2, 2)


def test_single_class_corpus_has_no_auc(toy):
    metrics = evaluate(toy, [(p, Verdict.ADVERSARIAL) for p in TOY_ADV])
    assert metrics.auc is None
    assert metrics.true_positive_rate == 1.0
    assert metrics.false_positive_rate == 0.0


def test_evaluate_requires_prompts(toy):
    with pytest.raises(ValueError):
        evaluate(toy, [])


def test_indistinguishable_corpora_give_auc_half():
    same = ("aa", "ab")
    model = train_dynamic(same, same)
    labeled = [(p, Verdict.ADVERSARIAL) for p in same] + [
        (p, Verdict.BENIGN) for p in same
    ]
    assert evaluate(model, labeled).auc == pytest.approx(0.5, abs=1e-9)


def _pairwise_auc(scored: list[tuple[float, Verdict]]) -> float:
    positives = [s for s, v in scored if v is Verdict.ADVERSARIAL]
    negatives = [s for s, v in scored if v is Verdict.BENIGN]
    wins = sum(
        1.0 if p > n else 0.5 if p == n else 0.0
        for p in positives
        for n in negatives
    )
    return wins / (len(positives) * len(negatives))


def test_trapezoid_auc_equals_pairwise_comparison():
    rng = random.Random(31415)
    alphabet = "abcd!?"
    for _ in range(50):
        adversarial = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(1, 100))
        ]
        benign = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(1, 100))
        ]
        model = train_dynamic(adversarial, benign, alpha=rng.choice([0.5, 1.0, 2.0]))
        labeled = [(p, Verdict.ADVERSARIAL) for p in adversarial] + [
            (p, Verdict.BENIGN) for p in benign
        ]
        metrics = evaluate(model, labeled)
        scored = [(score(model, p), v) for p, v in labeled]
        assert metrics.auc == pytest.approx(_pairwise_auc(scored), abs=1e-9)


# A model whose per-character scores come from five values, so prompts of
# up to four characters share scores often; "e" is out of vocabulary.
_TIED = st.sampled_from([-1.5, -0.25, 0.0, 0.25, 1.0])
_PROMPTS = st.lists(st.text(alphabet="abcde", max_size=4), max_size=12)


@st.composite
def _tied_corpora(draw):
    llr = {c: draw(_TIED) for c in "abcd"}
    model = FilterModel(llr, 1.0, 5, draw(_TIED), 0.0, ModelProvenance(()))
    return model, draw(_PROMPTS), draw(_PROMPTS)


@settings(max_examples=400, deadline=None)
@given(_tied_corpora())
def test_roc_sweep_matches_the_recounting_oracle(case):
    # heavy ties, empty prompts, one class only and no prompts at all
    model, adversarial, benign = case
    assert _youden_threshold(model, adversarial, benign) == roc_oracle.youden_threshold(
        model, adversarial, benign
    )
    scored = [(score(model, p), Verdict.ADVERSARIAL) for p in adversarial if p]
    adv_total = len(scored)
    scored += [(score(model, p), Verdict.BENIGN) for p in benign if p]
    ben_total = len(scored) - adv_total
    if adv_total and ben_total:
        assert _trapezoid_auc(scored, adv_total, ben_total) == roc_oracle.trapezoid_auc(
            scored, adv_total, ben_total
        )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(alphabet="ab!?", max_size=6), min_size=1, max_size=10),
    st.lists(st.text(alphabet="ab!?", max_size=6), min_size=1, max_size=10),
    st.booleans(),
)
def test_trained_threshold_matches_the_oracle(adversarial, benign, bigrams):
    model = train_dynamic(adversarial, benign, bigrams=bigrams)
    assert model.threshold == roc_oracle.youden_threshold(model, adversarial, benign)


# Random unigram and bigram tables over a small alphabet with an astral
# character and a lone surrogate. Any character may be out of vocabulary,
# as either character of a pair; a first character may have an empty row;
# one-character prompts have no pairs.
_LLR = st.floats(-50.0, 50.0)
_ALPHABET = "abcdeé\U0001F600\ud800"
_ROWS = st.dictionaries(st.sampled_from(_ALPHABET), st.dictionaries(st.sampled_from(_ALPHABET), _LLR))


@st.composite
def _random_models(draw):
    llr = draw(st.dictionaries(st.sampled_from(_ALPHABET), _LLR))
    bigram_llr = bigram_oov = None
    if draw(st.booleans()):
        bigram_llr = draw(_ROWS)
        bigram_oov = draw(_LLR)
    return FilterModel(llr, 1.0, len(llr) + 1, draw(_LLR), 0.0, ModelProvenance(()), bigram_llr, None, bigram_oov)


@settings(max_examples=500, deadline=None)
@given(_random_models(), st.text(_ALPHABET, min_size=1, max_size=12))
def test_score_matches_the_per_character_oracle(model, prompt):
    assert score(model, prompt) == filter_oracle.score(model, prompt)


@pytest.mark.parametrize("prompt", ["ab", "zb", "az", "zz", "ba", "a\U0001F600", "\ud800a", "abz", "zab"])
def test_score_matches_the_oracle_with_either_pair_character_unseen(prompt):
    # "z" is in no table; "b" begins no pair; "a" begins only "ab"
    model = train_dynamic(["ab", "a"], ["b"], bigrams=True)
    assert model.bigram_llr == {"a": {"b": model.bigram_llr["a"]["b"]}}
    assert score(model, prompt) == filter_oracle.score(model, prompt)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(alphabet="ab!?", max_size=6), min_size=1, max_size=10),
    st.lists(st.text(alphabet="ab!?", max_size=6), min_size=1, max_size=10),
)
def test_trained_bigram_table_counts_the_oracle_pairs(adversarial, benign):
    model = train_dynamic(adversarial, benign, bigrams=True)
    expected = _llr_table(
        Counter(b for p in adversarial for b in filter_oracle._bigrams(p)),
        Counter(b for p in benign for b in filter_oracle._bigrams(p)),
        1.0,
    )
    found = (filter_oracle.pair_table(model.bigram_llr), model.bigram_vocab_size, model.bigram_oov_score)
    assert found == expected
    assert all(model.bigram_llr.values())  # no empty rows


def test_threshold_edge_cases(toy):
    assert _youden_threshold(toy, [], []) == 0.0
    assert _youden_threshold(toy, ["", ""], [""]) == 0.0
    # one class only: every cut has J = 0 for benign prompts, so the highest score wins
    assert _youden_threshold(toy, [], ["xy", "yy"]) == score(toy, "xy")
    # adversarial only: J = 1 only below the lowest score
    assert _youden_threshold(toy, ["!x!", "!!y"], []) == score(toy, "!!y") - 1.0


# ----------------------------------------------------------------------
# bigram channel


def test_bigram_model_scores_pairs():
    model = train_dynamic(TOY_ADV, TOY_BEN, bigrams=True)
    assert model.bigram_llr is not None
    assert "x" in model.bigram_llr["!"]
    # single-character prompts fall back to the unigram channel
    assert score(model, "!") == pytest.approx(model.llr["!"], abs=1e-12)
    unigram_only = train_dynamic(TOY_ADV, TOY_BEN)
    expected = (score(unigram_only, "!x") + model.bigram_llr["!"]["x"]) / 2
    assert score(model, "!x") == pytest.approx(expected, abs=1e-12)


def test_bigram_model_round_trips():
    model = train_dynamic(TOY_ADV, TOY_BEN, bigrams=True)
    loaded = load_model(save_model(model))
    assert loaded.bigram_vocab_size == model.bigram_vocab_size
    for prompt in ("!x!", "xy", "weird"):
        assert score(loaded, prompt) == pytest.approx(score(model, prompt), abs=1e-5)


def _fixture_model() -> FilterModel:
    adversarial, benign = (parse_corpus(fixture_text(name)) for name in ("adversarial.txt", "benign.txt"))
    return train_dynamic(adversarial, benign, bigrams=True)


def test_saved_bigram_model_bytes_are_frozen():
    # the digest of the file written before the pair table was nested:
    # records in (first, second) code-point order, every value as it was
    model = _fixture_model()
    text = save_model(model)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "86a6ddccc655b4c6c7ef1b0810edc9ee144f8d1a5043a4f5dc73cb5d5888b384"
    )
    # the records are sorted on writing, whatever order the tables hold
    reordered = model._replace(
        llr=dict(reversed(model.llr.items())),
        bigram_llr={first: dict(reversed(row.items())) for first, row in reversed(model.bigram_llr.items())},
    )
    assert save_model(reordered) == text


def test_a_loaded_bigram_model_survives_save_and_load_unchanged():
    # a trained model's values lose their digits past the sixth place on the
    # first save; from then on, saving and loading changes nothing
    model = _fixture_model()
    loaded = load_model(save_model(model))
    assert load_model(save_model(loaded)) == loaded
    assert save_model(loaded) == save_model(model)
    assert {first: set(row) for first, row in loaded.bigram_llr.items()} == {
        first: set(row) for first, row in model.bigram_llr.items()
    }


# ----------------------------------------------------------------------
# persistence


def test_save_load_round_trip(toy):
    loaded = load_model(save_model(toy))
    assert loaded.vocab_size == toy.vocab_size
    assert loaded.threshold == pytest.approx(toy.threshold, abs=1e-6)
    assert loaded.provenance.corpora == ("adversarial", "benign")
    for prompt in TOY_ADV + TOY_BEN + ("unseen",):
        assert score(loaded, prompt) == pytest.approx(score(toy, prompt), abs=1e-5)
        assert classify_dynamic(loaded, prompt) is classify_dynamic(toy, prompt)


def test_save_format_is_json_lines(toy):
    import json

    lines = save_model(toy).strip().split("\n")
    header = json.loads(lines[0])
    assert header["format"] == "charfilter/1"
    assert header["vocab_size"] == 4
    entries = [json.loads(line) for line in lines[1:]]
    assert [e["char"] for e in entries] == sorted(e["char"] for e in entries)
    assert {chr(e["char"]) for e in entries} == {"!", "x", "y"}


def test_load_rejects_foreign_files():
    with pytest.raises(CorpusFormatError):
        load_model('{"format": "something/9"}\n')
    with pytest.raises(CorpusFormatError):
        load_model("not json\n")
    with pytest.raises(CorpusFormatError):
        load_model("")


_HEADER = '{"format": "charfilter/1", "alpha": 1.0, "vocab_size": 4, "oov_score": 0.0, "threshold": 0.1}'
_BIGRAM_HEADER = _HEADER[:-1] + ', "bigram_vocab_size": 3, "bigram_oov_score": -0.5}'


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"format": "charfilter/1"}\n', "line 1: header field 'alpha' must be a number"),
        (_HEADER.replace('"vocab_size": 4', '"vocab_size": 4.5') + "\n", "'vocab_size' must be an integer"),
        (_HEADER.replace('"threshold": 0.1', '"threshold": "high"') + "\n", "'threshold' must be a number"),
        (_HEADER.replace('"alpha": 1.0', '"alpha": true') + "\n", "'alpha' must be a number"),
        (_HEADER[:-1] + ', "bigram_vocab_size": 3}\n', "'bigram_oov_score' must be a number"),
        (_HEADER[:-1] + ', "provenance": ["a"]}\n', "line 1: malformed provenance"),
        ("[1, 2]\n", "line 1: model header is not a JSON object"),
        (_HEADER + '\n{"char": "x", "llr": 0.5}\n', "line 2: char must be a code point"),
        (_HEADER + '\n{"char": -1, "llr": 0.5}\n', "line 2: char must be a code point"),
        (_HEADER + '\n{"char": 120, "llr": "big"}\n', "line 2: llr must be a number"),
        (_HEADER + '\n{"char": 120}\n', "line 2: llr must be a number"),
        (_HEADER + '\n{"chars": [120], "llr": 0.5}\n', "line 2: chars must be a list of two code points"),
        (_HEADER + '\n{"chars": "xy", "llr": 0.5}\n', "line 2: chars must be a list of two code points"),
        (_HEADER + '\n{"chars": [120, "y"], "llr": 0.5}\n', "line 2: chars must be a list of two code points"),
        (_HEADER + '\n{"char": 120, "llr": 0.5}\n{"chars": [120, 121], "llr": 0.5}\n',
         "line 3: chars record in a model whose header has no 'bigram_vocab_size'"),
        (_HEADER + "\n[120, 0.5]\n", "line 2: expected a char or chars record"),
        (_HEADER + '\n{"char": 120, "llr": 0.5}\n{"char": 120, "llr": 0.25}\n',
         "line 3: repeated record for char 120"),
        (_BIGRAM_HEADER + '\n{"chars": [120, 121], "llr": 0.5}\n{"char": 120, "llr": 0.5}\n'
         '{"chars": [120, 121], "llr": 0.5}\n', "line 4: repeated record for chars [120, 121]"),
        (_BIGRAM_HEADER + '\n{"char": 120, "chars": [120, 121], "llr": 0.5}\n',
         "line 2: a record holds a char or chars, not both"),
        (_BIGRAM_HEADER + '\n{"chars": [121, 120], "char": 120, "llr": 0.5}\n',
         "line 2: a record holds a char or chars, not both"),
        (_HEADER + "\n7\n", "line 2: expected a char or chars record"),
        # blank lines count: the error names the line in the file
        (_HEADER + '\n\n{"char": 120, "llr": 0.5}\n{"char": null, "llr": 0.5}\n', "line 4: char must be"),
    ],
)
def test_load_rejects_schema_violations_with_the_line(text, message):
    with pytest.raises(CorpusFormatError) as exc:
        load_model(text)
    assert message in str(exc.value)


def test_provenance_timestamp_is_opt_in():
    stamped = train_dynamic(TOY_ADV, TOY_BEN, trained_at="2026-08-19T00:00:00Z")
    assert stamped.provenance.trained_at == "2026-08-19T00:00:00Z"
    assert load_model(save_model(stamped)).provenance.trained_at == "2026-08-19T00:00:00Z"
    default = train_dynamic(TOY_ADV, TOY_BEN)
    assert default.provenance.trained_at is None


# ----------------------------------------------------------------------
# corpus files


def test_parse_corpus_skips_blank_lines():
    assert parse_corpus("one\n\ntwo\n   \nthree\n") == ["one", "two", "three"]


def test_corpus_lines_end_at_crlf_or_lf_and_keep_a_lone_cr():
    assert parse_corpus("abc\r\n") == ["abc"]
    assert parse_corpus("abc\rdef\nxyz\r\n\r\n") == ["abc\rdef", "xyz"]
    assert parse_corpus("a\r\r\nb\r") == ["a\r", "b\r"]
    assert parse_labeled_corpus("A\tx\r\nB\ty\rz\n") == [("x", Verdict.ADVERSARIAL), ("y\rz", Verdict.BENIGN)]
    with pytest.raises(CorpusFormatError, match="line 2"):
        parse_labeled_corpus("A\tx\r\nnope\r\n")


def test_parse_labeled_corpus():
    labeled = parse_labeled_corpus("A\t!x!\nB\txy\n")
    assert labeled == [("!x!", Verdict.ADVERSARIAL), ("xy", Verdict.BENIGN)]


@pytest.mark.parametrize(
    "text, lineno", [("C\tx\n", 1), ("A x\n", 1), ("A\tx\nnope\n", 2), ("A\tabc\nB\t\n", 2), ("B\t\r\n", 1)]
)
def test_parse_labeled_corpus_errors(text, lineno):
    with pytest.raises(CorpusFormatError) as exc:
        parse_labeled_corpus(text)
    assert exc.value.line == lineno


def test_a_labeled_prompt_may_be_whitespace_but_not_empty():
    assert parse_labeled_corpus("A\t \nB\t\t\n") == [(" ", Verdict.ADVERSARIAL), ("\t", Verdict.BENIGN)]
    with pytest.raises(CorpusFormatError, match="line 1: empty prompt after 'B<TAB>'"):
        parse_labeled_corpus("B\t\nA\tx\n")


# ----------------------------------------------------------------------
# evidence triples


def test_filter_to_triples(toy):
    metrics = evaluate(toy, TOY_LABELED)
    triples = filter_to_triples(toy, metrics)
    subject = Iri("def", "dynamicFilter")
    metric_values = {
        t.object.text for t in triples if t.predicate == Iri("assures", "hasMetric")
    }
    assert metric_values == {"tpr=1.0000", "fpr=0.0000", "precision=1.0000", "auc=1.0000"}
    trained_on = {t.object for t in triples if t.predicate == Iri("assures", "trainedOn")}
    assert trained_on == {Iri("src", "adversarial"), Iri("src", "benign")}
    mitigations = [t for t in triples if t.predicate == Iri("assures", "mitigates")]
    assert mitigations == [
        type(mitigations[0])(subject, Iri("assures", "mitigates"), Iri("atk", "charCombo"))
    ]


def test_filter_to_triples_omits_undefined_auc(toy):
    metrics = evaluate(toy, [(p, Verdict.ADVERSARIAL) for p in TOY_ADV])
    values = {
        t.object.text
        for t in filter_to_triples(toy, metrics)
        if t.predicate == Iri("assures", "hasMetric")
    }
    assert values == {"tpr=1.0000", "fpr=0.0000", "precision=1.0000"}


# ----------------------------------------------------------------------
# properties


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.text(alphabet="ab!?", min_size=1, max_size=8), min_size=1, max_size=8),
    st.lists(st.text(alphabet="ab!?", min_size=1, max_size=8), min_size=1, max_size=8),
)
def test_training_prompts_classified_deterministically(adversarial, benign):
    model = train_dynamic(adversarial, benign)
    again = train_dynamic(list(adversarial), list(benign))
    assert model.threshold == again.threshold
    for prompt in adversarial + benign:
        assert classify_dynamic(model, prompt) is classify_dynamic(again, prompt)


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="abxy!?дλ", min_size=1, max_size=20))
def test_score_is_mean_of_per_character_scores(prompt):
    model = train_dynamic(TOY_ADV, TOY_BEN)
    by_hand = sum(model.llr.get(c, model.oov_score) for c in prompt) / len(prompt)
    assert score(model, prompt) == pytest.approx(by_hand, abs=1e-12)


# ----------------------------------------------------------------------
# non-finite numbers and JSON positions


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_train_rejects_a_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="smoothing alpha must be positive and finite"):
        train_dynamic(["ab"], ["cd"], alpha=alpha)


@pytest.mark.parametrize(
    "text, message",
    [
        (_HEADER.replace("0.1", "NaN") + "\n", "line 1: header field 'threshold' must be a number"),
        (_HEADER.replace("0.0", "-Infinity") + "\n", "line 1: header field 'oov_score' must be a number"),
        (_HEADER.replace("1.0", "1e999") + "\n", "line 1: header field 'alpha' must be a number"),
        (_HEADER.replace("4", "9" * 400) + "\n", "line 1: header field 'vocab_size' must be an integer"),
        (_HEADER + '\n{"char": 120, "llr": NaN}\n', "line 2: llr must be a number"),
        (_HEADER + '\n{"char": 120, "llr": Infinity}\n', "line 2: llr must be a number"),
        (_HEADER + '\n{"char": 120, "llr": ' + "9" * 400 + "}\n", "line 2: llr must be a number"),
    ],
)
def test_load_rejects_non_finite_numbers_with_the_line(text, message):
    with pytest.raises(CorpusFormatError) as exc:
        load_model(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (_HEADER + '\n{"char": 120, "llr":}\n', "line 2, column 21: invalid JSON: Expecting value"),
        ("\n  {format\n", "line 2, column 4: model header is not valid JSON: Expecting property name enclosed in double quotes"),
        ('{"format": "x"}\n', "line 1: unsupported model format 'x'"),
    ],
)
def test_load_names_the_position_of_a_json_error(text, message):
    with pytest.raises(CorpusFormatError) as exc:
        load_model(text)
    assert str(exc.value) == message


def test_load_rejects_json_too_large_to_read_with_the_line():
    for record in ("[" * 100_000, "1" * 5_000):
        with pytest.raises(CorpusFormatError) as exc:
            load_model(_HEADER + "\n" + record + "\n")
        assert exc.value.line == 2 and str(exc.value).startswith("line 2: invalid JSON: ")


@pytest.mark.parametrize("value", [MAX_LLR, -MAX_LLR])
def test_load_accepts_an_llr_at_the_bound(value):
    text = _HEADER.replace('"oov_score": 0.0', f'"oov_score": {value!r}') + f'\n{{"char": 120, "llr": {value!r}}}\n'
    model = load_model(text)
    assert (model.oov_score, model.llr["x"]) == (value, value)


@pytest.mark.parametrize("value", [math.nextafter(MAX_LLR, math.inf), -1.7e308])
def test_load_rejects_an_llr_beyond_the_bound_with_the_line(value):
    for text, where in [
        (_HEADER.replace('"oov_score": 0.0', f'"oov_score": {value!r}') + "\n", "line 1: header field 'oov_score'"),
        (_HEADER + f'\n{{"char": 120, "llr": {value!r}}}\n', "line 2: llr"),
    ]:
        with pytest.raises(CorpusFormatError) as exc:
            load_model(text)
        assert str(exc.value) == f"{where} {value!r} is out of range: its magnitude must be at most {MAX_LLR!r}"


# ----------------------------------------------------------------------
# the fixed-point bigram kernel against the fsum oracle, bit for bit

# Values at the edges of what the kernel must hold exactly: both zeros, the
# smallest subnormals and the load bound. "a", "b" and " " may be in the
# tables; "z", "y" and the lone surrogate U+DCFF never are.
_EDGE_LLR = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, MAX_LLR, -MAX_LLR]) | st.floats(-50.0, 50.0)
_IN_TABLES = st.sampled_from("ab \u00e9\U0001F600\ud800")
_WORD_CHARS = "ab\u00e9\U0001F600\ud800zy\udcff"
_PROMPT_CHARS = _WORD_CHARS + " "
_PROMPTS = st.text(_PROMPT_CHARS, min_size=1, max_size=12) | st.builds(
    lambda pair, times: pair * times, st.text(_PROMPT_CHARS, min_size=2, max_size=2), st.integers(1, 40)
)


@st.composite
def _prompt_lists(draw, max_size: int) -> list[str]:
    """Prompts, some of them words drawn from one small pool and joined by
    spaces, so that words repeat across prompts; an empty word gives a
    leading, trailing or repeated space."""
    pool = draw(st.lists(st.text(_WORD_CHARS, max_size=5), min_size=1, max_size=4))
    worded = st.lists(st.sampled_from(pool), min_size=1, max_size=8).map(" ".join).filter(bool)
    return draw(st.lists(_PROMPTS | worded, min_size=1, max_size=max_size))


@st.composite
def _bigram_models(draw) -> FilterModel:
    llr = draw(st.dictionaries(_IN_TABLES, _EDGE_LLR))
    rows = draw(st.dictionaries(_IN_TABLES, st.dictionaries(_IN_TABLES, _EDGE_LLR)))
    if draw(st.booleans()):  # " " outside the vocabulary, where its rows and pairs fall back to the OOV scores
        llr.pop(" ", None)
        rows.pop(" ", None)
        for row in rows.values():
            row.pop(" ", None)
    model = FilterModel(llr, 1.0, len(llr) + 1, draw(_EDGE_LLR), 0.0, ModelProvenance(()), rows, 1, draw(_EDGE_LLR))
    if draw(st.booleans()):  # 6-decimal values, as a model file holds them
        model = load_model(save_model(model))
    return model


def _same_bits(model: FilterModel, prompt: str) -> bool:
    return score(model, prompt).hex() == filter_oracle.score(model, prompt).hex()


@settings(max_examples=400, deadline=None)
@given(_bigram_models(), _prompt_lists(max_size=6))
def test_bigram_scores_are_bit_identical_to_the_oracle(model, prompts):
    assert all(_same_bits(model, prompt) for prompt in prompts)


@settings(max_examples=200, deadline=None)
@given(_bigram_models(), _prompt_lists(max_size=12), st.integers(0, 3), st.integers(0, 3), st.integers(1, 6))
def test_a_full_memo_and_a_tripped_guard_keep_the_scores_bit_identical(model, prompts, words, longest, window):
    """With bounds and a window this small the memo fills, refuses long words
    and turns itself off within a few prompts; every score must still be exact."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prompt_filter, "MEMO_WORDS", words)
        patch.setattr(prompt_filter, "MEMO_WORD", longest)
        patch.setattr(prompt_filter, "MEMO_WINDOW", window)
        assert all(_same_bits(model, prompt) for prompt in prompts + prompts)
        memo = prompt_filter._kernel(model).memo
        assert len(memo) <= words and all(len(word) <= longest for word in memo)


@settings(max_examples=100, deadline=None)
@given(_bigram_models(), _bigram_models(), _prompt_lists(max_size=3))
def test_models_scored_in_turn_each_get_their_own_kernel(first, second, prompts):
    swapped = first._replace(llr=second.llr, bigram_llr=second.bigram_llr)
    rescored = first._replace(oov_score=second.oov_score, bigram_oov_score=second.bigram_oov_score)
    for prompt in prompts:
        assert all(_same_bits(model, prompt) for model in (first, second, first, swapped, rescored, first))


def test_training_and_scoring_with_its_model_build_one_kernel(monkeypatch):
    built = []
    build = prompt_filter._build_kernel
    monkeypatch.setattr(prompt_filter, "_build_kernel", lambda model: built.append(model) or build(model))
    model = train_dynamic(TOY_ADV, TOY_BEN, bigrams=True)  # the threshold is set with _replace
    assert all(_same_bits(model, prompt) for prompt in TOY_ADV + TOY_BEN)
    assert len(built) == 1


def test_the_memo_never_holds_more_words_or_longer_words_than_its_bounds():
    """Each prompt brings one new word three times, so the guard stays on
    while the memo fills and for the few words after it is full; words
    beyond either bound are scored, not kept."""
    model = train_dynamic(TOY_ADV, TOY_BEN, bigrams=True)
    letters = "abcdefghijklmnopqrstuvwxyz"
    count = prompt_filter.MEMO_WORDS + prompt_filter.MEMO_WORDS // 100 + 200  # a few hundred more than it keeps
    words = ["".join(letters[number // 26**place % 26] for place in range(4)) for number in range(count)]
    words[::100] = [word * 9 for word in words[::100]]  # 36 letters, longer than MEMO_WORD
    for word in words:
        score(model, f"{word} {word} {word}")
    memo = prompt_filter._kernel(model).memo
    assert memo.on
    assert len(memo) == prompt_filter.MEMO_WORDS
    assert max(map(len, memo)) <= prompt_filter.MEMO_WORD < len(words[0])
    assert all(_same_bits(model, f"{word} {word} {word}") for word in words[-200:])


def test_the_guard_turns_the_memo_off_only_for_words_that_do_not_repeat():
    model = train_dynamic(TOY_ADV, TOY_BEN, bigrams=True)
    for prompt in ["x y!", "y x x", " xy  yx"] * prompt_filter.MEMO_WINDOW:  # six words over and over
        score(model, prompt)
    assert prompt_filter._kernel(model).memo.keys() == {"x", "y!", "y", "", "xy", "yx"}
    rng = random.Random(32)
    unique = [" ".join(f"{rng.getrandbits(64):x}" for _ in range(8)) for _ in range(prompt_filter.MEMO_WINDOW)]
    for prompt in unique:
        score(model, prompt)
    memo = prompt_filter._kernel(model).memo
    assert not memo.on and not memo
    assert all(_same_bits(model, prompt) for prompt in unique[:50] + list(TOY_BEN))


def test_a_bigram_model_with_a_non_finite_llr_is_refused():
    model = train_dynamic(TOY_ADV, TOY_BEN, bigrams=True)._replace(oov_score=math.inf)
    with pytest.raises(ValueError, match="llr values must be finite"):
        score(model, "xy")


# ----------------------------------------------------------------------
# the lines this process writes itself

class _CountingRaw(io.RawIOBase):
    def __init__(self) -> None:
        self.writes, self.data = 0, bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.writes += 1
        self.data += data
        return len(data)


def test_the_lines_written_here_reach_a_write_through_stream_in_pieces():
    """As stdout is under PYTHONUNBUFFERED: one slice, so every line is written here."""
    raw = _CountingRaw()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    prompts = [f"{number} " + "\u00e9" * (number % 300) for number in range(MIN_SLICE)]
    write_lines(lambda prompt: f"{prompt}\n", prompts, out)
    assert raw.data.decode("utf-8") == "".join(f"{prompt}\n" for prompt in prompts)
    assert raw.writes <= -(-len(raw.data) // PIECE) + 1


def _failing(prompt: str) -> str:
    if prompt == "stop":
        raise RuntimeError("failing prompt")
    return f"{prompt}\n"


@pytest.mark.parametrize("bad", ["stop", "\u00e9"], ids=["prompt-fails", "line-not-encodable"])
@pytest.mark.parametrize("at", [0, 1, MIN_SLICE // 2, MIN_SLICE - 1])
def test_a_failure_among_the_lines_written_here_stops_where_one_process_does(bad, at):
    prompts = [f"prompt {number:04d} " + "x" * 400 for number in range(MIN_SLICE)]
    prompts[at] = bad
    written = []
    for writer in (write_lines, filter_oracle.write_lines):
        out = io.TextIOWrapper(io.BytesIO(), encoding="ascii", write_through=True)
        with pytest.raises((RuntimeError, UnicodeEncodeError)) as exc:
            writer(_failing, prompts, out)
        written.append((out.buffer.getvalue(), type(exc.value), str(exc.value)))
    assert written[0] == written[1]
    assert written[0][0].count(b"\n") == at
