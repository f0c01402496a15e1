"""Character-statistics filtering of adversarial prompts.

Two complementary mechanisms, mirroring a layered defense: a static
blocklist over characters and script classes, and a dynamic per-character
log-likelihood-ratio model trained on labeled corpora. Prompts are plain
strings; the unit of analysis is the Unicode code point.

The dynamic score of a prompt is the mean over its characters of

    llr(c) = ln((count_adv(c) + a) / (N_adv + a * V))
           - ln((count_ben(c) + a) / (N_ben + a * V))

with Laplace smoothing ``a`` and vocabulary size ``V`` equal to the number
of distinct characters across both corpora plus one shared bucket for
unseen characters. Training, scoring and evaluation are deterministic.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from enum import Enum
from itertools import chain, groupby, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import vocab
from .vocab import ScriptClass
from .triples import InputError, Iri, Literal, Triple, load_json

MODEL_FORMAT = "charfilter/1"


class Verdict(Enum):
    BENIGN = "benign"
    ADVERSARIAL = "adversarial"


class CorpusFormatError(InputError):
    """A corpus or model file that does not follow its line format."""


# ----------------------------------------------------------------------
# script classification

# Coarse block table; whole blocks are assigned even where a block mixes in
# the odd symbol. Basic Latin splits into letters (Latin) and the rest
# (Common: digits, punctuation, whitespace, control).
_SCRIPT_RANGES: tuple[tuple[int, int, ScriptClass], ...] = (
    (0x0041, 0x005A, ScriptClass.LATIN),
    (0x0061, 0x007A, ScriptClass.LATIN),
    (0x0000, 0x007F, ScriptClass.COMMON),
    (0x00C0, 0x00FF, ScriptClass.LATIN),
    (0x0100, 0x017F, ScriptClass.LATIN),
    (0x0180, 0x024F, ScriptClass.LATIN),
    (0x1E00, 0x1EFF, ScriptClass.LATIN),
    (0x0370, 0x03FF, ScriptClass.GREEK),
    (0x0400, 0x04FF, ScriptClass.CYRILLIC),
    (0x3400, 0x4DBF, ScriptClass.HAN),
    (0x4E00, 0x9FFF, ScriptClass.HAN),
)


def script_of(char: str) -> ScriptClass:
    """Script class of a single character. First matching range wins."""
    if len(char) != 1:
        raise ValueError("script_of expects a single character")
    point = ord(char)
    for low, high, script in _SCRIPT_RANGES:
        if low <= point <= high:
            return script
    return ScriptClass.OTHER


# ----------------------------------------------------------------------
# static blocklist

def compile_blocklist(blocklist: Iterable[str | ScriptClass]) -> re.Pattern[str]:
    """One character class for a blocklist: the listed characters plus every
    code-point interval, cut at the script table's bounds, of a blocked script.
    """
    members: list[str] = []
    scripts: set[ScriptClass] = set()
    for entry in blocklist:
        if isinstance(entry, ScriptClass):
            scripts.add(entry)
        elif isinstance(entry, str) and len(entry) == 1:
            members.append(re.escape(entry))
        else:
            raise ValueError(f"blocklist entries must be single characters or script classes: {entry!r}")
    cuts = sorted({0, sys.maxunicode + 1, *(cut for low, high, _ in _SCRIPT_RANGES for cut in (low, high + 1))})
    for low, end in zip(cuts, cuts[1:]):
        if script_of(chr(low)) in scripts:
            members.append(f"{re.escape(chr(low))}-{re.escape(chr(end - 1))}")
    return re.compile(f"[{''.join(members)}]" if members else "(?!)")


def classify_static(
    blocklist: re.Pattern[str] | Iterable[str | ScriptClass], prompt: str
) -> tuple[Verdict, list[str]]:
    """Blocklist check against characters and script classes.

    Returns the verdict and the offending characters, each reported once
    in first-occurrence order. The blocklist is a :func:`compile_blocklist`
    pattern or the raw entries; compile it once to check many prompts. The
    empty prompt is rejected as an error, not classified.
    """
    if not prompt:
        raise ValueError("cannot classify an empty prompt")
    pattern = blocklist if isinstance(blocklist, re.Pattern) else compile_blocklist(blocklist)
    offenders = list(dict.fromkeys(pattern.findall(prompt)))
    return (Verdict.ADVERSARIAL if offenders else Verdict.BENIGN), offenders


# ----------------------------------------------------------------------
# dynamic model

class ModelProvenance(NamedTuple):
    corpora: tuple[str, ...]
    trained_at: str | None = None


class FilterModel(NamedTuple):
    llr: Mapping[str, float]
    alpha: float
    vocab_size: int
    oov_score: float
    threshold: float
    provenance: ModelProvenance
    # Optional second feature channel over adjacent character pairs.
    bigram_llr: Mapping[str, float] | None = None
    bigram_vocab_size: int | None = None
    bigram_oov_score: float | None = None


def _llr_table(
    adv_counts: Mapping[str, int],
    ben_counts: Mapping[str, int],
    alpha: float,
) -> tuple[dict[str, float], int, float]:
    union = sorted(set(adv_counts) | set(ben_counts))
    v = len(union) + 1
    n_adv = sum(adv_counts.values())
    n_ben = sum(ben_counts.values())

    def llr(key: str) -> float:
        adv = math.log((adv_counts.get(key, 0) + alpha) / (n_adv + alpha * v))
        ben = math.log((ben_counts.get(key, 0) + alpha) / (n_ben + alpha * v))
        return adv - ben

    table = {key: llr(key) for key in union}
    oov = math.log(alpha / (n_adv + alpha * v)) - math.log(alpha / (n_ben + alpha * v))
    return table, v, oov


def train_dynamic(
    adversarial: Sequence[str],
    benign: Sequence[str],
    alpha: float = 1.0,
    *,
    bigrams: bool = False,
    corpus_ids: tuple[str, str] = ("adversarial", "benign"),
    trained_at: str | None = None,
) -> FilterModel:
    """Fit the per-character model and calibrate its decision threshold.

    The default threshold maximizes Youden's J (TPR - FPR) on the training
    prompts themselves; among equally good cut points the largest wins, so
    a useless model defaults toward benign. Pass ``trained_at`` to stamp
    the provenance; it is left unstamped by default so training is fully
    reproducible.
    """
    if not adversarial or not benign:
        raise ValueError("both corpora must be non-empty")
    if not 0 < alpha < math.inf:
        raise ValueError("smoothing alpha must be positive and finite")

    table, v, oov = _llr_table(
        Counter(chain.from_iterable(adversarial)), Counter(chain.from_iterable(benign)), alpha
    )
    model = FilterModel(
        llr=table,
        alpha=alpha,
        vocab_size=v,
        oov_score=oov,
        threshold=0.0,
        provenance=ModelProvenance(tuple(corpus_ids), trained_at),
    )
    if bigrams:
        bi_table, bi_v, bi_oov = _llr_table(
            Counter(chain.from_iterable(map(add, p, p[1:]) for p in adversarial)),
            Counter(chain.from_iterable(map(add, p, p[1:]) for p in benign)),
            alpha,
        )
        model = model._replace(bigram_llr=bi_table, bigram_vocab_size=bi_v, bigram_oov_score=bi_oov)
    return model._replace(threshold=_youden_threshold(model, adversarial, benign))


def _youden_threshold(
    model: FilterModel, adversarial: Sequence[str], benign: Sequence[str]
) -> float:
    scored = [(score(model, p), Verdict.ADVERSARIAL) for p in adversarial if p]
    adv_total = len(scored)
    scored += [(score(model, p), Verdict.BENIGN) for p in benign if p]
    ben_total = len(scored) - adv_total
    best_t, best_j = 0.0, -2.0
    for cut, tp, fp in _roc_sweep(scored):
        j = (tp / adv_total if adv_total else 0.0) - (fp / ben_total if ben_total else 0.0)
        if j > best_j:  # cuts come largest first, so the largest of equal J wins
            best_t, best_j = cut, j
    return best_t


def score(model: FilterModel, prompt: str) -> float:
    """Mean per-character log-likelihood ratio; higher means more adversarial.

    Unseen characters fall into the shared out-of-vocabulary bucket. With
    the bigram channel enabled, the unigram and bigram means are averaged
    at equal weight (single-character prompts have no bigrams and keep the
    unigram score).
    """
    if not prompt:
        raise ValueError("score is undefined for an empty prompt")
    unigram = math.fsum(map(model.llr.get, prompt, repeat(model.oov_score))) / len(prompt)
    if model.bigram_llr is None or len(prompt) < 2:
        return unigram
    pairs = map(add, prompt, prompt[1:])
    bigram = math.fsum(map(model.bigram_llr.get, pairs, repeat(model.bigram_oov_score))) / (len(prompt) - 1)
    return (unigram + bigram) / 2.0


def classify_dynamic(model: FilterModel, prompt: str) -> Verdict:
    """Adversarial iff the score strictly exceeds the threshold; ties are benign."""
    return Verdict.ADVERSARIAL if score(model, prompt) > model.threshold else Verdict.BENIGN


# ----------------------------------------------------------------------
# evaluation

class FilterMetrics(NamedTuple):
    true_positive_rate: float
    false_positive_rate: float
    precision: float
    auc: float | None
    corpus_sizes: tuple[int, int]


def evaluate(model: FilterModel, labeled: Sequence[tuple[str, Verdict]]) -> FilterMetrics:
    """Confusion rates at the model threshold plus ROC AUC.

    The positive class is adversarial. AUC comes from a trapezoid sweep
    over the distinct scores, which equals the pairwise rank statistic
    with ties counted one half. With a single-class input the AUC is
    undefined and reported as ``None``; the rates are still computed.
    """
    if not labeled:
        raise ValueError("evaluate requires a non-empty labeled corpus")
    scored = [(score(model, prompt), verdict) for prompt, verdict in labeled]
    adv_total = sum(1 for _, v in scored if v is Verdict.ADVERSARIAL)
    ben_total = len(scored) - adv_total

    tp = sum(1 for s, v in scored if v is Verdict.ADVERSARIAL and s > model.threshold)
    fp = sum(1 for s, v in scored if v is Verdict.BENIGN and s > model.threshold)
    tpr = tp / adv_total if adv_total else 0.0
    fpr = fp / ben_total if ben_total else 0.0
    precision = tp / (tp + fp) if (tp + fp) else 0.0

    auc = _trapezoid_auc(scored, adv_total, ben_total) if adv_total and ben_total else None
    return FilterMetrics(tpr, fpr, precision, auc, (adv_total, ben_total))


def _roc_sweep(scored: Sequence[tuple[float, Verdict]]) -> Iterator[tuple[float, int, int]]:
    """One sorted sweep (Fawcett 2006, Alg. 1): each candidate cut, every distinct
    score from the highest down and then one below the lowest, with the adversarial
    and benign counts strictly above it. Over the class totals these are the ROC points.
    """
    ordered = sorted(scored, key=itemgetter(0), reverse=True)
    tp = fp = 0
    for cut, group in groupby(ordered, key=itemgetter(0)):
        yield cut, tp, fp
        verdicts = [verdict for _, verdict in group]
        tp, fp = tp + verdicts.count(Verdict.ADVERSARIAL), fp + verdicts.count(Verdict.BENIGN)
    if ordered:
        yield ordered[-1][0] - 1.0, tp, fp


def _trapezoid_auc(scored: Sequence[tuple[float, Verdict]], adv_total: int, ben_total: int) -> float:
    points = [(fp / ben_total, tp / adv_total) for _, tp, fp in _roc_sweep(scored)]
    return math.fsum((x1 - x0) * (y1 + y0) / 2.0 for (x0, y0), (x1, y1) in zip(points, points[1:]))


# ----------------------------------------------------------------------
# triple view

def filter_to_triples(model: FilterModel, metrics: FilterMetrics) -> list[Triple]:
    """Evidence triples for the dynamic filter: metrics, training corpora
    and exactly one mitigates link to the character-combination attack.
    """
    defense = Iri("def", "dynamicFilter")
    triples = [
        Triple(defense, vocab.HAS_METRIC, Literal(f"tpr={metrics.true_positive_rate:.4f}")),
        Triple(defense, vocab.HAS_METRIC, Literal(f"fpr={metrics.false_positive_rate:.4f}")),
        Triple(defense, vocab.HAS_METRIC, Literal(f"precision={metrics.precision:.4f}")),
    ]
    if metrics.auc is not None:
        triples.append(Triple(defense, vocab.HAS_METRIC, Literal(f"auc={metrics.auc:.4f}")))
    for corpus_id in model.provenance.corpora:
        triples.append(Triple(defense, vocab.TRAINED_ON, Iri("src", _iri_safe(corpus_id))))
    triples.append(Triple(defense, vocab.MITIGATES, Iri("atk", "charCombo")))
    return triples


def _iri_safe(corpus_id: str) -> str:
    local = re.sub(r"[^A-Za-z0-9_.-]", "-", corpus_id)
    if not re.match(r"^[A-Za-z0-9_]", local):
        local = "corpus-" + local
    return local


# ----------------------------------------------------------------------
# file formats

def save_model(model: FilterModel) -> str:
    """Versioned JSON Lines: a header record, then one record per character
    (code point and llr, 6 decimal places, sorted by code point).
    """
    import json  # here, so that only commands that write a model load it

    provenance = {"corpora": list(model.provenance.corpora), "trained_at": model.provenance.trained_at}
    header: dict = {
        "format": MODEL_FORMAT,
        "alpha": model.alpha,
        "vocab_size": model.vocab_size,
        "threshold": round(model.threshold, 6),
        "oov_score": round(model.oov_score, 6),
        "provenance": provenance,
    }
    if model.bigram_llr is not None:
        header["bigram_vocab_size"] = model.bigram_vocab_size
        header["bigram_oov_score"] = round(model.bigram_oov_score or 0.0, 6)
    lines = [json.dumps(header, ensure_ascii=False)]
    for char in sorted(model.llr, key=ord):
        lines.append(f'{{"char": {ord(char)}, "llr": {model.llr[char]:.6f}}}')
    if model.bigram_llr is not None:
        for pair in sorted(model.bigram_llr, key=lambda p: (ord(p[0]), ord(p[1]))):
            lines.append(
                f'{{"chars": [{ord(pair[0])}, {ord(pair[1])}], "llr": {model.bigram_llr[pair]:.6f}}}'
            )
    return "\n".join(lines) + "\n"


def _is_number(value: object) -> bool:
    """A number a float holds: not a bool, NaN, an infinity or an integer beyond float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _is_code_point(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= sys.maxunicode


def load_model(text: str) -> FilterModel:
    """Read a model written by :func:`save_model`. A file that breaks its
    schema raises :class:`CorpusFormatError` with the offending line.
    """
    numbered = [(lineno, line) for lineno, line in enumerate(text.split("\n"), 1) if line.strip()]
    if not numbered:
        raise CorpusFormatError("empty model file")
    (head_line, head), records = numbered[0], numbered[1:]
    header = load_json(head, "model header is not valid JSON", head_line, CorpusFormatError)
    if not isinstance(header, dict):
        raise CorpusFormatError("model header is not a JSON object", head_line)
    if header.get("format") != MODEL_FORMAT:
        raise CorpusFormatError(f"unsupported model format {header.get('format')!r}", head_line)
    has_bigrams = "bigram_vocab_size" in header
    numbers = ["alpha", "vocab_size", "oov_score", "threshold"]
    numbers += ["bigram_vocab_size", "bigram_oov_score"] if has_bigrams else []
    for key in numbers:
        value = header.get(key)
        integer = key.endswith("vocab_size")
        if not _is_number(value) or (integer and not isinstance(value, int)):
            kind = "an integer" if integer else "a number"
            raise CorpusFormatError(f"header field {key!r} must be {kind}", head_line)
    provenance = header.get("provenance", {})
    corpora = provenance.get("corpora", ()) if isinstance(provenance, dict) else None
    trained_at = provenance.get("trained_at") if isinstance(provenance, dict) else None
    if not (
        isinstance(corpora, (list, tuple))
        and all(isinstance(corpus, str) for corpus in corpora)
        and (trained_at is None or isinstance(trained_at, str))
    ):
        raise CorpusFormatError("malformed provenance", head_line)
    llr: dict[str, float] = {}
    bigram_llr: dict[str, float] = {}
    for lineno, line in records:
        record = load_json(line, "invalid JSON", lineno, CorpusFormatError)
        if not isinstance(record, dict) or ("char" not in record and "chars" not in record):
            raise CorpusFormatError("expected a char or chars record", lineno)
        if not _is_number(record.get("llr")):
            raise CorpusFormatError("llr must be a number", lineno)
        if "char" in record:
            if not _is_code_point(record["char"]):
                raise CorpusFormatError("char must be a code point", lineno)
            llr[chr(record["char"])] = float(record["llr"])
        else:
            pair = record["chars"]
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_code_point, pair))):
                raise CorpusFormatError("chars must be a list of two code points", lineno)
            if not has_bigrams:
                raise CorpusFormatError("chars record in a model whose header has no 'bigram_vocab_size'", lineno)
            bigram_llr[chr(pair[0]) + chr(pair[1])] = float(record["llr"])
    return FilterModel(
        llr=llr,
        alpha=float(header["alpha"]),
        vocab_size=header["vocab_size"],
        oov_score=float(header["oov_score"]),
        threshold=float(header["threshold"]),
        provenance=ModelProvenance(tuple(corpora), trained_at),
        bigram_llr=bigram_llr if has_bigrams else None,
        bigram_vocab_size=header.get("bigram_vocab_size"),
        bigram_oov_score=header.get("bigram_oov_score"),
    )


def _corpus_lines(text: str) -> list[str]:
    """Lines ended by ``\\r\\n`` or ``\\n``; a lone ``\\r`` is part of its line."""
    return text.replace("\r\n", "\n").split("\n")


def parse_corpus(text: str) -> list[str]:
    """One prompt per line, kept verbatim; whitespace-only lines are skipped."""
    return [line for line in _corpus_lines(text) if line.strip()]


_LABELS = {"A": Verdict.ADVERSARIAL, "B": Verdict.BENIGN}


def parse_labeled_corpus(text: str) -> list[tuple[str, Verdict]]:
    """Labeled corpus lines: ``A<TAB>prompt`` or ``B<TAB>prompt``."""
    labeled: list[tuple[str, Verdict]] = []
    for lineno, line in enumerate(_corpus_lines(text), 1):
        if not line:
            continue
        label, sep, prompt = line.partition("\t")
        if not sep or label not in _LABELS:
            raise CorpusFormatError("expected 'A<TAB>prompt' or 'B<TAB>prompt'", lineno)
        labeled.append((prompt, _LABELS[label]))
    return labeled
