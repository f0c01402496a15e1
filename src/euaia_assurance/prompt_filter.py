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
unseen characters; a bigram model averages in, at equal weight, the same
mean over adjacent character pairs. Each mean's sum is the correctly
rounded exact sum (what ``math.fsum`` gives). A bigram model is scored with
exact fixed-point integers in one lookup per pair, or per repeated word
from a bounded memo, from a table built on its first score and cached on
the identity of its tables, which must not change afterwards. A model
file's llr magnitudes are at most ``MAX_LLR``, so no such sum overflows.
Training, scoring and evaluation are deterministic.
"""

from __future__ import annotations

import math
import os
import re
import sys
from collections import Counter, defaultdict
from enum import Enum
from functools import partial
from itertools import chain, groupby, repeat
from operator import add, getitem, is_, itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence, TextIO

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
    # Optional second feature channel over adjacent character pairs, looked
    # up as bigram_llr[first][second].
    bigram_llr: Mapping[str, dict[str, float]] | None = None
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

    for n in (n_adv, n_ben):
        if n + alpha * v == math.inf:
            raise ValueError(f"smoothing alpha {alpha!r} is too large: N + alpha * V overflows")
        if not alpha / (n + alpha * v) > 0.0:
            raise ValueError(f"smoothing alpha {alpha!r} is too small: alpha / (N + alpha * V) underflows to 0")
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
        nested: dict[str, dict[str, float]] = {}
        for pair, value in bi_table.items():
            nested.setdefault(pair[0], {})[pair[1]] = value
        model = model._replace(bigram_llr=nested, bigram_vocab_size=bi_v, bigram_oov_score=bi_oov)
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


def _row(pairs: dict[str, int], unseen: int) -> dict[str, int]:
    """The packed integers of the pairs that begin with one character, as a
    dict whose every other key reads ``unseen`` and is not stored. Each row
    gets its own class, so that its ``__missing__`` is a C call, not a
    Python one: a pair the model never saw costs 0.10 µs instead of 0.16
    (Python 3.11, 2 shared cores). The staticmethod keeps the partial
    unbound on every Python, where 3.14 makes a partial a method."""
    missing = staticmethod(partial(next, repeat(unseen)))
    return type("_Row", (dict,), {"__slots__": (), "__missing__": missing})(pairs)


# The word memo's bounds: the words it keeps, the longest word it keeps
# (characters), and the words looked up per window of its guard.
MEMO_WORDS = 1 << 15
MEMO_WORD = 32
MEMO_WINDOW = 1 << 12


class _Memo(dict):
    """``M(w)`` per word ``w``: the packed sum of the pairs of ``" " + w + " "``,
    computed on a word's first lookup and kept within ``MEMO_WORDS`` words of
    at most ``MEMO_WORD`` characters. ``on`` is the guard: a window of
    ``MEMO_WINDOW`` lookups that missed more words than it found turns the
    memo off and empties it."""

    __slots__ = ("rows", "oov_row", "space_row", "on", "seen", "missed")

    def __init__(self, rows: dict[str, dict[str, int]], oov_row: defaultdict[str, int]) -> None:
        self.rows, self.oov_row, self.space_row = rows, oov_row, rows.get(" ", oov_row)
        self.on, self.seen, self.missed = True, 0, 0

    def __missing__(self, word: str) -> int:
        self.missed += 1
        spaced = f" {word} "
        value = sum(map(getitem, map(self.rows.get, spaced[:-1], repeat(self.oov_row)), spaced[1:]))
        if len(word) <= MEMO_WORD and len(self) < MEMO_WORDS:
            self[word] = value
        return value

    def judge(self) -> None:
        """Close a window: turn the memo off if it missed more than it found."""
        if 2 * self.missed > self.seen:
            self.on = False
            self.clear()
        self.seen = self.missed = 0


class _Kernel(NamedTuple):
    """A bigram model in fixed point: every llr times ``scale`` (a power of
    two) is an integer, and the pair ``(first, second)`` reads
    ``u(first) + (b(first, second) << shift)`` from ``rows``."""

    rows: dict[str, dict[str, int]]  # each made by _row
    oov_row: defaultdict[str, int]  # the row of a first character outside the vocabulary
    last: dict[str, int]  # u(char), for the last character of a prompt
    u_oov: int
    shift: int
    half: int  # 1 << (shift - 1), which rounds the split of a packed sum
    scale: int
    memo: _Memo


def _build_kernel(model: FilterModel) -> _Kernel:
    bigram_llr = model.bigram_llr or {}
    values = [model.oov_score, model.bigram_oov_score, *model.llr.values()]
    values += [value for row in bigram_llr.values() for value in row.values()]
    try:  # as_integer_ratio, not a product of floats, which overflows for subnormals
        ratios = {value: float(value).as_integer_ratio() for value in values}
    except (OverflowError, ValueError, TypeError):
        raise ValueError("a bigram model's llr values must be finite numbers") from None
    bits = max(denominator.bit_length() for _, denominator in ratios.values()) - 1
    exact = {value: top << (bits + 1 - bottom.bit_length()) for value, (top, bottom) in ratios.items()}
    last = {char: exact[value] for char, value in model.llr.items()}
    u_oov, b_oov = exact[model.oov_score], exact[model.bigram_oov_score]
    # |sum of u| < 2 ** (shift - 1) for any prompt of up to sys.maxsize characters
    shift = max(map(abs, [u_oov, *last.values()])).bit_length() + 64
    rows = {}
    for first in {**last, **bigram_llr}:
        u = last.get(first, u_oov)
        pairs = bigram_llr.get(first, {})
        rows[first] = _row({second: u + (exact[value] << shift) for second, value in pairs.items()},
                           u + (b_oov << shift))
    oov_row = defaultdict(repeat(u_oov + (b_oov << shift)).__next__)
    return _Kernel(rows, oov_row, last, u_oov, shift, 1 << (shift - 1), 1 << bits, _Memo(rows, oov_row))


# One entry: the model scored last, the tables and OOV scores its kernel was
# built from, and the kernel. A model with those same objects, such as one
# that _replace gave a new threshold, gets the same kernel.
_cached: tuple = (None, (object(),) * 4, None)


def _kernel(model: FilterModel) -> _Kernel:
    global _cached
    cached_model, built_from, kernel = _cached
    if cached_model is not model:
        key = (model.llr, model.bigram_llr, model.oov_score, model.bigram_oov_score)
        if not all(map(is_, key, built_from)):
            kernel = _build_kernel(model)
        _cached = (model, key, kernel)
    return kernel


def score(model: FilterModel, prompt: str) -> float:
    """Mean per-character log-likelihood ratio; higher means more adversarial.

    Unseen characters fall into the shared out-of-vocabulary bucket. With
    the bigram channel enabled, the unigram and bigram means are averaged
    at equal weight (single-character prompts have no bigrams and keep the
    unigram score). Each channel's sum is the correctly rounded exact sum,
    as ``math.fsum`` gives it; a bigram model sums both channels at once in
    fixed-point integers.

    A bigram prompt ``p`` that holds a space is summed a word at a time.
    Split at each space into words ``w``, its packed sum is
    ``sum(M(w)) + last[p[-1]] - rows[" "][p[0]] - rows[p[-1]][" "]``, where
    ``M(w)`` is the packed sum of the pairs of ``" " + w + " "``: those
    pieces hold exactly the pairs of ``" " + p + " "``, and a sum of
    integers does not depend on its grouping, so the score is the pair-by-pair
    one, bit for bit. ``M(w)`` comes from a memo of at most ``MEMO_WORDS``
    words of at most ``MEMO_WORD`` characters. Once a window of
    ``MEMO_WINDOW`` word lookups misses more than it finds, the memo is
    emptied and no longer used, and every prompt is summed pair by pair, as
    one without a space always is. The kernel, memo and guard included, is
    cached on the identity of the model's tables, which must therefore not
    change after its first score.
    """
    if not prompt:
        raise ValueError("score is undefined for an empty prompt")
    n = len(prompt)
    if model.bigram_llr is None or n < 2:
        return math.fsum(map(model.llr.get, prompt, repeat(model.oov_score))) / n
    rows, oov_row, last, u_oov, shift, half, scale, memo = _kernel(model)
    packed = last.get(prompt[-1], u_oov)
    if memo.on and " " in prompt:
        words = prompt.split(" ")
        packed += sum(map(memo.__getitem__, words)) - memo.space_row[prompt[0]] - rows.get(prompt[-1], oov_row)[" "]
        memo.seen += len(words)
        if memo.seen >= MEMO_WINDOW:
            memo.judge()
    else:
        packed += sum(map(getitem, map(rows.get, prompt[:-1], repeat(oov_row)), prompt[1:]))
    bigram = (packed + half) >> shift
    unigram = packed - (bigram << shift)
    return (unigram / scale / n + bigram / scale / (n - 1)) / 2.0


def classify_dynamic(model: FilterModel, prompt: str) -> Verdict:
    """Adversarial iff the score strictly exceeds the threshold; ties are benign."""
    return Verdict.ADVERSARIAL if score(model, prompt) > model.threshold else Verdict.BENIGN


# ----------------------------------------------------------------------
# one output line per prompt, over the usable CPUs

# prompts: on 2 cores, two slices of 500-1,000 prompts were slower than one
# process, two of 1,500-2,000 even and two of 2,500-3,000 faster (fork,
# temporary file and copy-out against memoised scoring)
MIN_SLICE = 2000
# characters or bytes written at a time, so that a write-through stream (as
# stdout is under PYTHONUNBUFFERED) makes one system call per piece, not per line
PIECE = 1 << 16


def write_lines(line_of: Callable[[str], str], prompts: Sequence[str], out: TextIO) -> None:
    """Write ``line_of(prompt)`` to ``out`` for each prompt, in prompt order.

    The prompts are cut into contiguous slices, one per CPU this process may
    run on and none shorter than ``MIN_SLICE``. This process writes the
    first slice while a forked worker formats each of the others into an
    unnamed temporary file. The workers are then taken in slice order: each
    one's exit is awaited and its file read back before the text is copied
    out, so this process holds one slice's text at a time. A worker that
    fails, dies or cannot be forked, or whose file cannot be made or read,
    has its slice redone here, so an error stops the output at the same
    line, with the same exception, as writing every line in this process.
    Without ``os.fork``, or while other threads run, there is one slice and
    nothing is forked.
    """
    (_, head), *rest = _slices(len(prompts))
    workers: list[tuple[int, BinaryIO]] = []  # (pid, temporary file) per slice not yet taken, in slice order
    try:
        for start, stop in rest:
            import tempfile  # here, so that only a call that forks loads it
            try:
                file = tempfile.TemporaryFile()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                file.close()
                break
            if pid == 0:
                _work(line_of, prompts[start:stop], out, file.fileno())
            workers.append((pid, file))
        _write_here(line_of, prompts[:head], out)
        for start, stop in rest:
            text = None
            if workers:
                pid, file = workers.pop(0)
                with file:
                    if not os.waitpid(pid, 0)[1]:
                        try:
                            file.seek(0)
                            text = file.read()
                        except OSError:
                            pass
            if text is None:
                _write_here(line_of, prompts[start:stop], out)
                continue
            at = 0  # decoded a line-ended piece at a time, so that the text is never held twice
            while at < len(text):
                end = text.find(b"\n", at + PIECE) + 1 or len(text)
                out.write(text[at:end].decode("utf-8", "surrogatepass"))
                at = end
    finally:  # no worker may outlive the call
        for pid, file in workers:
            file.close()
            os.waitpid(pid, 0)


def _write_here(line_of: Callable[[str], str], prompts: Sequence[str], out: TextIO) -> None:
    """Write the prompts' lines in pieces of at least ``PIECE`` characters (the
    last one shorter). A prompt that fails leaves every line before it
    written, and a piece that ``out`` cannot encode, which it has not
    written, is written line by line, so that it stops at the line that fails.
    """
    piece: list[str] = []
    size = 0
    try:
        for line in map(line_of, prompts):
            piece.append(line)
            size += len(line)
            if size >= PIECE:
                full, piece, size = piece, [], 0
                _write_piece(full, out)
    finally:
        if piece:
            _write_piece(piece, out)


def _write_piece(lines: list[str], out: TextIO) -> None:
    try:  # out.writelines, the one method this writer calls for its own lines
        out.writelines(("".join(lines),))
    except UnicodeEncodeError:
        out.writelines(lines)


def _slices(count: int) -> list[tuple[int, int]]:
    """The (start, stop) bounds of the slices of ``count`` prompts, in order."""
    slices = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and not _other_threads():
        slices = max(1, min(len(os.sched_getaffinity(0)), count // MIN_SLICE))
    cuts = [count * index // slices for index in range(slices + 1)]
    return list(zip(cuts, cuts[1:]))


def _other_threads() -> bool:
    """Whether a thread besides this one runs, which a fork would leave half-copied."""
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:  # no /proc: count the interpreter's own threads
        return len(sys._current_frames()) > 1


def _work(line_of: Callable[[str], str], prompts: Sequence[str], out: TextIO, file: int) -> NoReturn:
    """In a forked worker: write the slice's text to ``file`` and exit, with
    status 0 only if every line was formatted, fits ``out``'s encoding and
    was written.
    """
    status = 1
    try:
        text = "".join(map(line_of, prompts))
        if getattr(out, "encoding", None):
            text.encode(out.encoding, getattr(out, "errors", None) or "strict")
        data = memoryview(text.encode("utf-8", "surrogatepass"))
        while data:
            data = data[os.write(file, data):]
        status = 0
    finally:  # whatever happened, never return into the forking caller's stack
        os._exit(status)


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
    defense = vocab.DYNAMIC_FILTER
    triples = [
        Triple(defense, vocab.HAS_METRIC, Literal(f"tpr={metrics.true_positive_rate:.4f}")),
        Triple(defense, vocab.HAS_METRIC, Literal(f"fpr={metrics.false_positive_rate:.4f}")),
        Triple(defense, vocab.HAS_METRIC, Literal(f"precision={metrics.precision:.4f}")),
    ]
    if metrics.auc is not None:
        triples.append(Triple(defense, vocab.HAS_METRIC, Literal(f"auc={metrics.auc:.4f}")))
    for corpus_id in model.provenance.corpora:
        triples.append(Triple(defense, vocab.TRAINED_ON, Iri("src", _iri_safe(corpus_id))))
    triples.append(Triple(defense, vocab.MITIGATES, vocab.CHAR_COMBO))
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
    (code point and llr, 6 decimal places, sorted by code point) and, in a
    bigram model, one per character pair (sorted by first, then second code
    point).
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
        for first in sorted(model.bigram_llr, key=ord):
            row = model.bigram_llr[first]
            for second in sorted(row, key=ord):
                lines.append(f'{{"chars": [{ord(first)}, {ord(second)}], "llr": {row[second]:.6f}}}')
    return "\n".join(lines) + "\n"


def _is_number(value: object) -> bool:
    """A number a float holds: not a bool, NaN, an infinity or an integer beyond float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


# The largest llr magnitude a model file may hold: a sum of sys.maxsize of them stays finite.
MAX_LLR = sys.float_info.max / 2**63


def _out_of_range(value: float, name: str, lineno: int) -> NoReturn:
    raise CorpusFormatError(f"{name} {value!r} is out of range: its magnitude must be at most {MAX_LLR!r}", lineno)


def _is_code_point(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= sys.maxunicode


def load_model(text: str) -> FilterModel:
    """Read a model written by :func:`save_model`. A file that breaks its
    schema, or gives a character or a pair a second record, raises
    :class:`CorpusFormatError` with the offending line.
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
        if key.endswith("oov_score") and abs(value) > MAX_LLR:
            _out_of_range(value, f"header field {key!r}", head_line)
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
    bigram_llr: dict[str, dict[str, float]] = {}
    for lineno, line in records:
        record = load_json(line, "invalid JSON", lineno, CorpusFormatError)
        if not isinstance(record, dict) or ("char" not in record and "chars" not in record):
            raise CorpusFormatError("expected a char or chars record", lineno)
        if "char" in record and "chars" in record:
            raise CorpusFormatError("a record holds a char or chars, not both", lineno)
        if not _is_number(record.get("llr")):
            raise CorpusFormatError("llr must be a number", lineno)
        if abs(record["llr"]) > MAX_LLR:
            _out_of_range(record["llr"], "llr", lineno)
        if "char" in record:
            if not _is_code_point(record["char"]):
                raise CorpusFormatError("char must be a code point", lineno)
            char = chr(record["char"])
            if char in llr:
                raise CorpusFormatError(f"repeated record for char {record['char']}", lineno)
            llr[char] = float(record["llr"])
        else:
            pair = record["chars"]
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_code_point, pair))):
                raise CorpusFormatError("chars must be a list of two code points", lineno)
            if not has_bigrams:
                raise CorpusFormatError("chars record in a model whose header has no 'bigram_vocab_size'", lineno)
            row = bigram_llr.setdefault(chr(pair[0]), {})
            if chr(pair[1]) in row:
                raise CorpusFormatError(f"repeated record for chars [{pair[0]}, {pair[1]}]", lineno)
            row[chr(pair[1])] = float(record["llr"])
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
    """Labeled corpus lines: ``A<TAB>prompt`` or ``B<TAB>prompt``, the prompt non-empty."""
    labeled: list[tuple[str, Verdict]] = []
    for lineno, line in enumerate(_corpus_lines(text), 1):
        if not line:
            continue
        label, sep, prompt = line.partition("\t")
        if not sep or label not in _LABELS:
            raise CorpusFormatError("expected 'A<TAB>prompt' or 'B<TAB>prompt'", lineno)
        if not prompt:
            raise CorpusFormatError(f"empty prompt after '{label}<TAB>'", lineno)
        labeled.append((prompt, _LABELS[label]))
    return labeled
