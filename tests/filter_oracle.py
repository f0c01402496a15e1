"""The per-character ``classify_static`` and the generator-based ``score``
over pair strings that the compiled blocklist pattern and the map-based
sums over a nested pair table replaced, and the one-process
``write_lines`` that the sliced, forking writer replaced, kept as
differential oracles.

Both state their rule one character at a time: a character offends if it
is listed or if ``script_of`` puts it in a blocked script, offenders are
reported once in first-occurrence order, and a score is the exact mean
(``math.fsum``) of each character's llr, with every adjacent pair's llr
averaged in at equal weight when the model has a bigram channel. The
oracle score flattens the model's ``bigram_llr[first][second]`` table to
one keyed by the pair string and looks up each two-character slice. The
replacements must give the same verdicts, offender lists and floats. The
writer formats and writes each prompt's line in turn, so a failing prompt
leaves the lines before it written and raises; the replacement must leave
the same text and raise the same exception.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence, TextIO

from euaia_assurance.prompt_filter import FilterModel, ScriptClass, Verdict, script_of


def classify_static(blocklist: Iterable[str | ScriptClass], prompt: str) -> tuple[Verdict, list[str]]:
    if not prompt:
        raise ValueError("cannot classify an empty prompt")
    blocked_chars: set[str] = set()
    blocked_scripts: set[ScriptClass] = set()
    for entry in blocklist:
        if isinstance(entry, ScriptClass):
            blocked_scripts.add(entry)
        elif isinstance(entry, str) and len(entry) == 1:
            blocked_chars.add(entry)
        else:
            raise ValueError(f"blocklist entries must be single characters or script classes: {entry!r}")
    offenders: list[str] = []
    seen: set[str] = set()
    for char in prompt:
        if char in seen:
            continue
        if char in blocked_chars or script_of(char) in blocked_scripts:
            offenders.append(char)
            seen.add(char)
    verdict = Verdict.ADVERSARIAL if offenders else Verdict.BENIGN
    return verdict, offenders


def _bigrams(prompt: str) -> list[str]:
    return [prompt[i : i + 2] for i in range(len(prompt) - 1)]


def pair_table(bigram_llr: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """The nested table flattened to one keyed by the two-character pair string."""
    return {first + second: value for first, row in bigram_llr.items() for second, value in row.items()}


def score(model: FilterModel, prompt: str) -> float:
    if not prompt:
        raise ValueError("score is undefined for an empty prompt")
    unigram = math.fsum(model.llr.get(c, model.oov_score) for c in prompt) / len(prompt)
    if model.bigram_llr is None or len(prompt) < 2:
        return unigram
    table = pair_table(model.bigram_llr)
    pairs = _bigrams(prompt)
    bigram = math.fsum(table.get(b, model.bigram_oov_score) for b in pairs) / len(pairs)
    return (unigram + bigram) / 2.0


def write_lines(line_of: Callable[[str], str], prompts: Sequence[str], out: TextIO) -> None:
    out.writelines(line_of(prompt) for prompt in prompts)
