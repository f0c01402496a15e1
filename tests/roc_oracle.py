"""The Youden threshold and trapezoid AUC that ``prompt_filter._roc_sweep``
replaced, kept as a differential oracle.

The threshold search recounts every score for every candidate cut, which
is quadratic in the number of prompts, but it states the rule directly:
a prompt counts as adversarial only if its score is strictly above the
cut, and among cuts with equal Youden's J the largest wins. The sweep must
pick the same cut and the same AUC on every input.
"""

from __future__ import annotations

import math
from typing import Sequence

from euaia_assurance.prompt_filter import FilterModel, Verdict, score


def youden_threshold(model: FilterModel, adversarial: Sequence[str], benign: Sequence[str]) -> float:
    adv_scores = [score(model, p) for p in adversarial if p]
    ben_scores = [score(model, p) for p in benign if p]
    if not adv_scores and not ben_scores:
        return 0.0
    candidates = sorted(set(adv_scores + ben_scores))
    candidates.insert(0, candidates[0] - 1.0)
    best_t, best_j = candidates[0], -2.0
    for t in candidates:
        tpr = sum(1 for s in adv_scores if s > t) / len(adv_scores) if adv_scores else 0.0
        fpr = sum(1 for s in ben_scores if s > t) / len(ben_scores) if ben_scores else 0.0
        j = tpr - fpr
        if j >= best_j:
            best_t, best_j = t, j
    return best_t


def trapezoid_auc(scored: Sequence[tuple[float, Verdict]], adv_total: int, ben_total: int) -> float:
    ordered = sorted(scored, key=lambda pair: pair[0], reverse=True)
    points = [(0.0, 0.0)]
    tp = fp = 0
    index = 0
    while index < len(ordered):
        cut = ordered[index][0]
        while index < len(ordered) and ordered[index][0] == cut:
            if ordered[index][1] is Verdict.ADVERSARIAL:
                tp += 1
            else:
                fp += 1
            index += 1
        points.append((fp / ben_total, tp / adv_total))
    return math.fsum(
        (x1 - x0) * (y1 + y0) / 2.0 for (x0, y0), (x1, y1) in zip(points, points[1:])
    )
