"""Output checks that do not use the program under test.

Each ``check_*`` function takes the text a command produced plus facts the
generator planted, and returns ``None`` when the output is right or a
one-line description of the first mismatch. Expected values that need
computation (a join, ROC statistics, filter scores) are computed here
from the generated inputs with the benchmark's own code.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import re
from collections import Counter
from typing import Sequence

from generate import DUTY_COUNT, Argument, CaseAuditPlan, CaseBuildPlan, FilterPlan

# Printed values are rounded: scores and thresholds to 6 decimals, AUC to 4.
SCORE_TOLERANCE = 1e-6
AUC_TOLERANCE = 1e-4


def _statements(text: str) -> tuple[list[str], list[str]]:
    """Split an exported triple file into statement lines and the rest."""
    lines = [line for line in text.split("\n") if line]
    return [l for l in lines if not l.startswith("@prefix ")], [l for l in lines if l.startswith("@prefix ")]


def _same_set(found: list[str], expected: set[str], what: str) -> str | None:
    if len(found) != len(set(found)):
        return f"{what}: duplicate statements"
    missing = expected - set(found)
    extra = set(found) - expected
    if missing or extra:
        sample = sorted(missing)[:1] or sorted(extra)[:1]
        return f"{what}: {len(missing)} missing, {len(extra)} unexpected statements, e.g. {sample[0]}"
    return None


# ----------------------------------------------------------------------
# case-build


def check_gsn_validate(text: str, arg: Argument) -> str | None:
    expected = f"ok: {len(arg.nodes)} nodes, {len(arg.edges)} edges\n"
    return None if text == expected else f"validate {arg.name}: expected {expected.strip()!r}, got {text[:80]!r}"


def check_gsn_triples(text: str, arg: Argument) -> str | None:
    statements, _ = _statements(text)
    return _same_set(statements, set(arg.triples()), f"triples {arg.name}")


def check_import(text: str, plan: CaseBuildPlan) -> str | None:
    """Argument and link statements equal the planted set; the registry is present."""
    statements, _ = _statements(text)
    registry = [s for s in statements if s.startswith("<euaia:")]
    problem = _same_set([s for s in statements if not s.startswith("<euaia:")], plan.expected_store, "import")
    if problem:
        return problem
    duties = {f"<euaia:d{d}> <rdf:type> <euaia:Duty> ." for d in range(1, DUTY_COUNT + 1)}
    if not duties <= set(registry):
        return "import: registry duty statements missing"
    return None


# ----------------------------------------------------------------------
# case-audit


def coverage_rows(plan: CaseAuditPlan) -> list[str]:
    rows = ["duty\tstatus\tsolutions\tcounterclaims"]
    for duty in range(1, DUTY_COUNT + 1):
        rows.append(
            f"{duty}\t{plan.statuses[duty]}\t{','.join(plan.solutions[duty])}\t{','.join(plan.counterclaims[duty])}"
        )
    return rows


def check_coverage_report(text: str, plan: CaseAuditPlan) -> str | None:
    expected = coverage_rows(plan)
    found = text.rstrip("\n").split("\n")
    if len(found) != len(expected):
        return f"coverage report: {len(found)} lines, expected {len(expected)}"
    for want, got in zip(expected, found):
        if want != got:
            return f"coverage report: expected {want[:60]!r}, got {got[:60]!r}"
    return None


def check_trace(text: str, plan: CaseAuditPlan, known: set[str]) -> str | None:
    """Chain count equals the planted count and every hop is a generated triple."""
    lines = text.rstrip("\n").split("\n")
    chains = sum(1 for line in lines if re.fullmatch(r"trace \d+:", line))
    if chains != plan.chains:
        return f"trace: {chains} chains, planted {plan.chains}"
    for line in lines:
        if line.startswith("  ") and line.strip() not in known:
            return f"trace: hop is not a generated triple: {line.strip()[:80]}"
    return None


def _parse_statement(line: str) -> tuple[str, str, str]:
    subject, rest = line.split(" ", 1)
    predicate, obj = rest.split(" ", 1)
    return subject, predicate, obj[: -len(" .")]


def _pattern_term(text: str) -> str:
    return text if text.startswith("?") else f"<{text}>"


def brute_force_query(statements: Sequence[str], patterns: Sequence[str]) -> list[str]:
    """Natural join of the patterns over the statements, printed as the CLI prints bindings.

    Each pattern is matched by a full scan; the partial solutions are then
    joined pairwise on their shared variables.
    """
    triples = [_parse_statement(s) for s in statements]
    solutions: list[dict[str, str]] = [{}]
    for text in patterns:
        pattern = [_pattern_term(t) for t in text.split()]
        matches = []
        for triple in triples:
            binding: dict[str, str] = {}
            for pat, value in zip(pattern, triple):
                if pat.startswith("?"):
                    if binding.setdefault(pat[1:], value) != value:
                        break
                elif pat != value:
                    break
            else:
                matches.append(binding)
        shared = sorted(set(matches[0]) & set(solutions[0])) if matches and solutions else []
        by_key: dict[tuple, list[dict[str, str]]] = {}
        for m in matches:
            by_key.setdefault(tuple(m[v] for v in shared), []).append(m)
        solutions = [
            {**s, **m} for s in solutions for m in by_key.get(tuple(s[v] for v in shared), ())
        ]
    return sorted(" ".join(f"?{name}={b[name]}" for name in sorted(b)) for b in solutions)


def check_query(text: str, expected: list[str]) -> str | None:
    found = text.rstrip("\n").split("\n") if text.strip() else []
    if found != expected:
        return f"query: {len(found)} bindings, expected {len(expected)}"
    return None


def factsheet_statuses(html: str) -> dict[int, str]:
    """Duty id -> status cell of the coverage table in a rendered HTML factsheet."""
    statuses = {}
    for row in re.findall(r"<tr>(.*?)</tr>", html):
        cells = re.findall(r"<td>(.*?)</td>", row)
        if len(cells) == 6 and cells[0].isdigit():
            statuses[int(cells[0])] = cells[3]
    return statuses


def check_factsheet(text: str, plan: CaseAuditPlan, first_digest: list[str]) -> str | None:
    """Status cells match the planted statuses; bytes equal the first pass's."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if not first_digest:
        first_digest.append(digest)
    elif digest != first_digest[0]:
        return "factsheet: bytes differ from the first pass"
    found = factsheet_statuses(text)
    if found != plan.statuses:
        wrong = sorted(d for d in plan.statuses if found.get(d) != plan.statuses[d])
        return f"factsheet: status cells differ for duties {wrong[:5]}"
    return None


# ----------------------------------------------------------------------
# filter: the module docstring's formula, recomputed


class ReferenceModel:
    """Per-character (and adjacent-pair) log-likelihood ratios with Laplace smoothing."""

    def __init__(self, adversarial: Sequence[str], benign: Sequence[str], alpha: float = 1.0):
        self.unigram = self._table(
            Counter(c for p in adversarial for c in p), Counter(c for p in benign for c in p), alpha
        )
        self.bigram = self._table(
            Counter(p[i : i + 2] for p in adversarial for i in range(len(p) - 1)),
            Counter(p[i : i + 2] for p in benign for i in range(len(p) - 1)),
            alpha,
        )

    @staticmethod
    def _table(adv: Counter, ben: Counter, alpha: float) -> tuple[dict[str, float], float]:
        keys = set(adv) | set(ben)
        v = len(keys) + 1
        n_adv, n_ben = sum(adv.values()), sum(ben.values())
        table = {
            k: math.log((adv[k] + alpha) / (n_adv + alpha * v)) - math.log((ben[k] + alpha) / (n_ben + alpha * v))
            for k in keys
        }
        oov = math.log(alpha / (n_adv + alpha * v)) - math.log(alpha / (n_ben + alpha * v))
        return table, oov

    def score(self, prompt: str) -> float:
        table, oov = self.unigram
        unigram = math.fsum(table.get(c, oov) for c in prompt) / len(prompt)
        if len(prompt) < 2:
            return unigram
        table, oov = self.bigram
        pairs = [prompt[i : i + 2] for i in range(len(prompt) - 1)]
        return (unigram + math.fsum(table.get(b, oov) for b in pairs) / len(pairs)) / 2.0


def youden_threshold(adv_scores: Sequence[float], ben_scores: Sequence[float]) -> float:
    """The largest cut t maximising TPR - FPR, where a score counts as positive iff > t."""
    adv, ben = sorted(adv_scores), sorted(ben_scores)
    cuts = sorted(set(adv) | set(ben))
    cuts.insert(0, cuts[0] - 1.0)
    best_t, best_j = cuts[0], -2.0
    for t in cuts:
        j = (len(adv) - bisect.bisect_right(adv, t)) / len(adv) - (len(ben) - bisect.bisect_right(ben, t)) / len(ben)
        if j >= best_j:
            best_t, best_j = t, j
    return best_t


def mann_whitney_auc(adv_scores: Sequence[float], ben_scores: Sequence[float]) -> float:
    """P(adversarial score > benign score), ties counted one half, from average ranks."""
    ranked = sorted([(s, 1) for s in adv_scores] + [(s, 0) for s in ben_scores])
    rank_sum, i = 0.0, 0
    while i < len(ranked):
        j = i
        while j < len(ranked) and ranked[j][0] == ranked[i][0]:
            j += 1
        average = (i + 1 + j) / 2.0
        rank_sum += average * sum(label for _, label in ranked[i:j])
        i = j
    n_adv, n_ben = len(adv_scores), len(ben_scores)
    return (rank_sum - n_adv * (n_adv + 1) / 2.0) / (n_adv * n_ben)


class FilterExpectations:
    """Everything the filter oracles compare against, computed once per run."""

    def __init__(self, plan: FilterPlan):
        model = ReferenceModel(plan.adversarial, plan.benign)
        self.plan = plan
        self.threshold = youden_threshold(
            [model.score(p) for p in plan.adversarial], [model.score(p) for p in plan.benign]
        )
        adv = [model.score(p) for label, p in plan.labeled if label == "A"]
        ben = [model.score(p) for label, p in plan.labeled if label == "B"]
        self.sizes = (len(adv), len(ben))
        self.auc = mann_whitney_auc(adv, ben)
        self.tied = len(adv) + len(ben) - len(set(adv) | set(ben))
        self.scores = [model.score(p) for p in plan.prompts]


def check_train(text: str, exp: FilterExpectations) -> str | None:
    match = re.fullmatch(r"trained on (\d+) adversarial and (\d+) benign prompts; threshold (\S+)\n", text)
    if not match:
        return f"train: unexpected output {text[:80]!r}"
    sizes = (int(match.group(1)), int(match.group(2)))
    if sizes != (len(exp.plan.adversarial), len(exp.plan.benign)):
        return f"train: corpus sizes {sizes}"
    if abs(float(match.group(3)) - exp.threshold) > SCORE_TOLERANCE:
        return f"train: threshold {match.group(3)}, expected {exp.threshold:.6f}"
    return None


def check_eval(text: str, exp: FilterExpectations) -> str | None:
    auc = re.search(r"^auc=(\S+)$", text, re.M)
    sizes = re.search(r"^adversarial=(\d+) benign=(\d+)$", text, re.M)
    if not auc or not sizes:
        return f"eval: unexpected output {text[:80]!r}"
    if (int(sizes.group(1)), int(sizes.group(2))) != exp.sizes:
        return f"eval: corpus sizes {sizes.group(0)}"
    if abs(float(auc.group(1)) - exp.auc) > AUC_TOLERANCE:
        return f"eval: auc {auc.group(1)}, Mann-Whitney gives {exp.auc:.4f}"
    return None


def _verdict_lines(text: str, prompts: Sequence[str], what: str) -> tuple[list[str], str | None]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != len(prompts):
        return [], f"{what}: {len(lines)} lines for {len(prompts)} prompts"
    firsts = []
    for i, (line, prompt) in enumerate(zip(lines, prompts)):
        first, sep, rest = line.partition("\t")
        if not sep or rest != prompt:
            return [], f"{what}: line {i + 1} does not echo its prompt"
        firsts.append(first)
    return firsts, None


def check_scores(text: str, exp: FilterExpectations) -> str | None:
    printed, problem = _verdict_lines(text, exp.plan.prompts, "score")
    if problem:
        return problem
    for i, (value, want) in enumerate(zip(printed, exp.scores)):
        if abs(float(value) - want) > SCORE_TOLERANCE:
            return f"score: line {i + 1} prints {value}, formula gives {want:.7f}"
    return None


def check_static(text: str, exp: FilterExpectations) -> str | None:
    verdicts, problem = _verdict_lines(text, exp.plan.prompts, "classify static")
    if problem:
        return problem
    for i, (verdict, blocked) in enumerate(zip(verdicts, exp.plan.blocked)):
        if verdict != ("A" if blocked else "B"):
            return f"classify static: line {i + 1} is {verdict}, planted {'blocked' if blocked else 'clean'}"
    return None


def check_dynamic(text: str, exp: FilterExpectations) -> str | None:
    """A iff score > threshold, skipping prompts within rounding distance of the cut."""
    verdicts, problem = _verdict_lines(text, exp.plan.prompts, "classify model")
    if problem:
        return problem
    for i, (verdict, value) in enumerate(zip(verdicts, exp.scores)):
        if abs(value - exp.threshold) <= 2 * SCORE_TOLERANCE:
            continue
        if verdict != ("A" if value > exp.threshold else "B"):
            return f"classify model: line {i + 1} is {verdict} at score {value:.6f}"
    return None
