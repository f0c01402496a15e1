"""The three workloads: what one pass runs, how its outputs are checked,
and which end-to-end metrics it yields.

Load is a closed loop with one client: commands run one at a time and
each waits for the previous one, as an engineer or a CI job drives a
batch CLI. No workload runs commands in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import generate
import oracles


@dataclass
class Command:
    group: str  # the end-to-end metric this command's time counts toward
    argv: list[str]
    stdout: Path
    check: Callable[[], str | None]


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return f"<unreadable output: {exc}>"


class CaseBuild:
    """The authoring and CI loop: validate and export each argument file,
    then merge the exports and the links into one store with the registry.

    Nearly all GSN parse and build work happens here, plus the write path
    of the triple store: many files merged, each merge re-validating the
    store. No queries and no filter.
    """

    name = "case-build"
    metrics = (("gsn_validate_s", "s"), ("gsn_triples_s", "s"), ("triples_import_s", "s"))

    def __init__(self, seed: int, inputs: Path):
        self.inputs = inputs
        self.plan = generate.case_build(seed, inputs)

    def prepare(self) -> None:
        pass

    def commands(self, out: Path) -> list[Command]:
        cmds = []
        for arg in self.plan.arguments:
            path = str(self.inputs / f"{arg.name}.gsn")
            stdout = out / f"{arg.name}.validate"
            cmds.append(
                Command("gsn_validate_s", ["gsn", "validate", path], stdout,
                        lambda s=stdout, a=arg: oracles.check_gsn_validate(_read(s), a))
            )
        exports = []
        for arg in self.plan.arguments:
            stdout = out / f"{arg.name}.ttl"
            exports.append(str(stdout))
            cmds.append(
                Command("gsn_triples_s", ["gsn", "triples", str(self.inputs / f"{arg.name}.gsn")], stdout,
                        lambda s=stdout, a=arg: oracles.check_gsn_triples(_read(s), a))
            )
        store = out / "store.ttl"
        argv = ["triples", "import", *exports, str(self.inputs / "links.ttl"), "--with-registry", "-o", str(store)]
        cmds.append(Command("triples_import_s", argv, out / "import.out",
                            lambda: oracles.check_import(_read(store), self.plan)))
        return cmds

    def pass_metrics(self, times: dict[str, float]) -> dict[str, float]:
        return {name: times[name] for name, _ in self.metrics}


class CaseAudit:
    """The auditor's loop on one large pre-assembled store plus a small
    links file: coverage report, causal trace, a three-pattern join and
    the HTML factsheet.

    It exercises the read side of the triple store (one large import,
    match, query), coverage and the factsheet, with little GSN work (one
    moderate file). Paired with case-build it shows a change that moves
    work between import and query as a gain on one and a cost on the other.
    """

    name = "case-audit"
    metrics = (("coverage_report_s", "s"), ("coverage_trace_s", "s"), ("triples_query_s", "s"), ("factsheet_s", "s"))

    def __init__(self, seed: int, inputs: Path):
        self.inputs = inputs
        self.plan = generate.case_audit(seed, inputs)
        self.factsheet_digest: list[str] = []

    def prepare(self) -> None:
        self.known = set(self.plan.store) | set(self.plan.links)
        self.query = oracles.brute_force_query(self.plan.store, self.plan.query)

    def commands(self, out: Path) -> list[Command]:
        store, links = str(self.inputs / "store.ttl"), str(self.inputs / "links.ttl")
        o = {k: out / f"{k}.out" for k in ("report", "trace", "query", "factsheet")}
        return [
            Command("coverage_report_s", ["coverage", "report", store, links], o["report"],
                    lambda: oracles.check_coverage_report(_read(o["report"]), self.plan)),
            Command("coverage_trace_s", ["coverage", "trace", store, links, "--attack", self.plan.attack], o["trace"],
                    lambda: oracles.check_trace(_read(o["trace"]), self.plan, self.known)),
            Command("triples_query_s", ["triples", "query", store, *self.plan.query], o["query"],
                    lambda: oracles.check_query(_read(o["query"]), self.query)),
            Command("factsheet_s",
                    ["factsheet", "render", "--store", store, "--store", links,
                     "--gsn", str(self.inputs / "factsheet.gsn"), "--format", "html"],
                    o["factsheet"],
                    lambda: oracles.check_factsheet(_read(o["factsheet"]), self.plan, self.factsheet_digest)),
        ]

    def pass_metrics(self, times: dict[str, float]) -> dict[str, float]:
        return {name: times[name] for name, _ in self.metrics}


class Filter:
    """The filter operator's loop: train with bigrams, evaluate, score a
    large prompts file, classify it with a static blocklist and with the
    trained model.

    It touches only the prompt filter and builds no store, so triple, GSN
    and coverage changes should leave it unchanged, and the reverse holds
    for prompt filter changes.
    """

    name = "filter"
    metrics = (
        ("filter_train_s", "s"),
        ("filter_eval_s", "s"),
        ("filter_score_prompts_per_s", "1/s"),
        ("filter_classify_prompts_per_s", "1/s"),
    )

    def __init__(self, seed: int, inputs: Path):
        self.inputs = inputs
        self.plan = generate.filter_inputs(seed, inputs)

    def prepare(self) -> None:
        self.expect = oracles.FilterExpectations(self.plan)

    def commands(self, out: Path) -> list[Command]:
        i = {k: str(self.inputs / f"{k}.txt") for k in ("adversarial", "benign", "labeled", "prompts")}
        model = str(out / "model.jsonl")
        o = {k: out / f"{k}.out" for k in ("train", "eval", "score", "static", "dynamic")}
        static = ["--blocklist", generate.BLOCKLIST]
        for script in generate.BLOCK_SCRIPTS:
            static += ["--block-script", script]
        e = self.expect
        return [
            Command("filter_train_s",
                    ["filter", "train", "--adversarial", i["adversarial"], "--benign", i["benign"], "-o", model, "--bigrams"],
                    o["train"], lambda: oracles.check_train(_read(o["train"]), e)),
            Command("filter_eval_s", ["filter", "eval", "--model", model, "--corpus", i["labeled"]],
                    o["eval"], lambda: oracles.check_eval(_read(o["eval"]), e)),
            Command("filter_score_s", ["filter", "score", "--model", model, "--prompts-file", i["prompts"]],
                    o["score"], lambda: oracles.check_scores(_read(o["score"]), e)),
            Command("filter_classify_s", ["filter", "classify", *static, "--prompts-file", i["prompts"]],
                    o["static"], lambda: oracles.check_static(_read(o["static"]), e)),
            Command("filter_classify_model_s", ["filter", "classify", "--model", model, "--prompts-file", i["prompts"]],
                    o["dynamic"], lambda: oracles.check_dynamic(_read(o["dynamic"]), e)),
        ]

    def pass_metrics(self, times: dict[str, float]) -> dict[str, float]:
        n = len(self.plan.prompts)
        return {
            "filter_train_s": times["filter_train_s"],
            "filter_eval_s": times["filter_eval_s"],
            "filter_score_prompts_per_s": n / times["filter_score_s"],
            "filter_classify_prompts_per_s": n / times["filter_classify_s"],
        }


WORKLOADS = {w.name: w for w in (CaseBuild, CaseAudit, Filter)}
