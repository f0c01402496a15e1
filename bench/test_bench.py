"""Self-tests of the benchmark at tiny input sizes.

    python3 -m pytest bench -q

They check that a seed fixes the inputs byte for byte, that every oracle
accepts the program's real output and rejects a corrupted copy, and that
a run emits every metric the benchmark defines.
"""

from __future__ import annotations

import contextlib
import functools
import io
import sys

import pytest

import generate
import oracles
import run
import workloads

sys.path.insert(0, str(run.SRC))
from euaia_assurance import cli  # noqa: E402

TINY_BUILD = (60, 30, 20)
TINY_AUDIT = dict(size=100, factsheet_size=40, chains=(5, 60))
TINY_FILTER = dict(train=80, evaluation=60, prompts=150)


def program(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def replace_line(text: str, index: int, line: str) -> str:
    lines = text.split("\n")
    lines[index] = line
    return "\n".join(lines)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads.generate, "case_build", functools.partial(generate.case_build, sizes=TINY_BUILD))
    monkeypatch.setattr(workloads.generate, "case_audit", functools.partial(generate.case_audit, **TINY_AUDIT))
    monkeypatch.setattr(workloads.generate, "filter_inputs", functools.partial(generate.filter_inputs, **TINY_FILTER))


@pytest.mark.parametrize(
    "make",
    [
        functools.partial(generate.case_build, sizes=TINY_BUILD),
        functools.partial(generate.case_audit, **TINY_AUDIT),
        functools.partial(generate.filter_inputs, **TINY_FILTER),
    ],
)
def test_same_seed_gives_byte_identical_inputs(tmp_path, make):
    make(7, tmp_path / "a")
    make(7, tmp_path / "b")
    make(8, tmp_path / "c")
    assert run.tree_digest(tmp_path / "a") == run.tree_digest(tmp_path / "b")
    assert run.tree_digest(tmp_path / "a") != run.tree_digest(tmp_path / "c")


def test_arguments_stay_below_the_coverage_depth_cap():
    arg = generate.make_argument(generate.random.Random(1), "a", 0, 600, 1, developed=True)
    depth: dict[str, int] = {}

    def longest(node: str) -> int:
        if node not in depth:
            depth[node] = max((longest(p) + 1 for p in arg.parents.get(node, ())), default=0)
        return depth[node]

    assert max(longest(n) for n, _, _, _ in arg.nodes) <= generate.MAX_SUPPORT_DEPTH < 12


def test_case_build_oracles(tmp_path):
    plan = generate.case_build(3, tmp_path, sizes=TINY_BUILD)
    arg = plan.arguments[0]
    gsn = str(tmp_path / f"{arg.name}.gsn")

    validated = program("gsn", "validate", gsn)
    assert oracles.check_gsn_validate(validated, arg) is None
    assert oracles.check_gsn_validate(validated.replace(" nodes", "0 nodes"), arg)

    exported = program("gsn", "triples", gsn)
    assert oracles.check_gsn_triples(exported, arg) is None
    assert oracles.check_gsn_triples(replace_line(exported, -2, ""), arg)

    exports = []
    for a in plan.arguments:
        path = tmp_path / f"{a.name}.ttl"
        path.write_text(program("gsn", "triples", str(tmp_path / f"{a.name}.gsn")), encoding="utf-8")
        exports.append(str(path))
    store = tmp_path / "store.ttl"
    program("triples", "import", *exports, str(tmp_path / "links.ttl"), "--with-registry", "-o", str(store))
    text = store.read_text(encoding="utf-8")
    assert oracles.check_import(text, plan) is None
    assert oracles.check_import(text + "<gsn:G1> <rdf:type> <gsn:Goal> .\n", plan)
    assert oracles.check_import(text.replace("<euaia:d1> <rdf:type> <euaia:Duty> .\n", ""), plan)


def test_case_audit_oracles(tmp_path):
    plan = generate.case_audit(3, tmp_path, **TINY_AUDIT)
    assert set(plan.statuses.values()) == set(generate.STATUSES)
    store, links = str(tmp_path / "store.ttl"), str(tmp_path / "links.ttl")

    report = program("coverage", "report", store, links)
    assert oracles.check_coverage_report(report, plan) is None
    for status in generate.STATUSES:
        other = "covered" if status != "covered" else "partial"
        assert oracles.check_coverage_report(report.replace(f"\t{status}\t", f"\t{other}\t", 1), plan)

    known = set(plan.store) | set(plan.links)
    traces = program("coverage", "trace", store, links, "--attack", plan.attack)
    assert oracles.check_trace(traces, plan, known) is None
    assert oracles.check_trace(traces.replace("trace 1:\n", "", 1), plan, known)
    assert oracles.check_trace(traces.replace("<assures:evidencedBy>", "<assures:mitigates>", 1), plan, known)

    expected = oracles.brute_force_query(plan.store, plan.query)
    assert expected
    bindings = program("triples", "query", store, *plan.query)
    assert oracles.check_query(bindings, expected) is None
    assert oracles.check_query(replace_line(bindings, 0, "?e=<def:d1> ?g=<gsn:G1> ?s=<gsn:Sn1>"), expected)

    digest: list[str] = []
    html = program("factsheet", "render", "--store", store, "--store", links,
                   "--gsn", str(tmp_path / "factsheet.gsn"), "--format", "html")
    assert oracles.check_factsheet(html, plan, digest) is None
    assert oracles.check_factsheet(html, plan, digest) is None
    assert oracles.check_factsheet(html + " ", plan, digest)
    flipped = html.replace("<td>contested</td>", "<td>covered</td>", 1)
    assert oracles.check_factsheet(flipped, plan, [])


def test_filter_oracles(tmp_path):
    plan = generate.filter_inputs(3, tmp_path, **TINY_FILTER)
    exp = oracles.FilterExpectations(plan)
    assert 0.5 < exp.auc < 0.99 and exp.tied > 0
    model = str(tmp_path / "model.jsonl")
    paths = {k: str(tmp_path / f"{k}.txt") for k in ("adversarial", "benign", "labeled", "prompts")}

    trained = program("filter", "train", "--adversarial", paths["adversarial"], "--benign", paths["benign"],
                      "-o", model, "--bigrams")
    assert oracles.check_train(trained, exp) is None
    threshold = trained.rsplit(" ", 1)[1]
    assert oracles.check_train(trained.replace(threshold, f"{float(threshold) + 1e-5:.6f}\n"), exp)

    evaluated = program("filter", "eval", "--model", model, "--corpus", paths["labeled"])
    assert oracles.check_eval(evaluated, exp) is None
    auc = next(line for line in evaluated.split("\n") if line.startswith("auc="))
    assert oracles.check_eval(evaluated.replace(auc, f"auc={exp.auc + 0.001:.4f}"), exp)

    scores = program("filter", "score", "--model", model, "--prompts-file", paths["prompts"])
    assert oracles.check_scores(scores, exp) is None
    value, prompt = scores.split("\n")[0].split("\t", 1)
    assert oracles.check_scores(replace_line(scores, 0, f"{float(value) + 1e-5:.6f}\t{prompt}"), exp)

    static = ["--blocklist", generate.BLOCKLIST, "--block-script", "Cyrillic", "--block-script", "Greek"]
    verdicts = program("filter", "classify", *static, "--prompts-file", paths["prompts"])
    assert oracles.check_static(verdicts, exp) is None
    first = verdicts.split("\n")[0]
    assert oracles.check_static(replace_line(verdicts, 0, ("B" if first[0] == "A" else "A") + first[1:]), exp)

    verdicts = program("filter", "classify", "--model", model, "--prompts-file", paths["prompts"])
    assert oracles.check_dynamic(verdicts, exp) is None
    clear = max(range(len(exp.scores)), key=lambda i: abs(exp.scores[i] - exp.threshold))
    line = verdicts.split("\n")[clear]
    assert oracles.check_dynamic(replace_line(verdicts, clear, ("B" if line[0] == "A" else "A") + line[1:]), exp)


# Metric names the benchmark promises, per workload, in its report.
REPORTED = {
    "case-build": ["gsn_validate_s", "gsn_triples_s", "triples_import_s"],
    "case-audit": ["coverage_report_s", "coverage_trace_s", "triples_query_s", "factsheet_s"],
    "filter": ["filter_train_s", "filter_eval_s", "filter_score_prompts_per_s", "filter_classify_prompts_per_s"],
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted(tiny, workload):
    lines, result = run.benchmark(workload, seed=2, seconds=0, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    reported = {line.split(" = ")[0].strip() for line in lines if " = " in line}
    assert {"setup_s", "wall_s", "peak_rss_mb", "failed_ratio", *REPORTED[workload]} <= reported

    lines, result = run.benchmark(workload, seed=2, seconds=0, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
