"""Time ``parse_gsn``, ``validate``, ``argument_to_triples``, ``serialize_gsn`` and
``render_dot`` on generated arguments of 1,500, 3,000 and 6,000 nodes,
``import_triples`` on generated store text of
12,500, 25,000, 50,000 and 100,000 statements, then ``merge_stores`` of
that store with a case-audit links store, ``assert_all`` of the duty
registry's triples and ``export_triples`` of the result, ``train_dynamic`` with
bigrams on 1,000, 2,000 and 4,000 generated prompts per class,
``evaluate`` of the trained model on the labeled union of those prompts,
and ``save_model`` of the model and ``load_model`` of its text,
``classify_static`` and ``score`` over 12,500, 25,000 and 50,000
generated prompts, ``coverage_report`` and ``coverage_to_tsv`` of its report,
``causal_trace``, the
case-audit 3-pattern ``Store.query``, ``render_factsheet`` of the case's
factsheet argument and ``render_html`` of its Markdown on audit stores
generated with 200, 400 and 800 nodes per argument (about 13,000, 26,000
and 50,000 statements), ``causal_trace`` on plain goal chains of 250, 500
and 750 ``supportedBy`` hops, ``render_factsheet`` of arguments of 10, 12
and 14 diamond layers, the four case-audit commands run through
``cli.main`` in process on those audit cases, the ``filter score`` and
``filter classify --model`` commands run the same way on 12,500, 25,000
and 50,000 prompts, and the start-up time of short commands, for one or
more source trees, and write the records as JSON.

    python3 tools/bench_stages.py --tree before=../old-checkout --tree after=. -o BENCH_11.json
    python3 tools/bench_stages.py --tree now=. --group startup --group store -o /dev/null

``--group`` (repeatable) measures only the named groups of stages:
``startup``, ``gsn``, ``store``, ``train``, ``prompts``, ``audit``,
``chains``, ``diamonds``, ``audit commands`` and ``filter commands``; by
default every group is measured.

Each tree is measured by its own long-lived worker process with
``PYTHONPATH=<tree>/src``, so no two trees share imported modules, and
with ``PYTHONHASHSEED=0``, so every worker lays out its string-keyed dicts
alike. (With a random seed per worker, the unchanged ``score`` stage read
1.06-1.07 at all three sizes in one 20-round comparison of two trees, and
0.99 in the next with the seeds fixed: one worker's draw tilts every round
of its tree.) The
trees are interleaved: for each stage and size, every repeat asks each
worker for one timed run in turn, and the order of the trees alternates
from one repeat to the next. Drift of a shared machine then falls on every
tree alike instead of on whichever tree ran in a later block. A worker
holds the inputs of one stage and size at a time and drops them before it
builds the next ones, and every timed call starts after ``gc.collect()``,
so the collector's share of a call does not depend on what earlier stages
left alive or on the garbage that earlier calls left behind.

The inputs come from ``bench/generate`` of this checkout, with a fixed
seed, so every tree reads the same texts: arguments from ``make_argument``,
a store made like the case-audit one (the statements of
``CASE_AUDIT_SIZE``-node arguments in shuffled order under the generator's
``@prefix`` header), and prompts from the filter workload's adversarial and
benign generators. ``evaluate`` scores every training prompt in one
process, as ``filter eval`` does, so it times the scorer alone. The
prompt stages work as the ``filter`` workload's commands do:
``classify_static`` checks each prompt against the workload's blocklist,
prepared once per run as the CLI prepares it (``compile_blocklist``
where the tree has it, else the raw entries), and ``score`` scores each
prompt with a bigram model trained on the workload's number of prompts
per class. The coverage stages read the ``store.ttl`` and
``links.ttl`` that ``case_audit`` writes, and each run gets a new store
merged from the two with ``merge_stores``, as the CLI merges them, outside
the timed call, so that the time includes the indexes the analysis builds
and the store walks its triples in the order the CLI's store does; the
trace follows the case's planted attack, and the query stage's size is the
store's number of statements. ``render_factsheet`` gets such a store with the
registry's and the argument's triples asserted, as ``factsheet render``
assembles it, and ``render_html`` wraps the Markdown that it returns. A
chain stage's store is one goal chain whose bottom solution evidences the
one defense of its attack, and its trace must be the one chain from the
attack to the top goal's duty. A diamond layer is two goals that both
support the goal above and are both supported by one join goal, the next
layer's top, so an argument of ``n`` layers has ``2 ** n`` paths down; its
factsheet is rendered from the store that ``factsheet render`` assembles,
and its argument summary must begin with the root goal's line. The ``audit
commands`` stage runs ``coverage report``, ``coverage trace``, ``triples query`` and ``factsheet render --format html``
on the files ``case_audit`` writes, as the case-audit workload does, and
times the four together; each must exit 0. The ``filter commands`` stage
does the same for ``filter score`` and ``filter classify --model`` on a
prompts file drawn like the workload's, with the bigram model the prompt
stages use. The start-up stage spawns
``python -c pass`` and ``python -m euaia_assurance`` for ``duties list``,
``gsn validate`` and ``gsn triples`` on the fixture argument, ``triples
import --with-registry`` of the fixture triple files and ``triples query``
on one of them, in turn, ``STARTUP_RUNS`` times each (``--repeats`` does
not apply). The package runs from a copy of its ``.py`` files with
``PYTHONDONTWRITEBYTECODE=1``, so no cached bytecode of the tree is read and
every command compiles the package modules it imports, as in a fresh
checkout; the interpreter's own cached bytecode is read as usual. (An empty
``PYTHONPYCACHEPREFIX`` would hide that too: ``python -c pass`` then
compiles what ``site`` imports and takes several times as long, which
buries the package's share.) A record holds the stage, the size and its
unit, the median and minimum seconds over its runs, the seconds of each run
in run order, the Python version, the tree's git commit (or null) and a
digest of its ``src/euaia_assurance``, which identifies uncommitted trees
too.

A record also holds ``calls``: the number of Python function calls that
``cProfile`` counts in one extra, untimed run of the stage at that size,
made after its timed runs. The timed runs are never profiled. A count
leaves out what runs in other processes: the start-up stage's commands
(its ``calls`` is null) and the slices that ``filter score`` and ``filter
classify`` hand to forked workers, so a filter stage counts this process's
slice and the copy-out only. It also leaves out work done in C, such as
regex matching and dict and set operations, and it differs between Python
versions. Counts record and do not gate; read them beside the times.

Run ``i`` of every tree at a stage and size falls in the same round, so the
runs pair up. For each tree after the first, the standard error gets one
line per stage and size: the median over the rounds of the ratio of that
tree's seconds to the first tree's, the quartiles of those ratios, and the
number of rounds it was faster, then the ratio of its call count to the
first tree's.
Drift of a shared machine that outlasts a round cancels in the ratio, where
it would stay in each tree's median.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import io
import json
import os
import platform
import pstats
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GSN_SIZES = (1500, 3000, 6000)
STORE_SIZES = (12500, 25000, 50000, 100000)
TRAIN_SIZES = (1000, 2000, 4000)
PROMPT_SIZES = (12500, 25000, 50000)
AUDIT_SIZES = (200, 400, 800)  # nodes per argument; 800 is the case-audit workload's
CHAIN_SIZES = (250, 500, 750)  # supportedBy hops
DIAMOND_SIZES = (10, 12, 14)  # diamond layers
SEED = 2
STARTUP_RUNS = 15
FIXTURES = ROOT / "fixtures"
STARTUP_COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "duties list": ["-m", "euaia_assurance", "duties", "list"],
    "gsn validate": ["-m", "euaia_assurance", "gsn", "validate", str(FIXTURES / "art15-5.gsn")],
    "gsn triples": ["-m", "euaia_assurance", "gsn", "triples", str(FIXTURES / "art15-5.gsn")],
    "triples import": ["-m", "euaia_assurance", "triples", "import", str(FIXTURES / "knowledge-links.ttl"),
                       str(FIXTURES / "dynamic-links.ttl"), "--with-registry"],
    "triples query": ["-m", "euaia_assurance", "triples", "query", str(FIXTURES / "knowledge-links.ttl"),
                      "?s <rdf:type> ?o"],
}


def _generate():
    sys.dont_write_bytecode = True  # leave bench/ as checked out
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import generate

    return generate


def _argument_text(size: int) -> str:
    rng = random.Random(f"bench-gsn/{SEED}/{size}")
    return _generate().make_argument(rng, f"n{size}", 0, size, duty=1, developed=True).text()


def _store_text(size: int) -> str:
    generate = _generate()
    rng = random.Random(f"bench-store/{SEED}/{size}")
    statements: list[str] = []
    while len(statements) < size:
        base = len(statements)  # node ids stay distinct: every node adds two statements
        duty = 1 + len(statements) % generate.DUTY_COUNT
        argument = generate.make_argument(rng, f"s{base}", base, generate.CASE_AUDIT_SIZE, duty, True)
        statements.extend(argument.triples())
    statements = statements[:size]
    rng.shuffle(statements)
    return generate._triple_file(statements)


def _corpora(size: int) -> tuple[list[str], list[str]]:
    generate = _generate()
    rng = random.Random(f"bench-filter/{SEED}/{size}")
    adversarial = [generate._adversarial(rng)[0] for _ in range(size)]
    return adversarial, [generate._benign(rng)[0] for _ in range(size)]


def _prompts(size: int) -> list[str]:
    """Mixed prompts, drawn like the filter workload's prompts file."""
    generate = _generate()
    rng = random.Random(f"bench-prompts/{SEED}/{size}")
    return [(generate._adversarial if rng.random() < 0.5 else generate._benign)(rng)[0] for _ in range(size)]


_counting = False  # in a worker: whether this run counts calls instead of timing them


def _timed(call, *args, **kwargs) -> tuple[float, object]:
    """The seconds one call takes, timed after a full collection, and its
    result; in a counting run, the calls it makes instead of the seconds."""
    gc.collect()
    if _counting:
        profile = cProfile.Profile()
        result = profile.runcall(call, *args, **kwargs)
        return pstats.Stats(profile).total_calls, result
    start = time.perf_counter()
    result = call(*args, **kwargs)
    return time.perf_counter() - start, result


# ----------------------------------------------------------------------
# worker side: one group of stages at one size, with the tree's package
#
# Each group has a ``prepare`` that builds the inputs of a size (untimed) and
# a ``run`` that times one repeat and returns {stage: [size, unit, seconds]}.


def _prepare_startup(size: int, stack: contextlib.ExitStack) -> dict:
    import euaia_assurance

    src = stack.enter_context(tempfile.TemporaryDirectory())
    package = Path(euaia_assurance.__file__).parent
    shutil.copytree(package, Path(src) / package.name, ignore=shutil.ignore_patterns("__pycache__"))
    return {"env": dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=src)}


def _run_startup(inputs: dict, size: int) -> dict:
    out = {}
    for name, argv in STARTUP_COMMANDS.items():
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *argv], stdout=subprocess.DEVNULL, env=inputs["env"], cwd=ROOT)
        out[f"startup: {name}"] = [1, "process", time.perf_counter() - start]
        if done.returncode != 0:
            raise RuntimeError(f"start-up command `{name}` exited {done.returncode}")
    return out


def _prepare_gsn(size: int, stack: contextlib.ExitStack) -> dict:
    return {"text": _argument_text(size)}


def _run_gsn(inputs: dict, size: int) -> dict:
    from euaia_assurance.gsn import argument_to_triples, parse_gsn, render_dot, serialize_gsn, validate

    parsed, argument = _timed(parse_gsn, inputs["text"])
    validated, diagnostics = _timed(validate, argument)
    converted, triples = _timed(argument_to_triples, argument)
    serialized, text = _timed(serialize_gsn, argument)
    rendered, dot = _timed(render_dot, argument)
    if len(argument.nodes) != size or diagnostics:
        raise RuntimeError(f"{size}-node argument: {len(argument.nodes)} nodes, {diagnostics[:3]}")
    if len(triples) != 2 * size + len(argument.edges) + 1:
        raise RuntimeError(f"{size}-node argument: {len(triples)} triples, not 2 * nodes + edges + 1")
    if text.count("\n") < size + len(argument.edges) or dot.count(" -> ") != len(argument.edges):
        raise RuntimeError(f"{size}-node argument: the canonical text or the DOT graph lacks nodes or edges")
    return {
        "parse_gsn": [size, "nodes", parsed],
        "validate": [size, "nodes", validated],
        "argument_to_triples": [size, "nodes", converted],
        "serialize_gsn": [size, "nodes", serialized],
        "render_dot": [size, "nodes", rendered],
    }


def _prepare_store(size: int, stack: contextlib.ExitStack) -> dict:
    """The store text, the links store of a case-audit case and the registry's triples."""
    from euaia_assurance.duties import load_registry, registry_to_triples
    from euaia_assurance.triples import import_triples

    generate = _generate()
    return {
        "text": _store_text(size),
        "links": import_triples(generate._triple_file(generate._attack_links(12, per_attack=3))),
        "registry": registry_to_triples(load_registry()),
    }


def _run_store(inputs: dict, size: int) -> dict:
    from euaia_assurance.triples import export_triples, import_triples, merge_stores

    imported, store = _timed(import_triples, inputs["text"])
    merged, store = _timed(merge_stores, [store, inputs["links"]])
    asserted, store = _timed(store.assert_all, inputs["registry"])
    exported, text = _timed(export_triples, store)
    expected = size + len(inputs["links"]) + len(inputs["registry"])
    if len(store) != expected or text.count("\n") < expected:
        raise RuntimeError(f"{size}-statement store: {len(store)} triples, not {expected}")
    unit = "statements"
    return {
        "import_triples": [size, unit, imported],
        "merge_stores": [size, unit, merged],
        "assert_all": [size, unit, asserted],
        "export_triples": [size, unit, exported],
    }


def _prepare_train(size: int, stack: contextlib.ExitStack) -> dict:
    from euaia_assurance.prompt_filter import Verdict

    adversarial, benign = _corpora(size)
    labeled = [(p, Verdict.ADVERSARIAL) for p in adversarial] + [(p, Verdict.BENIGN) for p in benign]
    return {"corpora": (adversarial, benign), "labeled": labeled}


def _run_train(inputs: dict, size: int) -> dict:
    from euaia_assurance.prompt_filter import evaluate, load_model, save_model, train_dynamic

    trained, model = _timed(train_dynamic, *inputs["corpora"], bigrams=True)
    evaluated, metrics = _timed(evaluate, model, inputs["labeled"])
    saved, text = _timed(save_model, model)
    loaded, reloaded = _timed(load_model, text)
    if metrics.corpus_sizes != (size, size):
        raise RuntimeError(f"{size} prompts per class: evaluated {metrics.corpus_sizes}")
    if save_model(reloaded) != text:
        raise RuntimeError(f"{size} prompts per class: the saved model does not read back as itself")
    unit = "prompts per class"
    return {
        "train_dynamic": [size, unit, trained],
        "evaluate": [size, unit, evaluated],
        "save_model": [size, unit, saved],
        "load_model": [size, unit, loaded],
    }


def _prepare_prompts(size: int, stack: contextlib.ExitStack) -> dict:
    from euaia_assurance import prompt_filter

    generate = _generate()
    return {
        "prompts": _prompts(size),
        "entries": [*generate.BLOCKLIST, *map(prompt_filter.ScriptClass, generate.BLOCK_SCRIPTS)],
        "model": prompt_filter.train_dynamic(*_corpora(generate.TRAIN_PER_CLASS), bigrams=True),
    }


def _run_prompts(inputs: dict, size: int) -> dict:
    from euaia_assurance import prompt_filter
    from euaia_assurance.prompt_filter import Verdict, classify_static, score

    prompts, model = inputs["prompts"], inputs["model"]
    prepare = getattr(prompt_filter, "compile_blocklist", list)

    def classify() -> int:
        blocklist = prepare(inputs["entries"])
        return sum(classify_static(blocklist, prompt)[0] is Verdict.ADVERSARIAL for prompt in prompts)

    def score_all() -> None:
        for prompt in prompts:
            score(model, prompt)

    classified, flagged = _timed(classify)
    scored, _ = _timed(score_all)
    if not 0 < flagged < size:
        raise RuntimeError(f"{size} prompts: {flagged} flagged by the blocklist")
    return {"classify_static": [size, "prompts", classified], "score": [size, "prompts", scored]}


def _prepare_audit(size: int, stack: contextlib.ExitStack) -> dict:
    """The imported stores of a generated audit case, its plan, and its
    factsheet argument with the triples that ``factsheet render`` asserts."""
    from euaia_assurance.duties import load_registry, registry_to_triples
    from euaia_assurance.gsn import argument_to_triples, parse_gsn
    from euaia_assurance.triples import Iri, import_triples, parse_pattern

    tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
    plan = _generate().case_audit(SEED, tmp, size=size)
    registry = load_registry()
    argument = parse_gsn((tmp / "factsheet.gsn").read_text(encoding="utf-8"))
    return {
        "stores": [import_triples((tmp / name).read_text(encoding="utf-8")) for name in ("store.ttl", "links.ttl")],
        "plan": plan,
        "attack": Iri.parse(plan.attack),
        "patterns": [parse_pattern(pattern) for pattern in plan.query],
        "registry": registry,
        "argument": argument,
        "asserted": registry_to_triples(registry) + argument_to_triples(argument),
    }


def _run_audit(inputs: dict, size: int) -> dict:
    from euaia_assurance.coverage import causal_trace, coverage_report, coverage_to_tsv
    from euaia_assurance.factsheet import render_factsheet, render_html
    from euaia_assurance.triples import merge_stores

    stores, plan = inputs["stores"], inputs["plan"]
    reported, report = _timed(coverage_report, merge_stores(stores), inputs["registry"])
    tabulated, table = _timed(coverage_to_tsv, report)
    traced, traces = _timed(causal_trace, merge_stores(stores), inputs["attack"])
    store = merge_stores(stores)
    queried, found = _timed(store.query, inputs["patterns"])
    statuses = {status.duty_id: status.status.value for status in report}
    if statuses != plan.statuses or table.count("\n") != len(report) + 1 or len(traces) != plan.chains or not found:
        raise RuntimeError(f"{size}-node audit case: wrong statuses or table, {len(traces)} of {plan.chains} chains"
                           f" or {len(found)} query results")
    assembled = merge_stores(stores).assert_all(inputs["asserted"])
    rendered, markdown = _timed(render_factsheet, inputs["registry"], inputs["argument"], assembled)
    wrapped, page = _timed(render_html, markdown)
    if "\n## 6. Source provenance\n" not in markdown or not page.endswith("</html>\n"):
        raise RuntimeError(f"{size}-node audit case: the factsheet lacks its last section or the page its end")
    unit = "nodes per argument"
    return {
        "coverage_report": [size, unit, reported],
        "coverage_to_tsv": [size, unit, tabulated],
        "causal_trace": [size, unit, traced],
        "query": [len(store), "statements", queried],
        "render_factsheet": [size, unit, rendered],
        "render_html": [size, unit, wrapped],
    }


def _prepare_chains(size: int, stack: contextlib.ExitStack) -> dict:
    """The store of a chain G1 -> ... -> G<size> -> Sn1 of duty 1, whose solution Sn1 evidences atk:a1's defense."""
    from euaia_assurance.triples import import_triples

    statements = [f"<gsn:G{i}> <gsn:supportedBy> <gsn:G{i + 1}> ." for i in range(1, size)] + [
        f"<gsn:G{size}> <gsn:supportedBy> <gsn:Sn1> .",
        "<gsn:G1> <assures:operationalizes> <euaia:d1> .",
        "<gsn:Sn1> <rdf:type> <gsn:Solution> .",
        "<gsn:Sn1> <assures:evidencedBy> <def:d1> .",
        "<atk:a1> <assures:mitigatedBy> <def:d1> .",
    ]
    return {"store": import_triples(_generate()._triple_file(statements))}


def _run_chains(inputs: dict, size: int) -> dict:
    from euaia_assurance.coverage import causal_trace
    from euaia_assurance.triples import Iri, merge_stores

    traced, traces = _timed(causal_trace, merge_stores([inputs["store"]]), Iri("atk", "a1"))
    if [len(trace.hops) for trace in traces] != [size + 3]:
        raise RuntimeError(f"{size}-hop chain: {len(traces)} traces, not one of {size + 3} hops")
    return {"causal_trace": [size, "supportedBy hops", traced]}


def _prepare_diamonds(size: int, stack: contextlib.ExitStack) -> dict:
    """The registry, an argument of ``size`` diamond layers under G1, whose last join goal
    Sn1 supports, and the store of their triples."""
    from euaia_assurance.duties import load_registry, registry_to_triples
    from euaia_assurance.gsn import argument_to_triples, parse_gsn
    from euaia_assurance.triples import Store

    lines = ['goal G1 "top"', 'solution Sn1 "evidence"', f"edge G{3 * size + 1} -> Sn1 supportedBy"]
    for top in range(1, 3 * size, 3):
        lines += [f'goal G{top + k} "goal {top + k}"' for k in (1, 2, 3)]
        lines += [f"edge G{top} -> G{top + k} supportedBy" for k in (1, 2)]
        lines += [f"edge G{top + k} -> G{top + 3} supportedBy" for k in (1, 2)]
    argument = parse_gsn("\n".join(lines) + "\n")
    registry = load_registry()
    store = Store().assert_all(registry_to_triples(registry) + argument_to_triples(argument))
    return {"registry": registry, "argument": argument, "store": store}


def _run_diamonds(inputs: dict, size: int) -> dict:
    from euaia_assurance.factsheet import render_factsheet

    rendered, markdown = _timed(render_factsheet, inputs["registry"], inputs["argument"], inputs["store"])
    if "\n## 3. Argument summary\n\n```\nG1 (goal) top\n" not in markdown:
        raise RuntimeError(f"{size} diamond layers: the argument summary does not begin with the root goal")
    return {"render_factsheet": [size, "diamond layers", rendered]}


def _prepare_commands(size: int, stack: contextlib.ExitStack) -> dict:
    """The argv lists of the case-audit workload's commands, on a generated case."""
    tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
    plan = _generate().case_audit(SEED, tmp, size=size)
    store, links = str(tmp / "store.ttl"), str(tmp / "links.ttl")
    inputs = {"stage": "audit commands", "unit": "nodes per argument", "commands": [
        ["coverage", "report", store, links],
        ["coverage", "trace", store, links, "--attack", plan.attack],
        ["triples", "query", store, *plan.query],
        ["factsheet", "render", "--store", store, "--store", links, "--gsn", str(tmp / "factsheet.gsn"),
         "--format", "html"],
    ]}
    _run_commands(inputs, size)  # untimed: imports the handler modules
    return inputs


def _prepare_filter_commands(size: int, stack: contextlib.ExitStack) -> dict:
    """The argv lists of the filter workload's score and model classify commands, on generated files."""
    from euaia_assurance.prompt_filter import save_model, train_dynamic

    tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
    model, prompts = tmp / "model.jsonl", tmp / "prompts.txt"
    corpora = _corpora(_generate().TRAIN_PER_CLASS)
    model.write_text(save_model(train_dynamic(*corpora, bigrams=True)), encoding="utf-8")
    prompts.write_text("\n".join(_prompts(size)) + "\n", encoding="utf-8")
    inputs = {"stage": "filter commands", "unit": "prompts", "commands": [
        ["filter", "score", "--model", str(model), "--prompts-file", str(prompts)],
        ["filter", "classify", "--model", str(model), "--prompts-file", str(prompts)],
    ]}
    _run_commands(inputs, size)  # untimed: imports the handler module
    return inputs


def _run_commands(inputs: dict, size: int) -> dict:
    """The seconds the commands take together; each must exit 0 and write something."""
    from euaia_assurance import cli

    total = 0
    for argv in inputs["commands"]:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            seconds, status = _timed(cli.main, argv)
        if status != 0 or not out.getvalue():
            raise RuntimeError(f"{inputs['stage']} at size {size}: `{' '.join(argv[:2])}` exited {status}")
        total += seconds
    return {inputs["stage"]: [size, inputs["unit"], total]}


GROUPS = {  # name -> (prepare, run, sizes), in the order the stages are measured
    "startup": (_prepare_startup, _run_startup, (1,)),
    "gsn": (_prepare_gsn, _run_gsn, GSN_SIZES),
    "store": (_prepare_store, _run_store, STORE_SIZES),
    "train": (_prepare_train, _run_train, TRAIN_SIZES),
    "prompts": (_prepare_prompts, _run_prompts, PROMPT_SIZES),
    "audit": (_prepare_audit, _run_audit, AUDIT_SIZES),
    "chains": (_prepare_chains, _run_chains, CHAIN_SIZES),
    "diamonds": (_prepare_diamonds, _run_diamonds, DIAMOND_SIZES),
    "audit commands": (_prepare_commands, _run_commands, AUDIT_SIZES),
    "filter commands": (_prepare_filter_commands, _run_commands, PROMPT_SIZES),
}


def _serve() -> None:
    """Worker loop: for each request line ``[group, size, counting]`` on stdin,
    write one line of ``{stage: [size, unit, seconds or calls]}`` or ``{"error": ...}``.

    Only the inputs of the group and size last asked for are kept; they are
    dropped, and their files removed, before the next ones are built.
    """
    global _counting
    channel, sys.stdout = sys.stdout, sys.stderr  # stray prints must not reach the coordinator
    current, inputs, stack = None, None, contextlib.ExitStack()
    for line in sys.stdin:
        group, size, _counting = json.loads(line)
        try:
            prepare, run, _ = GROUPS[group]
            if current != (group, size):
                inputs = current = None
                stack.close()
                gc.collect()
                inputs, current = prepare(size, stack), (group, size)
            reply = run(inputs, size)
        except Exception as exc:  # reported to the coordinator, which stops
            traceback.print_exc()
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    stack.close()


# ----------------------------------------------------------------------
# coordinator side: one worker per tree, the trees taking turns


class _Worker:
    def __init__(self, label: str, tree: Path):
        self.label = label
        env = {k: v for k, v in os.environ.items() if k != "EUAIA_ASSURE_NAMESPACES"}
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--worker"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(env, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0"),
        )

    def ask(self, group: str, size: int, counting: bool = False) -> dict:
        self.process.stdin.write(json.dumps([group, size, counting]) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        reply = json.loads(line) if line else {"error": f"worker exited {self.process.wait()}"}
        if "error" in reply:
            raise SystemExit(f"{self.label}: {group} at size {size}: {reply['error']}")
        return reply

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


def _record(stage: str, size: int, unit: str, samples: list[float], calls: int | None) -> dict:
    return {
        "stage": stage,
        "size": size,
        "unit": unit,
        "repeats": len(samples),
        "median_s": round(statistics.median(samples), 6),
        "min_s": round(min(samples), 6),
        "samples_s": [round(seconds, 6) for seconds in samples],
        "calls": calls,
    }


def _report_pairs(samples: dict[str, dict[tuple, list[float]]], calls: dict[str, dict[tuple, int]],
                  base: str, other: str) -> None:
    """Print the paired per-round comparison of tree ``other`` against tree ``base``."""
    for (stage, size, unit), before in samples[base].items():
        after = samples[other][(stage, size, unit)]
        ratios = [b / a for a, b in zip(before, after)]
        q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else (ratios[0],) * 3
        faster = sum(b < a for a, b in zip(before, after))
        count = calls[base].get((stage, size, unit))
        counted = f", calls ratio {calls[other][(stage, size, unit)] / count:.3f}" if count else ""
        print(f"{stage} at {size} {unit}: {other}/{base} median ratio {median:.3f} [{q1:.3f}, {q3:.3f}],"
              f" {other} faster in {faster} of {len(before)} rounds{counted}", file=sys.stderr)


def _measure(workers: list[_Worker], repeats: int, groups: list[str]) -> tuple[dict, dict]:
    """Samples and call counts per tree label and (stage, size, unit) of the
    named groups, the trees interleaved; each count from one run after the timed ones."""
    samples: dict[str, dict[tuple, list[float]]] = {worker.label: {} for worker in workers}
    calls: dict[str, dict[tuple, int]] = {worker.label: {} for worker in workers}
    for group, (_, _, sizes) in GROUPS.items():
        if group not in groups:
            continue
        runs = STARTUP_RUNS if group == "startup" else repeats
        for size in sizes:
            for repeat in range(runs):
                for worker in workers if repeat % 2 == 0 else workers[::-1]:
                    for stage, (stage_size, unit, seconds) in worker.ask(group, size).items():
                        samples[worker.label].setdefault((stage, stage_size, unit), []).append(seconds)
            for worker in workers if group != "startup" else ():
                for stage, (stage_size, unit, count) in worker.ask(group, size, counting=True).items():
                    calls[worker.label][(stage, stage_size, unit)] = count
            print(f"measured {group} at size {size}", file=sys.stderr)
    return samples, calls


def _tree_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(src.rglob("*.py")):
        digest.update(file.relative_to(src).as_posix().encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def _commit(tree: Path) -> str | None:
    done = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH",
                        help="a source checkout to measure; repeat for each")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--group", action="append", choices=list(GROUPS), metavar="NAME",
                        help="measure only this group of stages; repeat for each (default: all)")
    parser.add_argument("-o", "--output", help="write the JSON here instead of standard output")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _serve()
        return 0
    if not args.tree:
        parser.error("give at least one --tree LABEL=PATH")
    trees = []
    for spec in args.tree:
        label, sep, path = spec.partition("=")
        if not sep:
            parser.error(f"--tree wants LABEL=PATH, got {spec!r}")
        trees.append((label, Path(path).resolve()))

    workers: list[_Worker] = []
    try:
        for label, tree in trees:
            workers.append(_Worker(label, tree))
        samples, calls = _measure(workers, args.repeats, args.group or list(GROUPS))
    finally:
        for worker in workers:
            worker.close()
    for label, _ in trees[1:]:
        _report_pairs(samples, calls, trees[0][0], label)
    records = []
    for label, tree in trees:
        identity = {
            "label": label,
            "python": platform.python_version(),
            "commit": _commit(tree),
            "src_sha256": _tree_digest(tree / "src" / "euaia_assurance"),
        }
        records.extend({**identity, **_record(*key, times, calls[label].get(key))}
                       for key, times in samples[label].items())
    text = json.dumps(records, indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
