"""Time ``parse_gsn`` and ``validate`` on generated arguments of 1,500,
3,000 and 6,000 nodes, ``import_triples`` on generated store text of
12,500, 25,000 and 50,000 statements, ``train_dynamic`` with bigrams on
1,000, 2,000 and 4,000 generated prompts per class, ``classify_static``
and ``score`` over 12,500, 25,000 and 50,000 generated prompts, and
``coverage_report``, ``causal_trace`` and the case-audit 3-pattern
``Store.query`` on audit stores generated with 200, 400 and 800 nodes per
argument (about 13,000, 26,000 and 50,000 statements), and the start-up time
of short commands, for one or more source trees, and write the records as
JSON.

    python3 tools/bench_stages.py --tree before=../old-checkout --tree after=. -o BENCH_7.json

Each tree is measured in its own subprocess with ``PYTHONPATH=<tree>/src``,
so no two trees share imported modules. The inputs come from
``bench/generate`` of this checkout, with a fixed seed, so every tree reads
the same texts: arguments from ``make_argument``, a store made like the
case-audit one (the statements of ``CASE_AUDIT_SIZE``-node arguments in
shuffled order under the generator's ``@prefix`` header), and prompts from
the filter workload's adversarial and benign generators. The prompt stages
work as the ``filter`` workload's commands do: ``classify_static`` checks each
prompt against the workload's blocklist, prepared once per run as the CLI
prepares it (``compile_blocklist`` where the tree has it, else the raw
entries), and ``score`` scores each prompt with a bigram model trained on
the workload's number of prompts per class. The coverage stages read the
``store.ttl`` and ``links.ttl`` that ``case_audit`` writes, merged as the
CLI merges them, and each run gets a new ``Store`` built outside the timed
call, so that the time includes the indexes the analysis builds; the trace
follows the case's planted attack, and the query stage's size is the
store's number of statements. The start-up stage spawns ``python -c pass``
and ``python -m euaia_assurance`` for ``duties list``, ``gsn validate`` on the
fixture argument and ``triples query`` on a fixture triple file, in turn,
``STARTUP_RUNS`` times each (``--repeats`` does not apply). The package runs
from a copy of its ``.py`` files with ``PYTHONDONTWRITEBYTECODE=1``, so no
cached bytecode of the tree is read and every command compiles the package
modules it imports, as in a fresh checkout; the interpreter's own cached
bytecode is read as usual. (An empty ``PYTHONPYCACHEPREFIX`` would hide
that too: ``python -c pass`` then compiles what ``site`` imports and takes
several times as long, which buries the package's share.) A record holds the
stage, the size and its unit, the median and minimum seconds over
``--repeats`` runs, the Python version, the tree's git commit (or null) and
a digest of its ``src/euaia_assurance``, which identifies uncommitted trees
too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GSN_SIZES = (1500, 3000, 6000)
STORE_SIZES = (12500, 25000, 50000)
TRAIN_SIZES = (1000, 2000, 4000)
PROMPT_SIZES = (12500, 25000, 50000)
AUDIT_SIZES = (200, 400, 800)  # nodes per argument; 800 is the case-audit workload's
SEED = 2
STARTUP_RUNS = 15
FIXTURES = ROOT / "fixtures"
STARTUP_COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "duties list": ["-m", "euaia_assurance", "duties", "list"],
    "gsn validate": ["-m", "euaia_assurance", "gsn", "validate", str(FIXTURES / "art15-5.gsn")],
    "triples query": ["-m", "euaia_assurance", "triples", "query", str(FIXTURES / "knowledge-links.ttl"),
                      "?s <rdf:type> ?o"],
}


def _generate():
    sys.dont_write_bytecode = True  # leave bench/ as checked out
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


def _audit_case(size: int) -> tuple:
    """The merged triples and namespaces of a generated audit case, and its plan."""
    from euaia_assurance.triples import import_triples

    with tempfile.TemporaryDirectory() as tmp:
        plan = _generate().case_audit(SEED, Path(tmp), size=size)
        stores = [import_triples((Path(tmp) / name).read_text(encoding="utf-8")) for name in ("store.ttl", "links.ttl")]
    namespaces = {**stores[0].namespaces, **stores[1].namespaces}
    return stores[0].triples | stores[1].triples, namespaces, plan


def _record(stage: str, size: int, unit: str, samples: list[float]) -> dict:
    return {
        "stage": stage,
        "size": size,
        "unit": unit,
        "repeats": len(samples),
        "median_s": round(statistics.median(samples), 6),
        "min_s": round(min(samples), 6),
    }


def _startup() -> list[dict]:
    """Wall time of each start-up command, run in turn ``STARTUP_RUNS`` times."""
    import euaia_assurance

    samples: dict[str, list[float]] = {name: [] for name in STARTUP_COMMANDS}
    with tempfile.TemporaryDirectory() as src:
        package = Path(euaia_assurance.__file__).parent
        shutil.copytree(package, Path(src) / package.name, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=src)
        for _ in range(STARTUP_RUNS):
            for name, argv in STARTUP_COMMANDS.items():
                start = time.perf_counter()
                done = subprocess.run([sys.executable, *argv], stdout=subprocess.DEVNULL, env=env, cwd=ROOT)
                samples[name].append(time.perf_counter() - start)
                if done.returncode != 0:
                    raise SystemExit(f"start-up command `{name}` exited {done.returncode}")
    return [_record(f"startup: {name}", 1, "process", times) for name, times in samples.items()]


def _measure(repeats: int) -> list[dict]:
    """Worker side: time the stages with the ``euaia_assurance`` on sys.path."""
    from euaia_assurance import prompt_filter
    from euaia_assurance.coverage import causal_trace, coverage_report
    from euaia_assurance.duties import load_registry
    from euaia_assurance.gsn import parse_gsn, validate
    from euaia_assurance.prompt_filter import ScriptClass, Verdict, classify_static, score, train_dynamic
    from euaia_assurance.triples import Iri, Store, import_triples, parse_pattern

    records = _startup()
    for size in GSN_SIZES:
        text = _argument_text(size)
        times: dict[str, list[float]] = {"parse_gsn": [], "validate": []}
        for _ in range(repeats):
            start = time.perf_counter()
            argument = parse_gsn(text)
            parsed = time.perf_counter()
            diagnostics = validate(argument)
            done = time.perf_counter()
            if len(argument.nodes) != size or diagnostics:
                raise SystemExit(f"{size}-node argument: {len(argument.nodes)} nodes, {diagnostics[:3]}")
            times["parse_gsn"].append(parsed - start)
            times["validate"].append(done - parsed)
        records.extend(_record(stage, size, "nodes", samples) for stage, samples in times.items())
    for size in STORE_SIZES:
        text = _store_text(size)
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            store = import_triples(text)
            samples.append(time.perf_counter() - start)
            if len(store) != size:
                raise SystemExit(f"{size}-statement store: {len(store)} triples")
        records.append(_record("import_triples", size, "statements", samples))
    for size in TRAIN_SIZES:
        adversarial, benign = _corpora(size)
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            train_dynamic(adversarial, benign, bigrams=True)
            samples.append(time.perf_counter() - start)
        records.append(_record("train_dynamic", size, "prompts per class", samples))
    generate = _generate()
    entries = [*generate.BLOCKLIST, *map(ScriptClass, generate.BLOCK_SCRIPTS)]
    prepare = getattr(prompt_filter, "compile_blocklist", list)
    model = train_dynamic(*_corpora(generate.TRAIN_PER_CLASS), bigrams=True)
    for size in PROMPT_SIZES:
        prompts = _prompts(size)
        times = {"classify_static": [], "score": []}
        for _ in range(repeats):
            start = time.perf_counter()
            blocklist = prepare(entries)
            flagged = sum(classify_static(blocklist, prompt)[0] is Verdict.ADVERSARIAL for prompt in prompts)
            classified = time.perf_counter()
            for prompt in prompts:
                score(model, prompt)
            times["classify_static"].append(classified - start)
            times["score"].append(time.perf_counter() - classified)
            if not 0 < flagged < size:
                raise SystemExit(f"{size} prompts: {flagged} flagged by the blocklist")
        records.extend(_record(stage, size, "prompts", samples) for stage, samples in times.items())
    registry = load_registry()
    for size in AUDIT_SIZES:
        triples, namespaces, plan = _audit_case(size)
        attack = Iri.parse(plan.attack)
        patterns = [parse_pattern(pattern) for pattern in plan.query]
        times = {"coverage_report": [], "causal_trace": []}
        queried = []
        for _ in range(repeats):
            store = Store(triples, namespaces)
            start = time.perf_counter()
            report = coverage_report(store, registry)
            times["coverage_report"].append(time.perf_counter() - start)
            store = Store(triples, namespaces)
            start = time.perf_counter()
            traces = causal_trace(store, attack)
            times["causal_trace"].append(time.perf_counter() - start)
            store = Store(triples, namespaces)
            start = time.perf_counter()
            found = store.query(patterns)
            queried.append(time.perf_counter() - start)
            statuses = {status.duty_id: status.status.value for status in report}
            if statuses != plan.statuses or len(traces) != plan.chains or not found:
                raise SystemExit(f"{size}-node audit case: wrong statuses, {len(traces)} of {plan.chains} chains"
                                 f" or {len(found)} query results")
        records.extend(_record(stage, size, "nodes per argument", samples) for stage, samples in times.items())
        records.append(_record("query", len(triples), "statements", queried))
    return records


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
    parser.add_argument("-o", "--output", help="write the JSON here instead of standard output")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        json.dump(_measure(args.repeats), sys.stdout)
        return 0
    if not args.tree:
        parser.error("give at least one --tree LABEL=PATH")

    records = []
    for spec in args.tree:
        label, sep, path = spec.partition("=")
        if not sep:
            parser.error(f"--tree wants LABEL=PATH, got {spec!r}")
        tree = Path(path).resolve()
        done = subprocess.run(
            [sys.executable, __file__, "--worker", "--repeats", str(args.repeats)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        )
        if done.returncode != 0:
            raise SystemExit(f"{label}: worker failed:\n{done.stderr}")
        identity = {
            "label": label,
            "python": platform.python_version(),
            "commit": _commit(tree),
            "src_sha256": _tree_digest(tree / "src" / "euaia_assurance"),
        }
        records.extend({**identity, **record} for record in json.loads(done.stdout))
        print(f"{label}: measured {tree}", file=sys.stderr)
    text = json.dumps(records, indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
