"""The package and the CLI load a submodule only when it is used.

The footprint and tracer checks run in a fresh interpreter, so that no
module imported by the test session (or another test) hides an import.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from euaia_assurance.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GSN = str(FIXTURES / "art15-5.gsn")
HANDLER_MODULES = {"duties", "gsn", "prompt_filter", "coverage", "factsheet"}


def test_the_package_defines_only_its_version():
    import euaia_assurance

    for name in ("Store", "parse_gsn", "__all__"):
        assert not hasattr(euaia_assurance, name), name


def test_moved_enumerations_keep_their_old_homes():
    from euaia_assurance import duties, prompt_filter, vocab

    assert duties.StakeholderCode is vocab.StakeholderCode
    assert prompt_filter.ScriptClass is vocab.ScriptClass


def test_unknown_attribute_names_itself():
    import euaia_assurance
    from euaia_assurance import cli

    for module in (euaia_assurance, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_submodules_import_through_the_package():
    from euaia_assurance import vocab
    from euaia_assurance.triples import Iri

    assert vocab.RDF_TYPE == Iri("rdf", "type")


def _fresh(code: str, *args: str) -> str:
    """Run code in a new interpreter with this checkout's src first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, cwd=ROOT, check=True
    )
    return done.stdout


FOOTPRINT = """
import contextlib, io, json, sys
from euaia_assurance import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
loaded = sorted(m.rpartition(".")[2] for m in sys.modules if m.startswith("euaia_assurance."))
print(json.dumps({"status": status, "loaded": loaded}))
"""


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """A model and a merged store made from the fixtures, as the README walkthrough makes them."""
    out = tmp_path_factory.mktemp("startup")
    ttl = [str(FIXTURES / name) for name in ("knowledge-links.ttl", "dynamic-links.ttl")]
    model, store, argument = str(out / "model.jsonl"), str(out / "store.ttl"), str(out / "argument.ttl")
    with open(argument, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
        assert main(["gsn", "triples", GSN]) == 0
    assert main(["triples", "import", argument, *ttl, "--with-registry", "-o", store]) == 0
    assert main(["filter", "train", "--adversarial", str(FIXTURES / "toy-adversarial.txt"),
                 "--benign", str(FIXTURES / "toy-benign.txt"), "-o", model]) == 0
    return {"model": model, "store": store, "ttl": ttl, "prompts": str(FIXTURES / "adversarial.txt"),
            "labeled": str(FIXTURES / "toy-labeled.txt")}


def _commands(case) -> list[tuple[list[str], set[str], set[str]]]:
    """(argv, modules it must load, modules it must not load)."""
    not_filter = {"prompt_filter", "factsheet", "coverage", "duties"}
    not_gsn = {"gsn", "coverage", "factsheet", "duties"}
    prompts = ["--prompts-file", case["prompts"]]
    return [
        *((["gsn", sub, GSN], {"gsn"}, not_filter) for sub in ("validate", "triples", "dot", "format")),
        (["filter", "train", "--adversarial", str(FIXTURES / "toy-adversarial.txt"), "--benign",
          str(FIXTURES / "toy-benign.txt"), "-o", os.devnull], {"prompt_filter"}, not_gsn),
        (["filter", "score", "--model", case["model"], *prompts], {"prompt_filter"}, not_gsn),
        (["filter", "classify", "--model", case["model"], *prompts], {"prompt_filter"}, not_gsn),
        (["filter", "classify", "--block-script", "Cyrillic", *prompts], {"prompt_filter"}, not_gsn),
        (["filter", "eval", "--model", case["model"], "--corpus", case["labeled"]], {"prompt_filter"}, not_gsn),
        (["triples", "query", case["store"], "?s <rdf:type> ?o"], set(), HANDLER_MODULES),
        (["triples", "export", case["store"]], set(), HANDLER_MODULES),
        (["factsheet", "render", *(f"--store={path}" for path in case["ttl"]), "--gsn", GSN],
         {"factsheet", "coverage", "gsn", "duties"}, {"prompt_filter"}),
        (["factsheet", "render", *(f"--store={path}" for path in case["ttl"]), "--gsn", GSN, "--model", case["model"],
          "--eval-corpus", case["labeled"]], {"factsheet", "prompt_filter"}, set()),
    ]


def test_importing_the_package_loads_no_submodule():
    code = "import sys, euaia_assurance; print(sorted(m for m in sys.modules if m.startswith('euaia_assurance.')))"
    assert _fresh(code).strip() == "[]"


def test_each_command_loads_only_the_modules_it_runs(case):
    for argv, needed, unused in _commands(case):
        result = json.loads(_fresh(FOOTPRINT, *argv))
        assert result["status"] == 0, argv
        loaded = set(result["loaded"])
        assert needed <= loaded, (argv, loaded)
        assert not unused & loaded, (argv, loaded)


TRACED = """
import contextlib, io, json, sys
sys.dont_write_bytecode = True  # leave bench/ as checked out
sys.path.insert(0, "bench")
from tracing import Tracer
import euaia_assurance
from euaia_assurance import cli

warm, commands = json.loads(sys.argv[1]), json.loads(sys.argv[2])
tracer = Tracer()
with contextlib.redirect_stdout(io.StringIO()):
    if warm:
        for argv in commands:
            cli.main(argv)
    with tracer.patched(euaia_assurance):
        statuses = [tracer.command(lambda: cli.main(argv)) for argv in commands]
times, counts, _ = tracer.take_pass()
print(json.dumps({"statuses": statuses, "times": times, "counts": counts}))
"""


@pytest.mark.parametrize("warm", [False, True], ids=["patched-first", "run-first"])
def test_benchmark_tracer_sees_the_lazy_cli(case, warm):
    """The benchmark's tracer patches names on cli; binding must keep its wrappers."""
    commands = [
        ["gsn", "validate", GSN],
        ["filter", "score", "--model", case["model"], "--prompts-file", case["prompts"]],
        ["coverage", "trace", case["store"], "--attack", "atk:charCombo"],
    ]
    result = json.loads(_fresh(TRACED, json.dumps(warm), json.dumps(commands)))
    assert result["statuses"] == [0, 0, 0]
    times, counts = result["times"], result["counts"]
    for span in ("gsn.parse_gsn", "gsn.validate", "prompt_filter.load_model", "triples.import_triples",
                 "coverage.causal_trace"):
        assert times[f"{span}.total_s"] > 0, span
    prompts = len((FIXTURES / "adversarial.txt").read_text(encoding="utf-8").splitlines())
    assert counts["prompt_filter.score"] == prompts
    assert counts["gsn.parse_gsn.nodes"] > 0
    assert counts["coverage.causal_trace.chains"] > 0
