from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euaia_assurance import cli, triples
from euaia_assurance.cli import main
from euaia_assurance.duties import load_registry, registry_to_triples
from euaia_assurance.gsn import argument_to_triples, parse_gsn
from euaia_assurance.triples import Store, import_triples

from conftest import FIXTURES

GSN = str(FIXTURES / "art15-5.gsn")
LINKS = str(FIXTURES / "knowledge-links.ttl")
DYNAMIC = str(FIXTURES / "dynamic-links.ttl")
TOY_ADV = str(FIXTURES / "toy-adversarial.txt")
TOY_BEN = str(FIXTURES / "toy-benign.txt")
TOY_LABELED = str(FIXTURES / "toy-labeled.txt")
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def argument_ttl(tmp_path, capsys):
    path = tmp_path / "argument.ttl"
    code, out, _ = run(capsys, "gsn", "triples", GSN)
    assert code == 0
    path.write_text(out, encoding="utf-8")
    return str(path)


@pytest.fixture()
def store_ttl(tmp_path, capsys, argument_ttl):
    path = tmp_path / "store.ttl"
    code, _, err = run(
        capsys, "triples", "import", argument_ttl, LINKS,
        "--with-registry", "-o", str(path),
    )
    assert code == 0, err
    return str(path)


@pytest.fixture()
def toy_model_file(tmp_path, capsys):
    path = tmp_path / "model.jsonl"
    code, _, err = run(
        capsys, "filter", "train",
        "--adversarial", TOY_ADV, "--benign", TOY_BEN, "-o", str(path),
    )
    assert code == 0, err
    return str(path)


# ----------------------------------------------------------------------
# duties


def test_duties_list(capsys):
    code, out, err = run(capsys, "duties", "list")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 23
    assert lines[8].startswith("9\t15.5\tA\t")
    assert err == ""


def test_duties_list_stakeholder_c(capsys):
    code, out, _ = run(capsys, "duties", "list", "--stakeholder", "C")
    assert code == 0
    assert [line.split("\t")[0] for line in out.strip().split("\n")] == [
        "12", "13", "14", "23",
    ]


def test_duties_list_stakeholder_a_notes_the_count(capsys):
    code, out, err = run(capsys, "duties", "list", "--stakeholder", "A")
    assert code == 0
    assert len(out.strip().split("\n")) == 14
    assert "fifteen" in err


def test_duties_list_jsonl(capsys):
    code, out, _ = run(capsys, "duties", "list", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert len(rows) == 23
    assert rows[8]["articles"] == [{"article": 15, "paragraph": 5, "annex": None}]


# ----------------------------------------------------------------------
# gsn


def test_gsn_validate_clean_fixture(capsys):
    code, out, _ = run(capsys, "gsn", "validate", GSN)
    assert code == 0
    assert out == "ok: 10 nodes, 9 edges\n"


def test_gsn_validate_warnings_exit_zero(tmp_path, capsys):
    path = tmp_path / "warn.gsn"
    path.write_text('goal G1 "unsupported goal"\n', encoding="utf-8")
    code, out, _ = run(capsys, "gsn", "validate", str(path))
    assert code == 0
    assert out.startswith("warning: G1:")


def test_gsn_validate_errors_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.gsn"
    path.write_text(
        'goal G1 "a" undeveloped\nstrategy S1 "floating"\nedge G1 -> S1 supportedBy\n',
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "gsn", "validate", str(path))
    assert code == 1
    assert out.startswith("error: S1:")


def test_gsn_parse_failure_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.gsn"
    path.write_text("widget W1\n", encoding="utf-8")
    code, _, err = run(capsys, "gsn", "validate", str(path))
    assert code == 1
    assert err.startswith(f"error: {path}: line 1")


def test_gsn_dot(capsys):
    code, out, _ = run(capsys, "gsn", "dot", GSN)
    assert code == 0
    assert out.startswith("digraph gsn {\n")
    assert out.rstrip().endswith("}")


def test_gsn_format_is_idempotent(tmp_path, capsys):
    scrambled = tmp_path / "scrambled.gsn"
    lines = (FIXTURES / "art15-5.gsn").read_text(encoding="utf-8").strip().split("\n")
    scrambled.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "gsn", "format", str(scrambled))
    assert code == 0
    assert out == (FIXTURES / "art15-5.gsn").read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# triples


def test_triples_export_canonicalizes(tmp_path, capsys):
    shuffled = tmp_path / "shuffled.ttl"
    original = (FIXTURES / "knowledge-links.ttl").read_text(encoding="utf-8")
    lines = original.strip().split("\n")
    header = [line for line in lines if line.startswith("@prefix")]
    body = [line for line in lines if not line.startswith("@prefix")]
    shuffled.write_text("\n".join(list(reversed(body)) + header) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "triples", "export", str(shuffled))
    assert code == 0
    assert out == original


def test_triples_import_merges(store_ttl):
    store = import_triples(Path(store_ttl).read_text(encoding="utf-8"))
    assert len(store) == 135  # registry 98 + argument 30 + links 7


def test_triples_query_bindings(capsys, store_ttl):
    code, out, _ = run(
        capsys, "triples", "query", store_ttl, "?g <assures:operationalizes> ?d .",
    )
    assert code == 0
    assert out == "?d=<euaia:d9> ?g=<gsn:G1>\n"


def test_triples_query_ground_true(capsys, store_ttl):
    code, out, _ = run(
        capsys, "triples", "query", store_ttl,
        "<atk:charCombo> <rdf:type> <assures:Attack> .",
    )
    assert code == 0
    assert out == "true\n"


def test_triples_query_no_results(capsys, store_ttl):
    code, out, _ = run(
        capsys, "triples", "query", store_ttl, "?x <assures:rebuttedBy> ?y .",
    )
    assert code == 0
    assert out == ""


def test_triples_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text("<atk:a> <rdf:type>\n", encoding="utf-8")
    code, _, err = run(capsys, "triples", "export", str(bad))
    assert code == 1
    assert err.startswith(f"error: {bad}: line 1")


@pytest.mark.parametrize("pattern", ["?s rdf:type\x0b?o", "?s\r?p ?o", "?s ?p ?o\n.", "\u00a0?s ?p ?o"])
def test_triples_query_malformed_pattern_exits_one(capsys, store_ttl, pattern):
    code, out, err = run(capsys, "triples", "query", store_ttl, pattern)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert "unexpected character" in err


def test_triples_query_pattern_error_names_its_column(capsys, store_ttl):
    code, out, err = run(capsys, "triples", "query", store_ttl, "?s <rdf:type ?o")
    assert (code, out, err) == (1, "", "error: pattern 1: column 4: unterminated '<'\n")


def test_triples_query_names_the_pattern_that_failed(capsys, store_ttl):
    code, out, err = run(capsys, "triples", "query", store_ttl, "?a ?b ?c", "?a rdf:type x y", "?a ?b ?c")
    assert (code, out, err) == (1, "", "error: pattern 2: column 13: not a prefix:local CURIE: 'x'\n")


def test_triples_query_iri_with_a_trailing_newline_exits_one(capsys, store_ttl):
    code, out, err = run(capsys, "triples", "query", store_ttl, "?s <rdf:type\n> ?o")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "invalid local name" in err


@pytest.mark.parametrize("pattern", ["?s ex:p ?o", '?s ?p "x"^^<ex:dt>'])
def test_triples_query_rejects_a_prefix_the_store_does_not_declare(capsys, store_ttl, pattern):
    """Every stored triple's prefixes are declared, so such a pattern could never match."""
    code, out, err = run(capsys, "triples", "query", store_ttl, "?s ?p ?o", pattern)
    assert (code, out, err) == (1, "", "error: pattern 2: undeclared namespace prefix 'ex'\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["triples", "query", "BAD", "?s <rdf:type ?o"], "pattern 1: column 4: unterminated '<'"),
        (["coverage", "trace", "BAD", "--attack", "charCombo"], "not a prefix:local CURIE: 'charCombo'"),
    ],
)
def test_arguments_are_checked_before_any_file_is_read(capsys, tmp_path, argv, message):
    bad = tmp_path / "bad.ttl"
    bad.write_text("x\n", encoding="utf-8")
    argv = [str(bad) if arg == "BAD" else arg for arg in argv]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


# ----------------------------------------------------------------------
# filter


def test_filter_train_reports_threshold(capsys, toy_model_file):
    header = json.loads(Path(toy_model_file).read_text(encoding="utf-8").splitlines()[0])
    assert header["format"] == "charfilter/1"
    assert header["provenance"]["corpora"] == ["toy-adversarial", "toy-benign"]


def test_filter_score(capsys, toy_model_file):
    code, out, _ = run(capsys, "filter", "score", "--model", toy_model_file, "!x!", "xy")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "0.849815\t!x!"
    assert lines[1] == "-0.569717\txy"


@pytest.mark.parametrize(
    "model",
    ['{"format": "charfilter/1"}\n', '{"format": "charfilter/1", "alpha": 1, "vocab_size": 2, '
     '"oov_score": 0, "threshold": 0}\n{"char": "x", "llr": 1}\n'],
)
def test_filter_score_malformed_model_exits_one(tmp_path, capsys, model):
    path = tmp_path / "model.jsonl"
    path.write_text(model, encoding="utf-8")
    code, out, err = run(capsys, "filter", "score", "--model", str(path), "xy")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: line ")


def test_filter_classify_dynamic(capsys, toy_model_file):
    code, out, _ = run(
        capsys, "filter", "classify", "--model", toy_model_file, "!x!", "xy", "yy",
    )
    assert code == 0
    assert out == "A\t!x!\nB\txy\nB\tyy\n"


def test_filter_classify_static(capsys):
    code, out, _ = run(
        capsys, "filter", "classify", "--blocklist", "!", "hi there", "stop!",
    )
    assert code == 0
    assert out == "B\thi there\nA\tstop!\n"


def test_filter_classify_block_script(capsys):
    code, out, _ = run(
        capsys, "filter", "classify", "--block-script", "Cyrillic", "pаypal", "paypal",
    )
    assert code == 0
    assert out == "A\tpаypal\nB\tpaypal\n"


def test_filter_classify_requires_a_filter(capsys):
    code, _, err = run(capsys, "filter", "classify", "prompt")
    assert code == 2
    assert "required" in err


def test_filter_classify_rejects_both_filters(capsys, toy_model_file):
    code, _, err = run(
        capsys, "filter", "classify", "--model", toy_model_file,
        "--blocklist", "!", "prompt",
    )
    assert code == 2


def test_filter_eval(capsys, toy_model_file):
    code, out, _ = run(
        capsys, "filter", "eval", "--model", toy_model_file, "--corpus", TOY_LABELED,
    )
    assert code == 0
    assert out == (
        "tpr=1.0000\nfpr=0.0000\nprecision=1.0000\nauc=1.0000\n"
        "adversarial=2 benign=2\n"
    )


def test_filter_prompts_file(capsys, toy_model_file):
    code, out, _ = run(
        capsys, "filter", "classify", "--model", toy_model_file,
        "--prompts-file", TOY_ADV,
    )
    assert code == 0
    assert out == "A\t!x!\nA\t!!y\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["score", "--model", "MODEL"], "-0.223144\tabc\n"),
        (["classify", "--blocklist", "x"], "B\tabc\n"),
    ],
)
def test_filter_output_streams_lines_before_an_error(capsys, toy_model_file, argv, line):
    argv = [toy_model_file if arg == "MODEL" else arg for arg in argv]
    code, out, err = run(capsys, "filter", *argv, "abc", "")
    assert (code, out) == (1, line)
    assert err.startswith("error: ")


def test_corpus_files_end_lines_at_crlf_or_lf_only(tmp_path, capsys, toy_model_file):
    prompts = tmp_path / "prompts.txt"
    prompts.write_bytes(b"abc\rdef\nstop!\r\nx\r")
    code, out, _ = run(capsys, "filter", "classify", "--blocklist", "!", "--prompts-file", str(prompts))
    assert (code, out) == (0, "B\tabc\rdef\nA\tstop!\nB\tx\r\n")

    crlf = tmp_path / "labeled.txt"
    crlf.write_bytes((FIXTURES / "toy-labeled.txt").read_bytes().replace(b"\n", b"\r\n"))
    lf_result = run(capsys, "filter", "eval", "--model", toy_model_file, "--corpus", TOY_LABELED)
    assert run(capsys, "filter", "eval", "--model", toy_model_file, "--corpus", str(crlf)) == lf_result

    for name in ("toy-adversarial.txt", "toy-benign.txt"):  # same file stems, same provenance
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes().replace(b"\n", b"\r\n"))
    model = tmp_path / "crlf.jsonl"
    code, _, _ = run(
        capsys, "filter", "train", "--adversarial", str(tmp_path / "toy-adversarial.txt"),
        "--benign", str(tmp_path / "toy-benign.txt"), "-o", str(model),
    )
    assert code == 0
    assert model.read_bytes() == Path(toy_model_file).read_bytes()


# ----------------------------------------------------------------------
# coverage


def test_coverage_report(capsys, store_ttl):
    code, out, _ = run(capsys, "coverage", "report", store_ttl)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "duty\tstatus\tsolutions\tcounterclaims"
    assert lines[9] == "9\tcontested\tgsn:Sn1\tgsn:CC1"


@pytest.fixture(scope="module")
def walkthrough_store(tmp_path_factory) -> Path:
    """The README walkthrough's store: registry, argument and both link files."""
    directory = tmp_path_factory.mktemp("walkthrough")
    argument = directory / "argument.ttl"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["gsn", "triples", GSN]) == 0
    argument.write_text(out.getvalue(), encoding="utf-8")
    store = directory / "store.ttl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["triples", "import", str(argument), LINKS, DYNAMIC, "--with-registry", "-o", str(store)]) == 0
    return store


def _audit_outputs(stores: list[str], whole: str) -> list[str]:
    """The stdout of each audit command over ``stores``; ``triples query``,
    which reads one file, reads ``whole``."""
    commands = [
        ["coverage", "report", *stores],
        ["coverage", "trace", *stores, "--attack", "atk:charCombo"],
        ["triples", "query", whole, "?a <assures:mitigatedBy> ?d", "?s <assures:evidencedBy> ?d",
         "?g <gsn:supportedBy> ?s"],
        ["factsheet", "render", *(f"--store={store}" for store in stores), "--gsn", GSN, "--format", "md"],
    ]
    outputs = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0, argv
        outputs.append(out.getvalue())
    return outputs


@pytest.fixture(scope="module")
def walkthrough_outputs(walkthrough_store) -> list[str]:
    outputs = _audit_outputs([str(walkthrough_store)], str(walkthrough_store))
    assert "\ntrace 2:\n" in outputs[1] and outputs[2].count("\n") > 1
    return outputs


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_audit_commands_ignore_line_order_and_file_splits(walkthrough_store, walkthrough_outputs, data):
    """Each store file carries the whole ``@prefix`` header; the statement
    lines are permuted, then cut into two files."""
    lines = walkthrough_store.read_text(encoding="utf-8").rstrip("\n").split("\n")
    header = [line for line in lines if line.startswith("@prefix")]
    body = data.draw(st.permutations([line for line in lines if not line.startswith("@prefix")]))
    cut = data.draw(st.integers(0, len(body)))
    with tempfile.TemporaryDirectory() as directory:
        paths = []
        for name, part in [("whole", body), ("first", body[:cut]), ("second", body[cut:])]:
            paths.append(os.path.join(directory, f"{name}.ttl"))
            Path(paths[-1]).write_text("\n".join(header + part) + "\n", encoding="utf-8")
        whole, first, second = paths
        assert _audit_outputs([first, second], whole) == walkthrough_outputs


def test_coverage_report_multiple_files(capsys, argument_ttl):
    registry_only = run(capsys, "coverage", "report", argument_ttl, LINKS)
    # registry triples absent: refuse
    assert registry_only[0] == 1


def test_coverage_of_a_node_with_two_types_ignores_the_hash_seed(tmp_path, store_ttl):
    # Sn1 is a goal and a solution: it counts as the solution, whatever the set order
    extra = tmp_path / "extra.ttl"
    extra.write_text("<gsn:Sn1> <rdf:type> <gsn:Goal> .\n", encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in range(1, 11):
        done = subprocess.run(
            [sys.executable, "-m", "euaia_assurance", "coverage", "report", store_ttl, DYNAMIC, str(extra)],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        )
        outputs.add(done.stdout)
    (out,) = outputs
    assert out.split("\n")[9] == "9\tcontested\tgsn:Sn1,gsn:Sn2\tgsn:CC1"


def test_coverage_trace(capsys, store_ttl):
    code, out, _ = run(
        capsys, "coverage", "trace", store_ttl, "--attack", "atk:charCombo",
    )
    assert code == 0
    assert out.startswith("trace 1:\n")
    assert "  <atk:charCombo> <assures:mitigatedBy> <def:staticFilter> .\n" in out
    assert out.rstrip().endswith("<gsn:G1> <assures:operationalizes> <euaia:d9> .")


def test_coverage_trace_two_defenses(capsys, store_ttl, tmp_path):
    merged = tmp_path / "merged.ttl"
    code, _, _ = run(
        capsys, "triples", "import", store_ttl, DYNAMIC, "-o", str(merged),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "coverage", "trace", str(merged), "--attack", "atk:charCombo",
    )
    assert code == 0
    assert "trace 1:" in out and "trace 2:" in out


def test_evidence_on_a_goal_is_neither_counted_nor_traced(capsys, argument_ttl, tmp_path):
    # the walkthrough store with the static filter's evidencedBy triple moved
    # from the solution Sn1 to the goal G1: only Sn2 holds evidence
    links = tmp_path / "links.ttl"
    evidence = "<assures:evidencedBy> <def:staticFilter> ."
    text = Path(LINKS).read_text(encoding="utf-8")
    assert f"<gsn:Sn1> {evidence}" in text
    links.write_text(text.replace(f"<gsn:Sn1> {evidence}", f"<gsn:G1> {evidence}"), encoding="utf-8")
    store = tmp_path / "store.ttl"
    argv = ["triples", "import", argument_ttl, str(links), DYNAMIC, "--with-registry", "-o", str(store)]
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, "coverage", "report", str(store))
    assert (code, out.split("\n")[9]) == (0, "9\tcontested\tgsn:Sn2\tgsn:CC1")
    code, out, _ = run(capsys, "coverage", "trace", str(store), "--attack", "atk:charCombo")
    assert code == 0
    assert out.startswith("trace 1:\n") and "trace 2:" not in out and f"<gsn:G1> {evidence}" not in out
    assert "  <gsn:Sn2> <assures:evidencedBy> <def:dynamicFilter> .\n" in out


def _chain_files(capsys, tmp_path, goals: int) -> tuple[str, str]:
    """The triples of a chain G1 -> ... -> G<goals> -> Sn1 of duty 9, and links
    from atk:a1 through def:d1 to Sn1."""
    lines = [f'goal G{i} "goal {i}"' for i in range(1, goals + 1)] + ['solution Sn1 "evidence"']
    lines += [f"edge G{i} -> G{i + 1} supportedBy" for i in range(1, goals)]
    lines += [f"edge G{goals} -> Sn1 supportedBy", "duty euaia:d9"]
    chain = tmp_path / "chain.gsn"
    chain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "gsn", "triples", str(chain))
    assert code == 0
    argument = tmp_path / "chain.ttl"
    argument.write_text(out, encoding="utf-8")
    links = tmp_path / "links.ttl"
    links.write_text(
        "<atk:a1> <assures:mitigatedBy> <def:d1> .\n<gsn:Sn1> <assures:evidencedBy> <def:d1> .\n",
        encoding="utf-8",
    )
    return str(argument), str(links)


def test_trace_and_report_agree_on_a_chain_past_twelve_goals(capsys, tmp_path):
    argument, links = _chain_files(capsys, tmp_path, 13)
    code, out, err = run(capsys, "coverage", "trace", argument, links, "--attack", "atk:a1")
    assert (code, err) == (0, "")
    assert out.startswith("trace 1:\n  <atk:a1> <assures:mitigatedBy> <def:d1> .\n")
    assert out.endswith("  <gsn:G1> <assures:operationalizes> <euaia:d9> .\n")
    assert out.count("\n") == 1 + 16 and "trace 2:" not in out
    store = tmp_path / "store.ttl"
    assert run(capsys, "triples", "import", argument, links, "--with-registry", "-o", str(store))[0] == 0
    code, out, _ = run(capsys, "coverage", "report", str(store))
    assert code == 0
    assert out.split("\n")[9] == "9\tcovered\tgsn:Sn1\t"


def test_coverage_trace_follows_a_deep_chain(capsys, tmp_path):
    # deeper than the recursion limit: the trace climbs with a stack
    argument, links = _chain_files(capsys, tmp_path, 2000)
    code, out, err = run(capsys, "coverage", "trace", argument, links, "--attack", "atk:a1")
    assert (code, err) == (0, "")
    assert out.startswith("trace 1:\n") and "trace 2:" not in out
    assert out.count("\n") == 1 + 2003


def test_coverage_trace_unknown_attack(capsys, store_ttl):
    code, _, err = run(capsys, "coverage", "trace", store_ttl, "--attack", "atk:nope")
    assert code == 1
    assert "atk:nope" in err


# ----------------------------------------------------------------------
# factsheet


def test_factsheet_render_markdown(capsys, toy_model_file):
    code, out, _ = run(
        capsys, "factsheet", "render",
        "--store", LINKS, "--store", DYNAMIC, "--gsn", GSN,
        "--model", toy_model_file, "--eval-corpus", TOY_LABELED,
    )
    assert code == 0
    assert out.startswith("# Robustness Assurance Factsheet\n")
    assert "| 9 | 15.5 |" in out


def test_factsheet_render_is_byte_stable(capsys, tmp_path, toy_model_file):
    argv = [
        "factsheet", "render",
        "--store", LINKS, "--gsn", GSN,
        "--model", toy_model_file, "--eval-corpus", TOY_LABELED,
    ]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second == (0, first[1], "")


def test_factsheet_render_html_file(capsys, tmp_path, toy_model_file):
    out_path = tmp_path / "factsheet.html"
    code, out, _ = run(
        capsys, "factsheet", "render", "--store", LINKS, "--gsn", GSN,
        "--format", "html", "-o", str(out_path),
    )
    assert code == 0
    assert out == f"wrote {out_path}\n"
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("<!DOCTYPE html>")
    assert text.count("<tr>") == 24


@pytest.mark.parametrize("fmt", ["md", "html"])
def test_factsheet_system_name_stays_on_one_line(capsys, fmt):
    code, out, _ = run(
        capsys, "factsheet", "render", "--store", LINKS, "--gsn", GSN,
        "--system", "Acme\n## 7. Injected", "--format", fmt,
    )
    assert code == 0
    if fmt == "md":
        assert sum(line.startswith("## ") for line in out.split("\n")) == 6
        assert "- System: Acme\\n## 7. Injected\n" in out
    else:
        assert out.count("<h2>") == 6
        assert "<li>System: Acme\\n## 7. Injected</li>" in out


def test_factsheet_refuses_mismatched_inputs(capsys, tmp_path):
    # argument whose duty link exists but whose triples are absent from the
    # assembled store cannot happen through the CLI (it asserts them), so
    # drive the refusal with a duty link outside the registry
    bad = tmp_path / "bad.gsn"
    bad.write_text('goal G1 "g" undeveloped\nduty euaia:d99\n', encoding="utf-8")
    code, _, err = run(capsys, "factsheet", "render", "--gsn", str(bad))
    assert code == 1
    assert "euaia:d99" in err


def test_factsheet_renders_a_deep_argument(capsys, tmp_path):
    # deeper than the recursion limit: the argument tree walks with a stack
    size = 2000
    lines = [f'goal G{i} "goal {i}"' for i in range(1, size)] + [f'goal G{size} "goal {size}" undeveloped']
    lines += [f"edge G{i} -> G{i + 1} supportedBy" for i in range(1, size)]
    chain = tmp_path / "chain.gsn"
    chain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "factsheet", "render", "--gsn", str(chain))
    assert (code, err) == (0, "")
    assert f"\n{'  ' * (size - 1)}G{size} (goal) goal {size} [undeveloped]\n```\n" in out


def test_factsheet_model_requires_eval_corpus(capsys, toy_model_file):
    code, _, err = run(
        capsys, "factsheet", "render", "--model", toy_model_file,
    )
    assert code == 2


# ----------------------------------------------------------------------
# plumbing


def test_usage_errors_exit_two(capsys, toy_model_file, tmp_path):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "duties")[0] == 2
    # errors found after parsing print the usage of their own command, and
    # come before any input file is read
    bad_store, missing = tmp_path / "bad.ttl", str(tmp_path / "missing.jsonl")
    bad_store.write_text("not a statement\n", encoding="utf-8")
    for argv in (
        ["filter", "score", "--model", toy_model_file],
        ["filter", "classify", "--model", toy_model_file, "--blocklist", "!", "hello"],
        ["filter", "classify", "hello"],
        ["factsheet", "render", "--model", toy_model_file],
        ["factsheet", "render", "--store", str(bad_store), "--model", toy_model_file],
        ["filter", "score", "--model", missing],
        ["filter", "classify", "--model", missing],
    ):
        code, out, err = run(capsys, *argv)
        command = f"euaia-assure {argv[0]} {argv[1]}"
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"usage: {command} [-h]"), err
        assert f"\n{command}: error: " in err, err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "filter", "--help")[0] == 0


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "coverage", "report", "/nonexistent/store.ttl")
    assert code == 1
    assert err.startswith("error:")


def test_namespace_env_var(capsys, tmp_path, monkeypatch):
    namespaces = tmp_path / "ns.json"
    namespaces.write_text('{"lab": "https://example.org/ns/lab#"}', encoding="utf-8")
    data = tmp_path / "custom.ttl"
    data.write_text("<lab:x> <rdf:type> <assures:Attack> .\n", encoding="utf-8")
    code, _, err = run(capsys, "triples", "export", str(data))
    assert code == 1  # undeclared prefix without the env var
    monkeypatch.setenv("EUAIA_ASSURE_NAMESPACES", str(namespaces))
    code, out, _ = run(capsys, "triples", "export", str(data))
    assert code == 0
    assert "@prefix lab: <https://example.org/ns/lab#>" in out


def test_triple_files_declare_their_own_prefixes(capsys, tmp_path, store_ttl):
    first = tmp_path / "first.ttl"
    first.write_text(
        "@prefix ex: <https://example.org/ns/ex#>\n<ex:x> <rdf:type> <assures:Attack> .\n",
        encoding="utf-8",
    )
    second = tmp_path / "second.ttl"
    second.write_text(
        "@prefix ex: <https://example.org/ns/other#>\n<ex:y> <rdf:type> <assures:Attack> .\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "triples", "export", str(first))
    assert code == 0, err
    assert "@prefix ex: <https://example.org/ns/ex#>" in out
    assert "<ex:x> <rdf:type> <assures:Attack> ." in out
    code, out, err = run(capsys, "triples", "query", str(first), "?a rdf:type assures:Attack")
    assert (code, out) == (0, "?a=<ex:x>\n"), err
    # the last file wins for each prefix
    code, out, err = run(capsys, "triples", "import", str(first), str(second))
    assert code == 0, err
    assert "@prefix ex: <https://example.org/ns/other#>" in out
    assert "<ex:x> <rdf:type> <assures:Attack> ." in out and "<ex:y> <rdf:type> <assures:Attack> ." in out
    for argv in (
        ("coverage", "report", store_ttl, str(first)),
        ("coverage", "trace", store_ttl, str(first), "--attack", "atk:charCombo"),
        ("factsheet", "render", "--store", store_ttl, "--store", str(first)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    # a file may not lean on a prefix that only an earlier file declares
    third = tmp_path / "third.ttl"
    third.write_text("<ex:z> <rdf:type> <assures:Attack> .\n", encoding="utf-8")
    code, _, err = run(capsys, "triples", "import", str(first), str(third))
    assert code == 1
    assert err == f"error: {third}: line 1: undeclared namespace prefix 'ex'\n"


@pytest.mark.parametrize("user_first", [True, False], ids=["user-first", "declarer-first"])
def test_a_prefix_declared_in_another_file_of_the_command_is_rejected_at_its_line(capsys, tmp_path, user_first):
    declarer = tmp_path / "declarer.ttl"
    declarer.write_text("@prefix ex: <https://example.org/ns/ex#>\n<ex:x> <rdf:type> <assures:Attack> .\n",
                        encoding="utf-8")
    user = tmp_path / "user.ttl"
    user.write_text("<atk:a> <rdf:type> <assures:Attack> .\n<atk:a> <rdf:type> <ex:Attack> .\n", encoding="utf-8")
    files = [str(user), str(declarer)] if user_first else [str(declarer), str(user)]
    for argv in (
        ("triples", "import", *files),
        ("coverage", "report", *files),
        ("coverage", "trace", *files, "--attack", "atk:a"),
        ("factsheet", "render", "--store", files[0], "--store", files[1], "--gsn", GSN),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {user}: line 2: undeclared namespace prefix 'ex'\n"), argv


def test_triples_made_in_memory_are_checked_against_the_namespace_map(capsys, tmp_path):
    """A GSN argument's duty link is the one IRI of a command's triples that
    no file declares: an undeclared prefix there names its triple."""
    gsn = tmp_path / "foo.gsn"
    gsn.write_text(Path(GSN).read_text(encoding="utf-8").replace("duty euaia:d9", "duty foo:d9"), encoding="utf-8")
    assert gsn.read_text(encoding="utf-8").endswith("\nduty foo:d9\n")
    message = "error: undeclared namespace prefix 'foo' in <gsn:G1> <assures:operationalizes> <foo:d9> .\n"
    for argv in (("factsheet", "render", "--store", LINKS, "--gsn", str(gsn)), ("gsn", "triples", str(gsn))):
        assert run(capsys, *argv) == (1, "", message), argv


@pytest.mark.parametrize("prefix, shown", [("1lab", "'1lab'"), ("rdf\n", "'rdf\\n'")])
def test_namespace_env_var_rejects_invalid_prefixes(capsys, tmp_path, monkeypatch, prefix, shown):
    namespaces = tmp_path / "ns.json"
    namespaces.write_text(json.dumps({prefix: "https://example.org/ns/lab#"}), encoding="utf-8")
    monkeypatch.setenv("EUAIA_ASSURE_NAMESPACES", str(namespaces))
    for argv in (("triples", "export", LINKS), ("gsn", "triples", GSN)):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err == f"error: {namespaces}: invalid namespace prefix {shown}\n"


@pytest.mark.parametrize("expansion", ["", "http://example.org/a b#", "http://example.org/<a>#"])
def test_namespace_env_var_rejects_expansions_no_prefix_line_can_spell(capsys, tmp_path, monkeypatch, expansion):
    namespaces = tmp_path / "ns.json"
    namespaces.write_text(json.dumps({"ex": expansion}), encoding="utf-8")
    monkeypatch.setenv("EUAIA_ASSURE_NAMESPACES", str(namespaces))
    missing = str(tmp_path / "missing")
    for argv in (("triples", "import", missing), ("gsn", "triples", missing)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {namespaces}: invalid expansion {expansion!r} for namespace prefix 'ex'\n"


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"1x": "https://example.org/ns/x#"}, "invalid namespace prefix '1x'"),
        ({"ex": "http://a b/"}, "invalid expansion 'http://a b/' for namespace prefix 'ex'"),
    ],
)
def test_store_reading_commands_report_a_bad_namespace_entry_once(capsys, tmp_path, monkeypatch, entry, message):
    namespaces = tmp_path / "ns.json"
    namespaces.write_text(json.dumps(entry), encoding="utf-8")
    monkeypatch.setenv("EUAIA_ASSURE_NAMESPACES", str(namespaces))
    for argv in (
        ("coverage", "report", LINKS),
        ("coverage", "trace", LINKS, "--attack", "atk:charCombo"),
        ("triples", "query", LINKS, "?s ?p ?o"),
        ("triples", "export", LINKS),
        ("factsheet", "render", "--store", LINKS, "--gsn", GSN),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {namespaces}: {message}\n"), argv


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "{path}: EUAIA_ASSURE_NAMESPACES must point to a JSON object of prefix -> IRI"),
        ('"ex"', "{path}: EUAIA_ASSURE_NAMESPACES must point to a JSON object of prefix -> IRI"),
        ('{"lab": "https://example.org/ns/lab#", "ex": 1}',
         "{path}: the IRI of namespace prefix 'ex' must be a JSON string"),
        ('{"ex": ["https://example.org/ns/ex#"]}', "{path}: the IRI of namespace prefix 'ex' must be a JSON string"),
        # JSON spells every key as a string, so a bare key is a located syntax error
        ('{1: "https://example.org/ns/ex#"}',
         "{path}: line 1, column 2: invalid JSON: Expecting property name enclosed in double quotes"),
    ],
)
def test_namespace_file_structure_errors_name_the_file_and_the_entry(capsys, tmp_path, monkeypatch, text, message):
    namespaces = tmp_path / "ns.json"
    namespaces.write_text(text, encoding="utf-8")
    monkeypatch.setenv("EUAIA_ASSURE_NAMESPACES", str(namespaces))
    for argv in (("triples", "export", LINKS), ("gsn", "triples", GSN)):
        assert run(capsys, *argv) == (1, "", f"error: {message.format(path=namespaces)}\n"), argv


def test_namespace_env_var_import_output_reads_back_byte_for_byte(capsys, tmp_path, monkeypatch):
    namespaces = tmp_path / "ns.json"
    namespaces.write_text('{"ex": "http://example.org/a%20b#"}', encoding="utf-8")
    data = tmp_path / "data.ttl"
    data.write_text("<ex:x> <rdf:type> <assures:Attack> .\n", encoding="utf-8")
    monkeypatch.setenv("EUAIA_ASSURE_NAMESPACES", str(namespaces))
    stored = tmp_path / "store.ttl"
    code, _, err = run(capsys, "triples", "import", str(data), "-o", str(stored))
    assert code == 0, err
    monkeypatch.delenv("EUAIA_ASSURE_NAMESPACES")
    code, out, err = run(capsys, "triples", "import", str(stored))
    assert (code, out) == (0, stored.read_text(encoding="utf-8")), err
    assert "@prefix ex: <http://example.org/a%20b#>\n" in out


# ----------------------------------------------------------------------
# input errors: one located shape for every file kind

_NOT_UTF8 = b'goal G1 "ok"\ngoal G2 "b\xffad"\n'


@pytest.mark.parametrize(
    "argv",
    [
        ["gsn", "validate", "FILE"],
        ["filter", "classify", "--blocklist", "x", "--prompts-file", "FILE"],
        ["triples", "export", "FILE"],
        ["filter", "score", "--model", "FILE", "abc"],
    ],
)
def test_a_byte_that_is_not_utf8_names_its_file_line_and_column(tmp_path, capsys, argv):
    path = tmp_path / "input"
    path.write_bytes(_NOT_UTF8)
    code, out, err = run(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])
    assert (code, out) == (1, "")
    assert err == f"error: {path}: line 2, column 11: invalid UTF-8 byte 0xff\n"


def test_utf8_columns_count_characters_and_lines_follow_the_file_kind(tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes('goal G1 "ä\r€'.encode() + b"\xe2\x82")  # a lone \r ends a GSN line
    assert run(capsys, "gsn", "validate", str(path)) == (
        1, "", f"error: {path}: line 2, column 2: invalid UTF-8 byte 0xe2\n"
    )
    assert run(capsys, "filter", "classify", "--blocklist", "x", "--prompts-file", str(path)) == (
        1, "", f"error: {path}: line 1, column 13: invalid UTF-8 byte 0xe2\n"
    )


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
def test_gsn_and_triple_files_read_crlf_and_lone_cr_as_line_ends(tmp_path, capsys, ending):
    for argv, source in (
        (["gsn", "format", "FILE"], GSN),
        (["gsn", "validate", "FILE"], GSN),
        (["triples", "export", "FILE"], LINKS),
        (["triples", "query", "FILE", "?s assures:mitigatedBy ?o"], LINKS),
    ):
        path = tmp_path / Path(source).name
        path.write_bytes(Path(source).read_bytes().replace(b"\n", ending))
        lf = run(capsys, *[source if arg == "FILE" else arg for arg in argv])
        assert lf[0] == 0 and lf[1]
        assert run(capsys, *[str(path) if arg == "FILE" else arg for arg in argv]) == lf


def test_namespace_json_errors_name_their_position(capsys, tmp_path, monkeypatch):
    namespaces = tmp_path / "ns.json"
    namespaces.write_text('{\n  "lab": https\n}\n', encoding="utf-8")
    monkeypatch.setenv("EUAIA_ASSURE_NAMESPACES", str(namespaces))
    code, _, err = run(capsys, "triples", "export", LINKS)
    assert code == 1
    assert err == f"error: {namespaces}: line 2, column 10: invalid JSON: Expecting value\n"


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["gsn", "validate", "FILE"], b"widget W1\n", "line 1: unknown keyword 'widget'"),
        (["triples", "export", "FILE"], b"<atk:a> <rdf:type>\n", "line 1, column 18: statement must end with ' .'"),
        (["filter", "score", "--model", "FILE", "xy"], b'{"format": "charfilter/1"}\n',
         "line 1: header field 'alpha' must be a number"),
        (["filter", "eval", "--model", "MODEL", "--corpus", "FILE"], b"A\tok\nC\tbad\n",
         "line 2: expected 'A<TAB>prompt' or 'B<TAB>prompt'"),
        (["filter", "classify", "--blocklist", "x", "--prompts-file", "FILE"], b"ok\nb\xffad\n",
         "line 2, column 2: invalid UTF-8 byte 0xff"),
        (["triples", "export", LINKS, "NS=FILE"], b'{\n "ex": x}', "line 2, column 8: invalid JSON: Expecting value"),
        # json names no position for an entry, so a bad entry has only its file
        (["coverage", "report", LINKS, "NS=FILE"], b'{"1x": "https://example.org/ns/x#"}',
         "invalid namespace prefix '1x'"),
    ],
    ids=["gsn", "triples", "model", "labeled corpus", "corpus byte", "namespace JSON", "namespace entry"],
)
def test_every_input_error_names_its_file_first(capsys, tmp_path, monkeypatch, toy_model_file, argv, content,
                                               message):
    path = tmp_path / "input"
    path.write_bytes(content)
    if argv[-1] == "NS=FILE":
        monkeypatch.setenv("EUAIA_ASSURE_NAMESPACES", str(path))
        argv = argv[:-1]
    argv = [str(path) if arg == "FILE" else toy_model_file if arg == "MODEL" else arg for arg in argv]
    assert run(capsys, *argv) == (1, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["coverage", "report", "GOOD", "BAD"],
        ["coverage", "trace", "GOOD", "BAD", "--attack", "atk:charCombo"],
        ["triples", "import", "GOOD", "BAD"],
        ["factsheet", "render", "--store", "GOOD", "--store", "BAD"],
    ],
)
def test_a_multi_file_command_names_the_file_that_is_bad(capsys, tmp_path, argv):
    bad = tmp_path / "bad.ttl"
    bad.write_text("<atk:a> <rdf:type> <assures:Attack> .\nx\n", encoding="utf-8")
    argv = [LINKS if arg == "GOOD" else str(bad) if arg == "BAD" else arg for arg in argv]
    assert run(capsys, *argv) == (1, "", f"error: {bad}: line 2, column 1: unexpected character 'x'\n")


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0"])
def test_filter_train_rejects_a_non_finite_alpha_and_writes_no_model(tmp_path, capsys, alpha):
    model = tmp_path / "model.jsonl"
    code, out, err = run(
        capsys, "filter", "train", "--adversarial", TOY_ADV, "--benign", TOY_BEN,
        "-o", str(model), f"--alpha={alpha}",
    )
    assert (code, out) == (1, "")
    assert err == "error: smoothing alpha must be positive and finite\n"
    assert not model.exists()


# ----------------------------------------------------------------------
# the cyclic garbage collector and the one prefix check per command


@pytest.fixture()
def collecting():
    """The collector on, as pytest runs tests, and on again afterwards."""
    gc.enable()
    yield
    gc.enable()


def test_commands_run_without_the_collector(capsys, collecting, monkeypatch, store_ttl):
    seen = []

    def recorded(*args, **kwargs):
        seen.append(gc.isenabled())
        return import_triples(*args, **kwargs)

    monkeypatch.setattr(cli, "import_triples", recorded)
    assert run(capsys, "coverage", "report", store_ttl, LINKS)[0] == 0
    assert seen == [False, False]
    assert gc.isenabled()


def test_the_collector_comes_back_on_every_exit(capsys, collecting, monkeypatch, tmp_path):
    bad = tmp_path / "bad.ttl"
    bad.write_text("<atk:a> <rdf:type> .\n", encoding="utf-8")
    for argv, status in ((["triples", "export", LINKS], 0), (["triples", "export", str(bad)], 1), (["gsn"], 2)):
        assert run(capsys, *argv)[0] == status
        assert gc.isenabled(), argv

    def broken(*args, **kwargs):
        raise RuntimeError("not caught by main")

    monkeypatch.setattr(cli, "import_triples", broken)
    with pytest.raises(RuntimeError):
        main(["triples", "export", LINKS])
    assert gc.isenabled()


def test_a_caller_that_turned_the_collector_off_finds_it_off(capsys, collecting):
    gc.disable()
    for argv, status in ((["triples", "export", LINKS], 0), (["no-such-command"], 2)):
        assert run(capsys, *argv)[0] == status
        assert not gc.isenabled(), argv


def test_a_command_checks_each_triple_of_its_store_once(capsys, monkeypatch, store_ttl):
    """An imported file's triples were checked as they were read, so neither
    the merge of the files nor a constructor walks them again: only triples
    made in memory are checked, once, against the merged namespace map.
    """
    built, walked = [], []
    original_init, original_walk = Store.__post_init__, triples._check_prefixes

    def counted_init(store):
        built.append(len(store.triples))
        original_init(store)

    def counted_walk(batch, namespaces):
        walked.append(len(batch))
        original_walk(batch, namespaces)

    monkeypatch.setattr(Store, "__post_init__", counted_init)
    monkeypatch.setattr(triples, "_check_prefixes", counted_walk)
    for argv in (
        ["coverage", "report", store_ttl, LINKS],
        ["coverage", "trace", store_ttl, LINKS, "--attack", "atk:charCombo"],
        ["triples", "query", store_ttl, "?g <assures:operationalizes> ?d ."],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert (built, walked) == ([], []), argv
    code, _, err = run(capsys, "factsheet", "render", "--store", LINKS, "--store", DYNAMIC, "--gsn", GSN)
    assert code == 0, err
    made = set(registry_to_triples(load_registry())) | set(argument_to_triples(parse_gsn(Path(GSN).read_text())))
    assert (built, walked) == ([], [len(made)])