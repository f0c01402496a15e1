"""Fuzzers for the input parsers and the command line.

Any text gives each parser a value or an InputError whose line lies in the
text, and any bytes in the files of any subcommand give the CLI an exit
code of 0, 1 or 2, never an escaping exception.
"""

from __future__ import annotations

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from euaia_assurance.cli import NAMESPACES_ENV, main
from euaia_assurance.gsn import parse_gsn
from euaia_assurance.prompt_filter import (
    load_model,
    parse_corpus,
    parse_labeled_corpus,
    save_model,
    train_dynamic,
)
from euaia_assurance.triples import InputError

from conftest import FIXTURES, fixture_text

_MODEL = save_model(train_dynamic(["!x!", "!!y", "дλ?"], ["xy", "ab c"], bigrams=True))
_JSON_BITS = ["NaN", "Infinity", "-1", "1e999", "[", "]", "{", "}", '"', ",", ":", "null", "9" * 400]


def _splice(text, start: int, length: int, insert):
    """``text`` with up to ``length`` items from ``start`` replaced by ``insert``."""
    start %= len(text) + 1
    return text[:start] + insert + text[start + length :]


def _mutants(text, inserts):
    return st.builds(_splice, st.just(text), st.integers(0, 4096), st.integers(0, 3), inserts)


def _documents(fixture: str, inserts) -> st.SearchStrategy[str]:
    """Texts of fixture lines, mutated fixture lines and random lines."""
    lines = fixture.split("\n")
    line = st.one_of(st.sampled_from(lines), st.sampled_from(lines).flatmap(lambda l: _mutants(l, inserts)))
    return st.lists(line | st.text(max_size=20), max_size=8).map("\n".join)


def _value_or_located_error(parse, text: str):
    """What ``parse`` gives for ``text``, or None after an error located in it."""
    try:
        return parse(text)
    except InputError as exc:
        assert exc.line is not None and 1 <= exc.line <= text.count("\n") + 1, str(exc)
        return None


@settings(max_examples=200, deadline=None)
@given(_documents(fixture_text("art15-5.gsn"), st.sampled_from(['"', "#", "\\", " ", "->", "G1"]) | st.text(max_size=3)))
def test_parse_gsn_gives_an_argument_or_a_located_error(text):
    _value_or_located_error(parse_gsn, text)


@settings(max_examples=200, deadline=None)
@given(_documents(_MODEL, st.sampled_from(_JSON_BITS) | st.text(max_size=3)))
def test_load_model_gives_a_model_or_a_located_error(text):
    if not text.strip():
        return  # the one error without a line: "empty model file"
    _value_or_located_error(load_model, text)


@settings(max_examples=150, deadline=None)
@given(_documents(fixture_text("toy-labeled.txt"), st.sampled_from(["\t", "\r", "A", "B"]) | st.text(max_size=3)))
def test_corpus_parsers_give_a_value_or_a_located_error(text):
    assert all(prompt.strip() for prompt in parse_corpus(text))
    labeled = _value_or_located_error(parse_labeled_corpus, text)
    assert labeled is None or all(prompt for prompt, _ in labeled)


# ----------------------------------------------------------------------
# the command line, over every subcommand that reads a file

_FILES = {
    "GSN": (FIXTURES / "art15-5.gsn").read_bytes(),
    "TTL": (FIXTURES / "dynamic-links.ttl").read_bytes(),
    "MODEL": _MODEL.encode(),
    "CORPUS": (FIXTURES / "adversarial.txt").read_bytes(),
    "LABELED": (FIXTURES / "toy-labeled.txt").read_bytes(),
    "NS": b'{"lab": "https://example.org/ns/lab#"}\n',
}
_COMMANDS = [
    ["gsn", "validate", "GSN"],
    ["gsn", "dot", "GSN"],
    ["gsn", "triples", "GSN"],
    ["gsn", "format", "GSN"],
    ["triples", "import", "TTL", "--with-registry"],
    ["triples", "export", "TTL"],
    ["triples", "query", "TTL", "?s assures:mitigates ?o"],
    ["filter", "train", "--adversarial", "CORPUS", "--benign", "LABELED", "--bigrams", "-o", "OUT"],
    ["filter", "score", "--model", "MODEL", "--prompts-file", "CORPUS"],
    ["filter", "classify", "--model", "MODEL", "--prompts-file", "CORPUS"],
    ["filter", "classify", "--block-script", "Cyrillic", "--prompts-file", "CORPUS"],
    ["filter", "eval", "--model", "MODEL", "--corpus", "LABELED"],
    ["coverage", "report", "TTL"],
    ["coverage", "trace", "TTL", "--attack", "atk:charCombo"],
    ["factsheet", "render", "--store", "TTL", "--gsn", "GSN", "--model", "MODEL", "--eval-corpus", "LABELED"],
]


def _contents(kind: str) -> st.SearchStrategy[bytes]:
    """The fixture for a file kind as it is, mutated, or random bytes."""
    fixture = _FILES[kind]
    return st.one_of(st.just(fixture), _mutants(fixture, st.binary(max_size=6)), st.binary(max_size=80))


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_COMMANDS), st.data())
def test_cli_never_lets_an_exception_escape(tmp_path, capsys, monkeypatch, command, data):
    argv, written = [], []
    for arg in command:
        if arg in _FILES:
            (tmp_path / arg).write_bytes(data.draw(_contents(arg), label=arg))
            written.append(str(tmp_path / arg))
        argv.append(str(tmp_path / arg) if arg in _FILES or arg == "OUT" else arg)
    if data.draw(st.booleans(), label="namespaces"):
        (tmp_path / "NS").write_bytes(data.draw(_contents("NS"), label="NS"))
        written.append(str(tmp_path / "NS"))
        monkeypatch.setenv(NAMESPACES_ENV, str(tmp_path / "NS"))
    else:
        monkeypatch.delenv(NAMESPACES_ENV, raising=False)
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert code != 1 or err.startswith("error: ") or command[:2] == ["gsn", "validate"], err
    if code == 1 and re.search(r"\bline \d", err):  # a located error names its file first
        assert any(err.startswith(f"error: {path}: ") for path in written), err
