"""How a command process ends.

``python -m euaia_assurance`` and the ``euaia-assure`` script end through
``__main__.run``, which skips the interpreter's teardown. A process must
still show what ``cli.main`` gives in process, run its ``atexit`` handlers
once, and fail on stdout as the interpreter's own exit did.
"""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from euaia_assurance.__main__ import run
from euaia_assurance.cli import NAMESPACES_ENV, main

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
GSN = str(FIXTURES / "art15-5.gsn")


def _spawn(*args: str, stdout=subprocess.PIPE, unbuffered: bool | None = None) -> subprocess.CompletedProcess:
    """``python ARGS`` with this checkout's src first on the path and the
    environment's stdout buffering, or the one that ``unbuffered`` asks for."""
    env = {name: value for name, value in os.environ.items() if name != NAMESPACES_ENV}
    env.update(COLUMNS="80", PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=env, cwd=ROOT)


@pytest.mark.parametrize(
    "argv, status",
    [
        (["duties", "list"], 0),
        (["gsn", "validate", GSN], 0),
        (["gsn", "validate", "BAD"], 1),
        (["gsn", "no-such-subcommand"], 2),
        (["triples", "export", "STORE"], 0),
    ],
    ids=["duties list", "gsn validate", "gsn validate errors", "usage error", "triples export"],
)
def test_a_command_process_shows_what_cli_main_gives(capsys, monkeypatch, tmp_path, walkthrough_store, argv, status):
    bad = tmp_path / "bad.gsn"
    bad.write_text('goal G1 "a" undeveloped\nstrategy S1 "floating"\nedge G1 -> S1 supportedBy\n', encoding="utf-8")
    argv = [str(bad) if arg == "BAD" else str(walkthrough_store) if arg == "STORE" else arg for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
    monkeypatch.delenv(NAMESPACES_ENV, raising=False)
    assert main(argv) == status
    captured = capsys.readouterr()
    done = _spawn("-m", "euaia_assurance", *argv)
    assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (status, captured.out, captured.err)


# ----------------------------------------------------------------------
# stdout that cannot be written: with stdout unbuffered the command's own
# write fails, and it exits 1 with ``error: ...``; buffered, the flush at
# exit fails, and the interpreter reports it and exits 120


def _assert_write_failed(done: subprocess.CompletedProcess, unbuffered: bool, error: str) -> None:
    err = done.stderr.decode()
    if unbuffered:
        assert (done.returncode, err) == (1, f"error: {error}\n")
    else:
        assert done.returncode == 120
        assert err.startswith("Exception ignored") and err.endswith(f"Error: {error}\n"), err


@pytest.mark.skipif(sys.platform != "linux", reason="/dev/full is Linux's")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_stdout_to_a_full_device(unbuffered):
    with open("/dev/full", "wb") as full:
        done = _spawn("-m", "euaia_assurance", "duties", "list", stdout=full, unbuffered=unbuffered)
    _assert_write_failed(done, unbuffered, "[Errno 28] No space left on device")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_stdout_pipe_closed_before_the_command_writes(unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        done = _spawn("-m", "euaia_assurance", "duties", "list", stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    _assert_write_failed(done, unbuffered, "[Errno 32] Broken pipe")


# ----------------------------------------------------------------------
# what acts at exit

DRIVER = """
import atexit, runpy, sys, threading, time

class Kept:
    def __del__(self):
        print("torn down")

kept = Kept()
atexit.register(print, "registered first")
atexit.register(print, "registered second")
{setup}
runpy.run_module("euaia_assurance", run_name="__main__")
"""


@pytest.mark.parametrize(
    "setup, shown",
    [
        ("", "registered second\nregistered first\n"),
        ("import cProfile; cProfile.Profile().enable()", "registered second\nregistered first\ntorn down\n"),
        # a trace function made here would keep these globals, and ``kept``, past the teardown's prints
        ("exec('sys.settrace(lambda *args: None)', {'sys': sys})",
         "registered second\nregistered first\ntorn down\n"),
        ("threading.Thread(target=lambda: time.sleep(0.2) or print('thread done')).start()",
         "registered second\nregistered first\ntorn down\n"),
    ],
    ids=["plain", "profiled", "traced", "second thread"],
)
def test_atexit_handlers_run_once_and_teardown_only_when_watched(setup, shown):
    """A plain command skips the teardown, which would delete ``kept``; a
    profiler (``sys.monitoring``'s on Python 3.12+), a tracer or a second
    thread gets the interpreter's own exit."""
    done = _spawn("-c", DRIVER.format(setup=setup), "gsn", "validate", GSN)
    out = done.stdout.decode()
    assert (done.returncode, done.stderr) == (0, b"")
    assert out.replace("thread done\n", "") == f"ok: 10 nodes, 9 edges\n{shown}"
    assert out.count("thread done\n") == ("thread" in setup)


def test_cprofile_prints_its_stats():
    done = _spawn("-m", "cProfile", "-m", "euaia_assurance", "duties", "list")
    out = done.stdout.decode()
    assert (done.returncode, done.stderr) == (0, b"")
    assert out.startswith("1\t") and "function calls" in out and "Ordered by:" in out


def test_the_console_script_ends_through_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["euaia-assure"]
    module, _, name = target.partition(":")
    assert getattr(import_module(module), name) is run
