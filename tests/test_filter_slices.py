"""``filter score`` and ``filter classify`` spread a large prompt list over
forked workers, one contiguous slice per usable CPU. Whatever the slices,
the CPUs and the failures, stdout, stderr and the exit status must be those
of the one-process writer kept in ``filter_oracle``, and no worker may
outlive its command.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euaia_assurance import cli, prompt_filter
from euaia_assurance.prompt_filter import save_model, train_dynamic

import filter_oracle
from conftest import fixture_text

SRC = str(Path(__file__).resolve().parent.parent / "src")
MIN_SLICE = prompt_filter.MIN_SLICE


class _Deadline(Exception):
    """Not an OSError, which the CLI would report as a command's error."""


@pytest.fixture(autouse=True)
def _deadline():
    """Fail a test that waits for a worker that never exits, instead of hanging."""

    def expire(signum, frame):
        raise _Deadline("still waiting after 120 s: has a worker not exited?")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, toy_corpora):
    path = tmp_path_factory.mktemp("slices") / "model.jsonl"
    path.write_text(save_model(train_dynamic(*toy_corpora, bigrams=True)), encoding="utf-8")
    return str(path)


def _commands(model: str) -> list[list[str]]:
    return [
        ["filter", "score", "--model", model],
        ["filter", "classify", "--model", model],
        ["filter", "classify", "--blocklist", "!", "--block-script", "Cyrillic"],
    ]


def _prompts(count: int) -> list[str]:
    """``count`` prompts, the fixture prompts over and over."""
    lines = fixture_text("adversarial.txt").split("\n") + fixture_text("benign.txt").split("\n")
    return list(itertools.islice(itertools.cycle(line for line in lines if line.strip()), count))


@contextlib.contextmanager
def _machine(cpus: int, fork: bool = True, min_slice: int = MIN_SLICE):
    """Let the process see ``cpus`` usable CPUs, and ``os.fork`` or none;
    yields the list of worker pids that the forks made."""
    forks: list[int] = []
    real_fork = os.fork

    def counted_fork() -> int:
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(prompt_filter, "MIN_SLICE", min_slice)
        if fork:
            patch.setattr(os, "fork", counted_fork)
        else:
            patch.delattr(os, "fork")
        yield forks


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(argv: list[str], writer=None) -> tuple[int, bytes, str]:
    """Exit status, stdout bytes and stderr of one command in process, its
    stdout strict UTF-8 as on a UTF-8 terminal; ``writer`` replaces cli's."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if writer is not None:
            patch.setattr(cli, "write_lines", writer)
        code = cli.main(argv)
    out.flush()
    _no_child_left()
    return code, out.buffer.getvalue(), err.getvalue()


# ----------------------------------------------------------------------
# the command line against the one-process writer

_GOOD = st.sampled_from(_prompts(40)) | st.text(min_size=1, max_size=5).filter(lambda p: not p.startswith("-"))
_BAD = st.sampled_from(["", "\ud800", "a\udcffb"])  # an empty prompt; lone surrogates, as argv gives them


@st.composite
def _prompt_lists(draw) -> list[str]:
    prompts = draw(st.lists(_GOOD, max_size=18))
    for _ in range(draw(st.integers(0, 2))):
        prompts.insert(draw(st.integers(0, len(prompts))), draw(_BAD))
    return prompts


@settings(max_examples=150, deadline=None)
@given(
    command=st.integers(0, 2),
    prompts=_prompt_lists(),
    cpus=st.integers(1, 4),
    fork=st.booleans(),
    min_slice=st.integers(1, 5),
)
def test_commands_write_what_one_process_writes(model_file, command, prompts, cpus, fork, min_slice):
    argv = _commands(model_file)[command] + prompts
    with _machine(cpus, fork, min_slice) as forks:
        got = _run(argv)
    slices = max(1, min(cpus, len(prompts) // min_slice)) if fork else 1
    assert len(forks) == slices - 1
    assert got == _run(argv, filter_oracle.write_lines)


@pytest.mark.parametrize("cpus", [2, 4])
def test_a_failing_prompt_in_any_slice_stops_the_output_where_one_process_does(model_file, cpus):
    for index in range(cpus):
        prompts = _prompts(cpus * MIN_SLICE)
        prompts[index * MIN_SLICE + MIN_SLICE // 2] = ""
        for command in _commands(model_file):
            with _machine(cpus) as forks:
                got = _run(command + prompts)
            assert len(forks) == cpus - 1
            expected = _run(command + prompts, filter_oracle.write_lines)
            assert got == expected
            assert got[0] == 1 and got[1].count(b"\n") == index * MIN_SLICE + MIN_SLICE // 2
            assert got[2].startswith("error: ")


@pytest.mark.parametrize("failing", [False, True], ids=["all-scored", "last-prompt-empty"])
def test_a_command_process_writes_the_same_bytes(model_file, failing):
    """The real stdout, and real workers: the one slice per CPU this machine gives."""
    prompts = _prompts(3 * MIN_SLICE)
    if failing:
        prompts[-1] = ""
    argv = ["filter", "score", "--model", model_file, *prompts]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, "-X", "dev", "-m", "euaia_assurance", *argv], capture_output=True, env=env)
    code, out, err = _run(argv, filter_oracle.write_lines)
    assert (done.returncode, done.stdout, done.stderr.decode("utf-8")) == (code, out, err)
    assert code == (1 if failing else 0)


# ----------------------------------------------------------------------
# the writer itself

def _lines(prompts: list[str]) -> str:
    return "".join(f"{prompt}\n" for prompt in prompts)


@pytest.mark.parametrize("how", ["raises", "dies", "cannot-fork"])
def test_a_worker_that_fails_dies_or_never_starts_has_its_slice_redone_here(how):
    parent, prompts = os.getpid(), [f"p{number}" for number in range(12)]

    def line_of(prompt: str) -> str:
        if os.getpid() != parent and prompt == "p9":
            if how == "dies":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("only in a worker")
        return f"{prompt}\n"

    out = io.StringIO()
    with _machine(cpus=3, min_slice=4) as forks, pytest.MonkeyPatch.context() as patch:
        if how == "cannot-fork":
            counted_fork = os.fork

            def fork_once() -> int:
                if forks:
                    raise BlockingIOError(11, "Resource temporarily unavailable")
                return counted_fork()

            patch.setattr(os, "fork", fork_once)
        prompt_filter.write_lines(line_of, prompts, out)
    assert len(forks) == (1 if how == "cannot-fork" else 2)
    assert out.getvalue() == _lines(prompts)
    _no_child_left()


@pytest.mark.parametrize("failing", [1, 2, 3])
def test_a_slice_whose_file_cannot_be_made_is_written_here_with_the_rest(failing):
    """The ``failing``-th temporary file cannot be made: that slice and every
    one after it are written here, and no file is asked for after it."""
    prompts, made = [f"p{number}" for number in range(16)], []
    real_temporary_file = tempfile.TemporaryFile

    def temporary_file():
        made.append(None)
        if len(made) == failing:
            raise OSError(28, "No space left on device")
        return real_temporary_file()

    out = io.StringIO()
    with _machine(cpus=4, min_slice=4) as forks, pytest.MonkeyPatch.context() as patch:
        patch.setattr(tempfile, "TemporaryFile", temporary_file)
        prompt_filter.write_lines(lambda prompt: f"{prompt}\n", prompts, out)
    assert (len(made), len(forks)) == (failing, failing - 1)
    assert out.getvalue() == _lines(prompts)
    _no_child_left()


class _Unreadable(io.BufferedRandom):
    def read(self, size=-1):
        raise OSError(5, "Input/output error")


def test_a_slice_whose_file_cannot_be_read_back_is_redone_here():
    prompts = [f"p{number}" for number in range(12)]
    real_temporary_file = tempfile.TemporaryFile
    out = io.StringIO()
    with _machine(cpus=3, min_slice=4) as forks, pytest.MonkeyPatch.context() as patch:
        patch.setattr(tempfile, "TemporaryFile", lambda: _Unreadable(real_temporary_file().detach()))
        prompt_filter.write_lines(lambda prompt: f"{prompt}\n", prompts, out)
    assert len(forks) == 2
    assert out.getvalue() == _lines(prompts)
    _no_child_left()


def test_a_worker_text_longer_than_a_piece_is_copied_out_whole():
    """The text comes back decoded a line-ended piece at a time; pieces end
    only at a newline, so no character or lone surrogate is split."""
    prompts = ["é\ud800" * 20000, "\U0001f600" * 40000, "ж", "x" * 70000, "\udcff", "y"] * 2
    out = io.StringIO()
    with _machine(cpus=2, min_slice=3) as forks:
        prompt_filter.write_lines(lambda prompt: f"{prompt}\n", prompts, out)
    assert len(forks) == 1
    assert out.getvalue() == _lines(prompts)
    _no_child_left()


class _BrokenPipe(io.StringIO):
    def writelines(self, lines) -> None:
        raise BrokenPipeError(32, "Broken pipe")


def test_a_failed_write_here_leaves_no_worker_blocked_or_behind():
    """Each worker's text is larger than a pipe would hold; when writing here
    fails, every worker is still awaited and its temporary file closed."""
    with _machine(cpus=4, min_slice=100) as forks, pytest.raises(BrokenPipeError):
        prompt_filter.write_lines(lambda prompt: f"{prompt}\n", ["x" * 1000] * 400, _BrokenPipe())
    assert len(forks) == 3
    _no_child_left()


def test_nothing_is_forked_while_another_thread_runs():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    out = io.StringIO()
    try:
        with _machine(cpus=4, min_slice=1) as forks:
            prompt_filter.write_lines(lambda prompt: f"{prompt}\n", list("abcdefgh"), out)
    finally:
        release.set()
        thread.join()
    assert forks == []
    assert out.getvalue() == _lines(list("abcdefgh"))


def test_slices_are_contiguous_and_never_shorter_than_the_minimum(monkeypatch):
    # Slice arithmetic only: a thread that an earlier test left finishing would
    # make `_slices` keep one slice. The thread check has a test of its own.
    monkeypatch.setattr(prompt_filter, "_other_threads", lambda: False)

    def cuts(count: int) -> list[int]:
        slices = prompt_filter._slices(count)
        assert all(stop == start for (_, stop), (start, _) in zip(slices, slices[1:]))
        return [0, *(stop for _, stop in slices)]

    with _machine(cpus=4):
        assert cuts(0) == [0, 0]
        assert cuts(2 * MIN_SLICE - 1) == [0, 2 * MIN_SLICE - 1]
        assert cuts(2 * MIN_SLICE + 1) == [0, MIN_SLICE, 2 * MIN_SLICE + 1]
        assert cuts(50 * MIN_SLICE) == [0, 12 * MIN_SLICE + MIN_SLICE // 2, 25 * MIN_SLICE,
                                        37 * MIN_SLICE + MIN_SLICE // 2, 50 * MIN_SLICE]
    with _machine(cpus=1):
        assert cuts(50 * MIN_SLICE) == [0, 50 * MIN_SLICE]
