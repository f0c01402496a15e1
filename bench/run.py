"""Benchmark of the euaia-assure pipeline, end to end and per layer.

    python3 bench/run.py --workload case-build --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. With ``--trace 0`` every command
runs as an untraced ``python -m euaia_assurance`` subprocess and the
end-to-end metrics are reported; with ``--trace 1`` the same argv lists run
in-process through ``euaia_assurance.cli.main`` in pairs of one untraced
and one traced pass, alternating which goes first, and the per-layer
metrics are reported. End-to-end times are calibrated against the fixed
workload in reference.py, run between passes. Every output is checked
against an oracle that does not use the program. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(reference.__file__).resolve()

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
# The whole run must finish within 180 s; a command that hangs is killed
# when the run's budget is spent.
RUN_BUDGET_S = 170.0

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_LAYER = (
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
    ("triples.import_triples.self_s", "s"),
    ("triples.lines_per_s", "lines/s"),
    ("triples.store_builds", "count"),
    ("triples.validated_per_stored", "ratio"),
    ("triples.with_namespace.self_s", "s"),
    ("triples.assert_all.self_s", "s"),
    ("triples.match.calls", "count"),
    ("triples.match.total_s", "s"),
    ("triples.query.self_s", "s"),
    ("triples.export_triples.self_s", "s"),
    ("gsn.parse_gsn.self_s", "s"),
    ("gsn.nodes_per_s", "nodes/s"),
    ("gsn.add_node.calls", "count"),
    ("gsn.add_edge.calls", "count"),
    ("gsn.validate.self_s", "s"),
    ("gsn.argument_to_triples.self_s", "s"),
    ("coverage.coverage_report.self_s", "s"),
    ("coverage.causal_trace.self_s", "s"),
    ("coverage.chains", "count"),
    ("factsheet.render_factsheet.self_s", "s"),
    ("factsheet.render_html.self_s", "s"),
    ("prompt_filter.train_dynamic.self_s", "s"),
    ("prompt_filter.save_model.self_s", "s"),
    ("prompt_filter.evaluate.self_s", "s"),
    ("prompt_filter.load_model.self_s", "s"),
    ("prompt_filter.score.calls", "count"),
    ("prompt_filter.score.total_s", "s"),
    ("prompt_filter.classify_static.self_s", "s"),
    ("prompt_filter.classify_static.chars_per_s", "chars/s"),
    ("prompt_filter.classify_dynamic.self_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Run:
    """One benchmark run: set-up, oracle preparation, measured passes."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload_cls = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = {k: v for k, v in os.environ.items() if k != "EUAIA_ASSURE_NAMESPACES"}
        self.env.update(PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")

    # -- commands -------------------------------------------------------

    def spawn(self, argv: list[str], stdout: Path) -> tuple[float, int, float]:
        """Run one command; returns wall seconds, exit status and maximum RSS in MB."""
        return self._wait([sys.executable, "-m", "euaia_assurance", *argv], stdout)

    def reference(self) -> float:
        """Wall seconds of the fixed reference workload, the machine's current speed."""
        elapsed, status, _ = self._wait([sys.executable, str(REFERENCE)], self.dir / "reference.out")
        if status != 0:
            self.problems.append(f"reference workload exited {status}")
        return elapsed

    def _wait(self, argv: list[str], stdout: Path) -> tuple[float, int, float]:
        budget = max(1.0, RUN_BUDGET_S - (time.perf_counter() - self.started))
        with stdout.open("wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT)
            timer = threading.Timer(budget, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss / 1024.0

    # -- set-up -----------------------------------------------------------

    def setup(self, calibrate: bool):
        """Generate the inputs and warm up, SETUP_REPEATS times; keep the first copy.

        Each repeat writes into a fresh directory; all copies must be
        byte-identical, which checks that the seed alone fixes the inputs.
        With ``calibrate``, the reference workload runs before the first
        repeat and after each one; returns the repeat times and those
        reference times.
        """
        times, digests, workload = [], [], None
        references = [self.reference()] if calibrate else []
        for repeat in range(SETUP_REPEATS):
            inputs = self.dir / f"inputs{repeat}"
            start = time.perf_counter()
            candidate = self.workload_cls(self.seed, inputs)
            _, status, _ = self.spawn(["duties", "list"], self.dir / "warmup.out")
            times.append(time.perf_counter() - start)
            if calibrate:
                references.append(self.reference())
            if status != 0:
                self.problems.append(f"warm-up `duties list` exited {status}")
            digests.append(tree_digest(inputs))
            if workload is None:
                workload = candidate
            else:
                shutil.rmtree(inputs)
        if len(set(digests)) != 1:
            self.problems.append("the same seed produced different inputs")
        workload.prepare()
        return workload, times, references

    # -- passes -----------------------------------------------------------

    def run_pass(self, workload, execute) -> dict:
        """Run every command of one pass, then check every output."""
        out = self.dir / "pass"
        out.mkdir(parents=True, exist_ok=True)
        commands = workload.commands(out)
        groups: dict[str, float] = {}
        rss, statuses = 0.0, []
        start = time.perf_counter()
        for cmd in commands:
            elapsed, status, cmd_rss = execute(cmd.argv, cmd.stdout)
            groups[cmd.group] = groups.get(cmd.group, 0.0) + elapsed
            rss = max(rss, cmd_rss)
            statuses.append(status)
        wall = time.perf_counter() - start
        for cmd, status in zip(commands, statuses):
            self.attempted += 1
            problem = f"`{' '.join(cmd.argv[:2])}` exited {status}" if status != 0 else cmd.check()
            if problem:
                self.failed += 1
                self.problems.append(problem)
        return {"wall_s": wall, "peak_rss_mb": rss, **workload.pass_metrics(groups)}

    def keep_going(self, durations: list[float]) -> bool:
        """Start another pass only if one more, as long as the last, fits in --seconds."""
        if not durations:
            return True
        return time.perf_counter() - self.measure_start + durations[-1] <= self.seconds

    def untraced(self):
        """Subprocess passes; each records the mean reference time around it."""
        workload, setup_times, references = self.setup(calibrate=True)
        self.measure_start = time.perf_counter()
        passes, durations = [], []
        while self.keep_going(durations):
            pass_start = time.perf_counter()
            measured = self.run_pass(workload, self.spawn)
            references.append(self.reference())
            measured["reference_s"] = (references[-2] + references[-1]) / 2
            passes.append(measured)
            durations.append(time.perf_counter() - pass_start)
        return workload, setup_times, references[: SETUP_REPEATS + 1], passes

    def traced(self):
        workload, setup_times, _ = self.setup(calibrate=False)
        startup = [self.spawn(["duties", "list"], self.dir / "startup.out")[0] for _ in range(STARTUP_REPEATS)]
        sys.path.insert(0, str(SRC))
        import euaia_assurance
        from euaia_assurance import cli

        tracer = Tracer()

        def in_process(traced: bool):
            def execute(argv: list[str], stdout: Path):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    status = tracer.command(lambda: cli.main(argv)) if traced else cli.main(argv)
                    elapsed = time.perf_counter() - start
                stdout.write_text(buffer.getvalue(), encoding="utf-8")
                return elapsed, status, 0.0

            return execute

        self.measure_start = time.perf_counter()
        pairs, durations = [], []
        while self.keep_going(durations):
            pair_start = time.perf_counter()
            walls = {}
            for traced in (False, True) if len(pairs) % 2 == 0 else (True, False):
                if traced:
                    tracer.pass_id += 1
                    with tracer.patched(euaia_assurance):
                        walls[traced] = self.run_pass(workload, in_process(True))["wall_s"]
                else:
                    walls[traced] = self.run_pass(workload, in_process(False))["wall_s"]
            pairs.append((walls[False], walls[True], *tracer.take_pass()))
            durations.append(time.perf_counter() - pair_start)
        tracer.write(self.dir.parent / f"{workload.name}-spans.jsonl")
        return workload, setup_times, startup, pairs


def layer_metrics(startup: list[float], pairs: list) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of each pass's value."""
    per_pass = []
    for plain_wall, traced_wall, spans, counts, seconds in pairs:
        def rate(units: str, span: str) -> float:
            total = spans.get(f"{span}.total_s", 0.0)
            return counts.get(f"{span}.{units}", 0) / total if total else 0.0

        stored = counts.get("triples.final_stored", 0)
        values = {
            "cli.startup_s": statistics.median(startup),
            "triples.lines_per_s": rate("lines", "triples.import_triples"),
            "triples.store_builds": counts.get("triples.store_builds", 0),
            "triples.validated_per_stored": counts.get("triples.validated", 0) / stored if stored else 0.0,
            "triples.match.calls": counts.get("triples.match", 0),
            "triples.match.total_s": seconds.get("triples.match", 0.0),
            "gsn.nodes_per_s": rate("nodes", "gsn.parse_gsn"),
            "gsn.add_node.calls": counts.get("gsn.add_node", 0),
            "gsn.add_edge.calls": counts.get("gsn.add_edge", 0),
            "coverage.chains": counts.get("coverage.causal_trace.chains", 0),
            "prompt_filter.score.calls": counts.get("prompt_filter.score", 0),
            "prompt_filter.score.total_s": seconds.get("prompt_filter.score", 0.0),
            "prompt_filter.classify_static.chars_per_s": rate("chars", "prompt_filter.classify_static"),
            "trace.untraced_wall_s": plain_wall,
            "trace.traced_wall_s": traced_wall,
        }
        values["cli.self_s"] = spans.get("cli.main.self_s", 0.0)
        for name, _ in PER_LAYER:
            if name.endswith(".self_s") and name not in values:
                values[name] = spans.get(name, 0.0)
        per_pass.append(values)
    medians = {name: statistics.median(p[name] for p in per_pass) for name, _ in PER_LAYER if name != "trace.overhead_s"}
    medians["trace.overhead_s"] = medians["trace.traced_wall_s"] - medians["trace.untraced_wall_s"]
    return medians


def tree_digest(path: Path, pattern: str = "*") -> str:
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob(pattern) if p.is_file()):
        digest.update(file.relative_to(path).as_posix().encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    """The checkout's commit when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def calibrated(value: float, unit: str, reference_s: float) -> float:
    """A time or rate rescaled to the machine speed at which the reference takes NOMINAL_S."""
    factor = reference.NOMINAL_S / reference_s
    return value * factor if unit == "s" else value / factor if unit == "1/s" else value


def benchmark(name: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    """One run; returns the report lines and the result object."""
    run = Run(name, seed, seconds)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            workload, setup_times, startup, pairs = run.traced()
        else:
            workload, setup_times, setup_references, passes = run.untraced()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    lines = [
        f"workload {workload.name}, seed {seed}, {seconds} s, trace {trace}",
        f"python {platform.python_version()}, commit {commit()}, "
        f"src sha256 {tree_digest(SRC / 'euaia_assurance', '*.py')[:16]}, nproc {len(os.sched_getaffinity(0))}",
        f"  failed_ratio = {run.failed / run.attempted:.4f} ({run.failed} of {run.attempted} commands)",
    ]
    lines += [f"  failed: {problem}" for problem in run.problems[:10]]
    metrics: dict[str, dict] = {}
    if trace:
        values = layer_metrics(startup, pairs)
        lines.append(f"per-layer metrics, traced in-process passes (median of {len(pairs)}), as measured:")
        for name, unit in PER_LAYER:
            lines.append(f"  {name} = {values[name]:.6g} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        setup = [
            calibrated(t, "s", (before + after) / 2)
            for t, before, after in zip(setup_times, setup_references, setup_references[1:])
        ]
        lines.append(
            f"  setup_s = {statistics.median(setup):.4f} s, calibrated (median of {len(setup)}; "
            f"as measured {statistics.median(setup_times):.4f} s)"
        )
        lines.append(
            f"end-to-end metrics, untraced subprocess passes (median [q1, q3] of {len(passes)}), "
            f"calibrated to a {reference.NOMINAL_S} s reference:"
        )
        for name, unit in END_TO_END[:-1] + workload.metrics:
            column = [calibrated(p[name], unit, p["reference_s"]) for p in passes]
            q1, q3 = quartiles(column)
            lines.append(f"  {name} = {statistics.median(column):.6g} {unit} [{q1:.6g}, {q3:.6g}]")
            if name in dict(END_TO_END):
                metrics[name] = {"value": statistics.median(column), "unit": unit}
        lines.append(
            f"  as measured: wall_s = {statistics.median(p['wall_s'] for p in passes):.6g} s, "
            f"reference = {statistics.median(p['reference_s'] for p in passes):.4f} s"
        )
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    return lines, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "euaia_assurance" / "cli.py").is_file():
        print(f"error: no euaia_assurance sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    lines, result = benchmark(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
