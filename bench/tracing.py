"""In-process tracing of the program's layers, from the benchmark's side.

For the traced run only, ``Tracer.patched`` replaces public functions
where each module binds them (``cli.parse_gsn``, ``factsheet.coverage_report``,
``Store.assert_all`` ...) with wrappers that record a span: name, start,
end, parent span and pass id. Hot, fine-grained calls get counters
instead. Nothing under ``src/`` changes; the originals are restored when
the ``with`` block ends.

A span's self time is its duration minus the time its child spans cover.
Self and total time are summed per span name as spans close. Every span
is also kept as a record, except the per-prompt ``classify_*`` calls,
which would add 10^5 records a pass.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator

# Span name -> (module attribute, binding sites). Every site that calls the
# function through a module global is patched, so a call from one layer
# into another becomes a child span.
SPANS = {
    "triples.import_triples": ("import_triples", ["cli"]),
    "triples.export_triples": ("export_triples", ["cli"]),
    "triples.with_namespace": ("with_namespace", ["Store"]),
    "triples.assert_all": ("assert_all", ["Store"]),
    "triples.query": ("query", ["Store"]),
    "gsn.parse_gsn": ("parse_gsn", ["cli"]),
    "gsn.validate": ("validate", ["cli", "gsn", "factsheet"]),
    "gsn.argument_to_triples": ("argument_to_triples", ["cli"]),
    "coverage.coverage_report": ("coverage_report", ["cli", "factsheet"]),
    "coverage.causal_trace": ("causal_trace", ["cli"]),
    "factsheet.render_factsheet": ("render_factsheet", ["cli"]),
    "factsheet.render_html": ("render_html", ["cli"]),
    "prompt_filter.train_dynamic": ("train_dynamic", ["cli"]),
    "prompt_filter.save_model": ("save_model", ["cli"]),
    "prompt_filter.load_model": ("load_model", ["cli"]),
    "prompt_filter.evaluate": ("evaluate", ["cli"]),
    "prompt_filter.classify_static": ("classify_static", ["cli"]),
    "prompt_filter.classify_dynamic": ("classify_dynamic", ["cli"]),
}

# Spans aggregated only, never kept as records: one call per prompt.
PER_PROMPT = {"prompt_filter.classify_static", "prompt_filter.classify_dynamic"}

# Work units per span, for the rate metrics: span name -> (unit counter, measure).
UNITS: dict[str, tuple[str, Callable]] = {
    "triples.import_triples": ("lines", lambda args, result: args[0].count("\n") + 1),
    "gsn.parse_gsn": ("nodes", lambda args, result: len(result.nodes)),
    "prompt_filter.classify_static": ("chars", lambda args, result: len(args[1])),
    "coverage.causal_trace": ("chains", lambda args, result: len(result)),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []  # id, parent, pass, name, start, end
        self.times: Counter[str] = Counter()  # "<span>.total_s" and "<span>.self_s" this pass
        self.counts: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.pass_id = 0
        self._next_id = 1
        self._stack: list[list] = [[0, 0.0]]  # open spans: [id, seconds covered by children]
        self._largest_store = 0

    # -- spans ----------------------------------------------------------

    def _open(self) -> tuple[list, float]:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name: str, frame: list, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        parent[1] += duration
        self.times[f"{name}.total_s"] += duration
        self.times[f"{name}.self_s"] += duration - frame[1]
        if name not in PER_PROMPT:
            self.spans.append((frame[0], parent[0], self.pass_id, name, start, end))

    def command(self, run: Callable[[], int]) -> int:
        """One CLI invocation as a ``cli.main`` span; closes the per-command store tally."""
        self._largest_store = 0
        frame, start = self._open()
        try:
            return run()
        finally:
            self._close("cli.main", frame, start)
            self.counts["triples.final_stored"] += self._largest_store

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        unit = UNITS.get(name)

        def wrapper(*args, **kwargs):
            frame, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start)
            if unit:
                self.counts[f"{name}.{unit[0]}"] += unit[1](args, result)
            return result

        return wrapper

    def _counter_wrapper(self, name: str, fn: Callable, timed: bool) -> Callable:
        counts, seconds, clock = self.counts, self.seconds, time.perf_counter

        if not timed:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        def timed_call(*args, **kwargs):
            counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start

        return timed_call

    # -- patching ---------------------------------------------------------

    @contextlib.contextmanager
    def patched(self, package) -> Iterator[None]:
        """Install every wrapper on the imported ``euaia_assurance`` package."""
        from importlib import import_module

        mods = {m: import_module(f"{package.__name__}.{m}") for m in ("cli", "gsn", "factsheet", "prompt_filter", "triples")}
        owners = dict(mods, Store=mods["triples"].Store)
        store_cls, argument_cls = mods["triples"].Store, mods["gsn"].GsnArgument
        patches: list[tuple[object, str, Callable]] = []
        for name, (attr, sites) in SPANS.items():
            original = getattr(owners[sites[0]], attr)
            wrapper = self._span_wrapper(name, original)
            patches.extend((owners[site], attr, wrapper) for site in sites)

        original_init = store_cls.__post_init__
        tracer = self

        def post_init(store) -> None:
            original_init(store)
            tracer.counts["triples.store_builds"] += 1
            tracer.counts["triples.validated"] += len(store.triples)
            tracer._largest_store = max(tracer._largest_store, len(store.triples))

        patches.append((store_cls, "__post_init__", post_init))
        patches.append((store_cls, "match", self._counter_wrapper("triples.match", store_cls.match, True)))
        patches.append((argument_cls, "add_node", self._counter_wrapper("gsn.add_node", argument_cls.add_node, False)))
        patches.append((argument_cls, "add_edge", self._counter_wrapper("gsn.add_edge", argument_cls.add_edge, False)))
        score = self._counter_wrapper("prompt_filter.score", mods["prompt_filter"].score, True)
        patches.append((mods["prompt_filter"], "score", score))
        patches.append((mods["cli"], "score", score))

        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def take_pass(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Span times, counts and counter seconds since the last call, then reset."""
        taken = dict(self.times), dict(self.counts), dict(self.seconds)
        self.times.clear()
        self.counts.clear()
        self.seconds.clear()
        return taken

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent, pass_id, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "pass": pass_id, "name": name,
                                      "start": start, "end": end}) + "\n")
