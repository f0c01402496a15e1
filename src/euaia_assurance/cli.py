"""Command line interface.

One executable, ``euaia-assure``, with subcommands for the duty registry,
GSN arguments, the triple store, the prompt filters, coverage reporting and
factsheet rendering. All output is deterministic; domain failures print
``error: ...`` to stderr and exit 1, usage mistakes exit 2.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import Callable, TypeVar

from .triples import (
    _binding_key,
    InputError,
    Iri,
    NamespaceError,
    Store,
    check_namespace,
    export_triples,
    import_triples,
    load_json,
    merge_stores,
    parse_pattern,
    serialize_triple,
)
from .vocab import ScriptClass, StakeholderCode

# The names cli takes from each handler module. A module is imported, and
# all of its names bound here, only when a command needs one of them.
_HANDLER_NAMES = {
    "duties": ("STAKEHOLDER_A_COUNT_NOTE", "load_registry", "registry_to_jsonl", "registry_to_triples"),
    "gsn": ("GsnArgument", "Severity", "argument_to_triples", "parse_gsn", "render_dot", "serialize_gsn", "validate"),
    "prompt_filter": (
        "Verdict", "classify_dynamic", "classify_static", "compile_blocklist", "evaluate", "filter_to_triples",
        "load_model", "parse_corpus", "parse_labeled_corpus", "save_model", "score", "train_dynamic", "write_lines",
    ),
    "coverage": ("causal_trace", "coverage_report", "coverage_to_tsv"),
    "factsheet": ("render_factsheet", "render_html"),
}
_MODULE_OF = {name: module for module, names in _HANDLER_NAMES.items() for name in names}


def _bind(*modules: str) -> None:
    """Import each handler module and bind its listed names in cli.

    A name already bound keeps its value, so a wrapper set on cli from
    outside (a tracer's, a test's) survives.
    """
    for module in modules:
        loaded = import_module(f".{module}", __package__)
        for name in _HANDLER_NAMES[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


NAMESPACES_ENV = "EUAIA_ASSURE_NAMESPACES"
T = TypeVar("T")


def _read(path: str, parse: Callable[[str], T], corpus: bool = False) -> T:
    """``parse`` of a file's text, read as strict UTF-8 with universal newlines except in a corpus.

    A corpus keeps a lone ``\\r`` in its prompt, as stored; in any other file
    it ends a line, as ``\\r\\n`` does, and every line end reads as ``\\n``.
    A ValueError of the decode (a byte that is not UTF-8, at its line and
    column) or of the parse gets ``PATH: `` in front of its message.
    """
    data = Path(path).read_bytes()
    try:
        try:
            text, bad = data.decode("utf-8"), None
        except UnicodeDecodeError as exc:
            text, bad = data[: exc.start].decode("utf-8"), exc.start
        if not corpus and "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if bad is not None:
            raise InputError(f"invalid UTF-8 byte 0x{data[bad]:02x}", text.count("\n") + 1, len(text) - text.rfind("\n"))
        return parse(text)
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _extra_namespaces() -> dict[str, str]:
    path = os.environ.get(NAMESPACES_ENV)
    return _read(path, _namespace_map) if path else {}


def _namespace_map(text: str) -> dict[str, str]:
    data = load_json(text, "invalid JSON")
    if not isinstance(data, dict):
        raise NamespaceError(f"{NAMESPACES_ENV} must point to a JSON object of prefix -> IRI")
    for prefix, expansion in data.items():  # a JSON object's keys are strings
        try:
            if not isinstance(expansion, str):
                raise NamespaceError(f"the IRI of namespace prefix {prefix!r} must be a JSON string")
            check_namespace(prefix, expansion)
        except NamespaceError as exc:
            raise InputError(str(exc), *_key_position(text, prefix)) from None
    return data


def _key_position(text: str, key: str) -> tuple[int, int]:
    """The line and column of ``key`` in ``text``, a JSON object that parses.
    Of a repeated key it is the last, whose value ``json`` keeps."""
    import re
    from json import JSONDecoder

    whitespace = re.compile(r"[ \t\n\r]*")  # JSON's
    skip = lambda at: whitespace.match(text, at).end()
    value = JSONDecoder().raw_decode
    at = skip(skip(0) + 1)  # the first member's key, past the "{"
    while text.startswith('"', at):
        name, end = value(text, at)
        if name == key:
            found = at
        _, end = value(text, skip(skip(end) + 1))  # the value, past the ":"
        at = skip(skip(end) + 1)  # the next key, past the "," or the closing "}"
    return text.count("\n", 0, found) + 1, found - text.rfind("\n", 0, found)


def _read_triples(paths: list[str]) -> Store:
    """One store of the files' triples, with one namespace map for them all.

    Each file is imported against the environment's prefixes plus its own
    ``@prefix`` lines; across files the last file wins for each prefix.
    """
    extra = _extra_namespaces()
    stores = [_read(path, lambda text: import_triples(text, namespaces=extra)) for path in paths]
    return merge_stores(stores) if stores else Store(namespaces=extra)


def _read_prompts(args: argparse.Namespace) -> list[str]:
    prompts = list(args.prompts)
    if args.prompts_file:
        prompts.extend(_read(args.prompts_file, parse_corpus, corpus=True))
    if not prompts:
        args.parser.error("no prompts given (positional arguments or --prompts-file)")
    return prompts


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_duties_list(args: argparse.Namespace) -> int:
    _bind("duties")
    registry = load_registry()
    if args.stakeholder:
        code = StakeholderCode[args.stakeholder]
        duties = registry.duties_for_stakeholder(code)
        if code is StakeholderCode.A:
            print(STAKEHOLDER_A_COUNT_NOTE, file=sys.stderr)
    else:
        duties = registry.duties
    if args.format == "jsonl":
        sys.stdout.write(registry_to_jsonl(registry, duties))
        return 0
    for duty in duties:
        stakeholders = ",".join(code.name for code in duty.stakeholders)
        qualifiers = ",".join(duty.qualifiers) if duty.qualifiers else "-"
        print(f"{duty.id}\t{duty.citation}\t{stakeholders}\t{qualifiers}\t{duty.text}")
    return 0


def _cmd_gsn_validate(args: argparse.Namespace) -> int:
    _bind("gsn")
    argument = _read(args.file, parse_gsn)
    diagnostics = validate(argument)
    for diagnostic in diagnostics:
        print(f"{diagnostic.severity.value}: {diagnostic.subject}: {diagnostic.message}")
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return 1
    if not diagnostics:
        print(f"ok: {len(argument.nodes)} nodes, {len(argument.edges)} edges")
    return 0


def _cmd_gsn_dot(args: argparse.Namespace) -> int:
    _bind("gsn")
    sys.stdout.write(render_dot(_read(args.file, parse_gsn)))
    return 0


def _cmd_gsn_triples(args: argparse.Namespace) -> int:
    _bind("gsn")
    namespaces = _extra_namespaces()
    argument = _read(args.file, parse_gsn)
    store = Store(argument_to_triples(argument), namespaces)
    sys.stdout.write(export_triples(store))
    return 0


def _cmd_gsn_format(args: argparse.Namespace) -> int:
    _bind("gsn")
    sys.stdout.write(serialize_gsn(_read(args.file, parse_gsn)))
    return 0


def _cmd_triples_import(args: argparse.Namespace) -> int:
    store = _read_triples(args.files)
    if args.with_registry:
        _bind("duties")
        store = store.assert_all(registry_to_triples(load_registry()))
    text = export_triples(store)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_triples_query(args: argparse.Namespace) -> int:
    patterns = []
    for number, text in enumerate(args.patterns, 1):
        try:
            patterns.append(parse_pattern(text))
        except InputError as exc:
            raise InputError(f"pattern {number}: {exc}") from None
    store = _read_triples([args.file])
    for number, pattern in enumerate(patterns, 1):  # a prefix the store lacks matches nothing
        for iri in (term if isinstance(term, Iri) else getattr(term, "datatype", None) for term in pattern):
            if iri and iri.prefix not in store.namespaces:
                raise NamespaceError(f"pattern {number}: undeclared namespace prefix {iri.prefix!r}")
    for binding in store.query(patterns):
        if not binding:
            print("true")
            continue
        print(_binding_key(binding))
    return 0


def _cmd_filter_train(args: argparse.Namespace) -> int:
    _bind("prompt_filter")
    adversarial = _read(args.adversarial, parse_corpus, corpus=True)
    benign = _read(args.benign, parse_corpus, corpus=True)
    model = train_dynamic(
        adversarial,
        benign,
        alpha=args.alpha,
        bigrams=args.bigrams,
        corpus_ids=(Path(args.adversarial).stem, Path(args.benign).stem),
    )
    Path(args.output).write_text(save_model(model), encoding="utf-8")
    print(
        f"trained on {len(adversarial)} adversarial and {len(benign)} benign prompts; "
        f"threshold {model.threshold:.6f}"
    )
    return 0


def _cmd_filter_score(args: argparse.Namespace) -> int:
    _bind("prompt_filter")
    prompts = _read_prompts(args)
    model = _read(args.model, load_model)
    write_lines(lambda prompt: f"{score(model, prompt):.6f}\t{prompt}\n", prompts, sys.stdout)
    return 0


def _cmd_filter_classify(args: argparse.Namespace) -> int:
    _bind("prompt_filter")
    if args.model and (args.blocklist or args.block_script):
        args.parser.error("use either --model or a static blocklist, not both")
    if not (args.model or args.blocklist or args.block_script):
        args.parser.error("one of --model or --blocklist/--block-script is required")
    prompts = _read_prompts(args)
    if args.model:
        model = _read(args.model, load_model)
        verdict_of = lambda prompt: classify_dynamic(model, prompt)
    else:
        blocklist = compile_blocklist([*(args.blocklist or ""), *map(ScriptClass, args.block_script)])
        verdict_of = lambda prompt: classify_static(blocklist, prompt)[0]
    line_of = lambda prompt: f"{'A' if verdict_of(prompt) is Verdict.ADVERSARIAL else 'B'}\t{prompt}\n"
    write_lines(line_of, prompts, sys.stdout)
    return 0


def _cmd_filter_eval(args: argparse.Namespace) -> int:
    _bind("prompt_filter")
    model = _read(args.model, load_model)
    labeled = _read(args.corpus, parse_labeled_corpus, corpus=True)
    metrics = evaluate(model, labeled)
    print(f"tpr={metrics.true_positive_rate:.4f}")
    print(f"fpr={metrics.false_positive_rate:.4f}")
    print(f"precision={metrics.precision:.4f}")
    print("auc=none" if metrics.auc is None else f"auc={metrics.auc:.4f}")
    print(f"adversarial={metrics.corpus_sizes[0]} benign={metrics.corpus_sizes[1]}")
    return 0


def _cmd_coverage_report(args: argparse.Namespace) -> int:
    _bind("duties", "coverage")
    store = _read_triples(args.stores)
    report = coverage_report(store, load_registry())
    sys.stdout.write(coverage_to_tsv(report))
    return 0


def _cmd_coverage_trace(args: argparse.Namespace) -> int:
    _bind("coverage")
    attack = Iri.parse(args.attack)
    traces = causal_trace(_read_triples(args.stores), attack)
    for index, trace in enumerate(traces, start=1):
        print(f"trace {index}:")
        for hop in trace.hops:
            print(f"  {serialize_triple(hop)}")
    if not traces:
        print(f"no traces from {args.attack} to an operationalized duty")
    return 0


def _cmd_factsheet_render(args: argparse.Namespace) -> int:
    _bind("duties", "gsn", "factsheet")
    if args.model and not args.eval_corpus:
        args.parser.error("--model requires --eval-corpus")
    registry = load_registry()
    store = _read_triples(args.store)
    triples = registry_to_triples(registry)
    argument = _read(args.gsn, parse_gsn) if args.gsn else GsnArgument()
    if argument.nodes:
        triples.extend(argument_to_triples(argument))
    metrics = None
    if args.model:
        _bind("prompt_filter")
        model = _read(args.model, load_model)
        labeled = _read(args.eval_corpus, parse_labeled_corpus, corpus=True)
        metrics = evaluate(model, labeled)
        triples.extend(filter_to_triples(model, metrics))
    store = store.assert_all(triples)
    markdown = render_factsheet(registry, argument, store, metrics, system_name=args.system)
    text = render_html(markdown) if args.format == "html" else markdown
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euaia-assure",
        description="EU AI Act duty registry, assurance arguments and prompt filters.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    duties = subparsers.add_parser("duties", help="duty registry").add_subparsers(
        dest="subcommand", required=True
    )
    duties_list = duties.add_parser("list", help="list registry duties")
    duties_list.add_argument("--stakeholder", choices=[c.name for c in StakeholderCode])
    duties_list.add_argument("--format", choices=["table", "jsonl"], default="table")
    duties_list.set_defaults(func=_cmd_duties_list)

    gsn = subparsers.add_parser("gsn", help="assurance arguments").add_subparsers(
        dest="subcommand", required=True
    )
    for name, func, help_text in (
        ("validate", _cmd_gsn_validate, "check structural rules, print diagnostics"),
        ("dot", _cmd_gsn_dot, "render as Graphviz DOT"),
        ("triples", _cmd_gsn_triples, "export the argument as triples"),
        ("format", _cmd_gsn_format, "reprint in canonical form"),
    ):
        sub = gsn.add_parser(name, help=help_text)
        sub.add_argument("file")
        sub.set_defaults(func=func)

    triples = subparsers.add_parser("triples", help="triple store").add_subparsers(
        dest="subcommand", required=True
    )
    triples_import = triples.add_parser("import", help="merge files into one store")
    triples_import.add_argument("files", nargs="+")
    triples_import.add_argument("--with-registry", action="store_true")
    triples_import.add_argument("-o", "--output")
    triples_import.set_defaults(func=_cmd_triples_import)
    triples_export = triples.add_parser("export", help="reprint one file in canonical form")
    triples_export.add_argument("files", nargs=1, metavar="file")
    triples_export.set_defaults(func=_cmd_triples_import, with_registry=False, output=None)
    triples_query = triples.add_parser("query", help="conjunctive pattern query")
    triples_query.add_argument("file")
    triples_query.add_argument("patterns", nargs="+")
    triples_query.set_defaults(func=_cmd_triples_query)

    filter_parser = subparsers.add_parser("filter", help="prompt filters")
    filter_sub = filter_parser.add_subparsers(dest="subcommand", required=True)
    train = filter_sub.add_parser("train", help="fit the character statistics filter")
    train.add_argument("--adversarial", required=True)
    train.add_argument("--benign", required=True)
    train.add_argument("-o", "--output", required=True)
    train.add_argument("--alpha", type=float, default=1.0)
    train.add_argument("--bigrams", action="store_true")
    train.set_defaults(func=_cmd_filter_train)
    score_parser = filter_sub.add_parser("score", help="log likelihood ratio scores")
    score_parser.add_argument("--model", required=True)
    score_parser.add_argument("--prompts-file")
    score_parser.add_argument("prompts", nargs="*")
    score_parser.set_defaults(func=_cmd_filter_score, parser=score_parser)
    classify = filter_sub.add_parser("classify", help="A/B verdicts per prompt")
    classify.add_argument("--model")
    classify.add_argument("--blocklist", help="characters to block, as one string")
    classify.add_argument(
        "--block-script",
        action="append",
        default=[],
        choices=sorted(s.value for s in ScriptClass),
        help="block every character of a script",
    )
    classify.add_argument("--prompts-file")
    classify.add_argument("prompts", nargs="*")
    classify.set_defaults(func=_cmd_filter_classify, parser=classify)
    eval_parser = filter_sub.add_parser("eval", help="metrics on a labeled corpus")
    eval_parser.add_argument("--model", required=True)
    eval_parser.add_argument("--corpus", required=True)
    eval_parser.set_defaults(func=_cmd_filter_eval)

    coverage = subparsers.add_parser("coverage", help="duty coverage").add_subparsers(
        dest="subcommand", required=True
    )
    report = coverage.add_parser("report", help="coverage status per duty, as TSV")
    report.add_argument("stores", nargs="+")
    report.set_defaults(func=_cmd_coverage_report)
    trace = coverage.add_parser("trace", help="attack to duty causal chains")
    trace.add_argument("stores", nargs="+")
    trace.add_argument("--attack", required=True)
    trace.set_defaults(func=_cmd_coverage_trace)

    factsheet = subparsers.add_parser("factsheet", help="factsheet rendering").add_subparsers(
        dest="subcommand", required=True
    )
    render = factsheet.add_parser("render", help="assemble inputs and render")
    render.add_argument("--store", action="append", default=[])
    render.add_argument("--gsn")
    render.add_argument("--model")
    render.add_argument("--eval-corpus")
    render.add_argument("--system", default="LLM-based system")
    render.add_argument("--format", choices=["md", "html"], default="md")
    render.add_argument("-o", "--output")
    render.set_defaults(func=_cmd_factsheet_render, parser=render)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector off: a command leaves
    almost no cycles, and each collection would walk every term and triple.
    The collector's state on entry comes back on every way out.
    """
    parser = build_parser()
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()
