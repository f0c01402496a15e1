"""Goal Structuring Notation arguments: model, validation, DSL and exports.

An argument is a directed acyclic graph of goals, strategies, solutions,
contexts, justifications and counterclaims. SupportedBy edges carry the
claim decomposition (parent node first), InContextOf attaches contexts and
justifications, and Challenges lets a counterclaim dispute a claim.

Arguments are immutable values: ``add_node`` and ``add_edge`` return new
arguments and enforce the structural rules at insert time. ``parse_gsn``
checks the same rules over a whole document and builds the argument once.
"""

from __future__ import annotations

import graphlib
import re
from collections import namedtuple
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple

from . import vocab
from .triples import InputError, Iri, Literal, Triple, escape_quoted, scan_quoted


class GsnError(ValueError):
    """Violation of the argument structure rules."""


class GsnParseError(GsnError, InputError):
    """DSL text that does not parse; carries the offending line."""


class GsnNodeKind(Enum):
    GOAL = "goal"
    STRATEGY = "strategy"
    SOLUTION = "solution"
    CONTEXT = "context"
    JUSTIFICATION = "justification"
    COUNTERCLAIM = "counterclaim"


# Node ids are the kind's prefix plus a positive integer, e.g. G1, Sn2, CC1.
ID_PREFIXES: dict[GsnNodeKind, str] = {
    GsnNodeKind.GOAL: "G",
    GsnNodeKind.STRATEGY: "S",
    GsnNodeKind.SOLUTION: "Sn",
    GsnNodeKind.CONTEXT: "C",
    GsnNodeKind.JUSTIFICATION: "J",
    GsnNodeKind.COUNTERCLAIM: "CC",
}

_KIND_ORDER = {kind: index for index, kind in enumerate(GsnNodeKind)}
_CLASS_IRIS: dict[GsnNodeKind, Iri] = {
    GsnNodeKind.GOAL: vocab.GOAL,
    GsnNodeKind.STRATEGY: vocab.STRATEGY,
    GsnNodeKind.SOLUTION: vocab.SOLUTION,
    GsnNodeKind.CONTEXT: Iri("gsn", "Context"),
    GsnNodeKind.JUSTIFICATION: Iri("gsn", "Justification"),
    GsnNodeKind.COUNTERCLAIM: Iri("gsn", "Counterclaim"),
}


class GsnRelation(Enum):
    SUPPORTED_BY = "supportedBy"
    IN_CONTEXT_OF = "inContextOf"
    CHALLENGES = "challenges"


_G = GsnNodeKind.GOAL
_S = GsnNodeKind.STRATEGY
_SN = GsnNodeKind.SOLUTION
_C = GsnNodeKind.CONTEXT
_J = GsnNodeKind.JUSTIFICATION
_CC = GsnNodeKind.COUNTERCLAIM

# Which (source kind, target kind) pairs each relation may connect.
LEGAL_EDGES: dict[GsnRelation, frozenset[tuple[GsnNodeKind, GsnNodeKind]]] = {
    GsnRelation.SUPPORTED_BY: frozenset({(_G, _G), (_G, _S), (_S, _G), (_G, _SN)}),
    GsnRelation.IN_CONTEXT_OF: frozenset({(_G, _C), (_G, _J), (_S, _C), (_S, _J)}),
    GsnRelation.CHALLENGES: frozenset({(_CC, _G), (_CC, _S), (_CC, _SN)}),
}


class GsnNode(namedtuple("GsnNode", "id kind statement undeveloped")):
    """One node. Every way of building one (the constructor, ``_make``,
    ``_replace`` and, from Python 3.13, ``copy.replace``) checks it.
    """

    __slots__ = ()

    def __new__(cls, id: str, kind: GsnNodeKind, statement: str, undeveloped: bool = False) -> "GsnNode":
        prefix = ID_PREFIXES[kind]
        if not id.startswith(prefix) or not re.fullmatch(r"[1-9][0-9]*", id[len(prefix):]):
            raise GsnError(f"node id {id!r} must be {prefix!r} followed by a positive integer")
        if not statement:
            raise GsnError(f"node {id}: statement must be non-empty")
        if undeveloped and kind is not GsnNodeKind.GOAL:
            raise GsnError(f"node {id}: only goals can be marked undeveloped")
        return tuple.__new__(cls, (id, kind, statement, undeveloped))

    @classmethod
    def _make(cls, iterable: Iterable) -> "GsnNode":
        return cls(*iterable)

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], int(self.id[len(ID_PREFIXES[self.kind]):]))


class GsnEdge(NamedTuple):
    source: str
    target: str
    relation: GsnRelation


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(NamedTuple):
    severity: Severity
    subject: str
    message: str


def _node_key(node: GsnNode) -> tuple[int, int]:
    return node.sort_key


def _edge_key(edge: GsnEdge) -> str:
    return f"edge {edge.source} -> {edge.target} {edge.relation.value}"


class GsnArgument(namedtuple("GsnArgument", "nodes edges duty_link", defaults=((), (), None))):
    """An immutable argument graph with canonical node and edge order: a
    tuple of ``nodes``, ``edges`` and ``duty_link``, with an instance
    ``__dict__`` for its cached indexes.
    """

    @cached_property
    def _by_id(self) -> dict[str, GsnNode]:
        # reversed, so a repeated id in a raw argument maps to its first node
        return {node.id: node for node in reversed(self.nodes)}

    @cached_property
    def _children(self) -> dict[str, list[str]]:
        children: dict[str, list[str]] = {}
        for edge in self.edges:
            if edge.relation is GsnRelation.SUPPORTED_BY:
                children.setdefault(edge.source, []).append(edge.target)
        return children

    def node(self, node_id: str) -> GsnNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._by_id

    def add_node(self, node: GsnNode) -> "GsnArgument":
        """Insert a node, rejecting a duplicate id.

        Both inserts check the whole result, so they also reject an argument
        from the raw constructor that already breaks a rule.
        """
        return _assemble(
            [(None, n) for n in (*self.nodes, node)], [(None, e) for e in self.edges], self.duty_link
        )

    def add_edge(self, edge: GsnEdge) -> "GsnArgument":
        """Insert an edge, enforcing endpoint existence, legality and acyclicity."""
        if edge in self.edges:
            return self
        return _assemble(
            [(None, n) for n in self.nodes], [(None, e) for e in (*self.edges, edge)], self.duty_link
        )

    def with_duty_link(self, duty_iri: str) -> "GsnArgument":
        return self._replace(duty_link=duty_iri)

    def supported_children(self, node_id: str) -> list[str]:
        return list(self._children.get(node_id, ()))

    def root_goals(self) -> list[GsnNode]:
        """Goals with no incoming supportedBy edge, in canonical order."""
        supported = {
            e.target for e in self.edges if e.relation is GsnRelation.SUPPORTED_BY
        }
        return [n for n in self.nodes if n.kind is GsnNodeKind.GOAL and n.id not in supported]


# ----------------------------------------------------------------------
# structural rules, shared by the builder and by validate


def _missing_endpoint(edge: GsnEdge, by_id: dict[str, GsnNode]) -> str | None:
    """The first endpoint of the edge that is not a node, source first."""
    for endpoint in (edge.source, edge.target):
        if endpoint not in by_id:
            return endpoint
    return None


def _illegal_pair(edge: GsnEdge, by_id: dict[str, GsnNode]) -> str | None:
    pair = (by_id[edge.source].kind, by_id[edge.target].kind)
    if pair in LEGAL_EDGES[edge.relation]:
        return None
    return f"{edge.relation.value} may not connect {pair[0].value} to {pair[1].value}"


def _find_cycle(pairs: Iterable[tuple[str, str]], nodes: Iterable[str] = ()) -> list[str] | None:
    """One supportedBy cycle of the (source, target) pairs, or None if acyclic."""
    graph: dict[str, set[str]] = {node_id: set() for node_id in nodes}
    for source, target in pairs:
        graph.setdefault(source, set()).add(target)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


def _first_cycle_closing(supports: list[tuple[int | None, GsnEdge]]) -> tuple[int | None, GsnEdge] | None:
    """The first supportedBy edge, in order, that closes a cycle.

    Adding edges never removes a cycle, so the prefixes of ``supports`` turn
    cyclic at one length and stay so; a binary search over the prefix
    length finds it with O(log E) topological passes, and one pass when
    there is no cycle at all.
    """

    def cyclic(count: int) -> bool:
        return _find_cycle((e.source, e.target) for _, e in supports[:count]) is not None

    acyclic_len, cyclic_len = 0, len(supports)
    if not cyclic(cyclic_len):
        return None
    while cyclic_len - acyclic_len > 1:
        middle = (acyclic_len + cyclic_len) // 2
        if cyclic(middle):
            cyclic_len = middle
        else:
            acyclic_len = middle
    return supports[cyclic_len - 1]


def _rejection(message: str, line: int | None) -> GsnError:
    return GsnError(message) if line is None else GsnParseError(message, line)


def _assemble(
    node_lines: Iterable[tuple[int | None, GsnNode]],
    edge_lines: Iterable[tuple[int | None, GsnEdge]],
    duty_link: str | None = None,
) -> GsnArgument:
    """Check the insert rules in order and build the argument in one step.

    The result is what inserting the nodes, then the edges, one at a time
    would give: the first repeated node id is rejected; then, in order, a
    repeat of an accepted edge is ignored and the first edge with an
    undeclared endpoint, an illegal kind pair or that closes a supportedBy
    cycle is rejected. A rejection carries the item's line, when it has one.
    Runs in O(V + E) plus the final sort when the edges are acyclic.
    """
    by_id: dict[str, GsnNode] = {}
    for line, node in node_lines:
        if node.id in by_id:
            raise _rejection(f"duplicate node id {node.id!r}", line)
        by_id[node.id] = node

    accepted: dict[GsnEdge, int | None] = {}
    failure: tuple[str, int | None] | None = None
    for line, edge in edge_lines:
        if edge in accepted:
            continue
        missing = _missing_endpoint(edge, by_id)
        problem = (
            f"edge endpoint {missing!r} is not a declared node" if missing is not None
            else _illegal_pair(edge, by_id)
        )
        if problem is not None:
            failure = (problem, line)
            break
        accepted[edge] = line

    # Every accepted edge precedes the failing one, so a cycle among them
    # is met first.
    closing = _first_cycle_closing(
        [(line, e) for e, line in accepted.items() if e.relation is GsnRelation.SUPPORTED_BY]
    )
    if closing is not None:
        line, edge = closing
        raise _rejection(f"edge {edge.source} -> {edge.target} would create a supportedBy cycle", line)
    if failure is not None:
        raise _rejection(*failure)
    return GsnArgument(
        tuple(sorted(by_id.values(), key=_node_key)),
        tuple(sorted(accepted, key=_edge_key)),
        duty_link,
    )


# ----------------------------------------------------------------------
# validation

def validate(argument: GsnArgument) -> list[Diagnostic]:
    """Structural diagnostics; empty iff well-formed and fully developed.

    Errors cover supportedBy cycles, edges that break the legality matrix
    or reference missing nodes, strategies with no supporting goal, and a
    non-empty argument without a root goal. Warnings cover goals with no
    support that are not marked undeveloped, and counterclaims that
    challenge nothing.
    """
    errors: list[Diagnostic] = []
    warnings: list[Diagnostic] = []
    ids = argument._by_id

    for edge in argument.edges:
        missing = _missing_endpoint(edge, ids)
        if missing is not None:
            errors.append(
                Diagnostic(Severity.ERROR, _edge_key(edge), f"undeclared endpoint {missing!r}")
            )
            continue
        problem = _illegal_pair(edge, ids)
        if problem is not None:
            errors.append(Diagnostic(Severity.ERROR, _edge_key(edge), problem))

    cycle = _find_cycle(
        (
            (edge.source, edge.target)
            for edge in argument.edges
            if edge.relation is GsnRelation.SUPPORTED_BY and edge.source in ids and edge.target in ids
        ),
        (node.id for node in argument.nodes),
    )
    if cycle is not None:
        errors.append(Diagnostic(Severity.ERROR, cycle[0], f"supportedBy cycle: {' -> '.join(cycle)}"))
    elif argument.nodes and not argument.root_goals():
        errors.append(
            Diagnostic(Severity.ERROR, "argument", "non-empty argument has no root goal")
        )

    challengers = {e.source for e in argument.edges if e.relation is GsnRelation.CHALLENGES}
    for node in argument.nodes:
        children = argument._children.get(node.id, ())
        if node.kind is GsnNodeKind.STRATEGY:
            if not any(c in ids and ids[c].kind is GsnNodeKind.GOAL for c in children):
                errors.append(
                    Diagnostic(Severity.ERROR, node.id, "strategy has no supporting goal")
                )
        elif node.kind is GsnNodeKind.GOAL:
            if not children and not node.undeveloped:
                warnings.append(
                    Diagnostic(
                        Severity.WARNING, node.id, "goal has no support and is not marked undeveloped"
                    )
                )
        elif node.kind is GsnNodeKind.COUNTERCLAIM and node.id not in challengers:
            warnings.append(
                Diagnostic(Severity.WARNING, node.id, "counterclaim challenges nothing")
            )

    errors.sort(key=lambda d: (d.subject, d.message))
    warnings.sort(key=lambda d: (d.subject, d.message))
    return errors + warnings


def _require_valid(argument: GsnArgument) -> None:
    problems = [d for d in validate(argument) if d.severity is Severity.ERROR]
    if problems:
        first = problems[0]
        raise GsnError(f"argument has {len(problems)} error(s); first: {first.subject}: {first.message}")


# ----------------------------------------------------------------------
# textual DSL

_KEYWORDS = {kind.value: kind for kind in GsnNodeKind}
_RELATIONS = {rel.value: rel for rel in GsnRelation}
_NODE_HEAD_RE = re.compile(r"\s*\S+\s+(\S+)\s+")  # keyword and id, before the statement
# A line up to its comment: text other than '"' and '#', and quoted strings,
# in which '\' escapes any character and '#' is text; an unterminated string
# runs to the end of the line.
_CODE_RE = re.compile(r'[^"#]*(?:"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)[^"#]*)*', re.DOTALL)


def _strip_comment(line: str) -> str:
    return line[: _CODE_RE.match(line).end()]


def _scan_gsn(
    text: str,
) -> tuple[list[tuple[int, GsnNode]], list[tuple[int, GsnEdge]], tuple[int, str] | None]:
    """The node lines, edge lines and duty line of a DSL text, in file order."""
    node_lines: list[tuple[int, GsnNode]] = []
    edge_lines: list[tuple[int, GsnEdge]] = []
    duty_line: tuple[int, str] | None = None

    for lineno, raw in enumerate(text.split("\n"), 1):
        code = _strip_comment(raw).rstrip()  # columns count within this, as in the raw line
        line = code.lstrip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        if keyword in _KEYWORDS:
            match = _NODE_HEAD_RE.match(code)
            if not match:
                raise GsnParseError("expected node id and statement", lineno)
            node_id = match.group(1)
            if not code.startswith('"', match.end()):
                raise GsnParseError("expected quoted statement", lineno, match.end() + 1)
            statement, end = scan_quoted(code, match.end(), lineno, "statement", GsnParseError)
            tail = code[end:].strip()
            undeveloped = False
            if tail == "undeveloped":
                undeveloped = True
            elif tail:
                raise GsnParseError(f"unexpected trailing text {tail!r}", lineno)
            try:
                node_lines.append(
                    (lineno, GsnNode(node_id, _KEYWORDS[keyword], statement, undeveloped))
                )
            except GsnError as exc:
                raise GsnParseError(str(exc), lineno) from None
        elif keyword == "edge":
            match = re.match(r"^edge\s+(\S+)\s+->\s+(\S+)\s+(\S+)$", line)
            if not match:
                raise GsnParseError("expected 'edge <ID> -> <ID> <relation>'", lineno)
            relation = _RELATIONS.get(match.group(3))
            if relation is None:
                raise GsnParseError(f"unknown relation {match.group(3)!r}", lineno)
            edge_lines.append((lineno, GsnEdge(match.group(1), match.group(2), relation)))
        elif keyword == "duty":
            match = re.match(r"^duty\s+(\S+)$", line)
            if not match:
                raise GsnParseError("expected 'duty <iri>'", lineno)
            if duty_line is not None:
                raise GsnParseError("duplicate duty line", lineno)
            duty_line = (lineno, match.group(1))
        else:
            raise GsnParseError(f"unknown keyword {keyword!r}", lineno)

    return node_lines, edge_lines, duty_line


def parse_gsn(text: str) -> GsnArgument:
    """Parse the DSL: node lines, ``edge A -> B relation`` lines, one optional
    ``duty <iri>`` line, ``#`` comments. Nodes may be declared in any order
    relative to the edges that use them.
    """
    node_lines, edge_lines, duty_line = _scan_gsn(text)
    argument = _assemble(node_lines, edge_lines)
    if duty_line is not None:
        try:
            Iri.parse(duty_line[1])
        except ValueError as exc:
            raise GsnParseError(str(exc), duty_line[0]) from None
        argument = argument.with_duty_link(duty_line[1])
    return argument


def serialize_gsn(argument: GsnArgument) -> str:
    """Canonical DSL text: nodes by kind then id, edges lexicographic,
    duty line last. ``parse_gsn(serialize_gsn(a))`` reproduces ``a``.
    """
    _require_valid(argument)
    lines = []
    for node in argument.nodes:
        line = f'{node.kind.value} {node.id} "{escape_quoted(node.statement)}"'
        if node.undeveloped:
            line += " undeveloped"
        lines.append(line)
    lines.extend(sorted(_edge_key(edge) for edge in argument.edges))
    if argument.duty_link is not None:
        lines.append(f"duty {argument.duty_link}")
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# exports

_DOT_SHAPES = {
    GsnNodeKind.GOAL: "box",
    GsnNodeKind.STRATEGY: "parallelogram",
    GsnNodeKind.SOLUTION: "ellipse",
    GsnNodeKind.CONTEXT: "note",
    GsnNodeKind.JUSTIFICATION: "hexagon",
    GsnNodeKind.COUNTERCLAIM: "octagon",
}
_DOT_STYLES = {
    GsnRelation.SUPPORTED_BY: "solid",
    GsnRelation.IN_CONTEXT_OF: "dashed",
    GsnRelation.CHALLENGES: "dotted",
}


def render_dot(argument: GsnArgument) -> str:
    """DOT digraph with one shape per node kind and one style per relation."""
    _require_valid(argument)
    lines = ["digraph gsn {", "  rankdir=TB;"]
    for node in argument.nodes:
        label = f"{node.id}\n{node.statement}"
        if node.undeveloped:
            label += "\n(undeveloped)"
        lines.append(
            f'  {node.id} [shape={_DOT_SHAPES[node.kind]}, label="{escape_quoted(label)}"];'
        )
    for edge in sorted(argument.edges, key=_edge_key):
        lines.append(f"  {edge.source} -> {edge.target} [style={_DOT_STYLES[edge.relation]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def argument_to_triples(argument: GsnArgument) -> list[Triple]:
    """Triple view of the argument.

    Per node a type triple and a statement triple; per edge one relation
    triple (source first). When a duty link is set, one ``operationalizes``
    triple from the canonically first root goal. Total count is therefore
    ``2 * nodes + edges`` plus one for the duty link.
    """
    _require_valid(argument)
    triples: list[Triple] = []
    for node in argument.nodes:
        iri = vocab.gsn_node_iri(node.id)
        triples.append(Triple(iri, vocab.RDF_TYPE, _CLASS_IRIS[node.kind]))
        triples.append(Triple(iri, vocab.GSN_STATEMENT, Literal(node.statement)))
    relation_iris = {
        GsnRelation.SUPPORTED_BY: vocab.GSN_SUPPORTED_BY,
        GsnRelation.IN_CONTEXT_OF: vocab.GSN_IN_CONTEXT_OF,
        GsnRelation.CHALLENGES: vocab.GSN_CHALLENGES,
    }
    for edge in sorted(argument.edges, key=_edge_key):
        triples.append(
            Triple(
                vocab.gsn_node_iri(edge.source),
                relation_iris[edge.relation],
                vocab.gsn_node_iri(edge.target),
            )
        )
    if argument.duty_link is not None:
        roots = argument.root_goals()
        if not roots:
            raise GsnError("duty link requires a root goal")
        triples.append(
            Triple(vocab.gsn_node_iri(roots[0].id), vocab.OPERATIONALIZES, Iri.parse(argument.duty_link))
        )
    return triples
