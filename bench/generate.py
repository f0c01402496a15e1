"""Seeded input generator for the benchmark workloads.

Everything here uses only the standard library and a ``random.Random``
seeded from the benchmark's ``--seed``. The program under test sees only
the files written; the returned plan objects carry what the generator
intended (triples, planted statuses, planted chain counts, planted
blocked prompts) so that the oracles never ask the program what the right
answer is.

Input sizes are fixed constants. The seed changes structure and content,
never the node, file or prompt counts, so timings from different seeds
measure the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Arguments stay shallower than coverage.MAX_PATH_DEPTH (12): goals sit at
# most GOAL_DEPTH supportedBy hops below the root and a solution one hop
# further. Deeper arguments hit a known defect of the program, where a duty
# whose evidence lies past the cap is reported `uncovered` with no
# diagnostic; until that is fixed the benchmark would only measure the cap.
GOAL_DEPTH = 9
MAX_SUPPORT_DEPTH = GOAL_DEPTH + 1

DUTY_COUNT = 23
STATUSES = ("covered", "contested", "partial", "uncovered")

# case-build: the authoring loop. Skewed sizes, as in a real case where one
# top-level argument is large and most module arguments are small; the
# largest file dominates the super-linear parse.
CASE_BUILD_SIZES = (1500, 700, 400, 240, 140, 90, 60, 40)

# case-audit: one pre-assembled store of about 5e4 triples. One argument
# per duty except the duties planted as uncovered without any argument;
# FACTSHEET_SIZE is the moderate argument also handed to `factsheet render`.
CASE_AUDIT_SIZE = 800
FACTSHEET_SIZE = 300
# Planted statuses per rung; "uncovered" is split into operationalized but
# unevidenced arguments and duties that nothing operationalizes.
AUDIT_STATUS_COUNTS = {"covered": 6, "contested": 6, "partial": 5, "uncovered": 6}
AUDIT_UNARGUED = 3
# Chains that `coverage trace` must find for the traced attack.
TRACE_CHAINS_LOW, TRACE_CHAINS_HIGH = 250, 350

# filter: corpora large enough that interpreter start-up does not dominate
# the two per-prompt rates.
TRAIN_PER_CLASS = 3000
EVAL_PER_CLASS = 4000
SCORE_PROMPTS = 50000

BLOCKLIST = "~^|\u00a6"
BLOCK_SCRIPTS = ("Cyrillic", "Greek")

PREFIXES = {
    "assures": "https://example.org/ns/assures#",
    "atk": "https://example.org/ns/attack#",
    "def": "https://example.org/ns/defense#",
    "euaia": "https://example.org/ns/euaia#",
    "gsn": "https://example.org/ns/gsn#",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "src": "https://example.org/ns/source#",
}

_WORDS = (
    "the model filter prompt gateway screens adversarial benign character script "
    "homoglyph attack defense evidence logged audit retrained threshold calibrated "
    "corpus labeled operator review release pipeline input output unicode mixed "
    "unusual combination blocklist dynamic static score metric report test suite "
    "coverage duty article robustness cybersecurity measure resilient error fault "
    "system provider deployer monitor incident response red team result"
).split()

_CLASS = {
    "goal": "Goal",
    "strategy": "Strategy",
    "solution": "Solution",
    "context": "Context",
    "justification": "Justification",
    "counterclaim": "Counterclaim",
}
_ID_PREFIX = {
    "goal": "G",
    "strategy": "S",
    "solution": "Sn",
    "context": "C",
    "justification": "J",
    "counterclaim": "CC",
}


def iri(curie: str) -> str:
    return f"<{curie}>"


def literal(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def statement(s: str, p: str, o: str) -> str:
    """One line of the triple file format; the same text the program exports."""
    return f"{s} {p} {o} ."


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(6, 14))]
    text = " ".join(words).capitalize() + "."
    if rng.random() < 0.05:
        text = f'{text} See "{rng.choice(_WORDS)}".'
    return text


# ----------------------------------------------------------------------
# GSN arguments


@dataclass
class Argument:
    name: str
    duty: int
    nodes: list[tuple[str, str, str, bool]] = field(default_factory=list)  # id, kind, text, undeveloped
    edges: list[tuple[str, str, str]] = field(default_factory=list)  # source, target, relation
    parents: dict[str, list[str]] = field(default_factory=dict)  # supportedBy, child -> parents

    @property
    def root(self) -> str:
        return self.nodes[0][0]

    def ids(self, kind: str) -> list[str]:
        return [node_id for node_id, k, _, _ in self.nodes if k == kind]

    def text(self) -> str:
        """The argument in the GSN DSL."""
        lines = [f"# argument {self.name}"]
        for node_id, kind, text, undeveloped in self.nodes:
            escaped = text.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'{kind} {node_id} "{escaped}"' + (" undeveloped" if undeveloped else ""))
        lines.extend(f"edge {s} -> {t} {rel}" for s, t, rel in self.edges)
        lines.append(f"duty euaia:d{self.duty}")
        return "\n".join(lines) + "\n"

    def triples(self) -> list[str]:
        """2 * nodes + edges + 1 statements: what `gsn triples` should export."""
        out = []
        for node_id, kind, text, _ in self.nodes:
            out.append(statement(iri(f"gsn:{node_id}"), iri("rdf:type"), iri(f"gsn:{_CLASS[kind]}")))
            out.append(statement(iri(f"gsn:{node_id}"), iri("gsn:statement"), literal(text)))
        for s, t, rel in self.edges:
            out.append(statement(iri(f"gsn:{s}"), iri(f"gsn:{rel}"), iri(f"gsn:{t}")))
        out.append(statement(iri(f"gsn:{self.root}"), iri("assures:operationalizes"), iri(f"euaia:d{self.duty}")))
        return out

    def path_counts(self) -> dict[str, int]:
        """Number of distinct supportedBy paths from the root down to each node."""
        counts: dict[str, int] = {}

        def count(node_id: str) -> int:
            if node_id not in counts:
                parents = self.parents.get(node_id, ())
                counts[node_id] = sum(count(p) for p in parents) if parents else 1
            return counts[node_id]

        for node_id, kind, _, _ in self.nodes:
            if kind in ("goal", "strategy", "solution"):
                count(node_id)
        return counts


def make_argument(
    rng: random.Random, name: str, base: int, size: int, duty: int, developed: bool, sharing: float = 0.08
) -> Argument:
    """A legal, acyclic argument of exactly ``size`` nodes with ids base+1.. base+size.

    Claims (goals, strategies, solutions) form a random tree of bounded
    depth; ``sharing`` adds extra supportedBy edges to goals already placed
    deeper, which gives shared sub-goals. Developed arguments give every
    leaf goal a solution; the others mark leaf goals undeveloped. Contexts,
    justifications and counterclaims attach to random claims. The result
    validates with no diagnostic at all.
    """
    arg = Argument(name, duty)
    next_id = base

    def new(kind: str, undeveloped: bool = False) -> str:
        nonlocal next_id
        next_id += 1
        node_id = f"{_ID_PREFIX[kind]}{next_id}"
        arg.nodes.append((node_id, kind, _sentence(rng), undeveloped))
        return node_id

    n_cc = max(1, size // 50)
    n_ctx = max(1, size // 15)
    n_just = max(1, size // 30)
    n_claim = size - n_cc - n_ctx - n_just
    n_strat = n_claim // 10
    n_sol = max(1, n_claim * 3 // 10)
    n_goal = n_claim - n_strat - n_sol
    assert n_goal >= n_strat + 1, size

    depth: dict[str, int] = {}
    goals_by_depth: list[str] = []  # goals with depth < GOAL_DEPTH, may take children
    strategy_parents: list[str] = []  # goals with depth <= GOAL_DEPTH - 2
    supporters: list[str] = []  # goals and strategies with depth < GOAL_DEPTH
    sol_parents: list[str] = []  # every goal
    kinds: dict[str, str] = {}

    def place(kind: str, parent: str | None) -> str:
        node_id = new(kind)
        kinds[node_id] = kind
        depth[node_id] = 0 if parent is None else depth[parent] + 1
        if parent is not None:
            arg.edges.append((parent, node_id, "supportedBy"))
            arg.parents.setdefault(node_id, []).append(parent)
        d = depth[node_id]
        if kind == "goal":
            sol_parents.append(node_id)
            if d < GOAL_DEPTH:
                goals_by_depth.append(node_id)
                supporters.append(node_id)
            if d <= GOAL_DEPTH - 2:
                strategy_parents.append(node_id)
        elif kind == "strategy" and d < GOAL_DEPTH:
            supporters.append(node_id)
        return node_id

    root = place("goal", None)
    plan = ["strategy"] * n_strat + ["goal"] * (n_goal - 1 - n_strat) + ["solution"] * n_sol
    rng.shuffle(plan)
    for kind in plan:
        if kind == "strategy":
            strategy = place("strategy", rng.choice(strategy_parents))
            place("goal", strategy)  # a strategy always has a supporting goal
        elif kind == "goal":
            place("goal", rng.choice(supporters))
        else:
            place("solution", rng.choice(sol_parents))

    # Shared sub-goals: an extra parent strictly shallower than the child.
    candidates = [g for g in depth if kinds[g] == "goal" and depth[g] >= 2]
    for _ in range(int(sharing * n_claim)):
        child = rng.choice(candidates)
        parent = rng.choice(supporters)
        if depth[parent] < depth[child] and parent not in arg.parents[child]:
            arg.edges.append((parent, child, "supportedBy"))
            arg.parents[child].append(parent)

    has_children = {s for s, _, _ in arg.edges}
    solutions = [i for i in depth if kinds[i] == "solution"]
    for index, (node_id, kind, text, _) in enumerate(arg.nodes):
        if kind == "goal" and node_id not in has_children:
            if developed:
                target = rng.choice(solutions)  # solutions are leaves, so no cycle
                arg.edges.append((node_id, target, "supportedBy"))
                arg.parents.setdefault(target, []).append(node_id)
            else:
                arg.nodes[index] = (node_id, kind, text, True)

    claims = [i for i in depth if kinds[i] != "solution"]
    for kind, count in (("context", n_ctx), ("justification", n_just)):
        for _ in range(count):
            node_id = new(kind)
            arg.edges.append((rng.choice(claims), node_id, "inContextOf"))
    for _ in range(n_cc):
        node_id = new("counterclaim")
        arg.edges.append((node_id, rng.choice(list(depth)), "challenges"))

    # Root first in the node list (Argument.root), the rest shuffled, as
    # hand-written files do not follow the canonical order.
    rest = arg.nodes[1:]
    rng.shuffle(rest)
    arg.nodes[1:] = rest
    rng.shuffle(arg.edges)
    assert len(arg.nodes) == size and arg.nodes[0][0] == root
    return arg


# ----------------------------------------------------------------------
# case-build


@dataclass
class CaseBuildPlan:
    arguments: list[Argument]
    links: list[str]

    @property
    def expected_store(self) -> set[str]:
        out = set(self.links)
        for arg in self.arguments:
            out.update(arg.triples())
        return out


def _attack_links(n_attacks: int, per_attack: int) -> list[str]:
    """Attacks, the defenses that mitigate them (both directions) and each defense's source."""
    out = [statement(iri(f"atk:a{a}"), iri("rdf:type"), iri("assures:Attack")) for a in range(1, n_attacks + 1)]
    for d in range(1, per_attack * n_attacks + 1):
        attack, defense = iri(f"atk:a{(d - 1) // per_attack + 1}"), iri(f"def:d{d}")
        out.append(statement(defense, iri("rdf:type"), iri("assures:Defense")))
        out.append(statement(defense, iri("assures:mitigates"), attack))
        out.append(statement(attack, iri("assures:mitigatedBy"), defense))
        out.append(statement(defense, iri("assures:derivedFrom"), iri(f"src:s{d}")))
        out.append(statement(iri(f"src:s{d}"), iri("rdf:type"), iri("assures:Source")))
    return out


def case_build(seed: int, out: Path, sizes: tuple[int, ...] = CASE_BUILD_SIZES) -> CaseBuildPlan:
    rng = random.Random(f"case-build/{seed}")
    duties = rng.sample(range(1, DUTY_COUNT + 1), len(sizes))
    arguments, base = [], 0
    for index, size in enumerate(sizes):
        name = f"arg{index + 1:02d}"
        arguments.append(make_argument(rng, name, base, size, duties[index], developed=index % 2 == 0))
        base += size
    links = _attack_links(n_attacks=6, per_attack=2)
    for arg in arguments:
        for sol in arg.ids("solution"):
            if rng.random() < 0.15:
                evidence = iri(f"def:d{rng.randint(1, 12)}")
                links.append(statement(iri(f"gsn:{sol}"), iri("assures:evidencedBy"), evidence))
    out.mkdir(parents=True, exist_ok=True)
    for arg in arguments:
        (out / f"{arg.name}.gsn").write_text(arg.text(), encoding="utf-8")
    (out / "links.ttl").write_text(_triple_file(links), encoding="utf-8")
    return CaseBuildPlan(arguments, links)


def _triple_file(lines: list[str]) -> str:
    header = [f"@prefix {p}: <{x}>" for p, x in sorted(PREFIXES.items())]
    return "\n".join(header + lines) + "\n"


# ----------------------------------------------------------------------
# case-audit


@dataclass
class CaseAuditPlan:
    store: list[str]  # statements of store.ttl
    links: list[str]  # statements of links.ttl
    statuses: dict[int, str]
    solutions: dict[int, list[str]]  # duty -> evidenced solution curies
    counterclaims: dict[int, list[str]]  # duty -> unrebutted counterclaim curies
    attack: str
    chains: int
    query: tuple[str, ...]


# Every pattern shares ?s, so the join stays linear in the evidenced
# solutions whatever order the program's planner picks.
AUDIT_QUERY = ("?g gsn:supportedBy ?s", "?s assures:evidencedBy ?e", "?s rdf:type gsn:Solution")


def case_audit(
    seed: int,
    out: Path,
    size: int = CASE_AUDIT_SIZE,
    factsheet_size: int = FACTSHEET_SIZE,
    chains: tuple[int, int] = (TRACE_CHAINS_LOW, TRACE_CHAINS_HIGH),
) -> CaseAuditPlan:
    rng = random.Random(f"case-audit/{seed}")
    statuses_list = [s for s, n in AUDIT_STATUS_COUNTS.items() for _ in range(n)]
    rng.shuffle(statuses_list)
    statuses = {duty: status for duty, status in enumerate(statuses_list, start=1)}
    uncovered = [d for d, s in statuses.items() if s == "uncovered"]
    unargued = set(rng.sample(uncovered, AUDIT_UNARGUED))
    argued = [d for d in statuses if d not in unargued]
    evidenced_kinds = [d for d in argued if statuses[d] in ("covered", "contested")]
    factsheet_duty = rng.choice(evidenced_kinds)

    store: list[str] = [
        statement(iri(f"euaia:d{d}"), iri("rdf:type"), iri("euaia:Duty")) for d in range(1, DUTY_COUNT + 1)
    ]
    arguments: dict[int, Argument] = {}
    base = 0
    for duty in argued:
        n = factsheet_size if duty == factsheet_duty else size
        developed = statuses[duty] != "partial"
        arguments[duty] = make_argument(rng, f"duty{duty}", base, n, duty, developed)
        store.extend(arguments[duty].triples())
        base += n

    n_attacks = 12
    attack = "atk:a1"
    trace_defenses = ["def:d1", "def:d2", "def:d3"]  # the three that mitigate atk:a1
    links = _attack_links(n_attacks, per_attack=3)

    solutions: dict[int, list[str]] = {d: [] for d in statuses}
    counterclaims: dict[int, list[str]] = {d: [] for d in statuses}
    # Evidence for the traced attack first: solutions in evidenced arguments,
    # chosen until the planted number of chains lies in the target band.
    low, high = chains
    chains = 0
    candidates = []
    for duty in evidenced_kinds:
        counts = arguments[duty].path_counts()
        candidates.extend((duty, sol, counts[sol]) for sol in arguments[duty].ids("solution"))
    rng.shuffle(candidates)
    traced: set[str] = set()
    for duty, sol, paths in candidates:
        if chains >= low:
            break
        if chains + paths > high:
            continue
        chains += paths
        traced.add(sol)
        solutions[duty].append(sol)
        store.append(statement(iri(f"gsn:{sol}"), iri("assures:evidencedBy"), iri(rng.choice(trace_defenses))))
    if not low <= chains <= high:
        raise ValueError(f"seed {seed}: planted {chains} chains, outside the target band")
    for duty in evidenced_kinds:
        for sol in arguments[duty].ids("solution"):
            if sol not in traced and rng.random() < 0.12:
                solutions[duty].append(sol)
                if rng.random() < 0.5:
                    evidence = iri(f"def:d{rng.randint(4, 3 * n_attacks)}")
                else:
                    evidence = literal(f"test report {rng.randint(1, 9999)}")
                store.append(statement(iri(f"gsn:{sol}"), iri("assures:evidencedBy"), evidence))
        if not solutions[duty]:  # at least one evidenced solution per evidenced duty
            sol = arguments[duty].ids("solution")[0]
            solutions[duty].append(sol)
            store.append(statement(iri(f"gsn:{sol}"), iri("assures:evidencedBy"), literal("test report 0")))
    for duty, arg in arguments.items():
        ccs = arg.ids("counterclaim")
        if statuses[duty] == "covered":
            rebutted = set(ccs)
        elif statuses[duty] == "contested":
            rebutted = set(rng.sample(ccs, rng.randint(0, len(ccs) - 1)))
        else:
            rebutted = {cc for cc in ccs if rng.random() < 0.5}
        for cc in sorted(rebutted):
            store.append(statement(iri(f"gsn:{cc}"), iri("assures:rebuttedBy"), iri(f"src:r{cc}")))
        counterclaims[duty] = sorted(f"gsn:{cc}" for cc in ccs if cc not in rebutted)
        solutions[duty] = sorted(f"gsn:{s}" for s in solutions[duty])

    rng.shuffle(store)
    out.mkdir(parents=True, exist_ok=True)
    (out / "store.ttl").write_text(_triple_file(store), encoding="utf-8")
    (out / "links.ttl").write_text(_triple_file(links), encoding="utf-8")
    (out / "factsheet.gsn").write_text(arguments[factsheet_duty].text(), encoding="utf-8")
    return CaseAuditPlan(
        store=store,
        links=links,
        statuses=statuses,
        solutions=solutions,
        counterclaims=counterclaims,
        attack=attack,
        chains=chains,
        query=AUDIT_QUERY,
    )


# ----------------------------------------------------------------------
# filter corpora

_LATIN = "abcdefghijklmnopqrstuvwxyz"
_ACCENTED = "\u00e9\u00e8\u00fc\u00f6\u00e4\u00f1\u00e7\u00e0\u00ee"
_HOMOGLYPHS = {  # Latin letter -> Cyrillic or Greek look-alike
    "a": ("\u0430", "\u03b1"),
    "e": ("\u0435", "\u03b5"),
    "o": ("\u043e", "\u03bf"),
    "p": ("\u0440", "\u03c1"),
    "c": ("\u0441",),
    "x": ("\u0445", "\u03c7"),
    "i": ("\u0456", "\u03b9"),
}
_BURSTS = ("!!!", "???", "**", "##", "@@", "$$", "%%", "&&", "==")
# Short phrases both classes share; duplicates across labels give tied
# scores and keep the ROC sweep from being trivial.
_SHARED = (
    "hello there",
    "what is this",
    "ignore it",
    "tell me more",
    "please continue",
    "summarize the text",
    "translate this",
    "is it safe",
)


@dataclass
class FilterPlan:
    adversarial: list[str]
    benign: list[str]
    labeled: list[tuple[str, str]]  # (label A/B, prompt)
    prompts: list[str]
    blocked: list[bool]  # per prompt in ``prompts``: a blocked character was planted


def _words(rng: random.Random) -> list[str]:
    out = []
    for _ in range(rng.randint(4, 12)):
        word = rng.choice(_WORDS)
        if rng.random() < 0.08:
            word = word + rng.choice(_ACCENTED)
        out.append(word)
    return out


def _benign(rng: random.Random) -> tuple[str, bool]:
    if rng.random() < 0.06:
        return rng.choice(_SHARED), False
    words = _words(rng)
    blocked = False
    if rng.random() < 0.04:  # a legitimate Greek or Cyrillic letter
        words.insert(rng.randrange(len(words)), rng.choice(("\u03c0", "\u0436", "\u03bb", "\u0434")))
        blocked = True
    text = " ".join(words)
    if rng.random() < 0.3:
        text = text.capitalize() + rng.choice(".?!")
    return text, blocked


def _adversarial(rng: random.Random) -> tuple[str, bool]:
    roll = rng.random()
    if roll < 0.08:
        return rng.choice(_SHARED), False
    chars = list(" ".join(_words(rng)))
    blocked = False
    if roll < 0.30:  # looks benign
        pass
    elif roll < 0.65:  # homoglyph substitution
        for i, c in enumerate(chars):
            if c in _HOMOGLYPHS and rng.random() < 0.3:
                chars[i] = rng.choice(_HOMOGLYPHS[c])
                blocked = True
    elif roll < 0.85:  # punctuation bursts
        for _ in range(rng.randint(1, 3)):
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(_BURSTS))
    else:  # blocklisted characters
        for _ in range(rng.randint(1, 2)):
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(BLOCKLIST))
        blocked = True
    text = "".join(chars).strip() or "x"
    return text, blocked


def filter_inputs(
    seed: int,
    out: Path,
    train: int = TRAIN_PER_CLASS,
    evaluation: int = EVAL_PER_CLASS,
    prompts: int = SCORE_PROMPTS,
) -> FilterPlan:
    rng = random.Random(f"filter/{seed}")
    adversarial = [_adversarial(rng)[0] for _ in range(train)]
    benign = [_benign(rng)[0] for _ in range(train)]
    labeled = [("A", _adversarial(rng)[0]) for _ in range(evaluation)]
    labeled += [("B", _benign(rng)[0]) for _ in range(evaluation)]
    rng.shuffle(labeled)
    mixed = [_adversarial(rng) if rng.random() < 0.5 else _benign(rng) for _ in range(prompts)]
    out.mkdir(parents=True, exist_ok=True)
    (out / "adversarial.txt").write_text("\n".join(adversarial) + "\n", encoding="utf-8")
    (out / "benign.txt").write_text("\n".join(benign) + "\n", encoding="utf-8")
    (out / "labeled.txt").write_text("".join(f"{a}\t{p}\n" for a, p in labeled), encoding="utf-8")
    (out / "prompts.txt").write_text("\n".join(p for p, _ in mixed) + "\n", encoding="utf-8")
    return FilterPlan(adversarial, benign, labeled, [p for p, _ in mixed], [b for _, b in mixed])
