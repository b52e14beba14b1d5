"""Relational labelled automata and their cofibrant replacement.

A relational automaton is a labelled graph whose edges carry *sets* of
sources and targets (possibly empty or plural), plus initial and accepting
state sets.  A word is recognized when some chain of edges carries it from
an initial to an accepting state, one matching source/target per step.

The generating cofibrations build exactly the automata that concatenate
well: initial states only ever gain outgoing edges, accepting states are
reached through a dedicated target per edge, and an internal state is only
added together with its complete star of incident edges.  The cofibrant
replacement below realizes that shape explicitly; its defining contract is
that the projection back to the input has the unique right lifting
property against every generator, which is checked by counting fillers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import combinations_with_replacement, repeat
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .cells import Carrier, CellMorphism, Structure
from .lifting import Attachment, GeneratorSet, TheoremReport, lifting_reports, replay
from .pcs import FormatError, _known_keys, _strings

ST = "st"
ED = "ed"


class Edge(NamedTuple):
    label: str
    sources: frozenset[str]
    targets: frozenset[str]


def _edge(label: str, sources: Iterable[str] = (), targets: Iterable[str] = ()) -> Edge:
    return Edge(label, frozenset(sources), frozenset(targets))


# An ``Edge`` made from a ready tuple, without the Python-level ``__new__``
# of the named tuple: ``_new_edge(Edge, (label, sources, targets))``.
_new_edge = tuple.__new__


def _natural(eid: str) -> tuple[int, str]:
    return (len(eid), eid)


def _natural_order(eids: Iterable[str]) -> list[str]:
    """Edge ids in natural order, from two C-level sorts: by name, then
    stably by length."""
    return sorted(sorted(eids), key=len)


class RelAutomaton:
    """A finite relational automaton over a fixed alphabet.

    Objects are immutable after construction.  The relational view
    (``_view``) and the edge index (``_index``: the edge ids in natural
    order) are therefore computed once, on first use, and never go stale.
    """

    __slots__ = ("alphabet", "states", "edges", "initial", "accepting", "_view", "_index")

    def __init__(
        self,
        alphabet: Iterable[str],
        states: Iterable[str],
        edges: Mapping[str, Edge],
        initial: Iterable[str],
        accepting: Iterable[str],
    ):
        self.alphabet = frozenset(alphabet)
        self.states = frozenset(states)
        self.edges = dict(edges)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self._view = None
        self._index = None
        if not self.initial <= self.states or not self.accepting <= self.states:
            raise ValueError("initial/accepting states must be states")
        for eid, e in self.edges.items():
            if e.label not in self.alphabet:
                raise ValueError(f"edge {eid!r} label {e.label!r} not in alphabet")
            if not e.sources <= self.states or not e.targets <= self.states:
                raise ValueError(f"edge {eid!r} endpoints must be states")

    def edge_ids(self) -> tuple[str, ...]:
        """Edge ids in natural order (by length, then by name), built once."""
        if self._index is None:
            self._index = tuple(_natural_order(self.edges))
        return self._index

    def internal_states(self) -> list[str]:
        """States with both incoming and outgoing edges, sorted."""
        edges = self.edges.values()
        return sorted(set().union(*(e.targets for e in edges)) & set().union(*(e.sources for e in edges)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelAutomaton)
            and self.alphabet == other.alphabet
            and self.states == other.states
            and self.edges == other.edges
            and self.initial == other.initial
            and self.accepting == other.accepting
        )

    __hash__ = None

    def __getstate__(self):  # the caches stay behind: the view holds closures
        return None, {**{s: getattr(self, s) for s in self.__slots__}, "_view": None, "_index": None}

    def __repr__(self) -> str:
        return (
            f"RelAutomaton({len(self.states)} states, {len(self.edges)} edges, "
            f"|I|={len(self.initial)}, |T|={len(self.accepting)})"
        )


def automaton(
    alphabet: Iterable[str],
    states: Iterable[str],
    edges: Sequence[tuple[str, Iterable[str], Iterable[str]]],
    initial: Iterable[str],
    accepting: Iterable[str],
) -> RelAutomaton:
    """Convenience builder; edges are (label, sources, targets) triples."""
    table = {f"e{k}": _edge(l, s, t) for k, (l, s, t) in enumerate(edges)}
    return RelAutomaton(alphabet, states, table, initial, accepting)


def to_json_dict(A: RelAutomaton) -> dict:
    return {
        "alphabet": sorted(A.alphabet),
        "states": sorted(A.states),
        "initial": sorted(A.initial),
        "accepting": sorted(A.accepting),
        "edges": [
            {
                "label": A.edges[eid].label,
                "sources": sorted(A.edges[eid].sources),
                "targets": sorted(A.edges[eid].targets),
            }
            for eid in A.edge_ids()
        ],
    }


def from_json_dict(data: dict) -> RelAutomaton:
    if not isinstance(data, dict):
        raise FormatError("automaton must be a JSON object")
    _known_keys(data, ("alphabet", "states", "initial", "accepting", "edges"))
    for key in ("alphabet", "states", "initial", "accepting"):
        if not _strings(data.get(key, [])):
            raise FormatError(f"'{key}' must be a list of strings")
    # a word is printed as its letters joined, which names it only when
    # every letter is one character
    for letter in data.get("alphabet", []):
        if len(letter) != 1:
            raise FormatError(f"alphabet letter {letter!r} is not one character")
    states = data.get("states", [])
    if len(set(states)) != len(states):
        raise FormatError("duplicate state ids")
    entries = data.get("edges", [])
    if not isinstance(entries, list):
        raise FormatError("'edges' must be a list")
    edges: dict[str, Edge] = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "label" not in entry:
            raise FormatError("edge entries must be objects with a label")
        _known_keys(entry, ("label", "sources", "targets"))
        label = entry["label"]
        sources = entry.get("sources", [])
        targets = entry.get("targets", [])
        if not isinstance(label, str):
            raise FormatError("edge label must be a string")
        if not (_strings(sources) and _strings(targets)):
            raise FormatError("edge endpoints must be lists of strings")
        edges[f"e{k}"] = _edge(label, sources, targets)
    try:
        return RelAutomaton(
            data.get("alphabet", []),
            states,
            edges,
            data.get("initial", []),
            data.get("accepting", []),
        )
    except ValueError as exc:
        raise FormatError(str(exc))


# -- language ---------------------------------------------------------------

Word = tuple[str, ...]

# The one word limit: words up to length L number about |alphabet|^L.  Over
# `abc`, the 88,573 up to length 10 print as 1.55 MB in 0.4 s with a 41 MB
# peak RSS, up to 12 as 15.5 MB with 214 MB (Python 3.11, shared 2-core VM)
MAX_WORDS = 100_000


class WordLimitError(ValueError):
    """A word search found more words than its limit."""


def language_upto(A: RelAutomaton, L: int) -> set[Word]:
    """All recognized words of length at most ``L``.

    Depth-first over prefixes with state-set transitions: a letter maps a
    state set to all targets of matching edges touched by it.  The search
    keeps an explicit stack of one frame per prefix letter, so no ``L``
    meets the recursion limit.  Each step ``(state set, letter)`` scans the
    letter's edges once per call, and is kept for the call: the cost is one
    scan per distinct step and one lookup per prefix and letter, the memory
    the stack and one set per distinct step.  A prefix is extended only
    when its state set meets the states within the letters left of an
    accepting state, found by one backward pass: so each prefix extended
    is a prefix of a word found, at most ``L`` per word.  The search stops
    with a ``WordLimitError`` as soon as it has found more than
    ``MAX_WORDS`` words.
    """
    if L < 0:
        raise ValueError(f"length bound must be non-negative, got {L}")
    by_label: dict[str, list[Edge]] = defaultdict(list)
    before: dict[str, set[str]] = defaultdict(set)
    for e in A.edges.values():
        by_label[e.label].append(e)
        for t in e.targets:
            before[t] |= e.sources
    # within[r]: the states from which some word of at most r letters is accepted
    within = [frozenset(A.accepting)]
    frontier = within[0]
    while frontier and len(within) < L:
        within.append(within[-1].union(*map(before.__getitem__, frontier)))
        frontier = within[-1] - within[-2]
    within += within[-1:] * (L - len(within))
    letters = sorted(by_label)
    start = frozenset(A.initial)
    words: set[Word] = {()} if start & A.accepting else set()
    prefix: list[str] = []
    step: dict[tuple[frozenset, str], frozenset] = {}
    # Frame k: the active states after the first k letters of ``prefix``,
    # the letters still to try after them, and the states within the
    # letters left after the next one.
    stack = [(start, iter(letters), within[L - 1])] if L > 0 else []
    while stack:
        active, untried, live = stack[-1]
        for a in untried:
            nxt = step.get((active, a))
            if nxt is None:
                nxt = step[(active, a)] = frozenset().union(*(e.targets for e in by_label[a] if e.sources & active))
            if not live.isdisjoint(nxt):
                break
        else:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        prefix.append(a)
        if nxt & A.accepting:
            words.add(tuple(prefix))
            if len(words) > MAX_WORDS:
                raise WordLimitError(f"the count of words up to length {L} exceeds the limit {MAX_WORDS}")
        if len(prefix) < L:
            stack.append((nxt, iter(letters), within[L - 1 - len(prefix)]))
        else:
            prefix.pop()
    return words


# -- carrier ----------------------------------------------------------------


INITIAL, ACCEPTING = "initial", "accepting"
SRC, TGT = "src", "tgt"


def _cell_order(cell) -> tuple:
    """States by name, then edges in natural order."""
    kind, name = cell
    return (0, name) if kind == ST else (1,) + _natural(name)


class AutomatonCarrier(Carrier):
    """Relational automata as relational structures.

    Cells are tagged pairs: ``("st", state)`` and ``("ed", edge_id)``.  A
    state has sort ``"st"`` and may carry the marks ``initial`` and
    ``accepting``; an edge has sort ``("ed", label)`` and the relations
    ``src`` and ``tgt`` to its endpoints.
    """

    # Bound on this class as well, so that profiling can wrap this
    # carrier's searches and colimits apart from the other carrier's.
    hom = Carrier.hom
    coproduct = Carrier.coproduct
    quotient = Carrier.quotient

    def encode(self, A: RelAutomaton) -> Structure:
        sort: dict = dict.fromkeys(zip(repeat(ST), A.states), ST)
        for eid, e in A.edges.items():
            sort[(ED, eid)] = (ED, e.label)
        marks = {(ST, s): frozenset({INITIAL}) for s in A.initial}
        for s in A.accepting:
            marks[(ST, s)] = marks.get((ST, s), frozenset()) | {ACCEPTING}
        edges = A.edges

        def relations() -> dict:
            rel = {}
            for eid, e in edges.items():
                cell = (ED, eid)
                if e.sources:
                    rel[(cell, SRC)] = frozenset(zip(repeat(ST), e.sources))
                if e.targets:
                    rel[(cell, TGT)] = frozenset(zip(repeat(ST), e.targets))
            return rel

        return Structure(sort, marks, _cell_order, relations)

    def build(self, objs, images) -> RelAutomaton:
        states: set[str] = set()
        initial: set[str] = set()
        accepting: set[str] = set()
        edges: dict[str, Edge] = {}
        for A, image in zip(objs, images):
            names = {s: image[(ST, s)][1] for s in A.states}
            state = names.__getitem__
            states.update(names.values())
            initial.update(map(state, A.initial))
            accepting.update(map(state, A.accepting))
            for eid, e in A.edges.items():
                new = image[(ED, eid)][1]
                sources = frozenset(map(state, e.sources))
                targets = frozenset(map(state, e.targets))
                glued = edges.get(new)
                if glued is not None:
                    sources |= glued.sources
                    targets |= glued.targets
                edges[new] = _new_edge(Edge, (e.label, sources, targets))
        return RelAutomaton(
            frozenset().union(*(A.alphabet for A in objs)),
            states,
            edges,
            initial,
            accepting,
        )


AUT_CARRIER = AutomatonCarrier()


def state_map(m: CellMorphism) -> dict[str, str]:
    return {c[1]: v[1] for c, v in m.mapping.items() if c[0] == ST}


def edge_map(m: CellMorphism) -> dict[str, str]:
    return {c[1]: v[1] for c, v in m.mapping.items() if c[0] == ED}


def canonical_rename(A: RelAutomaton) -> RelAutomaton:
    """States renamed ``q0, q1, ...`` in sorted order, edges ``e0, e1, ...``
    in natural order."""
    return _numbered(A.alphabet, A.states, A.edges, A.initial, A.accepting)


def _numbered(
    alphabet: Iterable[str],
    states: Iterable[str],
    edges: Mapping[str, tuple[str, Iterable[str], Iterable[str]]],
    initial: Iterable[str],
    accepting: Iterable[str],
) -> RelAutomaton:
    """The automaton on the given cells, renamed as ``canonical_rename``
    renames: states ``q0, q1, ...`` in sorted order of their names, edges
    ``e0, e1, ...`` in natural order of theirs.  ``edges`` maps an edge
    name to its label, sources and targets (state names, in sized
    collections), so that a one-pass construction builds only the renamed
    result.  Every simple edge shares its states' singleton end sets."""
    name = {s: f"q{k}" for k, s in enumerate(sorted(states))}
    rename = name.__getitem__
    single = {s: frozenset((q,)) for s, q in name.items()}
    table: dict[str, Edge] = {}
    for k, eid in enumerate(_natural_order(edges)):
        label, sources, targets = edges[eid]
        if len(sources) == 1 == len(targets):
            (u,), (v,) = sources, targets
            table[f"e{k}"] = _new_edge(Edge, (label, single[u], single[v]))
        else:
            table[f"e{k}"] = _new_edge(
                Edge, (label, frozenset(map(rename, sources)), frozenset(map(rename, targets)))
            )
    return RelAutomaton(
        alphabet, name.values(), table, map(rename, initial), map(rename, accepting)
    )


# -- generating cofibrations --------------------------------------------------


def gen_initial(alphabet: Iterable[str], accepting: bool) -> CellMorphism:
    cod = RelAutomaton(alphabet, ["q"], {}, ["q"], ["q"] if accepting else [])
    return CellMorphism(AUT_CARRIER.empty(), cod, {})


def gen_edge(alphabet: Iterable[str], label: str) -> CellMorphism:
    cod = RelAutomaton(alphabet, [], {"e": _edge(label)}, [], [])
    return CellMorphism(AUT_CARRIER.empty(), cod, {})


def gen_source(alphabet: Iterable[str], label: str) -> CellMorphism:
    dom = RelAutomaton(alphabet, ["q"], {"e": _edge(label)}, ["q"], [])
    cod = RelAutomaton(alphabet, ["q"], {"e": _edge(label, ["q"])}, ["q"], [])
    return CellMorphism(dom, cod, {(ST, "q"): (ST, "q"), (ED, "e"): (ED, "e")})


def gen_accept(alphabet: Iterable[str], label: str) -> CellMorphism:
    dom = RelAutomaton(alphabet, [], {"e": _edge(label)}, [], [])
    cod = RelAutomaton(
        alphabet, ["t"], {"e": _edge(label, (), ["t"])}, [], ["t"]
    )
    return CellMorphism(dom, cod, {(ED, "e"): (ED, "e")})


def gen_internal(
    alphabet: Iterable[str], in_labels: Sequence[str], out_labels: Sequence[str]
) -> CellMorphism:
    edges_dom = {}
    for i, a in enumerate(in_labels):
        edges_dom[f"in{i}"] = _edge(a)
    for j, b in enumerate(out_labels):
        edges_dom[f"out{j}"] = _edge(b)
    dom = RelAutomaton(alphabet, [], edges_dom, [], [])
    edges_cod = {}
    for i, a in enumerate(in_labels):
        edges_cod[f"in{i}"] = _edge(a, (), ["q"])
    for j, b in enumerate(out_labels):
        edges_cod[f"out{j}"] = _edge(b, ["q"], ())
    cod = RelAutomaton(alphabet, ["q"], edges_cod, [], [])
    return CellMorphism(dom, cod, {(ED, e): (ED, e) for e in edges_dom})


def automata_generators(
    alphabet: Iterable[str], max_in: int = 2, max_out: int = 2
) -> GeneratorSet:
    """The generator family over an alphabet, internal stars up to the
    given arities.  The generators are built once per alphabet and arities
    and shared; each call returns a fresh set around them, whose
    codiagonals are computed by self-pushout on demand.

    Squares against an internal-star generator only constrain through the
    *sets* of edges hitting the new state, so checking arities up to 2 is
    exact for the whole family: a failure at any arity forces one at
    (1,1), (1,2) or (2,1).
    """
    positive = _positive_generators(tuple(sorted(set(alphabet))), max_in, max_out)
    return GeneratorSet(positive, AUT_CARRIER, "nabla[{}]")


@lru_cache(maxsize=64)  # bounded: unlike brick dimensions, alphabets are unbounded
def _positive_generators(
    letters: tuple[str, ...], max_in: int, max_out: int
) -> tuple[tuple[str, CellMorphism], ...]:
    positive: list[tuple[str, CellMorphism]] = [
        ("initial", gen_initial(letters, accepting=False)),
        ("initial_accepting", gen_initial(letters, accepting=True)),
    ]
    for a in letters:
        positive.append((f"edge({a})", gen_edge(letters, a)))
    for a in letters:
        positive.append((f"source({a})", gen_source(letters, a)))
    for a in letters:
        positive.append((f"accept({a})", gen_accept(letters, a)))
    for m in range(1, max_in + 1):
        for n in range(1, max_out + 1):
            for ins in combinations_with_replacement(letters, m):
                for outs in combinations_with_replacement(letters, n):
                    name = f"internal({','.join(ins)}|{','.join(outs)})"
                    positive.append((name, gen_internal(letters, ins, outs)))
    return tuple(positive)


def check_conditions(A: RelAutomaton) -> tuple[bool, Optional[tuple[str, str]]]:
    """Initial states have only outgoing edges; accepting non-initial
    states have only incoming edges.  Returns a (state, edge) witness."""
    for eid in A.edge_ids():
        e = A.edges[eid]
        for v in sorted(e.targets):
            if v in A.initial:
                return False, (v, eid)
        for v in sorted(e.sources):
            if v in A.accepting and v not in A.initial:
                return False, (v, eid)
    return True, None


# -- cofibrant replacement ----------------------------------------------------


# An edge id as written into an accepting copy's name: backslashes and
# commas escaped, so that the id ends at the first unescaped comma.
_ESCAPE = str.maketrans({"\\": "\\\\", ",": "\\,"})


@dataclass
class ReplacementResult:
    """The cofibrant ``replacement`` of ``source``, with its projection
    ``beta`` back to ``source`` and the build script ``certificate``, all
    three built on first read and cached (``beta`` checked to be a
    morphism); ``normalize`` reads only the tables.  ``names`` maps each
    initial state, each (edge, accepting target) and each internal state
    to its copy's name; ``ends`` holds per edge, in natural order, its id,
    label, and distinct source and target copies.
    """

    source: RelAutomaton
    names: tuple[dict, dict, dict] = field(repr=False)
    ends: list[tuple[str, str, list[str], list[str]]] = field(repr=False)

    @cached_property
    def replacement(self) -> RelAutomaton:
        A = self.source
        init_name, acc_name, int_name = self.names
        edges = {eid: _new_edge(Edge, (label, frozenset(srcs), frozenset(tgts)))
                 for eid, label, srcs, tgts in self.ends}
        accepting = {init_name[v] for v in A.initial & A.accepting}.union(acc_name.values())
        states = [*init_name.values(), *acc_name.values(), *int_name.values()]
        return RelAutomaton(A.alphabet, states, edges, init_name.values(), accepting)

    @cached_property
    def beta(self) -> CellMorphism:
        A = self.source
        init_name, acc_name, int_name = self.names
        mapping = {(ED, eid): (ED, eid) for eid in A.edges}
        mapping.update(((ST, name), (ST, v)) for v, name in init_name.items())
        mapping.update(((ST, name), (ST, v)) for (_eid, v), name in acc_name.items())
        mapping.update(((ST, name), (ST, v)) for v, name in int_name.items())
        return AUT_CARRIER.make_morphism(self.replacement, A, mapping)

    @cached_property
    def certificate(self) -> tuple[Attachment, ...]:
        """The build script from the empty automaton: initial copies, bare
        edges, sources at initial copies, accepting copies, then internal
        copies with their stars.  A step's name is its generator's kind
        and labels; steps alike share one generator."""
        A = self.source
        init_name, acc_name, int_name = self.names
        gen = cache(lambda make, *args: make(A.alphabet, *args))
        label = {eid: e.label for eid, e in A.edges.items()}
        ins, outs = defaultdict(list), defaultdict(list)  # per state, in natural order
        for eid in A.edge_ids():
            for v in A.edges[eid].targets:
                ins[v].append(eid)
            for v in A.edges[eid].sources:
                outs[v].append(eid)
        q, e, t = (ST, "q"), (ED, "e"), (ST, "t")
        steps = []

        def step(kind, labels, generator, attach=(), fresh=()):
            steps.append(Attachment((kind, labels), generator, attach, fresh))

        for v in sorted(A.initial):
            kind = "initial_accepting" if v in A.accepting else "initial"
            step(kind, (), gen(gen_initial, v in A.accepting), fresh=((q, (ST, init_name[v])),))
        for eid in A.edge_ids():
            step("edge", (label[eid],), gen(gen_edge, label[eid]), fresh=((e, (ED, eid)),))
        for v in sorted(A.initial):
            for eid in outs[v]:
                attach = ((q, (ST, init_name[v])), (e, (ED, eid)))
                step("source", (label[eid],), gen(gen_source, label[eid]), attach)
        for (eid, v), name in acc_name.items():
            step("accept", (label[eid],), gen(gen_accept, label[eid]), ((e, (ED, eid)),), ((t, (ST, name)),))
        for v, name in int_name.items():
            a, b = tuple(map(label.get, ins[v])), tuple(map(label.get, outs[v]))
            attach = [((ED, f"in{i}"), (ED, x)) for i, x in enumerate(ins[v])]
            attach += [((ED, f"out{j}"), (ED, x)) for j, x in enumerate(outs[v])]
            step("internal", (*a, "|", *b), gen(gen_internal, a, b), tuple(attach), ((q, (ST, name)),))
        return tuple(steps)


def cofibrant_replacement(A: RelAutomaton) -> ReplacementResult:
    """Rebuild an automaton in the shape the generators can produce.

    Every edge survives with its label.  Each initial state gets a copy
    carrying only its outgoing edges; each accepting target of an edge
    gets its own accepting copy reached only by that edge; each state with
    both incoming and outgoing edges gets one internal copy carrying its
    full star.  The projection sends every copy back to its original.

    A copy's name is fixed by its role: ``init(v)``, ``acc(eid,v)`` with
    ``eid`` escaped by ``_ESCAPE``, and ``int(v)``, so no two copies share
    one.  Cost: two passes over the edges, for the internal states and
    then for the tables.  No automaton is built: the replacement, the
    projection and the build script are left to first read.
    """
    into, out_of = set(), set()
    for _label, sources, targets in A.edges.values():
        into |= targets
        out_of |= sources
    init_name = {v: f"init({v})" for v in sorted(A.initial)}
    int_name = {v: f"int({v})" for v in sorted(into & out_of)}
    acc_name: dict[tuple[str, str], str] = {}
    ends = []
    for eid in A.edge_ids():
        label, sources, targets = A.edges[eid]
        copies = [int_name[v] for v in targets if v in int_name]
        for v in sorted(targets & A.accepting):
            copies.append(f"acc({eid.translate(_ESCAPE)},{v})")
            acc_name[(eid, v)] = copies[-1]
        starts = [init_name[v] for v in sources if v in init_name]
        starts += [int_name[v] for v in sources if v in int_name]
        ends.append((eid, label, starts, copies))
    return ReplacementResult(A, (init_name, acc_name, int_name), ends)


def replay_certificate(certificate: Sequence[Attachment], alphabet: Iterable[str]) -> RelAutomaton:
    """Replay a replacement's build script from the empty automaton over ``alphabet``."""
    return replay(AUT_CARRIER, RelAutomaton(alphabet, [], {}, [], []), certificate)


# -- right adjoint, normalization ---------------------------------------------


def to_simple(A: RelAutomaton) -> RelAutomaton:
    """Split every edge into one copy per (source, target) pair.

    This is the right adjoint to viewing ordinary automata as relational
    ones: states and markers are untouched, and maps from a simple
    automaton into the result correspond exactly to relational maps into
    the input.
    """
    edges: dict[str, Edge] = {}
    k = 0
    for eid in A.edge_ids():
        e = A.edges[eid]
        for u in sorted(e.sources):
            for v in sorted(e.targets):
                edges[f"d{k}"] = _edge(e.label, [u], [v])
                k += 1
    return RelAutomaton(A.alphabet, A.states, edges, A.initial, A.accepting)


@dataclass
class NormalizeResult:
    """The normal form of ``source`` as tables: ``states`` ``q0, q1, ...``,
    simple ``edges`` as ``(label, u, v)`` in ``e0, e1, ...`` order, and the
    ``initial`` and ``accepting`` states; ``automaton`` is built from them
    on first read.  With no initial state they are the source's own fields
    (``edges`` its ``Edge`` table) and ``automaton`` is the source."""

    source: RelAutomaton
    states: Sequence[str] = field(repr=False)
    edges: Sequence[tuple[str, str, str]] | Mapping[str, Edge] = field(repr=False)
    initial: Sequence[str] = field(repr=False)
    accepting: Sequence[str] = field(repr=False)
    warning: Optional[str] = None

    @cached_property
    def automaton(self) -> RelAutomaton:
        if not self.initial:
            return self.source
        single = {q: frozenset((q,)) for q in self.states}
        table = {f"e{k}": _new_edge(Edge, (label, single[u], single[v])) for k, (label, u, v) in enumerate(self.edges)}
        return RelAutomaton(self.source.alphabet, self.states, table, self.initial, self.accepting)


def normalize(A: RelAutomaton) -> NormalizeResult:
    """Cofibrant replacement, one initial state, then back to simple edges.

    The result recognizes the same words, has a unique initial state, and
    satisfies the concatenation-safety conditions.  An automaton with no
    initial state recognizes nothing and is returned unchanged.

    Written in one pass from the replacement ``R``'s tables, equal to
    ``canonical_rename(to_simple(Q))`` where ``Q`` glues ``R``'s initial
    states into the least of them: every edge of ``R``, in natural order,
    gives one simple edge ``e0, e1, ...`` per pair of a source and a
    target of ``Q``, both in sorted order of their names in ``Q``.
    ``R`` keeps the edge ids of ``A``, so that order is ``A.edge_ids()``.

    Cost: one sort of the states of ``Q``, then per edge of ``R`` a sort
    of its ends and one row per simple edge.  It builds no automaton.
    """
    if not A.initial:
        return NormalizeResult(A, A.states, A.edges, A.initial, A.accepting, "no initial state; nothing to normalize")
    result = cofibrant_replacement(A)
    init_name, acc_name, int_name = result.names
    start = min(init_name.values())
    glued = dict.fromkeys(init_name.values(), start)
    name = {s: f"q{k}" for k, s in enumerate(sorted([start, *acc_name.values(), *int_name.values()]))}
    edges: list[tuple[str, str, str]] = []
    for _eid, label, sources, targets in result.ends:
        if len(sources) == 1 == len(targets):
            (u,), (v,) = sources, targets
            edges.append((label, name[glued.get(u, u)], name[v]))
            continue
        ends = [name[v] for v in sorted(targets)]  # no edge of R enters an initial state
        edges += [(label, name[u], v) for u in sorted({glued.get(v, v) for v in sources}) for v in ends]
    accepting = [name[start]] if A.initial & A.accepting else []
    accepting += map(name.get, acc_name.values())
    return NormalizeResult(A, tuple(name.values()), edges, (name[start],), accepting)


# -- verification -------------------------------------------------------------


def verify_replacement(
    A: RelAutomaton,
    result: Optional[ReplacementResult] = None,
    language_bound: int = 5,
    check_codiagonals: bool = True,
) -> TheoremReport:
    """The replacement checks on ``result``, which must be
    ``cofibrant_replacement(A)`` (computed when not given).  The language
    check raises ``WordLimitError`` past ``MAX_WORDS`` words on either side."""
    if result is None:
        result = cofibrant_replacement(A)
    elif result.source is not A:
        raise ValueError("result is not the cofibrant replacement of this automaton")
    R = result.replacement
    accepting_copies = sum(len(e.targets & A.accepting) for e in A.edges.values())
    gens = automata_generators(A.alphabet | R.alphabet)
    lifting, codiag = lifting_reports(AUT_CARRIER, result.beta, gens, check_codiagonals)
    checks = {
        "edge_count_preserved": len(R.edges) == len(A.edges),
        "state_formula_exact": len(R.states) == len(A.initial) + accepting_copies + len(A.internal_states()),
        "conditions": check_conditions(R)[0],
        "language_preserved": language_upto(R, language_bound) == language_upto(A, language_bound),
        "certificate_replays": replay_certificate(result.certificate, A.alphabet) == R,
    }
    return TheoremReport(lifting, codiag, checks)


__all__ = [
    "Edge",
    "RelAutomaton",
    "automaton",
    "to_json_dict",
    "from_json_dict",
    "Word",
    "MAX_WORDS",
    "WordLimitError",
    "language_upto",
    "AutomatonCarrier",
    "AUT_CARRIER",
    "state_map",
    "edge_map",
    "canonical_rename",
    "gen_initial",
    "gen_edge",
    "gen_source",
    "gen_accept",
    "gen_internal",
    "automata_generators",
    "check_conditions",
    "ReplacementResult",
    "cofibrant_replacement",
    "replay_certificate",
    "to_simple",
    "NormalizeResult",
    "normalize",
    "verify_replacement",
]
