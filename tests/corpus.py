"""Fixture corpus shared across the test modules."""

from __future__ import annotations

import random
from collections import defaultdict, deque

from hypothesis import strategies as st

from cofib import samples
from cofib.automata import RelAutomaton, WordLimitError, _edge, automaton
from cofib.blowup import brick_generators
from cofib.lifting import Attachment, GeneratorSet
from cofib.pcs import (
    PCS_CARRIER,
    EuclideanReport,
    FormatError,
    RelPCS,
    brick,
    brick_boundary,
    chart_names,
    hom_enumerate,
    is_local_embedding,
    min_cube,
    relpcs,
    rename_cells,
    sub_bricks,
    tensor,
    upward,
)
from cofib.words import BrickIndex, CubeWord, all_brick_indices, compose_words

W = CubeWord.parse


def _wedge_two_loops() -> RelPCS:
    return relpcs(
        1,
        {0: ["v"], 1: ["e", "f"]},
        {
            ("e", W("-")): ["v"],
            ("e", W("+")): ["v"],
            ("f", W("-")): ["v"],
            ("f", W("+")): ["v"],
        },
    )


def _line_two_edges() -> RelPCS:
    return relpcs(
        1,
        {0: ["p", "q", "r"], 1: ["e", "f"]},
        {
            ("e", W("-")): ["p"],
            ("e", W("+")): ["q"],
            ("f", W("-")): ["q"],
            ("f", W("+")): ["r"],
        },
    )


def _half_open_edge() -> RelPCS:
    return relpcs(1, {0: ["v"], 1: ["e"]}, {("e", W("-")): ["v"]})


def _bare_edge() -> RelPCS:
    return relpcs(1, {1: ["e"]}, {})


def _doubled_target_edge() -> RelPCS:
    return relpcs(
        1, {0: ["v", "w"], 1: ["e"]}, {("e", W("+")): ["v", "w"]}
    )


def _two_open_squares() -> RelPCS:
    return relpcs(2, {2: ["c1", "c2"]}, {})


def _doubled_face_square() -> RelPCS:
    return relpcs(
        2,
        {1: ["e1", "e2"], 2: ["c"]},
        {("c", W("-0")): ["e1", "e2"]},
    )


def _pillow() -> RelPCS:
    """Two squares sharing their whole boundary."""
    sq = samples.closed_square()
    faces = dict(sq.faces)
    extra = {
        ("c2", g): bs for (a, g), bs in sq.faces.items() if a == "c"
    }
    faces.update(extra)
    cubes = {d: set(cs) for d, cs in sq.cubes.items()}
    cubes[2] = cubes[2] | {"c2"}
    return relpcs(2, cubes, faces)


def cycle(a: int) -> RelPCS:
    """C_a: ``a`` vertices and ``a`` edges around one loop."""
    faces = {}
    for i in range(a):
        faces[(f"e{i}", W("-"))] = [f"v{i}"]
        faces[(f"e{i}", W("+"))] = [f"v{(i + 1) % a}"]
    return relpcs(1, {0: [f"v{i}" for i in range(a)], 1: [f"e{i}" for i in range(a)]}, faces)


def path(length: int) -> RelPCS:
    """``length`` edges in a row."""
    faces = {}
    for i in range(length):
        faces[(f"e{i}", W("-"))] = [f"v{i}"]
        faces[(f"e{i}", W("+"))] = [f"v{i + 1}"]
    vertices = [f"v{i}" for i in range(length + 1)]
    return relpcs(1, {0: vertices, 1: [f"e{i}" for i in range(length)]}, faces)


def wedge(k: int) -> RelPCS:
    """``k`` loops at one vertex."""
    faces = {}
    for i in range(k):
        faces[(f"e{i}", W("-"))] = ["v"]
        faces[(f"e{i}", W("+"))] = ["v"]
    return relpcs(1, {0: ["v"], 1: [f"e{i}" for i in range(k)]}, faces)


# The two interval shapes: a single directed edge, and two consecutive
# edges around a central vertex.
def interval_v0() -> RelPCS:
    return relpcs(
        1, {0: ["s", "t"], 1: ["p0"]}, {("p0", W("-")): ["s"], ("p0", W("+")): ["t"]}
    )


def interval_v1() -> RelPCS:
    return relpcs(
        1,
        {0: ["s", "m", "t"], 1: ["e-", "e+"]},
        {
            ("e-", W("-")): ["s"],
            ("e-", W("+")): ["m"],
            ("e+", W("-")): ["m"],
            ("e+", W("+")): ["t"],
        },
    )


_CENTER_LETTER = {"p0": "0", "m": "1", "e-": "-", "e+": "+"}


def brick_oracle(epsilon: BrickIndex) -> RelPCS:
    """The brick built the long way, as the oracle for ``pcs.brick``: the
    upward neighborhood of the central cell of the tensor product of
    intervals, each cell renamed by the letters of its central position."""
    ambient = RelPCS(0, {0: ["!"]}, {})  # tensor unit
    for bit in epsilon.bits:
        ambient = tensor(ambient, interval_v1() if bit else interval_v0())
    center = ",".join(["!"] + ["m" if b else "p0" for b in epsilon.bits])
    nbhd, _proj = upward(ambient, center)
    renaming = {}
    for pid in nbhd.all_cubes():
        comps = pid.rsplit("|", 1)[0].split(",")[1:]
        renaming[pid] = "".join(_CENTER_LETTER[c] for c in comps)
    return rename_cells(nbhd, renaming)


def restrict(P: RelPCS, keep) -> RelPCS:
    """Full subobject on a set of cubes; relations touching others drop.
    The oracle of ``pcs.brick_boundary``, which keeps all cubes but one."""
    keep = set(keep)
    cubes = {d: cs & keep for d, cs in P.cubes.items()}
    faces = {
        (a, g): bs & keep
        for (a, g), bs in P.faces.items()
        if a in keep
    }
    return RelPCS(P.dim_bound, cubes, faces)


def euclidean_by_neighbourhood(P: RelPCS, n: int) -> tuple[bool, dict, object]:
    """The oracle of ``pcs.euclidean_check``: at every cube, build its
    upward neighbourhood and search brick -> neighbourhood for a surjective
    local embedding.  Returns ``(ok, charts, counterexample)``, each chart
    as ``(eps, phi)`` with ``phi`` onto the neighbourhood."""
    charts: dict = {}
    for c in P.all_cubes():
        nbhd, _proj = upward(P, c)
        nbhd_cells = set(nbhd.all_cubes())
        found = None
        for eps in all_brick_indices(n):
            if eps.min_dim != P.dim(c):
                continue
            for phi in hom_enumerate(brick(eps), nbhd):
                if set(phi.mapping.values()) == nbhd_cells and is_local_embedding(phi)[0]:
                    found = (eps, phi)
                    break
            if found:
                break
        if found is None:
            return False, charts, c
        charts[c] = found
    return True, charts, None


def pinned_euclidean_check(P: RelPCS, n: int) -> EuclideanReport:
    """The oracle of ``pcs.euclidean_check``'s candidates: at every cube
    ``c`` and shape ``eps``, one search ``brick(eps) -> P`` with
    ``min_cube(eps)`` pinned at ``c``.  Maps whose pairs ``(f(b), w_b)``
    cover ``c``'s neighbourhood are tried in chart-name order, the order a
    search into ``upward(P, c)`` finds them; the first local embedding is
    the chart, else the first clash is the reason."""
    charts: dict = {}
    for c in P.all_cubes():
        cover = {(c, CubeWord.identity(P.dim(c))), *P.cofaces(c)}
        found = reason = None
        for eps in all_brick_indices(n):
            if found or eps.min_dim != P.dim(c):
                continue
            bottom = min_cube(eps)
            words = {**dict(brick(eps).cofaces(bottom)), bottom: CubeWord.identity(eps.min_dim)}
            onto = [
                f for f in hom_enumerate(brick(eps), P, fixed={bottom: c})
                if {(f.mapping[b], w) for b, w in words.items()} == cover
            ]
            for f in sorted(onto, key=lambda f: tuple(chart_names(eps, f).values())):
                ok, clash = is_local_embedding(f)
                if ok:
                    found = (eps, f)
                    break
                reason = reason or clash
        if found is None:
            return EuclideanReport(False, charts, c, reason or "no surjective brick map", upward(P, c)[0])
        charts[c] = found
    return EuclideanReport(True, charts, None)


def assert_same_verdict(got, want, label):
    """Two euclidean reports agree on the verdict, the counterexample and
    its reason, and on every chart, in order."""
    assert (got.ok, got.counterexample, got.reason) == (want.ok, want.counterexample, want.reason), label
    assert list(got.charts) == list(want.charts), label
    for c, (eps, f) in want.charts.items():
        assert got.charts[c][0] is eps and got.charts[c][1].mapping == f.mapping, (label, c)


def _disjoint_circle_interval() -> RelPCS:
    total, _inj = PCS_CARRIER.coproduct([samples.circle(), samples.interval()])
    return total


def pcs_corpus() -> list[tuple[str, RelPCS, int]]:
    """At least twenty named fixtures, each with its ambient dimension."""
    entries: list[tuple[str, RelPCS, int]] = [
        ("torus", samples.one_square_torus(), 2),
        ("circle", samples.circle(), 1),
        ("interval", samples.interval(), 1),
        ("lone-vertex", samples.lone_vertex(), 1),
        ("y-graph", samples.y_graph(), 1),
        ("closed-square", samples.closed_square(), 2),
        ("open-square", samples.open_square(), 2),
        ("empty", relpcs(1, {}, {}), 1),
        ("two-open-squares", _two_open_squares(), 2),
        ("line", _line_two_edges(), 1),
        ("wedge", _wedge_two_loops(), 1),
        ("half-open-edge", _half_open_edge(), 1),
        ("bare-edge", _bare_edge(), 1),
        ("doubled-target", _doubled_target_edge(), 1),
        ("brick-11", brick(BrickIndex.parse("11")), 2),
        ("brick-01", brick(BrickIndex.parse("01")), 2),
        ("brick-11-boundary", brick_boundary(BrickIndex.parse("11")), 2),
        ("cylinder", tensor(samples.circle(), samples.interval()), 2),
        ("torus-tensor", tensor(samples.circle(), samples.circle()), 2),
        ("pillow", _pillow(), 2),
        ("doubled-face-square", _doubled_face_square(), 2),
        ("interval-v1", relpcs(1, {0: ["s", "m", "t"], 1: ["l", "r"]}, {
            ("l", W("-")): ["s"], ("l", W("+")): ["m"],
            ("r", W("-")): ["m"], ("r", W("+")): ["t"],
        }), 1),
        ("circle-at-2", samples.circle(), 2),
        ("wedge-at-2", _wedge_two_loops(), 2),
    ]
    return entries


def euclidean_expectations() -> dict[str, bool]:
    """Ground truth for the euclidean-iff-isomorphism criterion, derived by
    inspecting each fixture's upward neighborhoods."""
    return {
        "torus": False,
        "circle": True,
        "interval": False,
        "lone-vertex": False,
        "y-graph": False,
        "closed-square": False,
        "open-square": True,
        "empty": True,
        "two-open-squares": True,
        "line": False,
        "wedge": False,
        "half-open-edge": False,
        "bare-edge": True,
        "doubled-target": False,
        "brick-11": True,
        "brick-01": True,
        "brick-11-boundary": True,
        "cylinder": False,
        "torus-tensor": True,
        "pillow": False,
        "doubled-face-square": False,
        "interval-v1": False,
        "circle-at-2": False,
        "wedge-at-2": False,
    }


def pcs_sample_maps():
    """Small morphisms for lifting-property sampling in the cube carrier."""
    from cofib.blowup import blowup
    from cofib.lifting import codiagonal

    maps = []
    for name, P, n in pcs_corpus():
        if P.n_cubes() > 6 or n > 1:
            continue
        result = blowup(P, n)
        maps.append((f"beta[{name}]", result.beta))
        maps.append((f"id[{name}]", PCS_CARRIER.identity(P)))
    B = brick(BrickIndex.parse("11"))
    _quot, proj = PCS_CARRIER.quotient(B, [("-1", "1-")])
    maps.append(("collapse", proj))
    return maps


def aut_sample_maps():
    """Small morphisms for lifting-property sampling in the automata carrier."""
    from cofib.automata import AUT_CARRIER, cofibrant_replacement, gen_accept
    from cofib.lifting import codiagonal

    maps = []
    for name, builder in list(samples.AUT_SAMPLES.items())[:5]:
        A = builder()
        res = cofibrant_replacement(A)
        maps.append((f"beta[{name}]", res.beta))
        maps.append((f"id[{name}]", AUT_CARRIER.identity(A)))
    maps.append(("nabla_acc", codiagonal(AUT_CARRIER, gen_accept(["a", "b"], "a"))))
    return maps


def path_automaton(word, alphabet) -> RelAutomaton:
    """The automaton recognizing exactly one word: a simple chain."""
    n = len(word)
    states = [f"q{i}" for i in range(n + 1)]
    edges = {
        f"e{i}": _edge(a, [f"q{i}"], [f"q{i+1}"]) for i, a in enumerate(word)
    }
    return RelAutomaton(alphabet, states, edges, ["q0"], [f"q{n}"])


def is_simple(A: RelAutomaton) -> bool:
    """Every edge has exactly one source and one target."""
    return all(len(e.sources) == 1 == len(e.targets) for e in A.edges.values())


def random_automaton(rng: random.Random, max_states: int = 5, max_edges: int = 8,
                     alphabet: str = "abc") -> RelAutomaton:
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]

    def subset(p: float) -> list[str]:
        return [s for s in states if rng.random() < p]

    edges = []
    for _ in range(rng.randint(0, max_edges)):
        edges.append((rng.choice(alphabet), subset(0.4), subset(0.4)))
    return automaton(alphabet, states, edges, subset(0.4), subset(0.4))


def automata_corpus(count: int = 200, seed: int = 20240) -> list[RelAutomaton]:
    rng = random.Random(seed)
    named = [builder() for builder in samples.AUT_SAMPLES.values()]
    rest = [random_automaton(rng) for _ in range(count - len(named))]
    return named + rest


@st.composite
def relational_automata(draw, max_states: int, max_edges: int, min_initial: int = 0):
    """A relational automaton over ``ab`` with set-valued sources and
    targets and random initial and accepting marks, at least
    ``min_initial`` states initial."""
    states = [f"s{k}" for k in range(draw(st.integers(max(1, min_initial), max_states)))]
    subset = st.lists(st.sampled_from(states), unique=True)
    edges = draw(st.lists(st.tuples(st.sampled_from("ab"), subset, subset), max_size=max_edges))
    initial = draw(st.lists(st.sampled_from(states), unique=True, min_size=min_initial))
    return automaton("ab", states, edges, initial, draw(subset))


# State names shaped like the replacement's copy names: a copy's name then
# nests one (``init(init(s0))``), and may equal the name of a state of the
# input, which the replacement does not keep.
FRESH_LIKE = ["s0", "s1", "init(s0)", "int(s0)", "int(s1)#1", "acc(e0,s1)", "init(init(s0))", "q1"]


@st.composite
def fresh_named_automata(draw, max_edges: int):
    """A relational automaton over ``ab`` on states named like copy
    names, with at least one initial state (which may also be internal),
    edges with up to three sources and targets, and its edge table in a
    drawn order."""
    states = draw(st.lists(st.sampled_from(FRESH_LIKE), min_size=1, max_size=6, unique=True))
    ends = st.lists(st.sampled_from(states), unique=True, max_size=3)
    edges = draw(st.lists(st.tuples(st.sampled_from("ab"), ends, ends), max_size=max_edges))
    initial = draw(st.lists(st.sampled_from(states), unique=True, min_size=1))
    A = automaton("ab", states, edges, initial, draw(ends))
    order = draw(st.permutations(list(A.edges)))
    return RelAutomaton(A.alphabet, A.states, {e: A.edges[e] for e in order}, A.initial, A.accepting)


def fresh_names(A: RelAutomaton) -> tuple[dict, dict, dict]:
    """The oracle of ``cofibrant_replacement(A).names``, one pass per kind
    of copy: initial copies, then accepting copies in edge order, then
    internal copies.  A copy is named by its role, the edge id of an
    accepting copy with its backslashes doubled and its commas escaped."""
    init_name = {v: f"init({v})" for v in sorted(A.initial)}
    acc_name = {}
    for eid in A.edge_ids():
        escaped = eid.replace("\\", "\\\\").replace(",", "\\,")
        for v in sorted(A.edges[eid].targets & A.accepting):
            acc_name[(eid, v)] = f"acc({escaped},{v})"
    int_name = {v: f"int({v})" for v in A.internal_states()}
    return init_name, acc_name, int_name


def replacement_oracle(A: RelAutomaton) -> RelAutomaton:
    """The oracle of ``cofibrant_replacement(A).replacement``: the copies
    named by ``fresh_names``, each edge's sources and targets gathered by
    set comprehensions over its own ends, edges in natural order."""
    init_name, acc_name, int_name = fresh_names(A)
    states = set(init_name.values()) | set(acc_name.values()) | set(int_name.values())
    accepting = {init_name[v] for v in A.initial & A.accepting} | set(acc_name.values())
    edges = {}
    for eid in A.edge_ids():
        e = A.edges[eid]
        sources = {init_name[v] for v in e.sources & A.initial}
        sources |= {int_name[v] for v in e.sources if v in int_name}
        targets = {acc_name[(eid, v)] for v in e.targets & A.accepting}
        targets |= {int_name[v] for v in e.targets if v in int_name}
        edges[eid] = _edge(e.label, sources, targets)
    return RelAutomaton(A.alphabet, states, edges, init_name.values(), accepting)


# Face words of a cube of dimension 1 or 2 that are not the identity.
FACE_WORDS = {
    d: [CubeWord.parse(w) for w in words]
    for d, words in {1: ("-", "+"), 2: ("-0", "+0", "0-", "0+", "--", "-+", "+-", "++")}.items()
}


@st.composite
def relational_pcs(draw, max_cubes: int):
    """A relational PCS of dimension at most 2, built by ``relpcs`` (closed
    under composition) or by ``RelPCS`` (table as drawn); a face slot holds
    zero, one or two cubes."""
    dims = draw(st.lists(st.integers(0, 2), max_size=max_cubes))
    cubes: dict = {}
    for k, d in enumerate(dims):
        cubes.setdefault(d, []).append(f"c{k}")
    faces = {}
    for d, names in cubes.items():
        for name in names:
            for word in FACE_WORDS.get(d, ()):
                pool = cubes.get(word.domain_dim)
                if pool:
                    faces[(name, word)] = draw(st.lists(st.sampled_from(pool), max_size=2))
    return draw(st.sampled_from([relpcs, RelPCS]))(2, cubes, faces)


def worklist_saturate(faces) -> dict:
    """The oracle of ``pcs.saturate``: a worklist closure that composes each
    new triple with the stored faces below it and the cofaces above it,
    until nothing new appears."""
    rel: dict = defaultdict(set)
    outgoing: dict = defaultdict(set)
    incoming: dict = defaultdict(set)
    queue: deque = deque()

    def add(a, g, b) -> None:
        if b not in rel[(a, g)]:
            rel[(a, g)].add(b)
            outgoing[a].add((g, b))
            incoming[b].add((a, g))
            queue.append((a, g, b))

    for (a, g), bs in faces.items():
        for b in bs:
            add(a, g, b)
    while queue:
        a, g, b = queue.popleft()
        for g2, c in list(outgoing[b]):
            add(a, compose_words(g2, g), c)
        for x, g0 in list(incoming[a]):
            add(x, compose_words(g, g0), b)
    return dict(rel)


def eager_automata_generators(alphabet, max_in: int = 2, max_out: int = 2):
    """The oracle of ``automata_generators``: every generator built afresh
    on each call, as the library did before it shared them."""
    from itertools import combinations_with_replacement

    from cofib.automata import AUT_CARRIER, gen_accept, gen_edge, gen_initial, gen_internal, gen_source

    letters = sorted(set(alphabet))
    positive = [
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
    return GeneratorSet(tuple(positive), AUT_CARRIER, "nabla[{}]")



def iso_signature(carrier, obj) -> dict:
    """Per-cell invariant kept by isomorphisms: sort, marks, and the
    relations from and to the cell."""
    S = carrier.view(obj)
    out: dict = defaultdict(list)
    into: dict = defaultdict(list)
    for (a, r), bs in S.rel.items():
        out[a].append((str(r), len(bs)))
        for b in bs:
            into[b].append(str(r))
    return {
        c: (
            s,
            tuple(sorted(S.marks.get(c, ()))),
            tuple(sorted(out.get(c, ()))),
            tuple(sorted(into.get(c, ()))),
        )
        for c, s in S.sort.items()
    }


def shuffled(carrier, X, rng):
    """An isomorphic copy of ``X`` with its cells renamed by a random
    permutation within each sort, with that renaming."""
    by_sort: dict = defaultdict(list)
    for c in carrier.cells(X):
        by_sort[carrier.view(X).sort[c]].append(c)
    image: dict = {}
    for cells in by_sort.values():
        image.update(zip(cells, rng.sample(cells, len(cells))))
    return carrier.build([X], [image]), image


def signature_isomorphism(carrier, X, Y):
    """The oracle of ``Carrier.find_isomorphism``: list every injective
    map that keeps each cell's ``iso_signature``, then return the first
    that ``is_isomorphism`` accepts, or ``None``."""
    sig_x, sig_y = iso_signature(carrier, X), iso_signature(carrier, Y)
    if sorted(sig_x.values(), key=repr) != sorted(sig_y.values(), key=repr):
        return None
    by_sig: dict = {}
    for cell, s in sig_y.items():
        by_sig.setdefault(s, []).append(cell)
    allowed = {cell: by_sig.get(s, []) for cell, s in sig_x.items()}
    for candidate in carrier.hom(X, Y, allowed=allowed, injective=True):
        if carrier.is_isomorphism(candidate):
            return candidate
    return None


def arrow_isomorphic_by_all_homs(carrier, f, g) -> bool:
    """The oracle of ``lifting.arrow_isomorphic``: every pair of a hom of
    domains and a hom of codomains, each tested as an isomorphism, then
    the square compared."""
    for phi in carrier.hom(f.source, g.source):
        if not carrier.is_isomorphism(phi):
            continue
        for psi in carrier.hom(f.target, g.target):
            if not carrier.is_isomorphism(psi):
                continue
            if f.then(psi).mapping == phi.then(g).mapping:
                return True
    return False


def pinned_solve_lifts(carrier, problem) -> list:
    """The oracle of ``lifting.solve_lifts``: one search per square, with
    the cells in the image of ``i`` pinned by the top leg and the rest
    confined to the fibre of ``p`` over their image under the bottom leg."""
    i, p, top, bottom = problem.i, problem.p, problem.top, problem.bottom
    fixed: dict = {}
    for a, v in top.mapping.items():
        if fixed.setdefault(i.mapping[a], v) != v:
            return []  # i glues two cells that the top leg keeps apart
    fibres = p.fibres
    allowed = {
        b: fibres.get(bottom.mapping[b], ())
        for b in carrier.cells(i.target)
        if b not in fixed
    }
    out = []
    for h in carrier.hom(i.target, p.source, fixed=fixed, allowed=allowed):
        if all(p.mapping[h.mapping[b]] == bottom.mapping[b] for b in h.mapping):
            out.append(h)
    return out



def grading_oracle(dim_bound: int, cubes, faces) -> list[dict]:
    """The oracle of ``pcs._grading_problems``: the grading law checked
    entry by entry, every target set sorted."""
    details = [] if dim_bound >= 0 else [f"negative dimension bound {dim_bound}"]
    dim: dict[str, int] = {}
    for d, cs in cubes.items():
        if not 0 <= d <= dim_bound:
            details.append(f"dimension {d} out of range")
        for c in sorted(cs):
            if c in dim:
                details.append(f"duplicate cube id {c!r}")
            dim[c] = d
    for (a, g), bs in faces.items():
        if a not in dim:
            details.append(f"unknown cube {a!r}")
        elif g.is_identity:
            details.append(f"identity word stored for {a!r}")
        elif g.codomain_dim != dim[a]:
            details.append(f"word {g} does not match dim of {a!r}")
        else:
            for b in sorted(bs):
                if b not in dim:
                    details.append(f"unknown cube {b!r}")
                elif dim[b] != g.domain_dim:
                    details.append(f"face {b!r} of {a!r} at {g} misgraded")
    return [{"kind": "grading", "detail": detail} for detail in details]


def validate_oracle(P: RelPCS) -> list[dict]:
    """The oracle of ``pcs.validate(P).problems``: grading by
    :func:`grading_oracle`, then every face the worklist closure adds to
    the stored table, sorted."""
    problems = grading_oracle(P.dim_bound, P.cubes, P.faces)
    if problems:
        return problems
    closed = worklist_saturate(P.faces)
    missing = sorted((a, str(g), c) for (a, g), cs in closed.items() for c in cs - P.faces_of(a, g))
    return [{"kind": "closure", "witness": {"cube": a, "word": w, "missing": c}} for a, w, c in missing]


def reader_oracle(data: dict) -> RelPCS:
    """The oracle of ``pcs.from_json_dict`` on documents whose dimension
    keys are canonical: every key of the document and of each entry
    looked up, each entry type-checked and each word parsed on its own,
    then graded by :func:`grading_oracle`."""
    if not isinstance(data, dict):
        raise FormatError("precubical set must be a JSON object")
    unknown = [k for k in data if k not in ("dim_bound", "cubes", "faces")]
    if unknown:
        raise FormatError(f"unknown key {unknown[0]!r}")
    dim_bound = data.get("dim_bound")
    if type(dim_bound) is not int:
        raise FormatError("'dim_bound' must be an integer")
    cubes_raw = data.get("cubes", {})
    if not isinstance(cubes_raw, dict):
        raise FormatError("'cubes' must map dimensions to identifier lists")
    cubes: dict[int, list[str]] = {}
    for k, ids in cubes_raw.items():
        try:
            d = int(k)
        except ValueError:
            raise FormatError(f"bad dimension key {k!r}")
        if d in cubes:
            raise FormatError(f"dimension {d} is given twice")
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise FormatError(f"cube list for dimension {k} must be strings")
        if len(set(ids)) != len(ids):
            raise FormatError(f"duplicate cube ids in dimension {k}")
        cubes[d] = ids
    faces: dict[tuple[str, CubeWord], set[str]] = defaultdict(set)
    entries = data.get("faces", [])
    if not isinstance(entries, list):
        raise FormatError("'faces' must be a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError("face entries must be objects")
        try:
            a = entry["cube"]
            word = entry["word"]
            targets = entry["targets"]
        except KeyError as exc:
            raise FormatError(f"face entry missing {exc}")
        unknown = [k for k in entry if k not in ("cube", "word", "targets")]
        if unknown:
            raise FormatError(f"unknown key {unknown[0]!r}")
        if not isinstance(a, str):
            raise FormatError(f"face cube {a!r} must be a string")
        if not isinstance(word, str) or any(ch not in "+-0" for ch in word):
            raise FormatError(f"bad word {word!r}")
        if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets):
            raise FormatError("face targets must be a list of strings")
        faces[(a, CubeWord.parse(word))].update(targets)
    problems = grading_oracle(dim_bound, cubes, faces)
    if problems:
        raise FormatError(problems[0]["detail"])
    return RelPCS(dim_bound, cubes, faces)


def pushout_replay(carrier, start, script):
    """The oracle of ``lifting.replay``: each step a real ``Carrier.pushout``
    of its generator along its attach map into the whole object built so
    far, whose cells are then renamed back, so a step costs the size of
    that object and a script its square."""
    current = start
    for name, gen, attach, fresh in script:
        attach = carrier.make_morphism(gen.source, current, dict(attach))
        pushed, from_cod, from_cur = carrier.pushout(gen, attach)
        new = [c for c in carrier.cells(gen.target) if c not in gen.fibres]
        named = dict(fresh)
        unused = carrier.view(current).sort.keys().isdisjoint(named.values())
        # each of its kind: a build reads only the name of a (kind, name) pair
        kinds = all(type(c) is type(v) and (isinstance(c, str) or c[0] == v[0]) for c, v in fresh)
        if named.keys() != set(new) or len(set(named.values())) != len(fresh) or not unused or not kinds:
            raise ValueError(f"step {name}: fresh names must name each new cell once, by a name not yet in use")
        over = {gen.mapping[a]: b for a, b in attach.mapping.items()}  # all of cod(gen) if nothing is new
        if not new and carrier._morphism_violation(gen.target, current, over) is None:
            raise ValueError(f"step {name} adds nothing: its attach map extends over the generator")
        built = carrier.cells(current)
        rename = {from_cur.mapping[c]: c for c in built}
        if len(rename) < len(built):
            c = next(c for c in built if rename[from_cur.mapping[c]] != c)
            raise ValueError(f"step {name} glues {c!r} and {rename[from_cur.mapping[c]]!r}, cells built before it")
        rename.update((from_cod.mapping[c], named[c]) for c in new)
        current = carrier.build([pushed], [rename])
    return current


def prefix_language_upto(A: RelAutomaton, L: int, max_words=None) -> set:
    """The oracle of ``automata.language_upto``: the same depth-first
    search over prefixes, the next state set found from every edge of the
    letter at every prefix."""
    if L < 0:
        raise ValueError(f"length bound must be non-negative, got {L}")
    by_label = defaultdict(list)
    for e in A.edges.values():
        by_label[e.label].append(e)
    letters = sorted(by_label)
    start = frozenset(A.initial)
    words = {()} if start & A.accepting else set()
    prefix: list = []
    stack = [(start, iter(letters))] if L > 0 else []
    while stack:
        active, untried = stack[-1]
        for a in untried:
            nxt = frozenset().union(*(e.targets for e in by_label[a] if e.sources & active))
            if nxt:
                break
        else:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        prefix.append(a)
        if nxt & A.accepting:
            words.add(tuple(prefix))
            if max_words is not None and len(words) > max_words:
                raise WordLimitError(f"the count of words up to length {L} exceeds the limit {max_words}")
        if len(prefix) < L:
            stack.append((nxt, iter(letters)))
        else:
            prefix.pop()
    return words


def blowup_script(result, n: int) -> list[Attachment]:
    """The blowup as a script of generator attachments: one step per probe
    cube ``eps:k``, attaching ``i_eps`` along the cubes of its sub-probes
    and naming the minimal cube ``eps:k``.  A sub-brick's minimal cube has
    the higher dimension, so the steps run by ``eps.min_dim``, highest
    first."""
    generators = dict(zip(all_brick_indices(n), brick_generators(n).positive))
    ids = {}  # per shape, its probes' cube ids by value row
    for eps, homs in result.probes.items():
        rows = (tuple(f.mapping[c] for c in PCS_CARRIER.cells(brick(eps))) for f in homs)
        ids[eps] = {row: f"{eps.name}:{k}" for k, row in enumerate(rows)}
    script = []
    for eps in sorted(result.probes, key=lambda eps: -eps.min_dim):
        name, i = generators[eps]
        for k, f in enumerate(result.probes[eps]):
            attach = []
            for w, sub, incl, _g in sub_bricks(eps):
                row = tuple(f.mapping[incl.mapping[c]] for c in PCS_CARRIER.cells(brick(sub)))
                attach.append((w, ids[sub][row]))
            script.append(Attachment((name, ()), i, tuple(attach), ((min_cube(eps), f"{eps.name}:{k}"),)))
    return script
