"""Fixture corpus shared across the test modules."""

from __future__ import annotations

import random
from collections import defaultdict, deque

from hypothesis import strategies as st

from cofib import samples
from cofib.automata import RelAutomaton, automaton
from cofib.pcs import (
    PCS_CARRIER,
    RelPCS,
    brick,
    brick_boundary,
    hom_enumerate,
    is_local_embedding,
    relpcs,
    rename_cells,
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
    from cofib.cells import GeneratorSet
    from cofib.lifting import codiagonal

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
    return GeneratorSet(tuple(positive), lambda f: codiagonal(AUT_CARRIER, f), "nabla[{}]")


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
