"""The core hom search against a plain canonical-order backtracking, the
isomorphism search against the signature search, and the core quotient
against a union-find over every cell."""

import random

from corpus import (
    automata_corpus,
    cycle,
    pcs_corpus,
    random_automaton,
    relational_automata,
    relational_pcs,
    shuffled,
    signature_isomorphism,
    wedge,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cofib import samples
from cofib.automata import AUT_CARRIER, automata_generators, cofibrant_replacement
from cofib.blowup import blowup, brick_generators
from cofib.cells import Carrier
from cofib.pcs import PCS_CARRIER, brick, hom_enumerate, tensor
from cofib.words import BrickIndex


def canonical_hom(carrier, X, Y, fixed=None, allowed=None, injective=False) -> list[dict]:
    """Every morphism ``X -> Y`` as a cell map: cells assigned in canonical
    order, candidates in sorted order, each partial map checked against
    every relation between cells assigned so far.  So the maps come in
    lexicographic order of their values over ``carrier.cells(X)``.
    ``fixed``, ``allowed`` and ``injective`` filter candidates as they do
    for ``Carrier.hom``."""
    SX, SY = carrier.view(X), carrier.view(Y)
    cells = carrier.cells(X)
    pairs = [(a, r, b) for (a, r), bs in SX.rel.items() for b in bs]
    fixed = fixed or {}
    allowed = allowed or {}
    out: list[dict] = []

    def extend(k: int, m: dict) -> None:
        if k == len(cells):
            out.append(dict(m))
            return
        c = cells[k]
        for v in sorted(v for v, s in SY.sort.items() if s == SX.sort[c]):
            if not SX.marks.get(c, frozenset()) <= SY.marks.get(v, frozenset()):
                continue
            if c in fixed and v != fixed[c]:
                continue
            if c in allowed and v not in allowed[c]:
                continue
            if injective and v in m.values():
                continue
            m[c] = v
            if all(m[b] in SY.rel.get((m[a], r), ()) for a, r, b in pairs if a in m and b in m):
                extend(k + 1, m)
            del m[c]

    extend(0, {})
    return out


def _agree(carrier, X, Y) -> int:
    got = [list(h.mapping.items()) for h in carrier.hom(X, Y)]
    want = [list(m.items()) for m in canonical_hom(carrier, X, Y)]
    assert got == want
    injective = [list(h.mapping.items()) for h in carrier.hom(X, Y, injective=True)]
    assert injective == [m for m in want if len({v for _c, v in m}) == len(m)]
    for root in carrier.cells(X)[-1:]:  # one pinned cell: the search starts there
        for v in carrier.cells(Y):
            pinned = [list(h.mapping.items()) for h in carrier.hom(X, Y, fixed={root: v})]
            assert pinned == [m for m in want if dict(m)[root] == v]
    return len(got)


def test_pcs_hom_order_matches_canonical_search():
    sources = [brick(BrickIndex.parse(e)) for e in ("0", "1", "00", "01", "10", "11")]
    sources += [i.source for _n, i in brick_generators(2).positive]
    targets = [P for _name, P, _n in pcs_corpus() if P.n_cubes() <= 12]
    targets += [tensor(cycle(2), cycle(2)), tensor(cycle(2), cycle(3)), wedge(3),
                blowup(tensor(cycle(1), cycle(2)), 2).blowup]
    found = 0
    for X in sources:
        for Y in targets:
            found += _agree(PCS_CARRIER, X, Y)
    assert found > 400


def test_automata_hom_order_matches_canonical_search():
    gens = automata_generators("ab")
    sources = [f.target for _n, f in gens.positive] + [f.source for _n, f in gens.codiagonals]
    rng = random.Random(4102)
    targets = [builder() for builder in samples.AUT_SAMPLES.values()]
    for _ in range(12):
        A = random_automaton(rng, max_states=4, max_edges=5, alphabet="ab")
        targets += [A, cofibrant_replacement(A).replacement]
    found = 0
    for X in sources:
        for Y in targets:
            found += _agree(AUT_CARRIER, X, Y)
    assert found > 500


def _search_args(data, carrier, X, Y) -> dict:
    """Random ``fixed``, ``allowed`` and ``injective`` for a search
    ``X -> Y``; images range over all of ``Y``, whatever their sort."""
    xs, ys = carrier.cells(X), carrier.cells(Y)
    args = {"injective": data.draw(st.booleans())}
    if xs and ys and data.draw(st.booleans()):
        args["fixed"] = data.draw(st.dictionaries(st.sampled_from(xs), st.sampled_from(ys), max_size=2))
    if xs and ys and data.draw(st.booleans()):
        args["allowed"] = data.draw(st.dictionaries(
            st.sampled_from(xs), st.frozensets(st.sampled_from(ys)), max_size=len(xs)))
    return args


def _agree_with_args(carrier, X, Y, args) -> None:
    got = [list(h.mapping.items()) for h in carrier.hom(X, Y, **args)]
    want = [list(m.items()) for m in canonical_hom(carrier, X, Y, **args)]
    assert got == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(relational_pcs(max_cubes=5), relational_pcs(max_cubes=7), st.data())
def test_pcs_hom_matches_canonical_search_on_random_pcs(X, Y, data):
    _agree_with_args(PCS_CARRIER, X, Y, _search_args(data, PCS_CARRIER, X, Y))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(relational_automata(3, 2), relational_automata(4, 4), st.data())
def test_automata_hom_matches_canonical_search_on_random_automata(X, Y, data):
    _agree_with_args(AUT_CARRIER, X, Y, _search_args(data, AUT_CARRIER, X, Y))


def test_large_self_hom_and_isomorphism_do_not_recurse(monkeypatch):
    """1156 cells: a search that recursed once per cell hit the limit.  The
    isomorphism is one search pinning the first cell, listing one map; the
    signature search listed 289 before testing the first."""
    T = tensor(cycle(17), cycle(17))
    identity = PCS_CARRIER.identity(T)
    assert [h.mapping for h in hom_enumerate(T, T, fixed=identity.mapping)] == [identity.mapping]
    listed = []
    search = Carrier.hom

    def spy(*args, **kwargs):
        found = search(*args, **kwargs)
        listed.append(len(found))
        return found

    monkeypatch.setattr(Carrier, "hom", spy)
    iso = PCS_CARRIER.find_isomorphism(T, T)
    assert iso is not None and PCS_CARRIER.is_isomorphism(iso)
    assert listed == [1]


def _isomorphism_agrees(carrier, X, Y) -> bool:
    """``find_isomorphism`` finds a map exactly when the signature search
    does, and the map it finds is an isomorphism ``X -> Y``."""
    iso = carrier.find_isomorphism(X, Y)
    assert (iso is None) == (signature_isomorphism(carrier, X, Y) is None)
    if iso is not None:
        assert iso.source is X and iso.target is Y and carrier.is_isomorphism(iso)
    return iso is not None


def test_find_isomorphism_matches_the_signature_search_on_corpus_automata():
    rng = random.Random(1717)
    corpus = automata_corpus()
    replacements = [cofibrant_replacement(A).replacement for A in corpus]
    found = tried = 0
    for A, R in zip(corpus, replacements):
        for X, Y in ((A, R), (R, A), (A, A), (A, shuffled(AUT_CARRIER, A, rng)[0]),
                     (R, shuffled(AUT_CARRIER, R, rng)[0]), (A, rng.choice(corpus)),
                     (R, rng.choice(replacements))):
            found += _isomorphism_agrees(AUT_CARRIER, X, Y)
            tried += 1
    assert found > 600 and tried - found > 300


def test_find_isomorphism_matches_the_signature_search_on_pcs_corpus_pairs():
    rng = random.Random(1718)
    corpus = [P for _name, P, _n in pcs_corpus()]
    found = sum(_isomorphism_agrees(PCS_CARRIER, X, Y) for X in corpus for Y in corpus)
    found += sum(_isomorphism_agrees(PCS_CARRIER, X, shuffled(PCS_CARRIER, X, rng)[0]) for X in corpus)
    assert found > 2 * len(corpus)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(relational_automata(4, 4), relational_automata(4, 4), st.randoms(use_true_random=False))
def test_find_isomorphism_matches_the_signature_search_on_random_automata(X, Y, rng):
    _isomorphism_agrees(AUT_CARRIER, X, Y)
    assert _isomorphism_agrees(AUT_CARRIER, X, shuffled(AUT_CARRIER, X, rng)[0])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(relational_pcs(max_cubes=7), relational_pcs(max_cubes=7), st.randoms(use_true_random=False))
def test_find_isomorphism_matches_the_signature_search_on_random_pcs(X, Y, rng):
    _isomorphism_agrees(PCS_CARRIER, X, Y)
    assert _isomorphism_agrees(PCS_CARRIER, X, shuffled(PCS_CARRIER, X, rng)[0])


def test_equal_censuses_without_an_isomorphism():
    """Same cells of each kind and pairs of each relation, not isomorphic:
    every pin of the first cell fails."""
    three = cycle(3)
    for X, Y in ((tensor(cycle(12), cycle(12)), tensor(cycle(6), cycle(24))),
                 (cycle(6), PCS_CARRIER.coproduct([three, three])[0])):
        assert PCS_CARRIER.census(X) == PCS_CARRIER.census(Y)
        assert not _isomorphism_agrees(PCS_CARRIER, X, Y)


def test_empty_source_has_exactly_the_empty_morphism():
    for carrier, Y in ((PCS_CARRIER, tensor(cycle(2), cycle(3))),
                       (AUT_CARRIER, samples.AUT_SAMPLES["loop-a"]())):
        for target in (Y, carrier.empty()):
            homs = carrier.hom(carrier.empty(), target)
            assert [(h.target, h.mapping) for h in homs] == [(target, {})]


def quotient_over_all_cells(carrier, obj, pairs) -> tuple:
    """The quotient by a union-find over every cell of ``obj``, each class
    named by its least member: the oracle for ``Carrier.quotient``, which
    links only the cells the pairs touch."""
    parent = {c: c for c in carrier.view(obj).sort}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    rep = {c: find(c) for c in parent}
    return carrier.build([obj], [rep]), rep


def _chained_pairs(data, carrier, X) -> list:
    """Pairs of cells of one sort: per sort a random chain ``c0, c1, ...``
    gives the pairs ``(c0, c1), (c1, c2), ...``; all pairs in random order."""
    by_sort: dict = {}
    for c, s in carrier.view(X).sort.items():
        by_sort.setdefault(s, []).append(c)
    pairs = []
    for cells in by_sort.values():
        chain = data.draw(st.lists(st.sampled_from(cells), max_size=5))
        pairs += zip(chain, chain[1:])
    return data.draw(st.permutations(pairs))


def _quotient_agrees(carrier, X, pairs) -> None:
    # the core's quotient; the PCS carrier's own also closes the face table
    quot, proj = Carrier.quotient(carrier, X, pairs)
    want, rep = quotient_over_all_cells(carrier, X, pairs)
    assert list(proj.mapping.items()) == list(rep.items())
    assert quot == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(relational_pcs(max_cubes=7), st.data())
def test_pcs_quotient_matches_union_find_over_all_cells(X, data):
    _quotient_agrees(PCS_CARRIER, X, _chained_pairs(data, PCS_CARRIER, X))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(relational_automata(5, 5), st.data())
def test_automata_quotient_matches_union_find_over_all_cells(X, data):
    _quotient_agrees(AUT_CARRIER, X, _chained_pairs(data, AUT_CARRIER, X))
