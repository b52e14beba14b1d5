"""The core hom search against a plain canonical-order backtracking."""

import random

from corpus import cycle, pcs_corpus, random_automaton, wedge

from cofib import samples
from cofib.automata import AUT_CARRIER, automata_generators, cofibrant_replacement
from cofib.blowup import blowup, brick_generators
from cofib.pcs import PCS_CARRIER, brick, tensor
from cofib.words import BrickIndex


def canonical_hom(carrier, X, Y) -> list[dict]:
    """Every morphism ``X -> Y`` as a cell map: cells assigned in canonical
    order, candidates in sorted order, each partial map checked against
    every relation between cells assigned so far.  So the maps come in
    lexicographic order of their values over ``carrier.cells(X)``."""
    SX, SY = carrier.view(X), carrier.view(Y)
    cells = carrier.cells(X)
    pairs = [(a, r, b) for (a, r), bs in SX.rel.items() for b in bs]
    out: list[dict] = []

    def extend(k: int, m: dict) -> None:
        if k == len(cells):
            out.append(dict(m))
            return
        c = cells[k]
        for v in sorted(SY.buckets.get(SX.sort[c], ())):
            if not SX.marks.get(c, frozenset()) <= SY.marks.get(v, frozenset()):
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
