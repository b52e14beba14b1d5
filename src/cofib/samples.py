"""Small canonical objects used by the demos, the CLI suites, and tests,
and the cases of the colimit-identity suite built from them."""

from __future__ import annotations

from itertools import combinations

from .automata import (
    AUT_CARRIER,
    RelAutomaton,
    automata_generators,
    automaton,
    cofibrant_replacement,
    gen_accept,
    gen_edge,
)
from .blowup import blowup, brick_generators
from .lifting import codiagonal
from .pcs import PCS_CARRIER, RelPCS, relpcs
from .words import CubeWord

W = CubeWord.parse


def one_square_torus() -> RelPCS:
    """One vertex, one edge, one square; every face collapses."""
    return relpcs(
        2,
        {0: ["v"], 1: ["e"], 2: ["c"]},
        {
            ("e", W("-")): ["v"],
            ("e", W("+")): ["v"],
            ("c", W("-0")): ["e"],
            ("c", W("+0")): ["e"],
            ("c", W("0-")): ["e"],
            ("c", W("0+")): ["e"],
        },
    )


def circle() -> RelPCS:
    return relpcs(
        1, {0: ["v"], 1: ["e"]}, {("e", W("-")): ["v"], ("e", W("+")): ["v"]}
    )


def interval() -> RelPCS:
    return relpcs(
        1, {0: ["s", "t"], 1: ["e"]}, {("e", W("-")): ["s"], ("e", W("+")): ["t"]}
    )


def lone_vertex() -> RelPCS:
    return relpcs(1, {0: ["v"]}, {})


def y_graph() -> RelPCS:
    """One edge into a center, two edges out of it."""
    return relpcs(
        1,
        {0: ["a", "v", "b", "c"], 1: ["e1", "e2", "e3"]},
        {
            ("e1", W("-")): ["a"],
            ("e1", W("+")): ["v"],
            ("e2", W("-")): ["v"],
            ("e2", W("+")): ["b"],
            ("e3", W("-")): ["v"],
            ("e3", W("+")): ["c"],
        },
    )


def closed_square() -> RelPCS:
    return relpcs(
        2,
        {0: ["00", "01", "10", "11"], 1: ["b", "t", "l", "r"], 2: ["c"]},
        {
            ("c", W("-0")): ["l"],
            ("c", W("+0")): ["r"],
            ("c", W("0-")): ["b"],
            ("c", W("0+")): ["t"],
            ("b", W("-")): ["00"],
            ("b", W("+")): ["10"],
            ("t", W("-")): ["01"],
            ("t", W("+")): ["11"],
            ("l", W("-")): ["00"],
            ("l", W("+")): ["01"],
            ("r", W("-")): ["10"],
            ("r", W("+")): ["11"],
        },
    )


def open_square() -> RelPCS:
    return relpcs(2, {2: ["c"]}, {})


def broken_closure_square() -> RelPCS:
    """A square whose edge has a vertex face missing from the composite."""
    return RelPCS(
        2,
        {0: ["v"], 1: ["e"], 2: ["c"]},
        {
            ("c", W("-0")): ["e"],
            ("e", W("-")): ["v"],
        },
    )


def loop_ab() -> RelAutomaton:
    """One state, initial and accepting, with an a-loop and a b-loop."""
    return automaton(
        "ab", ["v"], [("a", ["v"], ["v"]), ("b", ["v"], ["v"])], ["v"], ["v"]
    )


def loop_a() -> RelAutomaton:
    return automaton("a", ["v"], [("a", ["v"], ["v"])], ["v"], ["v"])


def path_ab() -> RelAutomaton:
    return automaton(
        "ab",
        ["q0", "q1", "q2"],
        [("a", ["q0"], ["q1"]), ("b", ["q1"], ["q2"])],
        ["q0"],
        ["q2"],
    )


def headless_edge() -> RelAutomaton:
    """A single edge with no sources and two targets."""
    return automaton("a", ["x", "y"], [("a", [], ["x", "y"])], ["x"], ["y"])


def two_start_automaton() -> RelAutomaton:
    """Two initial states heading into disjoint one-letter paths."""
    return automaton(
        "ab",
        ["p", "q", "p1", "q1"],
        [("a", ["p"], ["p1"]), ("b", ["q"], ["q1"])],
        ["p", "q"],
        ["p1", "q1"],
    )


def relational_mess() -> RelAutomaton:
    """A deliberately relational automaton: plural and empty endpoints."""
    return automaton(
        "ab",
        ["u", "v", "w"],
        [
            ("a", ["u", "v"], ["v", "w"]),
            ("b", ["v"], []),
            ("b", [], ["w"]),
            ("a", ["w"], ["u"]),
        ],
        ["u"],
        ["w"],
    )


PCS_SAMPLES = {
    "one-square": (one_square_torus, 2),
    "circle": (circle, 1),
    "interval": (interval, 1),
    "lone-vertex": (lone_vertex, 1),
    "y-graph": (y_graph, 1),
    "closed-square": (closed_square, 2),
    "open-square": (open_square, 2),
}

AUT_SAMPLES = {
    "loop-ab": loop_ab,
    "loop-a": loop_a,
    "path-ab": path_ab,
    "headless-edge": headless_edge,
    "two-start": two_start_automaton,
    "relational-mess": relational_mess,
}


def _identity_cases(carrier, gens, composable, spans, lemma_maps) -> list[tuple[str, str, tuple]]:
    """Rows ``(identity, label, args)`` for
    :func:`cofib.lifting.appendix_identity_suite`: each named generator
    alone, every pair of them summed, each after the map from the empty
    object and the extra ``composable`` pairs, each span ``(label, i, X)``
    along every map ``dom(i) -> X``, and each lemma map against every
    generator."""
    rows = []
    for name, f in gens:
        rows += [("double_codiagonal_iso", name, (f,)), ("retract_identity", name, (f,))]
    rows += [("sum_identity", f"{m} + {n}", ([f, g],)) for (m, f), (n, g) in combinations(gens, 2)]
    composable = [(f"! then {n}", carrier.initial_morphism(f.source), f) for n, f in gens] + composable
    rows += [("composition_identity", label, (f, g)) for label, f, g in composable]
    for label, i, X in spans:
        rows += [("pushout_square", f"{label}, map {k}", (i, f)) for k, f in enumerate(carrier.hom(i.source, X))]
    rows += [("unique_lift_equivalence", f"{pn} against {n}", (p, i)) for pn, p in lemma_maps for n, i in gens]
    return rows


def appendix_cases() -> dict[str, tuple]:
    """The colimit-identity suite's ``(carrier, rows)`` per carrier.  The
    lemma maps are a projection with unique lifting and a fold without it,
    each with a square against every generator: β of the one-square
    torus's blowup and the fold of two tori, β of the replacement of
    ``loop_ab`` and the fold of two copies of it (a fold ``X + X -> X`` is
    the codiagonal of ``0 -> X``)."""
    torus, circle_blowup = one_square_torus(), blowup(circle(), 1)
    pcs_gens = brick_generators(1).positive + brick_generators(2).positive
    pcs_rows = _identity_cases(
        PCS_CARRIER, pcs_gens, [],
        [("i_1 into blowup(circle, 1)", dict(pcs_gens)["i_1"], circle_blowup.blowup)],
        [("beta of blowup(one-square, 2)", blowup(torus, 2).beta),
         ("fold of one-square + one-square", codiagonal(PCS_CARRIER, PCS_CARRIER.initial_morphism(torus)))],
    )
    ab, loop = ["a", "b"], loop_a()
    loop_over_ab = RelAutomaton("ab", loop.states, loop.edges, loop.initial, loop.accepting)
    aut_rows = _identity_cases(
        AUT_CARRIER, automata_generators("ab", 1, 1).positive,
        [(f"edge({x}) then accept({x})", gen_edge(ab, x), gen_accept(ab, x)) for x in ab],
        [("accept(a) into loop-a", gen_accept(["a"], "a"), loop),
         ("accept(a) into loop-a over ab", gen_accept(ab, "a"), loop_over_ab)],
        [("beta of cofrep(loop-ab)", cofibrant_replacement(loop_ab()).beta),
         ("fold of loop-ab + loop-ab", codiagonal(AUT_CARRIER, AUT_CARRIER.initial_morphism(loop_ab())))],
    )
    return {"pcs": (PCS_CARRIER, pcs_rows), "automata": (AUT_CARRIER, aut_rows)}
