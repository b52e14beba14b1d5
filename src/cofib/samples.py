"""Small canonical objects used by the demos, the CLI suites, and tests."""

from __future__ import annotations

from .automata import RelAutomaton, automaton
from .pcs import RelPCS, relpcs
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
