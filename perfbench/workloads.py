"""The four benchmark workloads: seeded inputs, one timed call each, and
answer checks that do not come from the code under test.

Every workload is a class with the same four steps:

* ``make_items(rng, m, scale)`` builds the whole input set once, at
  set-up, as plain data plus the known answer for each input (``scale``
  shrinks the set, for the self-test); ``pcs-chart`` then also writes each
  input to a JSON file in ``prepare``;
* ``materialize(item, m)`` turns one input into fresh program objects
  before each pass, outside the timed region, so that no pass can reuse
  an object a previous pass already touched;
* ``run(obj, m)`` is the timed region: the public entry points a user
  would call for that input, and nothing else;
* ``check(item, out, m)`` compares the output with the known answer,
  outside the timed region, and returns ``(out_cells, squares, problem)``.

``m`` is the namespace of the imported ``cofib`` modules (see
``run.load_modules``); workloads look every function up on it at call
time so that a traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Any


@dataclass
class Item:
    """One input: what it is, how big it is, and what the answer must be."""

    family: str
    params: dict
    cells: int
    data: Any
    expect: dict = field(default_factory=dict)


# -- relational precubical sets -------------------------------------------------


def _named(rng: random.Random, P, m):
    """Rename every cube to a seeded random identifier, so that the
    canonical cell order (and with it the search order) depends on the seed
    and not on how the family was written down."""
    cubes = P.all_cubes()
    ids = rng.sample(range(10 ** 6), len(cubes))
    renaming = {c: f"c{i:06d}" for c, i in zip(cubes, ids)}
    return m.pcs.rename_cells(P, renaming)


def _cycle(a: int, m):
    W = m.words.CubeWord.parse
    faces = {}
    for i in range(a):
        faces[(f"e{i}", W("-"))] = [f"v{i}"]
        faces[(f"e{i}", W("+"))] = [f"v{(i + 1) % a}"]
    return m.pcs.relpcs(
        1, {0: [f"v{i}" for i in range(a)], 1: [f"e{i}" for i in range(a)]}, faces
    )


def _path(length: int, m):
    W = m.words.CubeWord.parse
    faces = {}
    for i in range(length):
        faces[(f"e{i}", W("-"))] = [f"v{i}"]
        faces[(f"e{i}", W("+"))] = [f"v{i + 1}"]
    return m.pcs.relpcs(
        1,
        {0: [f"v{i}" for i in range(length + 1)], 1: [f"e{i}" for i in range(length)]},
        faces,
    )


def _wedge(k: int, m):
    W = m.words.CubeWord.parse
    faces = {}
    for i in range(k):
        faces[(f"e{i}", W("-"))] = ["v"]
        faces[(f"e{i}", W("+"))] = ["v"]
    return m.pcs.relpcs(1, {0: ["v"], 1: [f"e{i}" for i in range(k)]}, faces)


def _nonzero(counts: dict) -> dict:
    return {d: c for d, c in counts.items() if c}


def _factor_pair(rng: random.Random, product: int) -> tuple[int, int]:
    a = rng.choice([d for d in range(1, product + 1) if product % d == 0])
    return a, product // a


def _pcs_item(rng: random.Random, family: str, size: int, m) -> Item:
    """One member of a family, with the cube counts of its blowup worked
    out by hand.

    Tori are euclidean, so the blowup is isomorphic to the input.  On a
    cylinder only the interior has full charts: vertices and circle edges
    on the two boundary circles get no probe.  A wedge of ``k`` loops gets
    one vertex probe per (incoming loop, outgoing loop) pair.  The seed
    picks how a torus's cube count is factored into cycle lengths and the
    names of all cubes.
    """
    tensor = m.pcs.tensor
    if family == "torus":
        a, b = _factor_pair(rng, size)
        P, n, params = tensor(_cycle(a, m), _cycle(b, m)), 2, {"a": a, "b": b}
        blown = {0: a * b, 1: 2 * a * b, 2: a * b}
    elif family == "torus3":
        a, bc = _factor_pair(rng, size)
        b, c = _factor_pair(rng, bc)
        P = tensor(tensor(_cycle(a, m), _cycle(b, m)), _cycle(c, m))
        n, params = 3, {"a": a, "b": b, "c": c}
        v = a * b * c
        blown = {0: v, 1: 3 * v, 2: 3 * v, 3: v}
    elif family == "cylinder":
        a, length = size
        P, n, params = tensor(_cycle(a, m), _path(length, m)), 2, {"a": a, "m": length}
        blown = {0: a * (length - 1), 1: a * length + a * (length - 1), 2: a * length}
    elif family == "wedge":
        k = size
        P, n, params = _wedge(k, m), 1, {"k": k}
        blown = {0: k * k, 1: k}
    else:
        raise ValueError(f"unknown family {family!r}")
    P = _named(rng, P, m)
    spec = (P.dim_bound, {d: sorted(cs) for d, cs in P.cubes.items()}, dict(P.faces))
    return Item(
        family,
        dict(params, n=n),
        P.n_cubes(),
        spec,
        {
            "n": n,
            "euclidean": family in ("torus", "torus3"),
            "blowup_counts": _nonzero(blown),
        },
    )


def _ladder(count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes spread evenly over ``lo..hi``: every seed gets the
    same size profile, so run-to-run spread comes from the inputs' shapes
    and names, not from drawing more big inputs on one seed than another."""
    return [lo + (k * (hi - lo + 1)) // count for k in range(count)]


def _pcs_items(rng: random.Random, m, tori, tori3, cylinders, wedges) -> list[Item]:
    items = []
    for size in _ladder(*tori):
        items.append(_pcs_item(rng, "torus", size, m))
    for size in _ladder(*tori3):
        items.append(_pcs_item(rng, "torus3", size, m))
    count, (a_lo, a_hi), (m_lo, m_hi) = cylinders
    for a, length in zip(_ladder(count, a_lo, a_hi), _ladder(count, m_lo, m_hi)):
        items.append(_pcs_item(rng, "cylinder", (a, length), m))
    for size in _ladder(*wedges):
        items.append(_pcs_item(rng, "wedge", size, m))
    rng.shuffle(items)
    return items


class PcsVerify:
    """``blowup`` + ``verify_blowup``: the query side of the PCS layer,
    where lifting certification does most of the work."""

    name = "pcs-verify"
    dims = (1, 2, 3)

    def make_items(self, rng, m, scale=1.0):
        return _pcs_items(
            rng,
            m,
            tori=(_scaled(40, scale), 1, 12),
            tori3=(_scaled(14, scale), 1, 6),
            cylinders=(_scaled(30, scale), (1, 5), (1, 4)),
            wedges=(_scaled(30, scale), 2, 9),
        )

    def materialize(self, item, m):
        return m.pcs.RelPCS(*item.data), item.expect["n"]

    def run(self, obj, m):
        X, n = obj
        result = m.blowup.blowup(X, n)
        return result, m.blowup.verify_blowup(X, n, result)

    def check(self, item, out, m):
        result, report = out
        counts = result.blowup.cube_counts()
        cubes = result.blowup.n_cubes()
        squares = report.lifting.checked + report.codiagonal_lifting.checked
        exp = item.expect
        if not report.ok:
            return cubes, squares, f"verify_blowup not ok: {report.summary()}"
        if report.input_euclidean.ok != exp["euclidean"]:
            return cubes, squares, f"input_euclidean is {report.input_euclidean.ok}"
        if report.beta_iso != exp["euclidean"]:
            return cubes, squares, f"beta_is_isomorphism is {report.beta_iso}"
        if counts != exp["blowup_counts"]:
            return cubes, squares, f"blowup counts {counts} != {exp['blowup_counts']}"
        # The blowup is euclidean, so blowing it up again gives it back: the
        # squares against the generators (one per filler, as every filler is
        # unique) are the brick probes into it, one per cube, and the same
        # again for the codiagonals.
        if report.lifting.checked != cubes or report.codiagonal_lifting.checked != cubes:
            return cubes, squares, (
                f"squares {report.lifting.checked}/{report.codiagonal_lifting.checked}"
                f" != {cubes} cubes"
            )
        return cubes, squares, None


class PcsChart:
    """The CLI in process: ``pcs blowup -o`` then ``pcs euclid`` on the
    blowup and on the input.  The build side of the PCS layer: upward
    neighbourhoods, charts and JSON, with no lifting at all."""

    name = "pcs-chart"
    dims = (1, 2, 3)

    def make_items(self, rng, m, scale=1.0):
        return _pcs_items(
            rng,
            m,
            tori=(_scaled(36, scale), 6, 16),
            tori3=(_scaled(12, scale), 2, 5),
            cylinders=(_scaled(24, scale), (3, 6), (2, 4)),
            wedges=(_scaled(28, scale), 5, 14),
        )

    def prepare(self, items, m, workdir):
        """Write every input to its own JSON file, as a user would hand it
        to the command line."""
        for k, item in enumerate(items):
            path = os.path.join(workdir, f"in{k}.json")
            with open(path, "w") as fh:
                json.dump(m.pcs.to_json_dict(m.pcs.RelPCS(*item.data)), fh)
            item.data = (path, os.path.join(workdir, f"blowup{k}.json"))

    def materialize(self, item, m):
        x_path, b_path = item.data
        with contextlib.suppress(FileNotFoundError):
            os.remove(b_path)
        return item.expect["n"], x_path, b_path

    def run(self, obj, m):
        n, x_path, b_path = obj
        outputs = []
        for argv in (
            ["pcs", "blowup", "-n", str(n), x_path, "-o", b_path],
            ["pcs", "euclid", "-n", str(n), b_path],
            ["pcs", "euclid", "-n", str(n), x_path],
        ):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = m.cli.main(argv)
            outputs.append((code, buf.getvalue()))
        return outputs

    def check(self, item, out, m):
        (c_blow, o_blow), (c_eb, o_eb), (c_ex, o_ex) = out
        exp = item.expect
        if c_blow != 0 or c_eb != 0:
            return 0, 0, f"exit codes {c_blow}, {c_eb}"
        with open(item.data[1]) as fh:
            written = json.load(fh)
        counts = {int(d): len(cs) for d, cs in written["cubes"].items()}
        cubes = sum(counts.values())
        printed = {int(d): c for d, c in json.loads(o_blow)["cells_by_dimension"].items()}
        if counts != exp["blowup_counts"] or printed != exp["blowup_counts"]:
            return cubes, 0, f"blowup counts {counts}/{printed} != {exp['blowup_counts']}"
        charted = json.loads(o_eb)
        if not charted["ok"] or len(charted["charts"]) != cubes:
            return cubes, 0, "blowup has a cube without a chart"
        direct = json.loads(o_ex)
        if direct["ok"] != exp["euclidean"] or c_ex != (0 if exp["euclidean"] else 1):
            return cubes, 0, f"input euclid ok={direct['ok']} exit {c_ex}"
        if not exp["euclidean"] and direct.get("counterexample") is None:
            return cubes, 0, "non-euclidean input without a counterexample"
        return cubes, 0, None


# -- relational automata --------------------------------------------------------


ALPHABET = "abc"


def _random_automaton(rng: random.Random, n_states: int, n_edges: int) -> dict:
    """A random automaton of a fixed shape with set-valued endpoints.
    Labels are dealt evenly and the total number of incidences (edge
    endpoints plus markers) is held at its expected value."""
    states = [f"s{i:03d}" for i in rng.sample(range(1000), n_states)]
    labels = [ALPHABET[k % len(ALPHABET)] for k in range(n_edges)]
    rng.shuffle(labels)
    incidences = round(0.4 * n_states * (2 * n_edges + 2))
    while True:
        picks = [[s for s in states if rng.random() < 0.4] for _ in range(2 * n_edges + 2)]
        if sum(map(len, picks)) == incidences:
            break
    edges = [(labels[k], picks[2 * k], picks[2 * k + 1]) for k in range(n_edges)]
    return {"states": states, "edges": edges, "initial": picks[-2], "accepting": picks[-1]}


def replacement_shape(d: dict) -> tuple:
    """The cofibrant replacement of an automaton, worked out here from its
    definition: a copy of each initial state carrying only its outgoing
    edges, an accepting copy per (edge, accepting target), and one internal
    copy of each state with both incoming and outgoing edges.  Returns
    ``(states, initial, accepting, edges)`` with edges as ``(label,
    sources, targets)``."""
    initial, accepting = set(d["initial"]), set(d["accepting"])
    has_in = {v for _l, _s, targets in d["edges"] for v in targets}
    has_out = {v for _l, sources, _t in d["edges"] for v in sources}
    inner = has_in & has_out
    edges, acc = [], set()
    for k, (label, sources, targets) in enumerate(d["edges"]):
        ends = {("acc", k, v) for v in targets if v in accepting}
        acc |= ends
        src = {("init", v) for v in sources if v in initial} | {("int", v) for v in sources if v in inner}
        tgt = ends | {("int", v) for v in targets if v in inner}
        edges.append((label, frozenset(src), frozenset(tgt)))
    init = frozenset(("init", v) for v in initial)
    states = init | acc | {("int", v) for v in inner}
    final = frozenset(acc | {("init", v) for v in initial & accepting})
    return states, init, final, edges


def language(initial, accepting, edges, bound: int) -> set:
    """Words of length at most ``bound`` read from ``(label, sources,
    targets)`` triples: a letter takes a state set to all targets of the
    matching edges that touch it.  Written here, not imported, so it can
    judge the program's output."""
    by_label: dict = {}
    for label, sources, targets in edges:
        by_label.setdefault(label, []).append((sources, targets))
    words = set()
    frontier = {(): frozenset(initial)}
    for length in range(bound + 1):
        nxt = {}
        for word, active in frontier.items():
            if active & accepting:
                words.add(word)
            if length == bound:
                continue
            for letter, pairs in by_label.items():
                reached = frozenset(t for src, tgt in pairs if src & active for t in tgt)
                if reached:
                    nxt[word + (letter,)] = reached
        frontier = nxt
    return words


def _edge_triples(A) -> list:
    return [(e.label, e.sources, e.targets) for e in A.edges.values()]


def generator_homs(states, initial, accepting, edges, letters) -> int:
    """Number of maps from the codomains of the generators into an
    automaton given by its states, markers and ``(label, sources, targets)``
    edges.

    The generators are the two initial-state ones, then per letter an
    edge, a sourced edge from an initial state and an edge into a fresh
    accepting state, then internal stars with one or two incoming and one
    or two outgoing labels.  When every square has exactly one filler,
    squares and fillers correspond one to one, and a filler is exactly
    such a map, so for the replacement this count is the number of squares
    both ``unique_rlp`` and the codiagonal ``rlp`` must check.
    """
    total = len(initial) + len(initial & accepting)
    for a in letters:
        with_label = [(src, tgt) for label, src, tgt in edges if label == a]
        total += len(with_label)
        total += sum(len(src & initial) for src, _t in with_label)
        total += sum(len(tgt & accepting) for _s, tgt in with_label)
    for s in states:
        into = {a: sum(1 for lab, _s, tgt in edges if lab == a and s in tgt) for a in letters}
        out_of = {a: sum(1 for lab, src, _t in edges if lab == a and s in src) for a in letters}
        for k_in in (1, 2):
            for k_out in (1, 2):
                for ins in combinations_with_replacement(letters, k_in):
                    for outs in combinations_with_replacement(letters, k_out):
                        ways = 1
                        for a in ins:
                            ways *= into[a]
                        for a in outs:
                            ways *= out_of[a]
                        total += ways
    return total


class AutVerify:
    """``cofibrant_replacement`` + ``verify_replacement`` on many small
    random relational automata: the read side of the automata layer, where
    per-call overhead of hom search dominates."""

    name = "aut-verify"
    bound = 6
    # (states, edges) shapes and how many of each.  Each automaton is drawn
    # straight from the seeded distribution.  The last three shapes, 16 of
    # the 100 inputs, are the tail, where lifting work grows with products
    # of same-label edge counts: the twelve (5, 7) automata straddle the
    # 90th percentile, and the ten inputs beyond it are half of those and
    # the four largest.
    shapes = [(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6), (5, 7), (5, 8), (6, 9)]
    repeats = [16, 16, 14, 12, 10, 8, 8, 12, 2, 2]

    def make_items(self, rng, m, scale=1.0):
        items = []
        for (n_states, n_edges), count in zip(self.shapes, self.repeats):
            for _k in range(_scaled(count, scale)):
                items.append(
                    Item("automaton", {"states": n_states, "edges": n_edges},
                         n_states + n_edges, _random_automaton(rng, n_states, n_edges))
                )
        rng.shuffle(items)
        return items

    def materialize(self, item, m):
        d = item.data
        return m.automata.automaton(ALPHABET, d["states"], d["edges"], d["initial"], d["accepting"])

    def run(self, A, m):
        result = m.automata.cofibrant_replacement(A)
        report = m.automata.verify_replacement(
            A, result, language_bound=self.bound, check_codiagonals=True
        )
        return A, result, report

    def check(self, item, out, m):
        A, result, report = out
        R = result.replacement
        cells = len(R.states) + len(R.edges)
        squares = report.lifting.checked + report.codiagonal_lifting.checked
        if not report.ok:
            return cells, squares, f"verify_replacement not ok: {report.summary()}"
        d = item.data
        shape = replacement_shape(d)
        if len(R.edges) != len(d["edges"]) or len(R.states) != len(shape[0]):
            return cells, squares, f"replacement has {len(R.states)} states, {len(R.edges)} edges"
        homs = generator_homs(R.states, R.initial, R.accepting, _edge_triples(R), sorted(ALPHABET))
        if homs != generator_homs(*shape, sorted(ALPHABET)):
            return cells, squares, "replacement is not the one its definition gives"
        if report.lifting.checked != homs or report.codiagonal_lifting.checked != homs:
            return cells, squares, (
                f"squares {report.lifting.checked}/{report.codiagonal_lifting.checked} != {homs}"
            )
        triples = [(lab, frozenset(s), frozenset(t)) for lab, s, t in d["edges"]]
        if language(R.initial, R.accepting, _edge_triples(R), self.bound) != language(
            d["initial"], frozenset(d["accepting"]), triples, self.bound
        ):
            return cells, squares, "replacement changes the language"
        return cells, squares, None


# -- regular expressions --------------------------------------------------------


# Node-kind counts of the blocks a chain is made of, cycled along the chain.
# The shape inside each block is random; the counts are not, so a chain's
# compiled size is set by its length and not by the luck of the draw.  Most
# blocks can match the empty word, so long chains still have short words
# for the language check to compare.
BLOCK_KINDS = [
    {"lit": 2, "union": 1, "star": 1},
    {"lit": 2, "cat": 1, "star": 1},
    {"lit": 1, "eps": 1, "union": 1},
    {"lit": 3, "cat": 1, "union": 1},
    {"lit": 3, "cat": 1, "union": 1, "star": 1},
]


def _random_block(rng: random.Random, kinds: dict):
    """A random regex, as a tagged tuple, with exactly the given node kinds:
    leaves are literals and epsilons, then the operators are applied in a
    random order to random parts until one tree is left."""
    parts = [("lit", rng.choice("ab")) for _ in range(kinds.get("lit", 0))]
    parts += [("eps",)] * kinds.get("eps", 0)
    ops = [op for op in ("union", "cat", "star") for _ in range(kinds.get(op, 0))]
    rng.shuffle(ops)
    for op in ops:
        if op == "star":
            k = rng.randrange(len(parts))
            parts[k] = ("star", parts[k])
        else:
            left = parts.pop(rng.randrange(len(parts)))
            right = parts.pop(rng.randrange(len(parts)))
            parts.append((op, left, right))
    (block,) = parts
    return block


def regex_text(node) -> str:
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "eps":
        return "ε"
    if kind == "union":
        return f"({regex_text(node[1])}|{regex_text(node[2])})"
    if kind == "cat":
        return f"({regex_text(node[1])}{regex_text(node[2])})"
    return f"({regex_text(node[1])})*"


def regex_words(node, bound: int) -> frozenset:
    """Words of length at most ``bound`` by structural recursion."""
    kind = node[0]
    if kind == "lit":
        return frozenset({(node[1],)}) if bound >= 1 else frozenset()
    if kind == "eps":
        return frozenset({()})
    if kind == "union":
        return regex_words(node[1], bound) | regex_words(node[2], bound)
    if kind == "cat":
        return frozenset(
            u + v
            for u in regex_words(node[1], bound)
            for v in regex_words(node[2], bound - len(u))
        )
    base = regex_words(node[1], bound) - {()}
    words, frontier = {()}, {()}
    while frontier:
        frontier = {u + v for u in frontier for v in base if len(u + v) <= bound} - words
        words |= frontier
    return frozenset(words)


class RxCompile:
    """``parse`` + ``compile_regex`` on concatenation chains of small random
    blocks: the write side of the automata layer (normalization and
    colimits), with no hom search and no lifting."""

    name = "rx-compile"
    bound = 8

    def make_items(self, rng, m, scale=1.0):
        items = []
        for length in _ladder(_scaled(240, scale), 3, 14):
            blocks = [_random_block(rng, BLOCK_KINDS[k % len(BLOCK_KINDS)]) for k in range(length)]
            chain = blocks[0]
            for b in blocks[1:]:
                chain = ("cat", chain, b)
            text = "".join(f"({regex_text(b)})" for b in blocks)
            items.append(Item("chain", {"length": length}, len(text), (text, chain)))
        rng.shuffle(items)
        return items

    def materialize(self, item, m):
        return item.data[0]

    def run(self, text, m):
        return m.regex.compile_regex(m.regex.parse(text), "ab")

    def check(self, item, A, m):
        cells = len(A.states) + len(A.edges)
        if "words" not in item.expect:
            item.expect["words"] = regex_words(item.data[1], self.bound)
        got = language(A.initial, A.accepting, _edge_triples(A), self.bound)
        if got != item.expect["words"]:
            diff = sorted(got ^ item.expect["words"])[:3]
            return cells, 0, f"language differs on {[''.join(w) for w in diff]}"
        return cells, 0, None


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


WORKLOADS = {w.name: w for w in (PcsVerify(), PcsChart(), AutVerify(), RxCompile())}
