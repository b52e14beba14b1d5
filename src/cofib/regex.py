"""Regular expressions compiled to automata through normalization.

Union is a disjoint sum.  Concatenation and star first *normalize* the
operand automata (cofibrant replacement, one initial state, simple edges):
after that, initial states have no incoming edges and accepting non-initial
states have no outgoing ones, so gluing accepting states onto an initial
state cannot create paths that jump between the operands' languages.  That
gluing discipline is the whole point: the naive merge of two loops
recognizes interleavings, the normalized merge recognizes the
concatenation.

An independent recursive word-set semantics doubles as the oracle; the
fuzzer drives both pipelines against each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .automata import (
    AUT_CARRIER,
    ST,
    RelAutomaton,
    Word,
    automaton,
    canonical_rename,
    language_upto,
    normalize,
)
from .pcs import FormatError


class Regex:
    """Base class; the grammar is empty | epsilon | literal | union |
    concatenation | star."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(Regex):
    __slots__ = ()

    def __str__(self):
        return "∅"


@dataclass(frozen=True)
class Epsilon(Regex):
    __slots__ = ()

    def __str__(self):
        return "ε"


@dataclass(frozen=True)
class Lit(Regex):
    char: str

    def __str__(self):
        return self.char


@dataclass(frozen=True)
class Union(Regex):
    left: Regex
    right: Regex

    def __str__(self):
        return f"({self.left}|{self.right})"


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex

    def __str__(self):
        return f"({self.left}{self.right})"


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex

    def __str__(self):
        return f"({self.inner})*"


_SPECIAL = set("|*()∅ε")


def parse(text: str, ascii_aliases: bool = False) -> Regex:
    """Parse the concrete syntax: ``∅``, ``ε``, literals, ``|``,
    juxtaposition, postfix ``*``, parentheses.  With ``ascii_aliases``,
    ``0`` reads as the empty language and ``()`` as the empty word."""
    src = [c for c in text if not c.isspace()]
    pos = 0

    def peek() -> Optional[str]:
        return src[pos] if pos < len(src) else None

    def fail(msg: str):
        raise FormatError(f"regex parse error at {pos}: {msg}")

    def alternation() -> Regex:
        nonlocal pos
        node = sequence()
        while peek() == "|":
            pos += 1
            node = Union(node, sequence())
        return node

    def sequence() -> Regex:
        nonlocal pos
        parts: list[Regex] = []
        while peek() is not None and peek() not in "|)":
            parts.append(starred())
        if not parts:
            if ascii_aliases:
                return Epsilon()
            fail("empty expression (use ε, or () with ascii aliases)")
        node = parts[0]
        for part in parts[1:]:
            node = Concat(node, part)
        return node

    def starred() -> Regex:
        nonlocal pos
        node = atom()
        while peek() == "*":
            pos += 1
            node = Star(node)
        return node

    def atom() -> Regex:
        nonlocal pos
        c = peek()
        if c is None:
            fail("unexpected end of input")
        if c == "(":
            pos += 1
            node = alternation()
            if peek() != ")":
                fail("missing closing parenthesis")
            pos += 1
            return node
        if c == "∅":
            pos += 1
            return Empty()
        if c == "ε":
            pos += 1
            return Epsilon()
        if c == "0" and ascii_aliases:
            pos += 1
            return Empty()
        if c in _SPECIAL:
            fail(f"unexpected {c!r}")
        pos += 1
        return Lit(c)

    node = alternation()
    if pos != len(src):
        fail(f"trailing input {''.join(src[pos:])!r}")
    return node


def literals(r: Regex) -> set[str]:
    if isinstance(r, Lit):
        return {r.char}
    if isinstance(r, (Union, Concat)):
        return literals(r.left) | literals(r.right)
    if isinstance(r, Star):
        return literals(r.inner)
    return set()


# -- compilation ---------------------------------------------------------------


def _epsilon_automaton(alphabet: Iterable[str]) -> RelAutomaton:
    return RelAutomaton(alphabet, ["q0"], {}, ["q0"], ["q0"])


def compile_regex(r: Regex, alphabet: Iterable[str] = ()) -> RelAutomaton:
    """Compile to a finite automaton recognizing the same language."""
    ab = frozenset(alphabet) | literals(r)
    return _compile(r, ab)


def _compile(r: Regex, ab: frozenset[str]) -> RelAutomaton:
    if isinstance(r, Empty):
        return RelAutomaton(ab, [], {}, [], [])
    if isinstance(r, Epsilon):
        return _epsilon_automaton(ab)
    if isinstance(r, Lit):
        return automaton(ab, ["q0", "q1"], [(r.char, ["q0"], ["q1"])], ["q0"], ["q1"])
    if isinstance(r, Union):
        total, _inj = AUT_CARRIER.coproduct(
            [_compile(r.left, ab), _compile(r.right, ab)]
        )
        return canonical_rename(total)
    if isinstance(r, Concat):
        return _concat(_compile(r.left, ab), _compile(r.right, ab))
    if isinstance(r, Star):
        return _star(_compile(r.inner, ab))
    raise TypeError(f"not a regex: {r!r}")


def _concat(CA: RelAutomaton, CB: RelAutomaton) -> RelAutomaton:
    """Glue the accepting states of the left operand onto the right
    operand's initial state, after normalizing both."""
    NA = normalize(CA).automaton
    NB = normalize(CB).automaton
    i = min(NA.initial) if NA.initial else None
    ends = sorted(NA.accepting - NA.initial)
    left = RelAutomaton(NA.alphabet, NA.states, NA.edges, NA.initial, [])
    right = RelAutomaton(NB.alphabet, NB.states, NB.edges, [], NB.accepting)
    total, (in_left, in_right) = AUT_CARRIER.coproduct([left, right])
    pairs = []
    if NB.initial:
        v = min(NB.initial)
        pairs = [
            (in_right.mapping[(ST, v)], in_left.mapping[(ST, x)]) for x in ends
        ]
    merged, _proj = AUT_CARRIER.quotient(total, pairs)
    if i is not None and i in NA.accepting:
        # the left language contains the empty word, so the right language
        # itself must be recognized too
        merged, _inj = AUT_CARRIER.coproduct([merged, CB])
    return canonical_rename(merged)


def _star(CA: RelAutomaton) -> RelAutomaton:
    """Loop the accepting states back onto the initial state."""
    NA = normalize(CA).automaton
    if not NA.initial:
        return _epsilon_automaton(NA.alphabet)
    i = min(NA.initial)
    ends = sorted(NA.accepting - NA.initial)
    pairs = [((ST, i), (ST, x)) for x in ends]
    M, _proj = AUT_CARRIER.quotient(NA, pairs)
    # the glued initial state now also accepts: the empty word is in a star
    return canonical_rename(
        RelAutomaton(M.alphabet, M.states, M.edges, M.initial, M.accepting | M.initial)
    )


# -- independent word-set semantics --------------------------------------------


def regex_lang_upto(r: Regex, L: int) -> set[Word]:
    """Truncated language by structural recursion with length pruning."""
    memo: dict[tuple[Regex, int], frozenset[Word]] = {}

    def lang(node: Regex, bound: int) -> frozenset[Word]:
        key = (node, bound)
        if key in memo:
            return memo[key]
        out: frozenset[Word]
        if isinstance(node, Empty):
            out = frozenset()
        elif isinstance(node, Epsilon):
            out = frozenset({()})
        elif isinstance(node, Lit):
            out = frozenset({(node.char,)}) if bound >= 1 else frozenset()
        elif isinstance(node, Union):
            out = lang(node.left, bound) | lang(node.right, bound)
        elif isinstance(node, Concat):
            acc = set()
            for u in lang(node.left, bound):
                for v in lang(node.right, bound - len(u)):
                    acc.add(u + v)
            out = frozenset(acc)
        elif isinstance(node, Star):
            base = lang(node.inner, bound) - {()}
            words = {()}
            frontier = {()}
            while frontier:
                nxt = set()
                for u in frontier:
                    for v in base:
                        w = u + v
                        if len(w) <= bound and w not in words:
                            words.add(w)
                            nxt.add(w)
                frontier = nxt
            out = frozenset(words)
        else:
            raise TypeError(f"not a regex: {node!r}")
        memo[key] = out
        return out

    return set(lang(r, L))


# -- fuzzing --------------------------------------------------------------------


def random_regex(rng: random.Random, depth: int, alphabet: Sequence[str]) -> Regex:
    if depth <= 0:
        roll = rng.random()
        if roll < 0.70:
            return Lit(rng.choice(alphabet))
        if roll < 0.85:
            return Epsilon()
        return Empty()
    roll = rng.random()
    if roll < 0.25:
        return Lit(rng.choice(alphabet))
    if roll < 0.50:
        return Union(
            random_regex(rng, depth - 1, alphabet),
            random_regex(rng, depth - 1, alphabet),
        )
    if roll < 0.78:
        return Concat(
            random_regex(rng, depth - 1, alphabet),
            random_regex(rng, depth - 1, alphabet),
        )
    return Star(random_regex(rng, depth - 1, alphabet))


@dataclass
class FuzzReport:
    count: int
    mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> dict:
        return {
            "regexes": self.count,
            "mismatches": len(self.mismatches),
            "witnesses": self.mismatches[:5],
        }


def kleene_fuzz(
    seed: int,
    count: int,
    depth: int,
    L: int,
    alphabet: Sequence[str] = ("a", "b"),
) -> FuzzReport:
    """Drive the compiler against the recursive semantics on random
    expressions; any word in one truncated language but not the other is a
    reported counterexample."""
    rng = random.Random(seed)
    mismatches = []
    for _k in range(count):
        r = random_regex(rng, depth, alphabet)
        compiled = language_upto(compile_regex(r, alphabet), L)
        expected = regex_lang_upto(r, L)
        if compiled != expected:
            diff = sorted(compiled.symmetric_difference(expected))[:3]
            mismatches.append(
                {
                    "regex": str(r),
                    "words": ["".join(w) for w in diff],
                    "compiled_only": sorted(
                        "".join(w) for w in (compiled - expected)
                    )[:3],
                    "oracle_only": sorted(
                        "".join(w) for w in (expected - compiled)
                    )[:3],
                }
            )
    return FuzzReport(count, mismatches)


__all__ = [
    "Regex",
    "Empty",
    "Epsilon",
    "Lit",
    "Union",
    "Concat",
    "Star",
    "parse",
    "literals",
    "compile_regex",
    "regex_lang_upto",
    "random_regex",
    "FuzzReport",
    "kleene_fuzz",
]
