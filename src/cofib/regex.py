"""Regular expressions compiled to automata through normalization.

Union is a disjoint sum.  Concatenation and star first *normalize* the
operand automata (cofibrant replacement, one initial state, simple edges):
after that, initial states have no incoming edges and accepting non-initial
states have no outgoing ones, so gluing accepting states onto an initial
state cannot create paths that jump between the operands' languages.  That
gluing discipline is the whole point: the naive merge of two loops
recognizes interleavings, the normalized merge recognizes the
concatenation.

An independent word-set semantics, defined by structural recursion and
evaluated with an explicit stack, doubles as the oracle; the fuzzer drives
both pipelines against each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .automata import (
    AUT_CARRIER,
    ST,
    RelAutomaton,
    Word,
    _numbered,
    automaton,
    canonical_rename,
    language_upto,
    normalize,
)
from .pcs import FormatError


class Regex:
    """Base class; the grammar is empty | epsilon | literal | union |
    concatenation | star.  Text, repr, equality and hash are spellings
    over :func:`_walk`, so that no depth of nesting meets the recursion
    limit; repr is the text the dataclass would generate, and equality
    and hash read the prefix form."""

    __slots__ = ()

    def _args(self) -> list:
        return [getattr(self, name) for name in self.__match_args__]

    def __str__(self) -> str:
        return "".join(_walk(self, _text))

    def __repr__(self) -> str:
        return "".join(_walk(self, _repr))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _walk(self, _prefix) == _walk(other, _prefix)

    def __hash__(self):
        return hash(tuple(_walk(self, _prefix)))


def _walk(r: Regex, spell: Callable[[Regex], Sequence]) -> list:
    """The tokens of ``r``: ``spell(node)`` lists a node's tokens, among
    them its operands, and each operand is expanded in its place in turn,
    with an explicit stack of pending items."""
    out: list = []
    pending: list = [r]
    while pending:
        item = pending.pop()
        if isinstance(item, Regex):
            pending += reversed(spell(item))
        else:
            out.append(item)
    return out


@dataclass(frozen=True, eq=False, repr=False)
class Empty(Regex):
    _syntax = "∅"


@dataclass(frozen=True, eq=False, repr=False)
class Epsilon(Regex):
    _syntax = "ε"


@dataclass(frozen=True, eq=False, repr=False)
class Lit(Regex):
    _syntax = "{}"
    char: str


@dataclass(frozen=True, eq=False, repr=False)
class Union(Regex):
    _syntax = "({}|{})"
    left: Regex
    right: Regex


@dataclass(frozen=True, eq=False, repr=False)
class Concat(Regex):
    _syntax = "({}{})"
    left: Regex
    right: Regex


@dataclass(frozen=True, eq=False, repr=False)
class Star(Regex):
    _syntax = "({})*"
    inner: Regex


def _text(node: Regex) -> list:
    """The concrete syntax: the class's ``_syntax`` with the arguments in
    its ``{}`` slots."""
    parts = node._syntax.split("{}")
    return [token for pair in zip(parts, node._args()) for token in pair] + parts[-1:]


def _repr(node: Regex) -> list:
    out = [f"{node.__class__.__qualname__}("]
    for k, (name, arg) in enumerate(zip(node.__match_args__, node._args())):
        out += (f"{', ' if k else ''}{name}=", arg if isinstance(arg, Regex) else repr(arg))
    return out + [")"]


def _prefix(node: Regex) -> tuple:
    """A node's class, then its arguments.  Each class fixes its number of
    arguments, so the prefix form of a tree determines it."""
    return (node.__class__, *node._args())


_SPECIAL = set("|*()∅ε")


def parse(text: str, ascii_aliases: bool = False) -> Regex:
    """Parse the concrete syntax: ``∅``, ``ε``, literals, ``|``,
    juxtaposition, postfix ``*``, parentheses.  With ``ascii_aliases``,
    ``0`` reads as the empty language and ``()`` as the empty word.

    One left-to-right pass with an explicit stack of open parentheses, so
    that no depth of nesting meets the recursion limit.  Union and
    concatenation associate to the left; ``*`` binds tightest.
    """
    src = [c for c in text if not c.isspace()]
    pos = 0

    def fail(msg: str):
        raise FormatError(f"regex parse error at {pos}: {msg}")

    def close(frame: list) -> Regex:
        """The expression of a frame, once its last alternative ends."""
        union, parts = frame
        if parts:
            node = parts[0]
            for part in parts[1:]:
                node = Concat(node, part)
        elif ascii_aliases:
            node = Epsilon()
        else:
            fail("empty expression (use ε, or () with ascii aliases)")
        return node if union is None else Union(union, node)

    # One frame per open parenthesis, the whole text at the bottom: the
    # union of the alternatives closed so far (None before the first
    # ``|``), and the factors of the current alternative.
    stack: list[list] = [[None, []]]
    while pos < len(src):
        c = src[pos]
        frame = stack[-1]
        if c == "(":
            stack.append([None, []])
        elif c == ")":
            node = close(frame)
            if len(stack) == 1:
                fail(f"trailing input {''.join(src[pos:])!r}")
            stack.pop()
            stack[-1][1].append(node)
        elif c == "|":
            frame[:] = [close(frame), []]
        elif c == "*" and frame[1]:
            frame[1][-1] = Star(frame[1][-1])
        elif c == "∅" or (c == "0" and ascii_aliases):
            frame[1].append(Empty())
        elif c == "ε":
            frame[1].append(Epsilon())
        elif c in _SPECIAL:
            fail(f"unexpected {c!r}")
        else:
            frame[1].append(Lit(c))
        pos += 1
    node = close(stack[-1])
    if len(stack) > 1:
        fail("missing closing parenthesis")
    return node


def _postorder(r: Regex, visit: Callable[[Regex, list], Any]) -> Any:
    """``visit(node, values of its arguments)`` at the root, arguments
    before their node, left before right, a literal's character being its
    own value; :func:`_walk` lists the nodes in that order, and an explicit
    stack holds the values of finished arguments."""
    done: list = []
    for token in _walk(r, lambda node: (*node._args(), (node,))):
        if token.__class__ is tuple:
            (node,) = token
            k = len(done) - len(node.__match_args__)
            done[k:] = [visit(node, done[k:])]
        else:
            done.append(token)
    return done[0]


def literals(r: Regex) -> set[str]:
    return {token for token in _walk(r, _prefix) if isinstance(token, str)}


# -- compilation ---------------------------------------------------------------


def _epsilon_automaton(alphabet: Iterable[str]) -> RelAutomaton:
    return RelAutomaton(alphabet, ["q0"], {}, ["q0"], ["q0"])


def compile_regex(r: Regex, alphabet: Iterable[str] = ()) -> RelAutomaton:
    """Compile to a finite automaton recognizing the same language."""
    ab = frozenset(alphabet) | literals(r)
    return _postorder(r, lambda node, args: _compile_node(node, args, ab))


def _compile_node(r: Regex, args: list[RelAutomaton], ab: frozenset[str]) -> RelAutomaton:
    """The automaton of one node, given those of its operands."""
    if isinstance(r, Empty):
        return RelAutomaton(ab, [], {}, [], [])
    if isinstance(r, Epsilon):
        return _epsilon_automaton(ab)
    if isinstance(r, Lit):
        return automaton(ab, ["q0", "q1"], [(r.char, ["q0"], ["q1"])], ["q0"], ["q1"])
    if isinstance(r, Union):
        total, _inj = AUT_CARRIER.coproduct(args)
        return canonical_rename(total)
    if isinstance(r, Concat):
        return _concat(*args)
    if isinstance(r, Star):
        return _star(*args)
    raise TypeError(f"not a regex: {r!r}")


def _concat(CA: RelAutomaton, CB: RelAutomaton) -> RelAutomaton:
    """Glue the accepting states of the left operand onto the right
    operand's initial state, after normalizing both.

    Written in one pass from the normal forms ``NA`` and ``NB``, equal to
    ``canonical_rename`` of: the coproduct of ``NA`` without its accepting
    marks and ``NB`` without its initial mark (cells ``0/x``, ``1/y``);
    the quotient gluing the accepting non-initial states of ``NA`` to the
    initial state of ``NB``, named by its least member; and, when ``NA``
    accepts the empty word, a coproduct of that with ``CB`` itself.

    Cost: one write per edge into the table for ``_numbered``, which
    builds the only automaton: normal forms are read as their rows, and
    only a raw operand (no initial state, or ``CB`` itself) as ``Edge``s.
    """
    NA, NB = normalize(CA), normalize(CB)
    # if the left language contains the empty word, the right language
    # itself must be recognized too
    eps = bool(NA.initial) and NA.initial[0] in NA.accepting
    tag = "0/" if eps else ""
    parts = [(tag + "0/", NA), (tag + "1/", NB)] + ([("1/", CB)] if eps else [])
    names = [{v: prefix + v for v in N.states} for prefix, N in parts]
    ends = sorted(set(NA.accepting).difference(NA.initial))
    if ends and NB.initial:
        glued = names[0][ends[0]]
        names[0].update(dict.fromkeys(ends, glued))
        names[1][NB.initial[0]] = glued
    marks = [(NA.initial, ()), ((), NB.accepting), (CB.initial, CB.accepting)]
    states, initial, accepting, edges = set(), [], [], {}
    for (prefix, N), name, (inits, accepts) in zip(parts, names, marks):
        rename = name.__getitem__
        states.update(name.values())
        initial += map(rename, inits)
        accepting += map(rename, accepts)
        if N.initial and N is not CB:  # a normal form's rows
            for k, (label, u, v) in enumerate(N.edges):
                edges[f"{prefix}e{k}"] = (label, (rename(u),), (rename(v),))
        else:
            for eid, e in N.edges.items():
                edges[prefix + eid] = (e.label, list(map(rename, e.sources)), list(map(rename, e.targets)))
    return _numbered(CA.alphabet | CB.alphabet, states, edges, initial, accepting)


def _star(CA: RelAutomaton) -> RelAutomaton:
    """Loop the accepting states back onto the initial state: the quotient
    of the normal form, renamed by ``_numbered`` straight from its tables."""
    NA = normalize(CA).automaton
    if not NA.initial:
        return _epsilon_automaton(NA.alphabet)
    i = min(NA.initial)
    ends = sorted(NA.accepting - NA.initial)
    pairs = [((ST, i), (ST, x)) for x in ends]
    M, _proj = AUT_CARRIER.quotient(NA, pairs)
    # the glued initial state now also accepts: the empty word is in a star
    return _numbered(M.alphabet, M.states, M.edges, M.initial, M.accepting | M.initial)


# -- independent word-set semantics --------------------------------------------


def regex_lang_upto(r: Regex, L: int) -> set[Word]:
    """Truncated language: every word of length at most ``L``, evaluated
    operands first with length pruning."""
    return set(_postorder(r, lambda node, args: _lang_node(node, args, L)))


def _lang_node(node: Regex, args: list[frozenset[Word]], L: int) -> frozenset[Word]:
    """The words of length at most ``L`` of one node, given those of its
    operands."""
    if isinstance(node, Empty):
        return frozenset()
    if isinstance(node, Epsilon):
        return frozenset({()})
    if isinstance(node, Lit):
        return frozenset({(node.char,)}) if L >= 1 else frozenset()
    if isinstance(node, Union):
        return args[0] | args[1]
    if isinstance(node, Concat):
        right = sorted(args[1], key=len)
        out = set()
        for u in args[0]:
            for v in right:
                if len(u) + len(v) > L:
                    break
                out.add(u + v)
        return frozenset(out)
    if isinstance(node, Star):
        base = sorted(args[0] - {()}, key=len)
        words = {()}
        frontier = {()}
        while frontier:
            nxt = set()
            for u in frontier:
                for v in base:
                    if len(u) + len(v) > L:
                        break
                    w = u + v
                    if w not in words:
                        words.add(w)
                        nxt.add(w)
            frontier = nxt
        return frozenset(words)
    raise TypeError(f"not a regex: {node!r}")


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
