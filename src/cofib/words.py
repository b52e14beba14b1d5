"""Sign words: normal forms for morphisms of the cube category.

A morphism ``m -> m+k`` of the cube category has a unique normal form as a
composite of coface generators with strictly increasing insertion indices.
We encode it as a word of length ``m+k`` over ``{+, -, 0}``: the nonzero
letters mark the ``k`` inserted coordinates (with their signs), the zero
letters mark the coordinates coming from the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, total_ordering
from itertools import product
from typing import Iterator, Optional

MINUS = "-"
PLUS = "+"
ZERO = "0"
ONE = "1"  # not a word letter: brick cells use it for a central vertex

_WORD_LETTERS = (MINUS, PLUS, ZERO)


@total_ordering
class CubeWord:
    """Normal form of a cube-category morphism as a sign word.

    Words are interned: there is one object per letter tuple, so equality
    and hashing go by identity (in C), while ordering goes by the letters.
    Copies and unpickled words are the interned object itself.
    ``domain_dim`` is stored with the letters.
    """

    __slots__ = ("letters", "domain_dim")
    _interned: dict[tuple[str, ...], "CubeWord"] = {}

    def __new__(cls, letters: tuple[str, ...]) -> "CubeWord":
        letters = tuple(letters)
        word = cls._interned.get(letters)
        if word is None:
            for c in letters:
                if c not in _WORD_LETTERS:
                    raise ValueError(f"bad word letter {c!r}")
            word = object.__new__(cls)
            object.__setattr__(word, "letters", letters)
            object.__setattr__(word, "domain_dim", letters.count(ZERO))
            word = cls._interned.setdefault(letters, word)
        return word

    def __setattr__(self, name, value):
        raise AttributeError(f"CubeWord is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CubeWord is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle all rebuild through the interning table
        return (CubeWord, (self.letters,))

    def __lt__(self, other):
        return self.letters < other.letters if isinstance(other, CubeWord) else NotImplemented

    @classmethod
    def identity(cls, m: int) -> "CubeWord":
        return cls((ZERO,) * m)

    @classmethod
    def parse(cls, text: str) -> "CubeWord":
        return cls(tuple(text))

    @property
    def codomain_dim(self) -> int:
        return len(self.letters)

    @property
    def degree(self) -> int:
        return len(self.letters) - self.domain_dim

    @property
    def is_identity(self) -> bool:
        return self.domain_dim == len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)

    def __repr__(self) -> str:
        return f"CubeWord({''.join(self.letters)!r})"


def compose_words(u: CubeWord, v: CubeWord) -> CubeWord:
    """Normal form of ``v`` after ``u`` (``u: m -> m+k``, ``v: m+k -> m+k+l``).

    The nonzero letters of ``v`` survive unchanged; the letters of ``u`` are
    written, in order, into the zero slots of ``v``.
    """
    if v.domain_dim != u.codomain_dim:
        raise ValueError(
            f"dimension mismatch: {u} has codomain {u.codomain_dim}, "
            f"{v} has domain {v.domain_dim}"
        )
    it = iter(u.letters)
    return CubeWord(tuple(next(it) if c == ZERO else c for c in v.letters))


@lru_cache(maxsize=None)
def factor_through(u: CubeWord, g: CubeWord) -> Optional[CubeWord]:
    """For words ``u`` and ``g`` with one codomain: the word ``v`` with
    ``compose_words(v, g) == u``, or ``None``.

    ``v`` exists when ``u`` agrees with ``g`` on ``g``'s inserted (nonzero)
    coordinates; it is ``u`` read off ``g``'s zero slots.
    """
    kept = []
    for a, b in zip(u.letters, g.letters):
        if b == ZERO:
            kept.append(a)
        elif a != b:
            return None
    return CubeWord(tuple(kept))


def all_words(codomain_dim: int) -> Iterator[CubeWord]:
    """All sign words with the given codomain dimension."""
    return map(CubeWord, product(_WORD_LETTERS, repeat=codomain_dim))


@dataclass(frozen=True, order=True)
class BrickIndex:
    """Shape of a euclidean brick: one bit per ambient direction.

    Bit 1 means the direction is subdivided (the brick is centered on a
    vertex there), bit 0 means it is a whole open direction.  The
    codimension is the number of subdivided directions.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        for b in self.bits:
            if b not in (0, 1):
                raise ValueError(f"bad brick bit {b!r}")

    @classmethod
    def parse(cls, text: str) -> "BrickIndex":
        return cls(tuple(int(c) for c in text))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def codim(self) -> int:
        return sum(self.bits)

    @property
    def min_dim(self) -> int:
        return self.n - self.codim

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __repr__(self) -> str:
        return f"BrickIndex({str(self)!r})"


def all_brick_indices(n: int) -> Iterator[BrickIndex]:
    for bits in product((0, 1), repeat=n):
        yield BrickIndex(bits)


__all__ = [
    "MINUS",
    "PLUS",
    "ZERO",
    "ONE",
    "CubeWord",
    "compose_words",
    "factor_through",
    "all_words",
    "BrickIndex",
    "all_brick_indices",
]
