"""Sign words: normal forms for morphisms of the cube category.

A morphism ``m -> m+k`` of the cube category has a unique normal form as a
composite of coface generators with strictly increasing insertion indices.
We encode it as a word of length ``m+k`` over ``{+, -, 0}``: the nonzero
letters mark the ``k`` inserted coordinates (with their signs), the zero
letters mark the coordinates coming from the domain.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from itertools import product
from typing import Optional

MINUS = "-"
PLUS = "+"
ZERO = "0"
ONE = "1"  # not a word letter: brick cells use it for a central vertex

_WORD_LETTERS = (MINUS, PLUS, ZERO)


@total_ordering
class _Interned:
    """An immutable value interned by the tuple in its first slot: there is
    one object per key, so equality and hashing go by identity (in C),
    while ordering goes by the key.  Copies and unpickled values are the
    interned object itself.  A subclass keeps its own ``_interned`` table,
    and ``_slots(key)`` gives its slot values in order."""

    __slots__ = ()

    def __new__(cls, key):
        key = tuple(key)
        value = cls._interned.get(key)
        if value is None:
            value = object.__new__(cls)
            for name, slot in zip(cls.__slots__, cls._slots(key)):
                object.__setattr__(value, name, slot)
            value = cls._interned.setdefault(key, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle all rebuild through the interning table
        return (type(self), (getattr(self, self.__slots__[0]),))

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return getattr(self, self.__slots__[0]) < getattr(other, self.__slots__[0])


class CubeWord(_Interned):
    """Normal form of a cube-category morphism as a sign word, interned by
    its letters, with ``domain_dim`` and its ``text`` stored on it."""

    __slots__ = ("letters", "domain_dim", "text")
    _interned: dict = {}

    @staticmethod
    def _slots(letters: tuple[str, ...]) -> tuple:
        for c in letters:
            if c not in _WORD_LETTERS:
                raise ValueError(f"bad word letter {c!r}")
        return letters, letters.count(ZERO), "".join(letters)

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
        return self.text

    def __repr__(self) -> str:
        return f"CubeWord({self.text!r})"


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


class BrickIndex(_Interned):
    """Shape of a euclidean brick: one bit per ambient direction, interned
    by its bits, with its ``name`` and ``min_dim`` stored on it.

    Bit 1 means the direction is subdivided (the brick is centered on a
    vertex there), bit 0 means it is a whole open direction.
    """

    __slots__ = ("bits", "name", "min_dim")
    _interned: dict = {}

    @staticmethod
    def _slots(bits: tuple[int, ...]) -> tuple:
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bad brick bit {b!r}")
        return bits, "".join(map(str, bits)), bits.count(0)

    @classmethod
    def parse(cls, text: str) -> "BrickIndex":
        return cls(tuple(int(c) for c in text))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"BrickIndex({self.name!r})"


@lru_cache(maxsize=None)
def all_brick_indices(n: int) -> tuple[BrickIndex, ...]:
    """Every brick shape in ambient dimension ``n``, in bit order."""
    return tuple(map(BrickIndex, product((0, 1), repeat=n)))


__all__ = [
    "MINUS",
    "PLUS",
    "ZERO",
    "ONE",
    "CubeWord",
    "compose_words",
    "factor_through",
    "BrickIndex",
    "all_brick_indices",
]
