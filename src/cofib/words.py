"""Sign words: normal forms for morphisms of the cube category.

A morphism ``m -> m+k`` of the cube category has a unique normal form as a
composite of coface generators with strictly increasing insertion indices.
We encode it as a word of length ``m+k`` over ``{+, -, 0}``: the nonzero
letters mark the ``k`` inserted coordinates (with their signs), the zero
letters mark the coordinates coming from the domain.

The same letter alphabet, extended with ``1``, names the cells of a
euclidean brick: a brick over a shape ``epsilon`` in ``{0,1}^n`` has one
cell per sign pattern ``w`` with ``w_i = 0`` exactly where ``epsilon_i = 0``.
Letter ``1`` marks a direction collapsed to the central vertex, ``-``/``+``
mark the incoming/outgoing half of a subdivided direction, and ``0`` marks
a whole open direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, total_ordering
from itertools import product
from typing import Iterator, Optional

MINUS = "-"
PLUS = "+"
ZERO = "0"
ONE = "1"

_SIGNS = (MINUS, PLUS)
_WORD_LETTERS = (MINUS, PLUS, ZERO)
_CELL_LETTERS = (MINUS, PLUS, ZERO, ONE)

# Pointwise cell order, generated by 0 < +,- < 1 ('+' and '-' incomparable).
_LETTER_LE = {
    (a, b)
    for a in _CELL_LETTERS
    for b in _CELL_LETTERS
    if a == b or a == ZERO or b == ONE
}


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


def all_words(codomain_dim: int, min_degree: int = 0) -> Iterator[CubeWord]:
    """All sign words with the given codomain dimension."""
    for letters in product(_WORD_LETTERS, repeat=codomain_dim):
        w = CubeWord(letters)
        if w.degree >= min_degree:
            yield w


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


@dataclass(frozen=True, order=True)
class BrickCell:
    """Canonical name of a cell of the brick over ``epsilon``.

    A letter per direction: ``0`` where the brick is open (forced by the
    shape), ``1`` on the central vertex of a subdivided direction, ``-``/``+``
    on its incoming/outgoing half.  The cell dimension is the number of
    non-``1`` letters.
    """

    letters: tuple[str, ...]
    epsilon: BrickIndex

    def __post_init__(self):
        if len(self.letters) != self.epsilon.n:
            raise ValueError("cell length does not match brick shape")
        for c, bit in zip(self.letters, self.epsilon.bits):
            if c not in _CELL_LETTERS:
                raise ValueError(f"bad cell letter {c!r}")
            if (c == ZERO) != (bit == 0):
                raise ValueError(
                    f"cell {''.join(self.letters)} not in brick {self.epsilon}"
                )

    @classmethod
    def parse(cls, text: str, epsilon: BrickIndex) -> "BrickCell":
        return cls(tuple(text), epsilon)

    @property
    def dim(self) -> int:
        return sum(1 for c in self.letters if c != ONE)

    def sub_index(self) -> BrickIndex:
        """Shape of the sub-brick this cell is glued in from (1s kept, rest 0)."""
        return BrickIndex(tuple(1 if c == ONE else 0 for c in self.letters))

    def meet(self, other: BrickIndex) -> "BrickCell":
        """Pointwise meet with a brick shape (projection onto its cell poset)."""
        letters = tuple(
            c if bit == 1 else ZERO for c, bit in zip(self.letters, other.bits)
        )
        return BrickCell(letters, other)

    def __str__(self) -> str:
        return "".join(self.letters)

    def __repr__(self) -> str:
        return f"BrickCell({str(self)!r}, {self.epsilon!r})"


def cell_le(a: BrickCell, b: BrickCell) -> bool:
    """Pointwise order on brick cells; ``a <= b`` iff b names a face of a."""
    return all((x, y) in _LETTER_LE for x, y in zip(a.letters, b.letters))


@dataclass(frozen=True)
class BrickCellPoset:
    """All cells of the brick over one shape, with their face order."""

    epsilon: BrickIndex
    elements: tuple[BrickCell, ...]

    @property
    def top(self) -> BrickCell:
        """The maximum of the poset: it names the brick's minimal cube."""
        return BrickCell(
            tuple(ONE if b == 1 else ZERO for b in self.epsilon.bits), self.epsilon
        )

    def le(self, a: BrickCell, b: BrickCell) -> bool:
        return cell_le(a, b)

    def __iter__(self) -> Iterator[BrickCell]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def brick_cells(epsilon: BrickIndex) -> BrickCellPoset:
    """The cell poset of the brick over ``epsilon`` (3 choices per 1-bit)."""
    choices = [(ZERO,) if b == 0 else (MINUS, PLUS, ONE) for b in epsilon.bits]
    elements = tuple(
        sorted(BrickCell(letters, epsilon) for letters in product(*choices))
    )
    return BrickCellPoset(epsilon, elements)


def word_to_min(cell: BrickCell) -> CubeWord:
    """The word along which this cell has the brick's minimal cube as a face.

    Drop the ``1`` letters and flip the signs of the remaining ones: the
    minimal cube sits on the ``+`` side of an incoming half and on the ``-``
    side of an outgoing half.
    """
    flipped = {MINUS: PLUS, PLUS: MINUS, ZERO: ZERO}
    return CubeWord(tuple(flipped[c] for c in cell.letters if c != ONE))


def embed_cell(w: BrickCell, u: BrickCell) -> BrickCell:
    """Image of a sub-brick cell under the inclusion determined by ``w``.

    ``w`` is a cell of the brick over ``epsilon``; the sub-brick has shape
    ``w.sub_index()`` and is glued in along ``w``'s signs.  ``u`` ranges over
    the sub-brick's cells; its letters fill the ``1`` slots of ``w``.
    """
    if u.epsilon != w.sub_index():
        raise ValueError(f"cell {u} does not live in the sub-brick of {w}")
    out = tuple(
        b if a == ONE else (a if a in _SIGNS else ZERO)
        for a, b in zip(w.letters, u.letters)
    )
    return BrickCell(out, w.epsilon)


def inclusion_on_cells(w: BrickCell) -> dict[str, str]:
    """The whole sub-brick inclusion along ``w``, as a map of cell names."""
    return {
        str(u): str(embed_cell(w, u)) for u in brick_cells(w.sub_index())
    }


def inclusion_between(w: BrickCell, w_prime: BrickCell) -> dict[str, str]:
    """Cell map of the inclusion between the sub-bricks along ``w <= w'``."""
    if not cell_le(w, w_prime):
        raise ValueError(f"{w} is not below {w_prime}")
    rel = w.meet(w_prime.sub_index())
    return inclusion_on_cells(rel)


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
    "BrickCell",
    "cell_le",
    "BrickCellPoset",
    "brick_cells",
    "word_to_min",
    "embed_cell",
    "inclusion_on_cells",
    "inclusion_between",
]
