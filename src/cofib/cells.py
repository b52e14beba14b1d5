"""Carrier-agnostic cells, morphisms, and the one relational core.

Both carriers in this library (relational precubical sets and relational
automata) are finite relational structures.  Every cell has a *sort*,
which morphisms keep exactly, and a set of *marks*, which morphisms keep
upward; cells are linked by stored binary *relations*.  Morphisms are
exactly the cell maps that keep sorts, marks and every stored relation.

Hom search, the morphism check, the isomorphism search and the colimits
(coproduct, quotient, pushout) are written once, here, against that
view.  A carrier only encodes its objects into a :class:`Structure`
and builds an object from the images of the cells of others.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

_NONE: frozenset = frozenset()


def _same(x, y) -> bool:
    """Object equality, deciding by identity first (the common case)."""
    return x is y or x == y


@dataclass(frozen=True)
class CellMorphism:
    """A morphism presented by its underlying cell map."""

    source: Any
    target: Any
    mapping: dict

    def __call__(self, cell):
        return self.mapping[cell]

    def then(self, other: "CellMorphism") -> "CellMorphism":
        """Composite ``self`` followed by ``other``."""
        if not _same(other.source, self.target):
            raise ValueError("morphisms are not composable")
        return CellMorphism(
            self.source,
            other.target,
            {c: other.mapping[v] for c, v in self.mapping.items()},
        )

    def key(self) -> tuple:
        """Canonical hashable key for the cell map (dedup, ordering)."""
        return tuple(sorted(self.mapping.items(), key=repr))

    def is_injective(self) -> bool:
        values = list(self.mapping.values())
        return len(values) == len(set(values))

    @cached_property
    def fibres(self) -> dict:
        """Target cell -> the source cells it receives, built once per map
        (shared; do not mutate).  Cells outside the image have no entry."""
        fibres: dict = defaultdict(set)
        for c, v in self.mapping.items():
            fibres[v].add(c)
        return {v: frozenset(cs) for v, cs in fibres.items()}


@dataclass(frozen=True)
class LiftingProblem:
    """A commuting square ``p . top = bottom . i`` asking for a filler.

    A filler is a morphism ``h: cod(i) -> dom(p)`` with ``h . i = top`` and
    ``p . h = bottom``.
    """

    i: CellMorphism
    p: CellMorphism
    top: CellMorphism
    bottom: CellMorphism

    def __post_init__(self):
        if not (_same(self.top.source, self.i.source) and _same(self.top.target, self.p.source)):
            raise ValueError("top leg does not fit the square")
        if not (_same(self.bottom.source, self.i.target) and _same(self.bottom.target, self.p.target)):
            raise ValueError("bottom leg does not fit the square")
        if self.i.then(self.bottom).mapping != self.top.then(self.p).mapping:
            raise ValueError("square does not commute")


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Named generating cofibrations together with their codiagonals.

    A codiagonal is always computed from its generator by ``fold`` (a
    self-pushout and fold, never written by hand), on first request, and
    kept; ``nabla_name`` formats its name from the generator's.  A
    codiagonal has its generator's codomain, hence its bottom legs, so a
    check that finds no bottom leg for a generator never requests it.
    """

    positive: tuple[tuple[str, CellMorphism], ...]
    fold: Callable[[CellMorphism], CellMorphism]
    nabla_name: str
    _nablas: dict = field(default_factory=dict, init=False, repr=False)

    def codiagonal(self, k: int) -> tuple[str, CellMorphism]:
        """The named codiagonal of the ``k``-th generator."""
        if k not in self._nablas:
            name, f = self.positive[k]
            self._nablas[k] = (self.nabla_name.format(name), self.fold(f))
        return self._nablas[k]

    @property
    def codiagonals(self) -> tuple[tuple[str, CellMorphism], ...]:
        """Every codiagonal, in generator order."""
        return tuple(map(self.codiagonal, range(len(self.positive))))


@dataclass(eq=False)
class Structure:
    """The relational view of one object.

    ``sort`` maps every cell to its sort and ``marks`` maps marked cells
    to their marks; colimits read only these.  ``rel`` is the forward index
    ``(cell, relation) -> related cells`` of the stored relations.  It and
    all a hom search reads are built on first use and kept with the object:
    as a source, ``order`` and the search ``plan`` (and ``rooted`` plans); as
    a target, the ``candidates`` per kind and, for backward links, ``back``.
    """

    sort: Mapping
    marks: Mapping
    order_key: Callable[[Any], Any]
    relations: Callable[[], Mapping]

    @cached_property
    def rel(self) -> Mapping:
        return self.relations()

    @cached_property
    def order(self) -> list:
        """Cells in canonical order (shared; do not mutate)."""
        return sorted(self.sort, key=self.order_key)

    @cached_property
    def plan(self) -> tuple:
        """How a hom search from this object runs: see :meth:`plan_from`."""
        return self.plan_from(None)

    @cached_property
    def rooted(self) -> dict:
        """``cell -> plan_from(cell)``, for each cell a search pinned alone."""
        return {}

    def plan_from(self, root) -> tuple:
        """How a hom search from this object runs: ``(cells, kinds, slots,
        links, backward)``.  ``cells`` is the search order: ``root`` first if
        it is a cell, then the cell related to the most cells placed, ties and
        the first cell of each connected part going by ``order``.  Per step,
        ``kinds`` holds the cell's ``(sort, marks)`` (marks ``None`` for
        none), ``slots`` its place in ``order``, ``links`` a ``(step, relation,
        forward)`` triple per related cell at a later step, ``forward`` when
        stored from this step's cell; ``backward``: some link is not forward."""
        slot = {c: k for k, c in enumerate(self.order)}
        neighbours: dict = defaultdict(set)
        for (a, _r), bs in self.rel.items():
            for b in bs:
                neighbours[a].add(b)
                neighbours[b].add(a)
        step: dict = {}  # cell -> its step, once placed
        placed_links: dict = defaultdict(int)  # cell -> its neighbours placed so far
        for start in (root, *self.order) if root in self.sort else self.order:
            heap = [(0, slot[start], start)]
            while heap:
                minus_links, _k, c = heappop(heap)
                if c in step or -minus_links != placed_links[c]:
                    continue  # placed, or queued again with more links
                step[c] = len(step)
                for b in neighbours[c]:
                    if b not in step:
                        placed_links[b] += 1
                        heappush(heap, (-placed_links[b], slot[b], b))
        cells = tuple(step)
        links: list = [[] for _ in cells]
        backward = False
        for (a, r), bs in self.rel.items():
            for b in bs:
                if step[a] < step[b]:
                    links[step[a]].append((step[b], r, True))
                else:
                    links[step[b]].append((step[a], r, False))
                    backward = True
        kinds = tuple((self.sort[c], self.marks.get(c)) for c in cells)
        return cells, kinds, tuple(map(slot.__getitem__, cells)), tuple(map(tuple, links)), backward

    @cached_property
    def candidates(self) -> dict:
        """``(sort, marks) -> cells`` of the sort that carry the marks, for
        this object as a hom-search target; a kind is filled in by the
        first search that asks for it."""
        return {}

    @cached_property
    def back(self) -> dict:
        """Backward index ``(cell, relation) -> cells related to it``.
        Equal cell sets are stored once: the same few cells recur as the
        set for many cells and relations, and the index lives as long as
        the object."""
        back: dict = defaultdict(set)
        for (a, r), bs in self.rel.items():
            for b in bs:
                back[(b, r)].add(a)
        shared: dict = {}
        return {key: shared.setdefault(cells := frozenset(bs), cells) for key, bs in back.items()}


class Carrier(ABC):
    """One kind of object, seen as relational structures.

    A carrier implements :meth:`encode` and :meth:`build`; enumeration,
    the morphism check and the colimits come from the core.  Objects keep
    their view in a ``_view`` slot, filled on first use; they are immutable
    after construction, so it never goes stale.
    """

    @abstractmethod
    def encode(self, obj) -> Structure:
        """The relational view of an object."""

    @abstractmethod
    def build(self, objs: Sequence, images: Sequence[Mapping]):
        """The object made of the images of the cells of ``objs[k]`` under
        ``images[k]``: sorts carried over, marks and relations united.
        Cells glued together share their sort."""

    def view(self, obj) -> Structure:
        if obj._view is None:
            obj._view = self.encode(obj)
        return obj._view

    def cells(self, obj) -> list:
        """Cells of an object, in canonical order (shared; do not mutate)."""
        return self.view(obj).order

    def _morphism_violation(self, source, target, mapping: Mapping) -> Optional[str]:
        """None if the cell map is a morphism, else a human-readable reason."""
        X, Y = self.view(source), self.view(target)
        if mapping.keys() != X.sort.keys():
            return "mapping does not cover the source cells"
        for c, v in mapping.items():
            if Y.sort.get(v) != X.sort[c]:
                return f"{c!r} -> {v!r} is not a target cell of sort {X.sort[c]!r}"
        for c, marks in X.marks.items():
            lost = marks - Y.marks.get(mapping[c], _NONE)
            if lost:
                return f"{c!r} -> {mapping[c]!r} loses the mark {min(lost)!r}"
        for (a, r), bs in X.rel.items():
            images = Y.rel.get((mapping[a], r), _NONE)
            for b in bs:
                if mapping[b] not in images:
                    return f"relation {r} from {a!r} to {b!r} is not preserved"
        return None

    def make_morphism(self, source, target, mapping: Mapping) -> CellMorphism:
        """Wrap a cell map as a morphism, validating preservation conditions."""
        reason = self._morphism_violation(source, target, mapping)
        if reason is not None:
            raise ValueError(reason)
        return CellMorphism(source, target, dict(mapping))

    def hom(
        self,
        source,
        target,
        fixed: Optional[Mapping] = None,
        allowed: Optional[Mapping] = None,
        injective: bool = False,
    ) -> list[CellMorphism]:
        """All morphisms ``source -> target``, ordered by their values over
        the source's cells in canonical order.

        One loop walks the source's ``plan``, rooted at the pinned cell when
        ``fixed`` pins one, with an explicit stack, trying
        each step's candidates (the target's cached ``candidates`` of its
        kind) in set order.  Choosing an image narrows the candidates of
        every later cell linked to it (forward checking), on a trail undone
        on backtracking; the last step takes every candidate left.  The
        rows, in canonical order, are sorted once at the end.  ``fixed``
        pins cells to images, ``allowed`` restricts candidate sets,
        ``injective`` forbids repeated images.
        """
        X, Y = self.view(source), self.view(target)
        plan = X.plan
        if fixed and len(fixed) == 1:
            (root,) = fixed
            plan = X.rooted.get(root) or X.rooted.setdefault(root, X.plan_from(root))
        cells, kinds, slots, links, backward = plan
        if not cells:
            return [CellMorphism(source, target, {})]
        cache, domains = Y.candidates, []
        for cell, kind in zip(cells, kinds):
            base = cache.get(kind)
            if base is None:
                sort, marks = kind
                base = cache[kind] = frozenset(
                    v for v, s in Y.sort.items()
                    if s == sort and (not marks or marks <= Y.marks.get(v, _NONE))
                )
            if fixed and cell in fixed:
                base = base & {fixed[cell]}
            if allowed is not None and cell in allowed:
                base = base.intersection(allowed[cell])
            if not base:
                return []
            domains.append(base)
        indexes = (Y.back if backward else None, Y.rel)
        last, values, rows, used = len(cells) - 1, [None] * len(cells), [], set()
        pending = [iter(domains[0])] + [None] * last  # per step, its candidates left
        trails: list = [None] * len(cells)  # per step, what its choice narrowed
        d = 0
        while d >= 0:
            slot = slots[d]
            if d == last:
                for v in domains[d]:
                    if not (injective and v in used):
                        values[slot] = v
                        rows.append(tuple(values))
                d -= 1
                continue
            if trails[d] is not None:  # undo the step's previous choice
                for j, old in reversed(trails[d]):
                    domains[j] = old
                if injective:
                    used.discard(values[slot])
            for v in pending[d]:
                if injective and v in used:
                    continue
                trail = []
                for j, r, forward in links[d]:
                    old = domains[j]
                    narrowed = old & indexes[forward].get((v, r), _NONE)
                    if len(narrowed) != len(old):
                        trail.append((j, old))
                        domains[j] = narrowed
                    if not narrowed:
                        break
                else:
                    break  # every linked cell keeps a candidate: take v
                for j, old in reversed(trail):
                    domains[j] = old
            else:  # no candidate left: back to the previous step
                trails[d] = None
                d -= 1
                continue
            values[slot], trails[d] = v, trail
            if injective:
                used.add(v)
            d += 1
            pending[d] = iter(domains[d])
        rows.sort()
        return [CellMorphism(source, target, dict(zip(X.order, row))) for row in rows]

    def empty(self):
        """The object with no cells."""
        return self.build((), ())

    def coproduct(self, objs: Sequence) -> tuple[Any, list[CellMorphism]]:
        """Disjoint union with its injections.  A cell is a name or a
        ``(kind, name)`` pair; in the ``k``-th summand the name gains the
        prefix ``k/``."""
        images = []
        for k, obj in enumerate(objs):
            tag = f"{k}/"
            images.append({
                c: tag + c if isinstance(c, str) else (c[0], tag + c[1])
                for c in self.view(obj).sort
            })
        total = self.build(objs, images)
        return total, [CellMorphism(obj, total, im) for obj, im in zip(objs, images)]

    def sum(self, parts: Sequence[CellMorphism]) -> tuple[CellMorphism, list, list]:
        """The coproduct of morphisms, with the injections into its domain
        and into its codomain."""
        dom, dom_inj = self.coproduct([f.source for f in parts])
        cod, cod_inj = self.coproduct([f.target for f in parts])
        mapping = {
            di.mapping[a]: ci.mapping[b]
            for f, di, ci in zip(parts, dom_inj, cod_inj)
            for a, b in f.mapping.items()
        }
        return self.make_morphism(dom, cod, mapping), dom_inj, cod_inj

    def copair(self, injections: Sequence[CellMorphism], legs: Sequence[CellMorphism]) -> CellMorphism:
        """The morphism out of a colimit that restricts to ``legs[k]``
        along ``injections[k]``; ``ValueError`` if legs disagree on a cell."""
        mapping: dict = {}
        for j, leg in zip(injections, legs):
            for x, y in leg.mapping.items():
                if mapping.setdefault(j.mapping[x], y) != y:
                    raise ValueError(f"the legs send {j.mapping[x]!r} to two cells")
        return self.make_morphism(injections[0].target, legs[0].target, mapping)

    def quotient(self, obj, pairs: Iterable[tuple]) -> tuple[Any, CellMorphism]:
        """Glue cells along the given pairs; returns the quotient and its
        projection.  Glued cells must share their sort.  Classes are named
        by their least member."""
        sort = self.view(obj).sort
        parent: dict = {}  # union-find links of the cells the pairs touch; roots have none

        def find(x):
            root = x
            while root in parent:
                root = parent[root]
            while x != root:  # path compression
                parent[x], x = root, parent[x]
            return root

        for a, b in pairs:
            if sort[a] != sort[b]:
                raise ValueError(f"cannot glue cells of different sorts: {a!r}, {b!r}")
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = min(ra, rb), max(ra, rb)
                parent[hi] = lo
        rep = dict(zip(sort, sort))
        rep.update({c: find(c) for c in parent})
        quot = self.build([obj], [rep])
        return quot, CellMorphism(obj, quot, rep)

    def identity(self, obj) -> CellMorphism:
        return CellMorphism(obj, obj, {c: c for c in self.cells(obj)})

    def initial_morphism(self, obj) -> CellMorphism:
        return CellMorphism(self.empty(), obj, {})

    def pushout(
        self, f: CellMorphism, g: CellMorphism
    ) -> tuple[Any, CellMorphism, CellMorphism]:
        """Pushout of the span ``cod(f) <-f- dom -g-> cod(g)``.

        Returns ``(P, from_cod_f, from_cod_g)``.  Computed as the coproduct
        of the two legs' codomains glued along the images of the common
        domain.
        """
        if not _same(f.source, g.source):
            raise ValueError("span legs must share their domain")
        total, (in_f, in_g) = self.coproduct([f.target, g.target])
        pairs = [
            (in_f.mapping[f.mapping[a]], in_g.mapping[g.mapping[a]])
            for a in self.cells(f.source)
        ]
        quot, proj = self.quotient(total, pairs)
        return quot, in_f.then(proj), in_g.then(proj)

    def is_isomorphism(self, f: CellMorphism) -> bool:
        """Bijective on cells with a structure-preserving inverse."""
        inverse = {v: c for c, v in f.mapping.items()}
        if len(inverse) != len(f.mapping):
            return False
        return self._morphism_violation(f.target, f.source, inverse) is None

    def census(self, obj) -> Counter:
        """Cells per ``(sort, marks)`` and stored pairs per relation (not
        cached).  An injective morphism between objects with equal censuses
        is onto each sort, mark and relation, so it is an isomorphism."""
        S = self.view(obj)
        census = Counter(("cells", s, S.marks.get(c, _NONE)) for c, s in S.sort.items())
        for (_a, r), bs in S.rel.items():
            census[("pairs", r)] += len(bs)
        return census

    def find_isomorphism(self, X, Y) -> Optional[CellMorphism]:
        """Some isomorphism ``X -> Y``, or ``None``: with equal censuses, the
        first injective map found pinning ``X``'s first cell to a cell of
        ``Y``, tried in order, since every isomorphism sends it somewhere."""
        if self.census(X) != self.census(Y):
            return None
        SX, SY = self.view(X), self.view(Y)
        if not SX.order:
            return CellMorphism(X, Y, {})
        x0, sort = SX.order[0], SX.sort[SX.order[0]]
        pins = (self.hom(X, Y, fixed={x0: y}, injective=True) for y in SY.order if SY.sort[y] == sort)
        return next((found[0] for found in pins if found), None)


__all__ = [
    "CellMorphism",
    "LiftingProblem",
    "GeneratorSet",
    "Structure",
    "Carrier",
]
