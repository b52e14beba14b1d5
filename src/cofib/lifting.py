"""Lifting problems, codiagonals, and unique-lifting certification.

A map has the *unique* right lifting property against a generator when
every commuting square against it has exactly one diagonal filler.  That
single counting condition is what certifies trivial fibrations here, and
it is equivalent to ordinary lifting against the generator together with
its codiagonal (the fold out of the generator's self-pushout).  Both
checks take the same list of named maps, so each side of that
equivalence is one call (:func:`unique_lift_sides`), and the equivalence is
one row of the colimit-identity suite.

Fillers are counted from one search per generator ``i: A -> B``, not one
per square: every map ``h: B -> E`` fills exactly one square of
``p: E -> X``, the square ``(h . i, p . h)``, so grouping ``hom(B, E)`` by
those two restrictions (:func:`filler_table`) gives every square its
fillers at once.  A generator and its codiagonal share ``B``, hence those
maps.  Squares are still found from the bottom legs ``B -> X`` and the top
legs over each, since a square with no filler appears in no group.

A cell complex is written down as a script of :class:`Attachment` steps,
each the pushout of one generator along a map into what the steps before
it built, its new cells given recorded names.  :func:`replay` runs a
script for either carrier and builds the object those pushouts build,
without building them: in time linear in the script's length, each step
costing its generator's size and the neighbourhood it touches.  A script
that rebuilds an object exactly certifies it as built from the generators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .cells import Carrier, CellMorphism, LiftingProblem, violation


def codiagonal(carrier: Carrier, f: CellMorphism) -> CellMorphism:
    """Fold map out of the self-pushout of ``f``."""
    _pushout, j1, j2 = carrier.pushout(f, f)
    same = carrier.identity(f.target)
    return carrier.copair([j1, j2], [same, same])


def induced_on_self_pushouts(
    carrier: Carrier,
    f: CellMorphism,
    f2: CellMorphism,
    on_dom: CellMorphism,
    on_cod: CellMorphism,
) -> CellMorphism:
    """Map of self-pushouts induced by a commuting square ``(on_dom, on_cod)``
    from ``f`` to ``f2``; sends the class of a tagged cell to the class of
    its image under ``on_cod`` in the same copy.  ``ValueError`` if the
    square does not commute."""
    if f.then(on_cod).mapping != on_dom.then(f2).mapping:
        raise ValueError("the square (on_dom, on_cod) from f to f2 does not commute")
    _p1, a1, b1 = carrier.pushout(f, f)
    _p2, a2, b2 = carrier.pushout(f2, f2)
    return carrier.copair([a1, b1], [on_cod.then(a2), on_cod.then(b2)])


def filler_table(
    carrier: Carrier, i: CellMorphism, p: CellMorphism, rows: Sequence[CellMorphism]
) -> dict[tuple, list[CellMorphism]]:
    """The maps ``rows`` (all of ``hom(cod(i), dom(p))``, in hom order)
    grouped by the square each fills: the key of ``h`` is the pair of value
    rows of ``h . i`` over ``dom(i)`` and of ``p . h`` over ``cod(i)``, cells
    in canonical order.  Each group keeps hom order."""
    placed = [i.mapping[a] for a in carrier.cells(i.source)]
    cells, down = carrier.cells(i.target), p.mapping
    table: dict = {}
    for h in rows:
        at = h.mapping.__getitem__
        key = (tuple(map(at, placed)), tuple(down[at(b)] for b in cells))
        table.setdefault(key, []).append(h)
    return table


def solve_lifts(
    carrier: Carrier, problem: LiftingProblem, table: Optional[dict] = None
) -> list[CellMorphism]:
    """All diagonal fillers of a lifting problem, in hom order: its entry
    in ``table``, the :func:`filler_table` of ``problem.i`` against
    ``problem.p``, built from one search ``cod(i) -> dom(p)`` when not given
    (shared with the table; do not mutate).  The entry's key is the value
    rows of the top leg over ``dom(i)`` and of the bottom leg over
    ``cod(i)``; a top leg that ``i`` cannot factor through (it keeps apart
    cells ``i`` glues) has none."""
    i, p = problem.i, problem.p
    if table is None:
        table = filler_table(carrier, i, p, carrier.hom(i.target, p.source))
    top, bottom = problem.top.mapping, problem.bottom.mapping
    key = (
        tuple(map(top.__getitem__, carrier.cells(i.source))),
        tuple(map(bottom.__getitem__, carrier.cells(i.target))),
    )
    return table.get(key, [])


def lifting_problems(
    carrier: Carrier,
    i: CellMorphism,
    p: CellMorphism,
    bottoms: Optional[Sequence[CellMorphism]] = None,
) -> Iterator[LiftingProblem]:
    """All commuting squares of ``p`` against ``i``, in canonical order:
    by top leg, then by bottom leg, each compared by its values over the
    cells of its source in canonical order (the order of the hom search).

    Bottom legs come first, from one search ``cod(i) -> cod(p)`` (or from
    ``bottoms``, its result searched elsewhere).  The top legs over a
    bottom are searched with each cell ``a`` confined to the fibre of
    ``p`` over ``bottom(i(a))``, read from ``p.fibres``, so every top
    found makes a square, and a bottom with an empty fibre under some cell
    costs no search.  The squares are sorted by top leg before the first
    is yielded; the sort is stable and the bottoms come in order, so
    squares sharing a top stay ordered by bottom.
    """
    fibres = p.fibres
    top_cells = carrier.cells(i.source)
    squares = []
    if bottoms is None:
        bottoms = carrier.hom(i.target, p.target)
    for bottom in bottoms:
        allowed = {}
        for a in top_cells:
            fibre = fibres.get(bottom.mapping[i.mapping[a]])
            if fibre is None:
                break
            allowed[a] = fibre
        else:
            for top in carrier.hom(i.source, p.source, allowed=allowed):
                squares.append((top, bottom))
    squares.sort(key=lambda square: tuple(map(square[0].mapping.__getitem__, top_cells)))
    for top, bottom in squares:
        yield LiftingProblem(i, p, top, bottom)


@dataclass
class LiftReport:
    """Outcome of a lifting-property check with the first failing square
    and its fillers, in hom order."""

    ok: bool
    checked: int
    failure: Optional[LiftingProblem] = None
    lift_count: Optional[int] = None
    generator: Optional[str] = None
    fillers: Optional[list[CellMorphism]] = None

    def __bool__(self) -> bool:
        return self.ok


def _lift_check(
    carrier: Carrier,
    p: CellMorphism,
    morphisms: Iterable[tuple[str, CellMorphism]],
    unique: bool,
    homs: Optional[Callable[[Any, Any], Sequence[CellMorphism]]] = None,
) -> LiftReport:
    """Count the fillers of every square; stop at the first square with
    none, or with other than one when ``unique``.  A morphism's fillers are
    searched at its first square, once."""
    homs = homs or carrier.hom
    checked = 0
    for name, i in morphisms:
        table = None
        for problem in lifting_problems(carrier, i, p, homs(i.target, p.target)):
            if table is None:
                table = filler_table(carrier, i, p, homs(i.target, p.source))
            checked += 1
            found = solve_lifts(carrier, problem, table)
            if not found or (unique and len(found) > 1):
                return LiftReport(False, checked, problem, len(found), name, found)
    return LiftReport(True, checked)


def rlp(
    carrier: Carrier,
    p: CellMorphism,
    morphisms: Iterable[tuple[str, CellMorphism]],
    homs: Optional[Callable[[Any, Any], Sequence[CellMorphism]]] = None,
) -> LiftReport:
    """Ordinary right lifting property: every square has at least one filler.

    ``homs(B, X)``, when given, returns every map ``B -> X`` in hom order,
    searched elsewhere.  It is asked, per morphism ``i``, for the bottom
    legs ``cod(i) -> cod(p)`` and, at ``i``'s first square, for the
    fillers ``cod(i) -> dom(p)``.
    """
    return _lift_check(carrier, p, morphisms, False, homs)


def unique_rlp(
    carrier: Carrier,
    p: CellMorphism,
    morphisms: Iterable[tuple[str, CellMorphism]],
    homs: Optional[Callable[[Any, Any], Sequence[CellMorphism]]] = None,
) -> LiftReport:
    """Unique right lifting property: every square has exactly one
    filler.  ``homs`` as for :func:`rlp`."""
    return _lift_check(carrier, p, morphisms, True, homs)


def unique_lift_sides(carrier: Carrier, p: CellMorphism, i: CellMorphism) -> tuple[bool, bool]:
    """Both sides of the unique-lifting equivalence for ``p`` against
    ``i``: unique lifting against ``i``, and lifting against ``i`` and its
    codiagonal."""
    named = [("i", i)]
    plain = rlp(carrier, p, named + [("nabla i", codiagonal(carrier, i))])
    return unique_rlp(carrier, p, named).ok, plain.ok


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Named generating cofibrations over ``carrier``, with their codiagonals.

    A codiagonal is always computed from its generator by
    :func:`codiagonal` (a self-pushout and fold, never written by hand), on
    first request, and kept; ``nabla_name`` formats its name from the
    generator's.  A codiagonal has its generator's codomain, hence its
    bottom legs, so a check that finds no bottom leg for a generator never
    requests it.
    """

    positive: tuple[tuple[str, CellMorphism], ...]
    carrier: Carrier
    nabla_name: str
    _nablas: dict = field(default_factory=dict, init=False, repr=False)

    def codiagonal(self, k: int) -> tuple[str, CellMorphism]:
        """The named codiagonal of the ``k``-th generator."""
        if k not in self._nablas:
            name, f = self.positive[k]
            self._nablas[k] = (self.nabla_name.format(name), codiagonal(self.carrier, f))
        return self._nablas[k]

    @property
    def codiagonals(self) -> tuple[tuple[str, CellMorphism], ...]:
        """Every codiagonal, in generator order."""
        return tuple(map(self.codiagonal, range(len(self.positive))))


def lifting_reports(
    carrier: Carrier,
    p: CellMorphism,
    generators: GeneratorSet,
    codiagonals: bool = True,
    homs: Optional[Callable[[Any, Any], Sequence[CellMorphism]]] = None,
) -> tuple[LiftReport, LiftReport]:
    """``unique_rlp`` against the positive generators and ``rlp`` against
    their codiagonals (skipped, and reported as vacuous, unless
    ``codiagonals``), each hom set searched at most once, by ``homs`` as
    for :func:`rlp` or by the carrier's search.

    A codiagonal ``nabla f`` has ``f``'s codomain, so its squares have
    exactly ``f``'s bottom legs and its fillers are ``f``'s: both checks
    read one dict of searches, keyed by the identities of the two ends,
    that lives until this returns.  A generator without a bottom leg has
    no square against either map, and its codiagonal is never requested;
    one without a square (and so none against its codiagonal) has no
    filler search.  The reports are those of the two checks run on their
    own.
    """
    search = homs or carrier.hom
    searched: dict = {}

    def shared(B, X):
        key = (id(B), id(X))
        if key not in searched:
            searched[key] = search(B, X)
        return searched[key]

    unique = unique_rlp(carrier, p, generators.positive, shared)
    if not codiagonals:
        return unique, LiftReport(True, 0)
    # lazy: a failing check searches no bottom leg and builds no codiagonal past it
    squared = (k for k, (_name, f) in enumerate(generators.positive) if shared(f.target, p.target))
    return unique, rlp(carrier, p, map(generators.codiagonal, squared), shared)


@dataclass
class TheoremReport:
    """The theorem checks on one map β: unique lifting against the
    generators, lifting against their codiagonals, and the construction's
    own checks, each verdict under the name its summary prints."""

    lifting: LiftReport
    codiagonal_lifting: LiftReport
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return self.lifting.ok and self.codiagonal_lifting.ok and all(self.checks.values())

    def summary(self) -> dict:
        return {
            **self.checks,
            "unique_rlp": self.lifting.ok,
            "codiagonal_rlp": self.codiagonal_lifting.ok,
            "ok": self.ok,
        }


class Attachment(NamedTuple):
    """One step of a cell-complex script: the pushout of ``generator`` along
    the map its ``attach`` pairs give, each new cell named by its ``fresh``
    pair.  ``name`` says which generator it is, for printing."""

    name: tuple
    generator: CellMorphism
    attach: tuple[tuple, ...]
    fresh: tuple[tuple, ...]


def replay(carrier: Carrier, start, script: Iterable[Attachment]):
    """Run a script from ``start``; the cells built so far keep their names.
    ``ValueError`` if an attach map is not a morphism; if a step's fresh
    names do not name its new cells once each, by names of their kind not
    yet in use; if a step's inclusion adds no cell along a map that extends
    over it; or if a step glues two cells built before it, which its
    generator sends to one cell while its attach map keeps them apart.

    The object, or the error, is that of one pushout per step, but none is
    built.  Each attach map is checked against running tables of the sorts,
    marks and relations built so far.  A step sends its generator's old
    cells to their attach images and its new cells to their fresh names,
    and ``Carrier.extend`` unites its relations into the tables.  One
    ``carrier.build`` over ``start`` and every step's codomain makes the
    object.  So a step costs the size of its generator and of the
    neighbourhood it touches, not that of the object built so far."""
    S = carrier.view(start)
    tables, parts = SimpleNamespace(sort=dict(S.sort), marks=dict(S.marks), rel={}), []

    def unite(obj, image):  # the relations of one more object under its image
        parts.append((obj, image))
        extra = carrier.extend(tables, obj, image)
        if extra is not None:
            parts.append((extra, {c: c for c in carrier.view(extra).sort}))

    unite(start, dict(zip(S.sort, S.sort)))
    for name, gen, attach, fresh in script:
        attach, C = dict(attach), carrier.view(gen.target)
        reason = violation(carrier.view(gen.source), tables, attach)
        if reason is not None:
            raise ValueError(reason)
        image, named = {gen.mapping[a]: b for a, b in attach.items()}, dict(fresh)
        if named.keys() != C.sort.keys() - image.keys() or len(set(named.values())) != len(fresh) \
                or not tables.sort.keys().isdisjoint(named.values()) \
                or any(type(c) is not type(v) or type(c) is tuple and c[0] != v[0] for c, v in fresh):
            raise ValueError(f"step {name}: fresh names must name each new cell once, by a name not yet in use")
        if not named and violation(C, tables, image) is None:  # the image is all of cod(gen)
            raise ValueError(f"step {name} adds nothing: its attach map extends over the generator")
        if any(image[gen.mapping[a]] != b for a, b in attach.items()):  # the pushout names the cells glued
            current = carrier.build(*zip(*parts))
            from_cur = carrier.pushout(gen, CellMorphism(gen.source, current, attach))[2].mapping
            built = carrier.cells(current)
            rename = {from_cur[c]: c for c in built}
            c = next(c for c in built if rename[from_cur[c]] != c)
            raise ValueError(f"step {name} glues {c!r} and {rename[from_cur[c]]!r}, cells built before it")
        image.update(named)
        tables.sort.update((image[c], s) for c, s in C.sort.items())
        tables.marks.update((image[c], tables.marks.get(image[c], frozenset()) | m) for c, m in C.marks.items())
        unite(gen.target, image)
    return carrier.build(*zip(*parts))


def arrow_isomorphic(carrier: Carrier, f: CellMorphism, g: CellMorphism) -> bool:
    """Isomorphism in the arrow category: isos ``phi`` of domains and
    ``psi`` of codomains with ``f.then(psi) == phi.then(g)``.  With equal
    censuses at both ends injective maps are isos (``Carrier.census``); per
    injective ``psi``, ``phi`` sends each ``a`` into ``g``'s fibre over
    ``psi(f(a))``, so the square commutes."""
    ends = ((f.source, g.source), (f.target, g.target))
    if any(carrier.census(x) != carrier.census(y) for x, y in ends):
        return False
    fibres = g.fibres
    for psi in carrier.hom(f.target, g.target, injective=True):
        allowed = {a: fibres.get(psi.mapping[b], ()) for a, b in f.mapping.items()}
        if carrier.hom(f.source, g.source, allowed=allowed, injective=True):
            return True
    return False


def check_sum_identity(carrier: Carrier, parts: Sequence[CellMorphism]) -> bool:
    """Codiagonal of a sum is the sum of the codiagonals, up to isomorphism."""
    nabla_sum = codiagonal(carrier, carrier.sum(parts)[0])
    sum_nabla = carrier.sum([codiagonal(carrier, f) for f in parts])[0]
    return arrow_isomorphic(carrier, nabla_sum, sum_nabla)


def check_pushout_square(carrier: Carrier, i1: CellMorphism, f: CellMorphism) -> bool:
    """Pushing out ``i1`` along ``f`` turns the codiagonal square into a
    cocartesian one: the self-pushouts' comparison map to the new codomain
    is again a pushout."""
    b2, g, i2 = carrier.pushout(i1, f)
    nabla1 = codiagonal(carrier, i1)
    nabla2 = codiagonal(carrier, i2)
    top = induced_on_self_pushouts(carrier, i1, i2, f, g)
    pushed, from_b1, from_d2 = carrier.pushout(nabla1, top)
    try:  # the comparison map pushed -> b2 induced by (g, nabla2)
        comparison = carrier.copair([from_b1, from_d2], [g, nabla2])
    except ValueError:  # the legs disagree on a glued class: no map at all
        return False
    return carrier.is_isomorphism(comparison)


def check_composition_identity(carrier: Carrier, i1: CellMorphism, i2: CellMorphism) -> bool:
    """The codiagonal of a composite factors as the coarsening map of
    self-pushouts followed by the codiagonal of the outer map."""
    comp = i1.then(i2)
    step = induced_on_self_pushouts(carrier, comp, i2, i1, carrier.identity(i2.target))
    return codiagonal(carrier, comp).mapping == step.then(codiagonal(carrier, i2)).mapping


def check_double_codiagonal_iso(carrier: Carrier, f: CellMorphism) -> bool:
    """The codiagonal of a codiagonal is an isomorphism."""
    return carrier.is_isomorphism(codiagonal(carrier, codiagonal(carrier, f)))


def check_retract_identity(carrier: Carrier, f: CellMorphism) -> bool:
    """Exhibit ``f`` as a retract of ``f + f`` and check the codiagonal of
    the retract is a retract of the codiagonal."""
    ff, dom_inj, cod_inj = carrier.sum([f, f])
    # section: first copy; retraction: fold both copies back
    sec_dom, sec_cod = dom_inj[0], cod_inj[0]
    fold_dom = carrier.copair(dom_inj, [carrier.identity(f.source)] * 2)
    fold_cod = carrier.copair(cod_inj, [carrier.identity(f.target)] * 2)
    sigma = induced_on_self_pushouts(carrier, f, ff, sec_dom, sec_cod)
    rho = induced_on_self_pushouts(carrier, ff, f, fold_dom, fold_cod)
    if sigma.then(rho).mapping != carrier.identity(sigma.source).mapping:
        return False
    nabla_f, nabla_ff = codiagonal(carrier, f), codiagonal(carrier, ff)
    return (
        sigma.then(nabla_ff).mapping == nabla_f.then(sec_cod).mapping
        and rho.then(nabla_f).mapping == nabla_ff.then(fold_cod).mapping
    )


def check_unique_lift_equivalence(carrier: Carrier, p: CellMorphism, i: CellMorphism) -> bool:
    """Unique lifting against ``i`` holds exactly when lifting against
    ``i`` and its codiagonal does."""
    unique, plain = unique_lift_sides(carrier, p, i)
    return unique == plain


APPENDIX_CHECKS: dict[str, Callable[..., bool]] = {
    "sum_identity": check_sum_identity,
    "pushout_square": check_pushout_square,
    "composition_identity": check_composition_identity,
    "double_codiagonal_iso": check_double_codiagonal_iso,
    "retract_identity": check_retract_identity,
    "unique_lift_equivalence": check_unique_lift_equivalence,
}


@dataclass
class AppendixReport:
    """Cases of each identity that hold, and ``"<identity>: <case label>"``
    for each that fails."""

    counts: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        """Every identity's count, zero included, and the failures."""
        return {**{name: self.counts[name] for name in APPENDIX_CHECKS}, "failures": self.failures}


def appendix_identity_suite(carrier: Carrier, cases: Iterable[tuple[str, str, tuple]]) -> AppendixReport:
    """Run each case ``(identity, label, args)`` as
    ``APPENDIX_CHECKS[identity](carrier, *args)``."""
    report = AppendixReport()
    for identity, label, args in cases:
        if APPENDIX_CHECKS[identity](carrier, *args):
            report.counts[identity] += 1
        else:
            report.failures.append(f"{identity}: {label}")
    return report


__all__ = [
    "codiagonal",
    "induced_on_self_pushouts",
    "filler_table",
    "solve_lifts",
    "lifting_problems",
    "LiftReport",
    "rlp",
    "unique_rlp",
    "unique_lift_sides",
    "GeneratorSet",
    "lifting_reports",
    "TheoremReport",
    "Attachment",
    "replay",
    "arrow_isomorphic",
    "check_sum_identity",
    "check_pushout_square",
    "check_composition_identity",
    "check_double_codiagonal_iso",
    "check_retract_identity",
    "check_unique_lift_equivalence",
    "APPENDIX_CHECKS",
    "AppendixReport",
    "appendix_identity_suite",
]
