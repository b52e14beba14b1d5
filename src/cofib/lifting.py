"""Lifting problems, codiagonals, and unique-lifting certification.

A map has the *unique* right lifting property against a generator when
every commuting square against it has exactly one diagonal filler.  That
single counting condition is what certifies trivial fibrations here, and
it is equivalent to ordinary lifting against the generator together with
its codiagonal (the fold out of the generator's self-pushout); both sides
of that equivalence are implemented so the equivalence itself can be
tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .cells import Carrier, CellMorphism, GeneratorSet, LiftingProblem


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
    its image under ``on_cod`` in the same copy."""
    _p1, a1, b1 = carrier.pushout(f, f)
    _p2, a2, b2 = carrier.pushout(f2, f2)
    return carrier.copair([a1, b1], [on_cod.then(a2), on_cod.then(b2)])


def solve_lifts(carrier: Carrier, problem: LiftingProblem) -> list[CellMorphism]:
    """All diagonal fillers of a lifting problem.

    Cells in the image of ``i`` are pinned by the top leg; the rest range
    over the fibre of ``p`` above their image under the bottom leg, read
    from ``p.fibres``, built once per map.
    """
    i, p, top, bottom = problem.i, problem.p, problem.top, problem.bottom
    fixed: dict = {}
    for a, v in top.mapping.items():
        if fixed.setdefault(i.mapping[a], v) != v:
            return []  # i glues two cells that the top leg keeps apart
    fibres = p.fibres
    allowed = {
        b: fibres.get(bottom.mapping[b], ())
        for b in carrier.cells(i.target)
        if b not in fixed
    }
    out = []
    for h in carrier.hom(i.target, p.source, fixed=fixed, allowed=allowed):
        if all(p.mapping[h.mapping[b]] == bottom.mapping[b] for b in h.mapping):
            out.append(h)
    return out


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
    """Outcome of a lifting-property check with the first failing square."""

    ok: bool
    checked: int
    failure: Optional[LiftingProblem] = None
    lift_count: Optional[int] = None
    generator: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _lift_check(
    carrier: Carrier,
    p: CellMorphism,
    morphisms: Iterable[tuple[str, CellMorphism]],
    unique: bool,
    bottoms: Optional[Sequence[Sequence[CellMorphism]]] = None,
) -> LiftReport:
    """Count the fillers of every square; stop at the first square with
    none, or with other than one when ``unique``."""
    checked = 0
    for k, (name, i) in enumerate(morphisms):
        legs = None if bottoms is None else bottoms[k]
        for problem in lifting_problems(carrier, i, p, legs):
            checked += 1
            n = len(solve_lifts(carrier, problem))
            if n == 0 or (unique and n > 1):
                return LiftReport(False, checked, problem, n, name)
    return LiftReport(True, checked)


def rlp(
    carrier: Carrier,
    p: CellMorphism,
    morphisms: Iterable[tuple[str, CellMorphism]],
    bottoms: Optional[Sequence[Sequence[CellMorphism]]] = None,
) -> LiftReport:
    """Ordinary right lifting property: every square has at least one filler.

    ``bottoms``, when given, holds for each morphism ``i`` in turn its
    bottom legs ``cod(i) -> cod(p)`` in hom order, searched elsewhere.
    """
    return _lift_check(carrier, p, morphisms, unique=False, bottoms=bottoms)


def unique_rlp(
    carrier: Carrier,
    p: CellMorphism,
    generators: GeneratorSet,
    bottoms: Optional[Sequence[Sequence[CellMorphism]]] = None,
) -> LiftReport:
    """Unique right lifting property against the positive generators:
    every square must have exactly one filler.  ``bottoms`` as for
    :func:`rlp`."""
    return _lift_check(carrier, p, generators.positive, unique=True, bottoms=bottoms)


def lifting_reports(
    carrier: Carrier,
    p: CellMorphism,
    generators: GeneratorSet,
    codiagonals: bool = True,
) -> tuple[LiftReport, LiftReport]:
    """``unique_rlp`` against the positive generators and ``rlp`` against
    their codiagonals (skipped, and reported as vacuous, unless
    ``codiagonals``), from one bottom-leg search per generator.

    A codiagonal ``nabla f`` has ``f``'s codomain, so its squares have
    exactly ``f``'s bottom legs.  A generator without a bottom leg has no
    square against either map, and its codiagonal is never requested.
    The reports are those of the two checks run on their own.
    """
    bottoms = [carrier.hom(f.target, p.target) for _name, f in generators.positive]
    unique = unique_rlp(carrier, p, generators, bottoms)
    if not codiagonals:
        return unique, LiftReport(True, 0)
    squared = [k for k, legs in enumerate(bottoms) if legs]
    nablas = map(generators.codiagonal, squared)
    return unique, rlp(carrier, p, nablas, [bottoms[k] for k in squared])


def unique_rlp_single(
    carrier: Carrier, p: CellMorphism, i: CellMorphism
) -> bool:
    return _lift_check(carrier, p, [("i", i)], unique=True).ok


def rlp_with_codiagonal(
    carrier: Carrier, p: CellMorphism, i: CellMorphism
) -> bool:
    """RLP against ``i`` and its codiagonal (the other side of the
    unique-lifting equivalence)."""
    nabla = codiagonal(carrier, i)
    return rlp(carrier, p, [("i", i), ("nabla", nabla)]).ok


def arrow_isomorphic(
    carrier: Carrier, f: CellMorphism, g: CellMorphism
) -> bool:
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


@dataclass
class AppendixReport:
    """Tally of the colimit identities checked on sampled morphisms."""

    sum_identity: int = 0
    pushout_square: int = 0
    composition_identity: int = 0
    double_codiagonal_iso: int = 0
    retract_identity: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_sum_identity(
    carrier: Carrier, parts: Sequence[CellMorphism]
) -> bool:
    """Codiagonal of a sum is the sum of the codiagonals, up to isomorphism."""
    nabla_sum = codiagonal(carrier, carrier.sum(parts)[0])
    sum_nabla = carrier.sum([codiagonal(carrier, f) for f in parts])[0]
    return arrow_isomorphic(carrier, nabla_sum, sum_nabla)


def check_pushout_square(
    carrier: Carrier, i1: CellMorphism, f: CellMorphism
) -> bool:
    """Pushing out ``i1`` along ``f`` turns the codiagonal square into a
    cocartesian one: the self-pushouts' comparison map to the new codomain
    is again a pushout."""
    b2, g, i2 = carrier.pushout(i1, f)
    i2 = carrier.make_morphism(f.target, b2, i2.mapping)
    g = carrier.make_morphism(i1.target, b2, g.mapping)
    nabla1 = codiagonal(carrier, i1)
    nabla2 = codiagonal(carrier, i2)
    top = induced_on_self_pushouts(carrier, i1, i2, f, g)
    pushed, from_b1, from_d2 = carrier.pushout(nabla1, top)
    try:  # the comparison map pushed -> b2 induced by (g, nabla2)
        comparison = carrier.copair([from_b1, from_d2], [g, nabla2])
    except ValueError:  # the legs disagree on a glued class: no map at all
        return False
    return carrier.is_isomorphism(comparison)


def check_composition_identity(
    carrier: Carrier, i1: CellMorphism, i2: CellMorphism
) -> bool:
    """The codiagonal of a composite factors as the coarsening map of
    self-pushouts followed by the codiagonal of the outer map."""
    comp = i1.then(i2)
    nabla_comp = codiagonal(carrier, comp)
    _p_a, a1, a2 = carrier.pushout(comp, comp)
    _p_b, b1, b2 = carrier.pushout(i2, i2)
    step = carrier.copair([a1, a2], [b1, b2])
    nabla2 = codiagonal(carrier, i2)
    return nabla_comp.mapping == step.then(nabla2).mapping


def check_double_codiagonal_iso(carrier: Carrier, f: CellMorphism) -> bool:
    nabla = codiagonal(carrier, f)
    return carrier.is_isomorphism(codiagonal(carrier, nabla))


def check_retract_identity(carrier: Carrier, f: CellMorphism) -> bool:
    """Exhibit ``f`` as a retract of ``f + f`` and check the codiagonal of
    the retract is a retract of the codiagonal."""
    ff, dom_inj, cod_inj = carrier.sum([f, f])
    # section: first copy; retraction: fold both copies back
    sec_dom = dom_inj[0]
    sec_cod = cod_inj[0]
    fold_dom = carrier.copair(dom_inj, [carrier.identity(f.source)] * 2)
    fold_cod = carrier.copair(cod_inj, [carrier.identity(f.target)] * 2)
    sigma = induced_on_self_pushouts(carrier, f, ff, sec_dom, sec_cod)
    rho = induced_on_self_pushouts(carrier, ff, f, fold_dom, fold_cod)
    if sigma.then(rho).mapping != carrier.identity(sigma.source).mapping:
        return False
    nabla_f = codiagonal(carrier, f)
    nabla_ff = codiagonal(carrier, ff)
    return (
        sigma.then(nabla_ff).mapping == nabla_f.then(sec_cod).mapping
        and rho.then(nabla_f).mapping == nabla_ff.then(fold_cod).mapping
    )


def appendix_identity_suite(
    carrier: Carrier,
    sample: Sequence[tuple[str, CellMorphism]],
    composable: Sequence[tuple[CellMorphism, CellMorphism]] = (),
    pushout_spans: Sequence[tuple[CellMorphism, CellMorphism]] = (),
) -> AppendixReport:
    """Check the codiagonal identities by explicit colimit computation.

    ``sample`` feeds the sum / double-codiagonal / retract checks (sums are
    taken over consecutive pairs), ``composable`` the composite identity,
    ``pushout_spans`` the cocartesian-square identity.
    """
    report = AppendixReport()
    morphs = [f for _name, f in sample]
    for name, f in sample:
        if check_double_codiagonal_iso(carrier, f):
            report.double_codiagonal_iso += 1
        else:
            report.failures.append(("double_codiagonal", name))
        if check_retract_identity(carrier, f):
            report.retract_identity += 1
        else:
            report.failures.append(("retract", name))
    for k in range(len(morphs) - 1):
        if check_sum_identity(carrier, morphs[k : k + 2]):
            report.sum_identity += 1
        else:
            report.failures.append(("sum", sample[k][0], sample[k + 1][0]))
    for i1, i2 in composable:
        if check_composition_identity(carrier, i1, i2):
            report.composition_identity += 1
        else:
            report.failures.append(("composition", i1, i2))
    for i1, f in pushout_spans:
        if check_pushout_square(carrier, i1, f):
            report.pushout_square += 1
        else:
            report.failures.append(("pushout", i1, f))
    return report


__all__ = [
    "codiagonal",
    "induced_on_self_pushouts",
    "solve_lifts",
    "lifting_problems",
    "LiftReport",
    "rlp",
    "unique_rlp",
    "lifting_reports",
    "unique_rlp_single",
    "rlp_with_codiagonal",
    "arrow_isomorphic",
    "AppendixReport",
    "check_sum_identity",
    "check_pushout_square",
    "check_composition_identity",
    "check_double_codiagonal_iso",
    "check_retract_identity",
    "appendix_identity_suite",
]
