"""Blowup of a relational precubical set, and the theorem checks around it.

The blowup replaces every cube by all the brick-shaped probes into the
object: a cube of the blowup is a pair (brick shape, morphism from that
brick), graded by the dimension of the brick's minimal cube.  A probe
along a smaller sub-brick is a face of the probe it includes into, along
the word that carries the sub-brick's placement.  The blowup map sends a
probe to the image of its minimal cube; certifying that this map has the
unique right lifting property against the brick generators, and that the
blowup is euclidean, are finite checks performed per input.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .cells import CellMorphism
from .lifting import GeneratorSet, TheoremReport, lifting_reports
from .pcs import (
    PCS_CARRIER,
    EuclideanReport,
    InvalidPCS,
    RelPCS,
    brick,
    brick_boundary,
    euclidean_check,
    min_cube,
    probe_table,
    sub_bricks,
    validate,
)
from .words import BrickIndex, all_brick_indices


@dataclass
class BlowupResult:
    """The blowup, its map to the original, and the probes: per shape
    ``eps``, every map ``brick(eps) -> P`` in hom order, the ``k``-th
    being the cube ``f"{eps}:{k}"``."""

    blowup: RelPCS
    beta: CellMorphism
    probes: dict[BrickIndex, list[CellMorphism]]

    @property
    def provenance(self) -> dict[str, tuple[BrickIndex, CellMorphism]]:
        """Each cube's shape and probe."""
        return {f"{eps.name}:{k}": (eps, f) for eps, homs in self.probes.items() for k, f in enumerate(homs)}

    def provenance_json(self) -> list[dict]:
        provenance = self.provenance
        out = []
        for cube in self.blowup.all_cubes():
            eps, chart = provenance[cube]
            out.append(
                {
                    "cube": cube,
                    "epsilon": str(eps),
                    "chart": dict(sorted(chart.mapping.items())),
                }
            )
        return out


def _row(eps: BrickIndex, f: CellMorphism) -> tuple:
    """A probe's values over the brick's cells in canonical order, the
    rows hom sorts by."""
    return tuple(map(f.mapping.__getitem__, PCS_CARRIER.cells(brick(eps))))


def _row_index(probes: dict[BrickIndex, list[CellMorphism]]) -> dict[BrickIndex, dict[tuple, str]]:
    """Per shape, its probes' cube ids by value row."""
    return {eps: {_row(eps, f): f"{eps.name}:{k}" for k, f in enumerate(homs)} for eps, homs in probes.items()}


def blowup(P: RelPCS, n: int) -> BlowupResult:
    """All brick probes into ``P``, glued along sub-brick inclusions.

    Raises :class:`~cofib.pcs.InvalidPCS` when ``P`` does not validate."""
    report = validate(P)
    if not report.ok:
        raise InvalidPCS(report)
    probes = probe_table(P, n)
    index_of = _row_index(probes)
    cubes: dict[int, set[str]] = defaultdict(set)
    faces: dict = defaultdict(set)
    beta_map: dict[str, str] = {}
    for eps, homs in probes.items():
        bottom, ids = min_cube(eps), list(index_of[eps].values())
        cubes[eps.min_dim].update(ids)
        # per sub-brick: its probes by row, its word, and its cells' places in brick(eps)
        subs = [
            (index_of[sub], g, tuple(map(incl.mapping.__getitem__, PCS_CARRIER.cells(incl.source))))
            for _w, sub, incl, g in sub_bricks(eps)
        ]
        for f, fid in zip(homs, ids):
            beta_map[fid] = f.mapping[bottom]
            for index, g, placed in subs:
                faces[(index[tuple(map(f.mapping.__getitem__, placed))], g)].add(fid)
    blown = RelPCS(n, cubes, faces)
    return BlowupResult(blown, CellMorphism(blown, P, beta_map), probes)


@lru_cache(maxsize=None)
def brick_generators(n: int) -> GeneratorSet:
    """The generating cofibrations in ambient dimension ``n``: each brick
    minus its minimal cube includes into the whole brick.  Every codiagonal
    is built here, once per ``n``."""
    positive = []
    for eps in all_brick_indices(n):
        boundary = brick_boundary(eps)
        incl = PCS_CARRIER.make_morphism(
            boundary, brick(eps), {c: c for c in boundary.all_cubes()}
        )
        positive.append((f"i_{eps}" if eps.bits else "i_", incl))
    gens = GeneratorSet(tuple(positive), PCS_CARRIER, "nabla_{}")
    gens.codiagonals  # built now, and kept with the cached set
    return gens


@dataclass(kw_only=True)
class BlowupReport(TheoremReport):
    """The blowup theorem checks, with the chart reports of the blowup and
    of its input, and whether β is an isomorphism: facts about the input,
    which ``ok`` reads only through the check ``euclidean_iff_iso``."""

    euclidean: EuclideanReport
    input_euclidean: EuclideanReport
    beta_iso: bool

    def summary(self) -> dict:
        return {
            **super().summary(),
            "input_euclidean": self.input_euclidean.ok,
            "beta_is_isomorphism": self.beta_iso,
        }


def verify_blowup(P: RelPCS, n: int, result: Optional[BlowupResult] = None) -> BlowupReport:
    """The theorem checks on ``result``, which must be ``blowup(P, n)``
    (computed when not given).  Its probes are the bottom legs of the
    squares against the brick generators and the candidate charts of ``P``.
    One search ``brick(eps) -> RX`` per shape into the blowup ``RX`` gives
    the squares' fillers and the candidate charts of ``RX``."""
    if result is None:
        result = blowup(P, n)
    elif result.beta.target is not P or result.blowup.dim_bound != n:
        raise ValueError(f"result is not the blowup of this input at n = {n}")
    RX = result.blowup
    maps = probe_table(RX, n)
    tables = {id(P): result.probes, id(RX): maps}
    shape = {id(brick(eps)): eps for eps in maps}
    lifting, codiagonal_lifting = lifting_reports(
        PCS_CARRIER, result.beta, brick_generators(n), homs=lambda B, X: tables[id(X)][shape[id(B)]]
    )
    euclidean = euclidean_check(RX, n, maps)
    input_euclidean = euclidean_check(P, n, result.probes)
    beta_iso = PCS_CARRIER.is_isomorphism(result.beta)
    return BlowupReport(
        lifting,
        codiagonal_lifting,
        {"blowup_euclidean": euclidean.ok, "euclidean_iff_iso": input_euclidean.ok == beta_iso},
        euclidean=euclidean,
        input_euclidean=input_euclidean,
        beta_iso=beta_iso,
    )


def induced_map(
    source: BlowupResult, target: BlowupResult, alpha: CellMorphism
) -> CellMorphism:
    """Map of blowups sending a probe to its postcomposite with ``alpha``.
    ``ValueError`` if ``alpha`` does not run from ``source``'s input to
    ``target``'s, or if the two blowups are at different ``n``."""
    if alpha.source != source.beta.target or alpha.target != target.beta.target:
        raise ValueError("alpha does not run from the source blowup's input to the target's")
    if source.blowup.dim_bound != target.blowup.dim_bound:
        raise ValueError("the blowups are at different n")
    index_of = _row_index(target.probes)
    mapping = {cid: index_of[eps][_row(eps, f.then(alpha))] for cid, (eps, f) in source.provenance.items()}
    return PCS_CARRIER.make_morphism(source.blowup, target.blowup, mapping)


def brick_colimit_check(epsilon: BrickIndex) -> bool:
    """Rebuild the brick boundary as the glued union of its proper
    sub-bricks and compare with deleting the minimal cube.

    The sub-brick along ``w`` lies in the one along ``w2`` when ``w`` is in
    the image of ``w2``'s inclusion; it is glued there along the inclusion
    followed by the inverse of ``w2``'s."""
    subs = sub_bricks(epsilon)
    total, injections = PCS_CARRIER.coproduct([incl.source for _w, _s, incl, _g in subs])
    inverses = [{v: u for u, v in incl.mapping.items()} for _w, _s, incl, _g in subs]
    pairs = []
    for a, (w, _s, incl, _g) in enumerate(subs):
        for b, back in enumerate(inverses):
            if a != b and w in back:
                for u, v in incl.mapping.items():
                    pairs.append((injections[a].mapping[u], injections[b].mapping[back[v]]))
    colim, _proj = PCS_CARRIER.quotient(total, pairs)
    target = brick_boundary(epsilon)
    return PCS_CARRIER.find_isomorphism(colim, target) is not None


__all__ = [
    "BlowupResult",
    "blowup",
    "brick_generators",
    "BlowupReport",
    "verify_blowup",
    "induced_map",
    "brick_colimit_check",
]
