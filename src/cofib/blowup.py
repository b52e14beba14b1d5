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

from .cells import CellMorphism, GeneratorSet
from .lifting import LiftReport, codiagonal, lifting_reports
from .pcs import (
    PCS_CARRIER,
    EuclideanReport,
    InvalidPCS,
    RelPCS,
    brick,
    brick_boundary,
    euclidean_check,
    hom_enumerate,
    min_cube,
    sub_bricks,
    validate,
)
from .words import BrickIndex, all_brick_indices


@dataclass
class BlowupResult:
    """The blowup, its map to the original, and per-cube provenance."""

    blowup: RelPCS
    beta: CellMorphism
    provenance: dict[str, tuple[BrickIndex, CellMorphism]]

    def provenance_json(self) -> list[dict]:
        out = []
        for cube in self.blowup.all_cubes():
            eps, chart = self.provenance[cube]
            out.append(
                {
                    "cube": cube,
                    "epsilon": str(eps),
                    "chart": dict(sorted(chart.mapping.items())),
                }
            )
        return out


def blowup(P: RelPCS, n: int) -> BlowupResult:
    """All brick probes into ``P``, glued along sub-brick inclusions.

    Raises :class:`~cofib.pcs.InvalidPCS` when ``P`` does not validate."""
    report = validate(P)
    if not report.ok:
        raise InvalidPCS(report)
    probes: dict[BrickIndex, list[CellMorphism]] = {}
    index_of: dict[BrickIndex, dict[tuple, int]] = {}
    for eps in all_brick_indices(n):
        homs = hom_enumerate(brick(eps), P)
        probes[eps] = homs
        index_of[eps] = {h.key(): k for k, h in enumerate(homs)}

    def cube_id(eps: BrickIndex, k: int) -> str:
        return f"{eps}:{k}"

    cubes: dict[int, set[str]] = defaultdict(set)
    provenance: dict[str, tuple[BrickIndex, CellMorphism]] = {}
    beta_map: dict[str, str] = {}
    for eps, homs in probes.items():
        for k, f in enumerate(homs):
            cid = cube_id(eps, k)
            cubes[eps.min_dim].add(cid)
            provenance[cid] = (eps, f)
            beta_map[cid] = f.mapping[min_cube(eps)]

    faces: dict = defaultdict(set)
    for eps, homs in probes.items():
        subs = sub_bricks(eps)
        for k, f in enumerate(homs):
            fid = cube_id(eps, k)
            for _w, sub, incl, g in subs:
                # incl.mapping runs in cell-name order, which f.key() also sorts by
                key = tuple((u, f.mapping[v]) for u, v in incl.mapping.items())
                j = index_of[sub][key]
                faces[(cube_id(sub, j), g)].add(fid)
    blown = RelPCS(n, cubes, faces)
    beta = CellMorphism(blown, P, beta_map)
    return BlowupResult(blown, beta, provenance)


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
    gens = GeneratorSet(tuple(positive), lambda f: codiagonal(PCS_CARRIER, f), "nabla_{}")
    gens.codiagonals  # built now, and kept with the cached set
    return gens


@dataclass
class BlowupReport:
    """Theorem checks for one input: euclidean blowup, unique lifting of
    the blowup map, and euclidean-iff-isomorphism."""

    euclidean: EuclideanReport
    lifting: LiftReport
    codiagonal_lifting: LiftReport
    input_euclidean: EuclideanReport
    beta_iso: bool

    @property
    def euclidean_iff_iso(self) -> bool:
        return self.input_euclidean.ok == self.beta_iso

    @property
    def ok(self) -> bool:
        return (
            self.euclidean.ok
            and self.lifting.ok
            and self.codiagonal_lifting.ok
            and self.euclidean_iff_iso
        )

    def summary(self) -> dict:
        return {
            "blowup_euclidean": self.euclidean.ok,
            "unique_rlp": self.lifting.ok,
            "codiagonal_rlp": self.codiagonal_lifting.ok,
            "input_euclidean": self.input_euclidean.ok,
            "beta_is_isomorphism": self.beta_iso,
            "euclidean_iff_iso": self.euclidean_iff_iso,
            "ok": self.ok,
        }


def verify_blowup(P: RelPCS, n: int, result: Optional[BlowupResult] = None) -> BlowupReport:
    if result is None:
        result = blowup(P, n)
    lifting, codiagonal_lifting = lifting_reports(PCS_CARRIER, result.beta, brick_generators(n))
    return BlowupReport(
        euclidean=euclidean_check(result.blowup, n),
        lifting=lifting,
        codiagonal_lifting=codiagonal_lifting,
        input_euclidean=euclidean_check(P, n),
        beta_iso=PCS_CARRIER.is_isomorphism(result.beta),
    )


def induced_map(
    source: BlowupResult, target: BlowupResult, alpha: CellMorphism
) -> CellMorphism:
    """Map of blowups sending a probe to its postcomposite with ``alpha``."""
    index_of: dict[BrickIndex, dict[tuple, str]] = defaultdict(dict)
    for cid, (eps, f) in target.provenance.items():
        index_of[eps][f.key()] = cid
    mapping = {}
    for cid, (eps, f) in source.provenance.items():
        mapping[cid] = index_of[eps][f.then(alpha).key()]
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
