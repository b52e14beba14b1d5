"""Finite relational precubical sets.

A relational precubical set is a graded family of named cubes together
with, for every cube ``a`` and every sign word ``g`` of positive degree, a
finite set of ``g``-faces of ``a``.  Faces are stored extensionally for
every word, not just for the degree-one generators, because the laws only
force composite relations to *contain* the composites of generating
relations; upward neighborhoods and blowups genuinely need the composite
entries.  The laws are:

* grading: every ``g``-face of ``a`` has dimension ``domain_dim(g)`` and
  ``codomain_dim(g) == dim(a)``;
* identity faces are implicit (every cube is its own face along the
  identity word, and nothing else is);
* closure: a face of a face is a face along the composite word.

Morphisms are dimension-preserving cell maps that send faces to faces.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from typing import AbstractSet, Iterable, Mapping, Optional

from .cells import Carrier, CellMorphism, Structure
from .words import (
    ONE,
    BrickIndex,
    CubeWord,
    all_brick_indices,
    compose_words,
    factor_through,
)


class FormatError(ValueError):
    """Malformed serialized input (bad schema, bad words, bad identifiers)."""


class RelPCS:
    """A finite relational precubical set.

    Objects are immutable after construction.  The relational view
    (``_view``) and the face index (``_index``: per cube, its stored faces
    and its cofaces) are therefore computed once, on first use, and never
    go stale; ``_graded`` marks an object :func:`from_json_dict` has graded.
    """

    __slots__ = ("dim_bound", "cubes", "faces", "_dim", "_view", "_index", "_graded")

    def __init__(
        self,
        dim_bound: int,
        cubes: Mapping[int, Iterable[str]],
        faces: Mapping[tuple[str, CubeWord], Iterable[str]],
    ):
        self.dim_bound = dim_bound
        self.cubes = {
            d: frozenset(cs) for d, cs in cubes.items() if cs
        }
        self.faces = {
            key: frozenset(ts) for key, ts in faces.items() if ts
        }
        self._dim = {c: d for d, cs in self.cubes.items() for c in cs}
        self._view = None
        self._index = None
        self._graded = False

    def dim(self, cube: str) -> int:
        return self._dim[cube]

    def all_cubes(self) -> list[str]:
        """Cubes in canonical order: dimension descending, then identifier."""
        return list(PCS_CARRIER.cells(self))

    def n_cubes(self) -> int:
        return len(self._dim)

    def cube_counts(self) -> dict[int, int]:
        return {d: len(cs) for d, cs in sorted(self.cubes.items())}

    def _face_index(self) -> tuple[dict, dict]:
        """Per cube, its ``(word, targets)`` entries and the ``(cube, word)``
        entries naming it as a target, both in face-table order; built on
        first use."""
        if self._index is None:
            out: dict[str, list[tuple[CubeWord, frozenset[str]]]] = defaultdict(list)
            into: dict[str, list[tuple[str, CubeWord]]] = defaultdict(list)
            for key, bs in self.faces.items():
                a, g = key
                out[a].append((g, bs))
                for b in bs:
                    into[b].append(key)
            self._index = (
                {a: tuple(es) for a, es in out.items()},
                {b: tuple(es) for b, es in into.items()},
            )
        return self._index

    def face_entries(self, cube: str) -> tuple[tuple[CubeWord, frozenset[str]], ...]:
        """The stored ``(word, targets)`` entries of a cube."""
        return self._face_index()[0].get(cube, ())

    def cofaces(self, cube: str) -> tuple[tuple[str, CubeWord], ...]:
        """The ``(cube, word)`` pairs along which ``cube`` is a stored face."""
        return self._face_index()[1].get(cube, ())

    def faces_of(self, cube: str, word: CubeWord) -> frozenset[str]:
        if word.is_identity:
            return frozenset((cube,)) if self._dim.get(cube) == word.codomain_dim else frozenset()
        return self.faces.get((cube, word), frozenset())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelPCS)
            and self.dim_bound == other.dim_bound
            and self.cubes == other.cubes
            and self.faces == other.faces
        )

    __hash__ = None

    def __getstate__(self):  # the caches stay behind: the view holds closures
        return None, {**{s: getattr(self, s) for s in self.__slots__}, "_view": None, "_index": None}

    def __repr__(self) -> str:
        counts = ",".join(f"{d}:{n}" for d, n in self.cube_counts().items())
        return f"RelPCS(dim_bound={self.dim_bound}, cells[{counts}])"


def saturate(
    faces: Mapping[tuple[str, CubeWord], Iterable[str]]
) -> dict[tuple[str, CubeWord], AbstractSet[str]]:
    """Close a face table under composition of words, in one pass up the
    dimensions: a cube's closed faces are its stored ``g``-faces ``b`` and
    the closed faces of each ``b`` composed with ``g``.  A face has a lower
    dimension than its cube, so ``b`` is closed first; a table where that
    fails (an identity word, a misgraded face) raises ``ValueError``.

    A cube's stored faces are composed lowest degree first.  A ``g``-face
    that a lower-degree face already reached is not composed again: the
    faces it would add are faces of that face, so they are in the table.
    On a closed table only the degree-one faces are composed.  Each pair
    of words is composed once per call.  So the cost is one set update per
    closed face of each face composed, and one ``compose_words`` call per
    distinct pair of words.  A closed set that holds no more than the
    stored targets is the stored frozenset itself, not a copy: a copy per
    entry sets off more full garbage-collector passes on large tables."""
    stored: dict[str, dict[CubeWord, Iterable[str]]] = defaultdict(dict)
    for (a, g), bs in faces.items():
        stored[a][g] = bs
    closed: dict[str, dict[CubeWord, AbstractSet[str]]] = {}
    unclosed = set(stored)
    after: dict[CubeWord, dict[CubeWord, CubeWord]] = defaultdict(dict)  # g -> g2 -> g2 then g
    for a in sorted(stored, key=lambda c: next(iter(stored[c])).codomain_dim):
        entries = stored[a]
        for g, bs in entries.items():
            if g.is_identity or not unclosed.isdisjoint(bs):
                for b in bs:
                    if g.is_identity or b in unclosed:
                        raise ValueError(f"face {b!r} of {a!r} at {g} is not of lower dimension")
        table: dict[CubeWord, AbstractSet[str]] = defaultdict(set)
        for g in sorted(entries, key=lambda g: -g.domain_dim):
            # every face that lower-degree faces reach along g is in by now
            bs, reached, composed = entries[g], table[g], after[g]
            for b in bs:
                if b in reached:
                    continue
                for g2, cs in closed.get(b, {}).items():
                    w = composed.get(g2)
                    if w is None:
                        w = composed[g2] = compose_words(g2, g)
                    table[w].update(cs)
            if reached.issubset(bs):
                table[g] = frozenset(bs)  # the stored set itself, when it is one
            else:
                reached.update(bs)
        closed[a] = table
        unclosed.discard(a)
    return {(a, g): cs for a, table in closed.items() for g, cs in table.items() if cs}


def relpcs(
    dim_bound: int,
    cubes: Mapping[int, Iterable[str]],
    faces: Mapping[tuple[str, CubeWord], Iterable[str]],
) -> RelPCS:
    """Build a relational precubical set with its face table closed by
    :func:`saturate`; ``RelPCS(...)`` keeps a table as given."""
    return RelPCS(dim_bound, cubes, saturate(faces))


class InvalidPCS(ValueError):
    """A precubical set that fails :func:`validate`; carries the report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(f"input does not validate: {report.problems[0]}")
        self.report = report


@dataclass
class ValidationReport:
    """Outcome of the structural check, with a witness on failure."""

    problems: list[dict]

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


def _grading_problems(dim_bound: int, cubes: Mapping, faces: Mapping) -> list[dict]:
    """The grading law, in one pass over raw cubes and faces: a bound that
    is not negative, dimensions in range, each cube id once, and every face
    entry naming known cubes along a non-identity word that fits their
    dimensions.

    Findings come per dimension and per entry in table order, the cubes
    and targets of each in name order.  Only findings are sorted: an entry
    whose targets all have the word's domain dimension costs one subset
    test, and a dimension one intersection with the ids seen before it."""
    details = [] if dim_bound >= 0 else [f"negative dimension bound {dim_bound}"]
    dim: dict[str, int] = {}
    for d, cs in cubes.items():
        if not 0 <= d <= dim_bound:
            details.append(f"dimension {d} out of range")
        details.extend(f"duplicate cube id {c!r}" for c in sorted(dim.keys() & cs))
        dim.update(dict.fromkeys(cs, d))
    of_dim: dict[int, set[str]] = defaultdict(set)
    for c, d in dim.items():
        of_dim[d].add(c)
    for (a, g), bs in faces.items():
        if a not in dim:
            details.append(f"unknown cube {a!r}")
        elif g.is_identity:
            details.append(f"identity word stored for {a!r}")
        elif g.codomain_dim != dim[a]:
            details.append(f"word {g} does not match dim of {a!r}")
        elif not of_dim[g.domain_dim].issuperset(bs):
            for b in sorted(b for b in bs if b not in of_dim[g.domain_dim]):
                if b not in dim:
                    details.append(f"unknown cube {b!r}")
                else:
                    details.append(f"face {b!r} of {a!r} at {g} misgraded")
    return [{"kind": "grading", "detail": detail} for detail in details]


def validate(P: RelPCS) -> ValidationReport:
    """Check grading (not again for an object read by :func:`from_json_dict`),
    then closure: each face that :func:`saturate` adds to the stored table
    is a witness, listed once, in sorted order.

    Cost: that of :func:`_grading_problems` and :func:`saturate`, then one
    set difference per closed entry; only the witnesses are sorted."""
    problems = [] if P._graded else _grading_problems(P.dim_bound, P.cubes, P.faces)
    if problems:
        return ValidationReport(problems)
    closed, stored = saturate(P.faces), P.faces
    missing = sorted((a, str(g), c) for (a, g), cs in closed.items() for c in cs.difference(stored.get((a, g), ())))
    return ValidationReport(
        [{"kind": "closure", "witness": {"cube": a, "word": w, "missing": c}} for a, w, c in missing]
    )


def tensor(P: RelPCS, Q: RelPCS, joiner: str = ",") -> RelPCS:
    """Tensor product: cubes are pairs, words act coordinatewise.

    A word on a pair splits positionally: its first ``dim(p)`` letters act
    on the left factor, the rest on the right factor.
    """
    cubes: dict[int, set[str]] = defaultdict(set)
    pair_ids: list[tuple[str, str, int, int]] = []
    for dp, ps in sorted(P.cubes.items()):
        for dq, qs in sorted(Q.cubes.items()):
            for p in sorted(ps):
                for q in sorted(qs):
                    cubes[dp + dq].add(p + joiner + q)
                    pair_ids.append((p, q, dp, dq))
    faces: dict[tuple[str, CubeWord], frozenset[str]] = {}
    for p, q, dp, dq in pair_ids:
        pid = p + joiner + q
        p_rels = (*P.face_entries(p), (CubeWord.identity(dp), frozenset((p,))))
        q_rels = (*Q.face_entries(q), (CubeWord.identity(dq), frozenset((q,))))
        for gp, bps in p_rels:
            for gq, bqs in q_rels:
                g = CubeWord(gp.letters + gq.letters)
                if not g.is_identity:  # the split at dp makes each key new
                    faces[(pid, g)] = frozenset(bp + joiner + bq for bp in bps for bq in bqs)
    return RelPCS(P.dim_bound + Q.dim_bound, cubes, faces)


def _pair_id(cube: str, word: CubeWord) -> str:
    return f"{cube}|{word}"


def upward(P: RelPCS, c: str) -> tuple[RelPCS, CellMorphism]:
    """Upward neighborhood of a cube: all cubes having it as a face.

    Cells are pairs (cube, word along which ``c`` is its face); the pair
    bookkeeping makes one cube of ``P`` appear once per way it sees ``c``.
    Only ``c``'s cofaces and their faces are visited, through the face
    index.  Returns the neighborhood and the projection back to ``P``.
    """
    ident = CubeWord.identity(P.dim(c))
    pairs: dict[tuple[str, CubeWord], str] = {(c, ident): _pair_id(c, ident)}
    for key in P.cofaces(c):
        pairs[key] = _pair_id(*key)
    cubes: dict[int, set[str]] = defaultdict(set)
    for (a, _g), pid in pairs.items():
        cubes[P.dim(a)].add(pid)
    faces: dict[tuple[str, CubeWord], set[str]] = defaultdict(set)
    for (a, u), pid in pairs.items():
        for g, bs in P.face_entries(a):
            # a g-face b of a sees c along v, where u factors as g after v
            v = factor_through(u, g)
            if v is None:
                continue
            for b in bs:
                lower = pairs.get((b, v))
                if lower is not None:
                    faces[(pid, g)].add(lower)
    nbhd = RelPCS(P.dim_bound, cubes, faces)
    proj = CellMorphism(nbhd, P, {pid: a for (a, _g), pid in pairs.items()})
    return nbhd, proj


def rename_cells(P: RelPCS, mapping: Mapping[str, str]) -> RelPCS:
    return PCS_CARRIER.build([P], [mapping])


# The two 1-dimensional local models, named by the letter a brick cell
# carries in that direction: the open edge ``0``, and the star of a vertex
# ``1`` between an incoming edge ``-`` and an outgoing edge ``+``.
_OPEN_EDGE = RelPCS(1, {1: ["0"]}, {})
_STAR = RelPCS(
    1,
    {0: ["1"], 1: ["-", "+"]},
    {("-", CubeWord.parse("+")): ["1"], ("+", CubeWord.parse("-")): ["1"]},
)


@lru_cache(maxsize=None)
def brick(epsilon: BrickIndex) -> RelPCS:
    """The euclidean brick over ``epsilon``, with canonical cell names.

    A brick is the tensor product of its local models, one per direction:
    the star where the bit is 1, the open edge where it is 0.  Each cell is
    the word of its letters, one per direction, so the unique
    bottom-dimensional cube is ``min_cube(epsilon)``.
    """
    B = RelPCS(0, {0: [""]}, {})  # the tensor unit
    for bit in epsilon.bits:
        B = tensor(B, _STAR if bit else _OPEN_EDGE, joiner="")
    return B


def min_cube(epsilon: BrickIndex) -> str:
    """The brick's bottom-dimensional cube: ``1`` where the shape subdivides
    a direction, ``0`` where it leaves it open."""
    return epsilon.name


@lru_cache(maxsize=None)
def sub_bricks(
    epsilon: BrickIndex,
) -> tuple[tuple[str, BrickIndex, CellMorphism, CubeWord], ...]:
    """The sub-bricks of ``brick(epsilon)``, one per cell ``w`` other than
    the minimal cube, in name order, as ``(w, sub, inclusion, word)``.

    ``sub`` has bit 1 where ``w`` has the letter ``1``.  The inclusion
    ``brick(sub) -> brick(epsilon)`` sends the minimal cube to ``w``: a cell
    ``u`` goes to ``w`` with its ``1`` letters replaced by ``u``'s letters;
    its cell map runs in cell-name order.  ``word`` is the one along which ``w`` has the minimal cube as a face.
    """
    B = brick(epsilon)
    to_min = dict(B.cofaces(min_cube(epsilon)))
    out = []
    for w in sorted(to_min):
        sub = BrickIndex(tuple(int(a == ONE) for a in w))
        S = brick(sub)
        mapping = {
            u: "".join(b if a == ONE else a for a, b in zip(w, u))
            for u in sorted(S.all_cubes())
        }
        out.append((w, sub, PCS_CARRIER.make_morphism(S, B, mapping), to_min[w]))
    return tuple(out)


def brick_boundary(epsilon: BrickIndex) -> RelPCS:
    """The brick with its minimal cube removed (generating cofibration
    domain): its face table in the brick's order, less the minimal cube's
    entries and every face onto it."""
    B, gone = brick(epsilon), {min_cube(epsilon)}
    faces = {(a, g): bs - gone for (a, g), bs in B.faces.items() if a not in gone}
    return RelPCS(B.dim_bound, {d: cs - gone for d, cs in B.cubes.items()}, faces)


def hom_enumerate(
    X: RelPCS,
    Y: RelPCS,
    fixed: Optional[Mapping[str, str]] = None,
    allowed: Optional[Mapping[str, Iterable[str]]] = None,
    injective: bool = False,
) -> list[CellMorphism]:
    """All morphisms ``X -> Y`` in canonical order, by :meth:`Carrier.hom`."""
    return Carrier.hom(PCS_CARRIER, X, Y, fixed, allowed, injective)


def is_local_embedding(
    m: CellMorphism,
) -> tuple[bool, Optional[tuple[str, str, CubeWord, str]]]:
    """Distinct cubes sharing a face along the same word must stay distinct."""
    cofaces_of, image = PCS_CARRIER.view(m.source).back, m.mapping
    if all(len({image[a] for a in cofaces}) == len(cofaces) for cofaces in cofaces_of.values()):
        return True, None
    for (b, g), cofaces in sorted(cofaces_of.items(), key=lambda kv: (str(kv[0][1]), kv[0][0])):
        seen: dict[str, str] = {}
        for a in sorted(cofaces):
            v = m(a)
            if v in seen:
                return False, (seen[v], a, g, b)
            seen[v] = a
    return True, None


@dataclass
class EuclideanReport:
    """Certificate (a chart per cube) or a counterexample cube with its reason and neighbourhood."""

    ok: bool
    charts: dict[str, tuple[BrickIndex, CellMorphism]]
    counterexample: Optional[str]
    reason: object = None
    neighbourhood: Optional[RelPCS] = None

    def __bool__(self) -> bool:
        return self.ok


@lru_cache(maxsize=None)
def _min_words(epsilon: BrickIndex) -> tuple[tuple[str, CubeWord], ...]:
    """Each brick cell in canonical order, with its word to the minimal cube."""
    B, words = brick(epsilon), dict(brick(epsilon).cofaces(min_cube(epsilon)))
    return tuple((b, words.get(b, CubeWord.identity(epsilon.min_dim))) for b in B.all_cubes())


def chart_names(epsilon: BrickIndex, f: CellMorphism) -> dict[str, str]:
    """A chart as the map onto the upward neighbourhood of its cube."""
    return {b: _pair_id(f.mapping[b], w) for b, w in _min_words(epsilon)}


def probe_table(X: RelPCS, n: int) -> dict[BrickIndex, list[CellMorphism]]:
    """Per shape ``eps`` of :func:`all_brick_indices`, every probe
    ``brick(eps) -> X``, in hom order."""
    return {eps: hom_enumerate(brick(eps), X) for eps in all_brick_indices(n)}


def euclidean_check(P: RelPCS, n: int, probes: Optional[Mapping[BrickIndex, list]] = None) -> EuclideanReport:
    """Look for a chart at every cube ``c``: a local embedding ``f`` from a brick,
    ``f(min_cube) = c``, whose pairs ``(f(b), w_b)`` are the cells of ``upward(P, c)``.
    The candidates are ``probes``, ``probe_table(P, n)`` unless given (a blowup's
    table), grouped by shape and the image of the minimal cube, in hom order."""
    at: dict[tuple[BrickIndex, str], list[CellMorphism]] = defaultdict(list)
    for eps, homs in (probe_table(P, n) if probes is None else probes).items():
        for f in homs:
            at[(eps, f.mapping[min_cube(eps)])].append(f)
    charts: dict[str, tuple[BrickIndex, CellMorphism]] = {}
    for c in P.all_cubes():
        cover = {(c, CubeWord.identity(P.dim(c))), *P.cofaces(c)}
        found = reason = None
        for eps in all_brick_indices(n):
            for f in at.get((eps, c), ()):
                if {(f.mapping[b], w) for b, w in _min_words(eps)} == cover:
                    ok, clash = is_local_embedding(f)
                    if ok:
                        found = (eps, f)
                        break
                    reason = reason or clash
            if found:
                break
        if found is None:
            reason = reason or "no surjective brick map"
            return EuclideanReport(False, charts, c, reason, upward(P, c)[0])
        charts[c] = found
    return EuclideanReport(True, charts, None)


def to_json_dict(P: RelPCS) -> dict:
    return {
        "dim_bound": P.dim_bound,
        "cubes": {str(d): sorted(cs) for d, cs in sorted(P.cubes.items())},
        "faces": [
            {"cube": a, "word": str(g), "targets": sorted(bs)}
            for (a, g), bs in sorted(
                P.faces.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
            )
        ],
    }


def _strings(values) -> bool:
    """Whether ``values`` is a list of strings, checked in one C-level pass."""
    return isinstance(values, list) and all(map(isinstance, values, repeat(str)))


def _known_keys(data: dict, keys) -> None:
    """A ``FormatError`` naming the first key of ``data`` not in ``keys``."""
    for k in data:
        if k not in keys:
            raise FormatError(f"unknown key {k!r}")


def from_json_dict(data: dict) -> RelPCS:
    """Read and grade the JSON form that :func:`to_json_dict` writes.

    A dimension key is an integer written as ``str`` writes it.  Each list
    is type-checked in one pass, each distinct word string is parsed once
    per call, and the face sets are built as the frozensets the object
    keeps.  A key the format does not name is an error.  Grading is
    :func:`_grading_problems`, whose first finding is the error; the object
    comes back marked as graded."""
    if not isinstance(data, dict):
        raise FormatError("precubical set must be a JSON object")
    _known_keys(data, ("dim_bound", "cubes", "faces"))
    dim_bound = data.get("dim_bound")
    if type(dim_bound) is not int:
        raise FormatError("'dim_bound' must be an integer")
    cubes_raw = data.get("cubes", {})
    if not isinstance(cubes_raw, dict):
        raise FormatError("'cubes' must map dimensions to identifier lists")
    cubes: dict[int, frozenset[str]] = {}
    for k, ids in cubes_raw.items():
        try:
            d = int(k)
        except ValueError:
            d = None
        if d is None or str(d) != k:  # "01", " 1", "1_0" and "١" would all read as a number
            raise FormatError(f"bad dimension key {k!r}")
        if not _strings(ids):
            raise FormatError(f"cube list for dimension {k} must be strings")
        cubes[d] = frozenset(ids)
        if len(cubes[d]) != len(ids):
            raise FormatError(f"duplicate cube ids in dimension {k}")
    faces: dict[tuple[str, CubeWord], frozenset[str]] = {}
    words: dict[str, CubeWord] = {}
    entries = data.get("faces", [])
    if not isinstance(entries, list):
        raise FormatError("'faces' must be a list")
    fields = itemgetter("cube", "word", "targets")
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError("face entries must be objects")
        try:
            a, word, targets = fields(entry)
        except KeyError as exc:
            raise FormatError(f"face entry missing {exc}")
        if len(entry) != 3:  # the three read above, and another
            _known_keys(entry, ("cube", "word", "targets"))
        if not isinstance(a, str):
            raise FormatError(f"face cube {a!r} must be a string")
        g = words.get(word) if isinstance(word, str) else None
        if g is None:
            if not isinstance(word, str) or word.strip("+-0"):
                raise FormatError(f"bad word {word!r}")
            g = words[word] = CubeWord.parse(word)
        if not _strings(targets):
            raise FormatError("face targets must be a list of strings")
        key = (a, g)
        faces[key] = faces[key].union(targets) if key in faces else frozenset(targets)
    problems = _grading_problems(dim_bound, cubes, faces)
    if problems:
        raise FormatError(problems[0]["detail"])
    P = RelPCS(dim_bound, cubes, faces)  # keeps a subset of the graded table
    P._graded = True
    return P


class PCSCarrier(Carrier):
    """Relational precubical sets as relational structures: a cube's sort
    is its dimension, and ``face_g`` is one relation per word ``g``."""

    def encode(self, P: RelPCS) -> Structure:
        dim, faces = P._dim, P.faces
        return Structure(dim, {}, lambda c: (-dim[c], c), lambda: faces)

    def build(self, objs, images) -> RelPCS:
        cubes: dict[int, set[str]] = defaultdict(set)
        faces: dict[tuple[str, CubeWord], set[str]] = defaultdict(set)
        for P, image in zip(objs, images):
            for d, cs in P.cubes.items():
                cubes[d].update(map(image.__getitem__, cs))
            for (a, g), bs in P.faces.items():
                faces[(image[a], g)].update(map(image.__getitem__, bs))
        return RelPCS(max((P.dim_bound for P in objs), default=0), cubes, faces)

    def hom(self, source, target, fixed=None, allowed=None, injective=False) -> list[CellMorphism]:
        """Every PCS hom search goes through :func:`hom_enumerate`."""
        return hom_enumerate(source, target, fixed, allowed, injective)

    def extend(self, tables, P: RelPCS, image) -> Optional[RelPCS]:
        """Unite ``P``'s faces, under ``image``, into a replay's running face
        table and close it again: a brick's minimal cube becomes a face of
        cubes built before, whose cofaces outside the brick gain composites.
        A worklist composes each new entry with the faces of its face and the
        cofaces of its cube, indexed on ``tables``, so the cost follows the
        neighbourhood of the cubes touched.  Returns the composites, or None."""
        rel, added = tables.rel, defaultdict(set)
        up, down = (vars(tables).setdefault(k, defaultdict(set)) for k in ("up", "down"))
        work = [(image[a], g, image[b], False) for (a, g), bs in P.faces.items() for b in bs]
        for a, g, b, composite in work:  # a queue: the step's own entries, then what they compose
            if (a, g) not in up[b]:
                rel.setdefault((a, g), set()).add(b)
                up[b].add((a, g))
                down[a].add(g)
                if composite:
                    added[(a, g)].add(b)
                work += [(a, compose_words(g2, g), c, True) for g2 in down[b] for c in rel[(b, g2)]]
                work += [(x, compose_words(g, h), b, True) for x, h in up[a]]
        cubes = defaultdict(set)
        for c in {a for a, _g in added}.union(*added.values()):
            cubes[tables.sort[c]].add(c)
        return RelPCS(0, cubes, added) if added else None

    def quotient(self, obj: RelPCS, pairs) -> tuple[RelPCS, CellMorphism]:
        """Glued cubes, with the face table closed again: gluing can make
        new composites of faces."""
        glued, proj = super().quotient(obj, pairs)
        closed = relpcs(glued.dim_bound, glued.cubes, glued.faces)
        return closed, CellMorphism(obj, closed, proj.mapping)


PCS_CARRIER = PCSCarrier()

__all__ = [
    "FormatError",
    "RelPCS",
    "relpcs",
    "saturate",
    "validate",
    "ValidationReport",
    "InvalidPCS",
    "tensor",
    "upward",
    "rename_cells",
    "brick",
    "min_cube",
    "sub_bricks",
    "brick_boundary",
    "hom_enumerate",
    "is_local_embedding",
    "probe_table",
    "EuclideanReport",
    "chart_names",
    "euclidean_check",
    "to_json_dict",
    "from_json_dict",
    "PCSCarrier",
    "PCS_CARRIER",
]
