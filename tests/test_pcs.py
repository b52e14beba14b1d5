"""Relational precubical sets: validation, tensor, neighborhoods, bricks,
morphism enumeration, local embeddings, euclidean certification."""

import itertools
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    assert_same_verdict,
    brick_oracle,
    cycle,
    euclidean_by_neighbourhood,
    interval_v0,
    interval_v1,
    path,
    pcs_corpus,
    pinned_euclidean_check,
    reader_oracle,
    relational_pcs,
    restrict,
    validate_oracle,
    wedge,
    worklist_saturate,
)
from cofib import pcs, samples
from cofib.blowup import blowup, brick_generators
from cofib.cells import CellMorphism
from cofib.lifting import codiagonal
from cofib.pcs import (
    PCS_CARRIER,
    FormatError,
    brick,
    brick_boundary,
    chart_names,
    euclidean_check,
    from_json_dict,
    hom_enumerate,
    is_local_embedding,
    min_cube,
    probe_table,
    relpcs,
    RelPCS,
    saturate,
    sub_bricks,
    tensor,
    to_json_dict,
    upward,
    validate,
)
from cofib.words import ZERO, BrickIndex, CubeWord, all_brick_indices

W = CubeWord.parse
E = BrickIndex.parse


def test_validate_ok_on_corpus():
    for name, P, _n in pcs_corpus():
        assert validate(P).ok, name


def test_validate_reports_broken_closure():
    P = samples.broken_closure_square()
    report = validate(P)
    assert not report.ok
    witness = report.problems[0]["witness"]
    assert witness == {"cube": "c", "word": "--", "missing": "v"}


def test_validate_rejects_misgraded_face():
    P = RelPCS(2, {0: ["v"], 2: ["c"]}, {("c", W("-")): ["v"]})
    report = validate(P)
    assert not report.ok
    assert report.problems[0]["kind"] == "grading"


def test_saturation_builds_closure():
    P = samples.one_square_torus()
    assert P.faces_of("c", W("--")) == frozenset({"v"})
    assert P.faces_of("c", W("+-")) == frozenset({"v"})


def test_saturate_equals_the_worklist_closure(monkeypatch):
    """Every table closed while building the corpus, its blowups at its own
    dimension and at 1, 2, 3, and the codiagonals of the brick generators
    up to dimension 4 (their glued tables) closes as the worklist does."""
    real, tables = pcs.saturate, []

    def spy(faces):
        tables.append(dict(faces))
        return real(faces)

    monkeypatch.setattr(pcs, "saturate", spy)
    built = 0  # the closures asked for below: one per blowup (its input) and per codiagonal
    for _name, P, n in pcs_corpus():
        tables.append(P.faces)
        for m in sorted({n, 1, 2, 3}):
            tables.append(blowup(P, m).blowup.faces)
            built += 1
    for n in range(1, 5):
        for _name, f in brick_generators(n).positive:
            codiagonal(PCS_CARRIER, f)
            built += 1
    monkeypatch.undo()
    assert len(tables) >= len(pcs_corpus()) + built
    for faces in tables:
        assert saturate(faces) == worklist_saturate(faces)


@settings(max_examples=200, deadline=None)
@given(relational_pcs(max_cubes=8))
def test_saturate_equals_the_worklist_closure_on_drawn_tables(P):
    closed = saturate(P.faces)
    assert closed == worklist_saturate(P.faces)
    assert saturate(closed) == closed


@pytest.mark.parametrize(
    "faces",
    [
        {("e", W("0")): ["e"]},  # a stored identity word
        {("e", W("0")): ["f"]},  # an identity word to a cube without faces
        {("e", W("-")): ["c"], ("c", W("-0")): ["f"]},  # a face above its cube
        {("e", W("-")): ["f"], ("f", W("+")): ["e"]},  # two edges, each a face of the other
    ],
)
def test_saturate_rejects_a_face_not_of_lower_dimension(faces):
    with pytest.raises(ValueError):
        saturate(faces)


@pytest.mark.parametrize(
    "P, detail",
    [
        (RelPCS(1, {2: ["c"]}, {}), "dimension 2 out of range"),
        (RelPCS(1, {0: ["v"], 1: ["v"]}, {}), "duplicate cube id 'v'"),
        (RelPCS(1, {0: ["v"]}, {("x", W("-")): ["v"]}), "unknown cube 'x'"),
        (RelPCS(1, {1: ["e"]}, {("e", W("0")): ["e"]}), "identity word stored for 'e'"),
        (RelPCS(1, {0: ["v"], 1: ["e", "f"]}, {("e", W("-")): ["f"]}), "face 'f' of 'e' at - misgraded"),
        (RelPCS(-1, {}, {}), "negative dimension bound -1"),
    ],
)
def test_validate_reports_each_grading_fault(P, detail):
    assert validate(P).problems == [{"kind": "grading", "detail": detail}]


def _fanned_square(edges: list[str], vertex) -> RelPCS:
    """A square ``c`` whose ``-0`` face is every edge, each edge with the
    ``-`` face ``vertex(edge)``, and no composite stored."""
    vertices = sorted({vertex(e) for e in edges})
    faces = {("c", W("-0")): edges}
    faces.update({(e, W("-")): [vertex(e)] for e in edges})
    return RelPCS(2, {0: vertices, 1: edges, 2: ["c"]}, faces)


def test_validate_lists_a_missing_composite_once():
    P = _fanned_square(["e", "f"], lambda e: "v")
    witnesses = [p["witness"] for p in validate(P).problems]
    assert witnesses == [{"cube": "c", "word": "--", "missing": "v"}]


def test_validate_lists_every_composite_of_a_two_level_gap():
    """``x -00-> y -0-> z --> w`` with no composite stored: the witnesses are
    what closing the table adds, so the composite of both gaps is listed
    too, and adding the witnesses gives a table that validates."""
    P = RelPCS(
        3,
        {0: ["w"], 1: ["z"], 2: ["y"], 3: ["x"]},
        {("x", W("-00")): ["y"], ("y", W("-0")): ["z"], ("z", W("-")): ["w"]},
    )
    witnesses = [p["witness"] for p in validate(P).problems]
    assert witnesses == [
        {"cube": "x", "word": "---", "missing": "w"},
        {"cube": "x", "word": "--0", "missing": "z"},
        {"cube": "y", "word": "--", "missing": "w"},
    ]
    faces = dict(P.faces)
    faces.update({(p["cube"], W(p["word"])): [p["missing"]] for p in witnesses})
    assert validate(RelPCS(3, P.cubes, faces)).ok


def _degree_two_only() -> RelPCS:
    """A 3-cube ``x`` with the faces ``y`` along ``-00`` and ``e`` along
    ``+-0``; no face of degree one reaches ``e``, so only that entry puts
    ``e``'s vertex ``v`` among the faces of ``x``."""
    return RelPCS(
        3,
        {0: ["v", "w"], 1: ["e", "f"], 2: ["y"], 3: ["x"]},
        {("x", W("-00")): ["y"], ("x", W("+-0")): ["e"], ("y", W("-0")): ["f"], ("e", W("-")): ["v"], ("f", W("+")): ["w"]},
    )


def test_validate_composes_a_face_that_only_a_composite_word_reaches():
    witnesses = [p["witness"] for p in validate(_degree_two_only()).problems]
    assert witnesses == [
        {"cube": "x", "word": "+--", "missing": "v"},
        {"cube": "x", "word": "--+", "missing": "w"},
        {"cube": "x", "word": "--0", "missing": "f"},
        {"cube": "y", "word": "-+", "missing": "w"},
    ]


def test_pcs_validate_prints_the_same_bytes_under_any_hash_seed(tmp_path):
    edges = ["e", "f", "g", "h"]
    P = _fanned_square(edges, lambda e: "v" + e)
    path = tmp_path / "four-problems.json"
    path.write_text(json.dumps(to_json_dict(P)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "cofib", "pcs", "validate", str(path)],
            env=env, capture_output=True, timeout=60,
        )
        assert done.returncode == 1, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    witnesses = [p["witness"] for p in json.loads(outputs[0])["problems"]]
    assert witnesses == [{"cube": "c", "word": "--", "missing": "v" + e} for e in edges]


# -- tensor --------------------------------------------------------------------


def test_tensor_of_intervals_is_closed_square():
    sq = tensor(interval_v0(), interval_v0())
    assert sq.cube_counts() == {0: 4, 1: 4, 2: 1}
    assert validate(sq).ok


def test_tensor_of_subdivided_intervals():
    T = tensor(interval_v1(), interval_v1())
    assert T.cube_counts() == {0: 9, 1: 12, 2: 4}
    assert validate(T).ok
    nbhd, _ = upward(T, "m,m")
    assert nbhd.cube_counts() == {0: 1, 1: 4, 2: 4}
    assert PCS_CARRIER.census(nbhd) == PCS_CARRIER.census(brick(E("11")))
    assert PCS_CARRIER.find_isomorphism(nbhd, brick(E("11"))) is not None


def test_tensor_with_empty_is_empty():
    P = samples.circle()
    assert tensor(P, RelPCS(1, {}, {})).n_cubes() == 0
    assert tensor(RelPCS(1, {}, {}), P).n_cubes() == 0


def test_tensor_validates_on_corpus_pairs():
    small = [P for _n, P, _d in [(n, P, d) for n, P, d in pcs_corpus()][:6]]
    for P, Q in itertools.combinations(small, 2):
        if P.n_cubes() * Q.n_cubes() > 60:
            continue
        assert validate(tensor(P, Q)).ok


# -- upward neighborhoods --------------------------------------------------------


def test_upward_of_top_cube_is_single_cell():
    sq = samples.closed_square()
    nbhd, proj = upward(sq, "c")
    assert nbhd.cube_counts() == {2: 1}
    assert set(proj.mapping.values()) == {"c"}


def test_upward_of_circle_vertex_is_the_subdivided_point():
    nbhd, proj = upward(samples.circle(), "v")
    assert nbhd.cube_counts() == {0: 1, 1: 2}
    assert PCS_CARRIER.find_isomorphism(nbhd, brick(E("1"))) is not None


def test_upward_projection_is_a_morphism():
    for name, P, _n in pcs_corpus()[:8]:
        for c in P.all_cubes():
            nbhd, proj = upward(P, c)
            assert validate(nbhd).ok, (name, c)
            assert PCS_CARRIER._morphism_violation(nbhd, P, proj.mapping) is None


def test_upward_of_torus_vertex():
    nbhd, _ = upward(samples.one_square_torus(), "v")
    assert nbhd.cube_counts() == {0: 1, 1: 2, 2: 4}


# -- the face index, against full scans of the face table -------------------------


def full_scan_upward(P, c):
    """Reference upward neighbourhood: scans the whole face table."""
    c_dim = P.dim(c)
    pairs = {(c, CubeWord.identity(c_dim)): f"{c}|{CubeWord.identity(c_dim)}"}
    outgoing = defaultdict(list)
    for (a, g), bs in P.faces.items():
        outgoing[a].append((g, bs))
        if c in bs:
            pairs[(a, g)] = f"{a}|{g}"
    cubes = defaultdict(set)
    for (a, _g), pid in pairs.items():
        cubes[P.dim(a)].add(pid)
    faces = defaultdict(set)
    for (a, u), pid in pairs.items():
        for g, bs in outgoing.get(a, ()):
            if any(ug != gg for ug, gg in zip(u.letters, g.letters) if gg != ZERO):
                continue
            v = CubeWord(tuple(ug for ug, gg in zip(u.letters, g.letters) if gg == ZERO))
            for b in bs:
                if (b, v) in pairs:
                    faces[(pid, g)].add(pairs[(b, v)])
    nbhd = RelPCS(P.dim_bound, cubes, faces)
    return nbhd, CellMorphism(nbhd, P, {pid: a for (a, _g), pid in pairs.items()})


def full_scan_tensor(P, Q, joiner=","):
    """Reference tensor product: scans both face tables per pair of cubes."""
    cubes, faces = defaultdict(set), defaultdict(set)
    for dp, ps in P.cubes.items():
        for dq, qs in Q.cubes.items():
            for p in ps:
                for q in qs:
                    cubes[dp + dq].add(p + joiner + q)
                    p_rels = [(g, bs) for (a, g), bs in P.faces.items() if a == p]
                    q_rels = [(g, bs) for (a, g), bs in Q.faces.items() if a == q]
                    p_rels.append((CubeWord.identity(dp), frozenset((p,))))
                    q_rels.append((CubeWord.identity(dq), frozenset((q,))))
                    for gp, bps in p_rels:
                        for gq, bqs in q_rels:
                            g = CubeWord(gp.letters + gq.letters)
                            if not g.is_identity:
                                faces[(p + joiner + q, g)] |= {
                                    bp + joiner + bq for bp in bps for bq in bqs
                                }
    return RelPCS(P.dim_bound + Q.dim_bound, cubes, faces)


def indexed_corpus():
    """Tori, cylinders, wedges, 3-tori, their blowups, the bricks and the
    fixture corpus, each with an ambient dimension."""
    spaces = [(f"C{a}xC{b}", tensor(cycle(a), cycle(b)), 2) for a, b in [(1, 1), (1, 3), (2, 2), (3, 4)]]
    spaces += [(f"C{a}xP{m}", tensor(cycle(a), path(m)), 2) for a, m in [(1, 1), (2, 2), (3, 1)]]
    spaces += [(f"W{k}", wedge(k), 1) for k in (1, 2, 3)]
    spaces += [("C1xC1xC2", tensor(tensor(cycle(1), cycle(1)), cycle(2)), 3)]
    spaces += [(f"blowup {name}", blowup(P, n).blowup, n) for name, P, n in list(spaces)]
    spaces += [(f"brick {eps}", brick(eps), n) for n in range(4) for eps in all_brick_indices(n)]
    return spaces + pcs_corpus()


def test_upward_matches_full_scan():
    for name, P, _n in indexed_corpus():
        for c in P.all_cubes():
            nbhd, proj = upward(P, c)
            want, want_proj = full_scan_upward(P, c)
            assert nbhd == want, (name, c)
            assert proj.mapping == want_proj.mapping, (name, c)


def test_face_index_matches_face_table():
    for name, P, _n in indexed_corpus():
        for c in P.all_cubes():
            assert P.face_entries(c) == tuple((g, bs) for (a, g), bs in P.faces.items() if a == c), name
            assert P.cofaces(c) == tuple(key for key, bs in P.faces.items() if c in bs), name


def test_tensor_matches_full_scan():
    factors = [cycle(1), cycle(3), path(2), wedge(2), samples.closed_square(), brick(E("1"))]
    for P, Q in itertools.product(factors, repeat=2):
        assert tensor(P, Q) == full_scan_tensor(P, Q)


# -- bricks ----------------------------------------------------------------------


def test_brick_cell_counts():
    assert brick(E("00")).cube_counts() == {2: 1}
    assert brick(E("11")).cube_counts() == {0: 1, 1: 4, 2: 4}
    assert brick(E("10")).cube_counts() == {1: 1, 2: 2}
    assert brick(E("01")).cube_counts() == {1: 1, 2: 2}


def test_brick_equals_the_upward_neighborhood_oracle():
    for n in range(6):
        for eps in all_brick_indices(n):
            assert brick(eps) == brick_oracle(eps), str(eps)


def test_bricks_name_their_cells_by_letters():
    """Letter ``0`` on each open direction, one of ``-``, ``+``, ``1`` on each
    subdivided one; the minimal cube is the only cell of its dimension."""
    for n in range(4):
        for eps in all_brick_indices(n):
            B = brick(eps)
            choices = [ZERO if b == 0 else "-+1" for b in eps.bits]
            assert set(B.all_cubes()) == {"".join(p) for p in itertools.product(*choices)}
            assert validate(B).ok
            assert B.cubes[eps.min_dim] == {min_cube(eps)}


def _flipped(w: str) -> CubeWord:
    """Drop the ``1`` letters and flip the signs: the minimal cube sits on the
    ``+`` side of an incoming half and on the ``-`` side of an outgoing one."""
    return W("".join({"-": "+", "+": "-"}.get(c, c) for c in w if c != "1"))


def test_brick_min_reached_along_the_sub_brick_word():
    for n in range(1, 5):
        for eps in all_brick_indices(n):
            B = brick(eps)
            bottom = min_cube(eps)
            for w, _sub, _incl, g in sub_bricks(eps):
                assert g == _flipped(w)
                assert B.faces_of(w, g) == frozenset({bottom})


def test_upward_of_min_is_the_graph_of_the_sub_brick_words():
    for n in range(1, 4):
        for eps in all_brick_indices(n):
            B = brick(eps)
            bottom = min_cube(eps)
            nbhd, proj = upward(B, bottom)
            pairs = {
                (proj.mapping[pid], g)
                for pid in nbhd.all_cubes()
                for g in [W(pid.rsplit("|", 1)[1])]
            }
            expected = {(w, g) for w, _sub, _incl, g in sub_bricks(eps)}
            assert pairs == expected | {(bottom, CubeWord.identity(eps.min_dim))}


def test_sub_brick_inclusion_is_the_unique_pinned_hom():
    for n in range(5):
        for eps in all_brick_indices(n):
            for w, sub, incl, _g in sub_bricks(eps):
                homs = hom_enumerate(brick(sub), brick(eps), fixed={min_cube(sub): w})
                assert [h.mapping for h in homs] == [incl.mapping], (str(eps), w)


def test_upward_of_a_cell_is_its_sub_brick():
    """``upward(brick(eps), w)`` is ``brick(sub)``, and the projection back
    to the brick is the sub-brick inclusion."""
    for n in range(5):
        for eps in all_brick_indices(n):
            B = brick(eps)
            for w, sub, incl, _g in sub_bricks(eps):
                nbhd, proj = upward(B, w)
                phi = PCS_CARRIER.find_isomorphism(brick(sub), nbhd)
                assert phi is not None, (str(eps), w)
                assert {u: proj.mapping[c] for u, c in phi.mapping.items()} == incl.mapping


# -- morphism enumeration ---------------------------------------------------------


def sorted_items(mapping: dict) -> list:
    return sorted(mapping.items())


def naive_hom(X, Y):
    """All-assignments filter; only usable on tiny objects."""
    cells = X.all_cubes()
    pools = [sorted(Y.cubes.get(X.dim(c), ())) for c in cells]
    out = []
    for choice in itertools.product(*pools):
        mapping = dict(zip(cells, choice))
        if PCS_CARRIER._morphism_violation(X, Y, mapping) is None:
            out.append(mapping)
    return out


def test_hom_agrees_with_naive_filter():
    objs = [P for _name, P, _n in pcs_corpus() if 0 < P.n_cubes() <= 6][:6]
    for X in objs:
        for Y in objs:
            fast = [m.mapping for m in hom_enumerate(X, Y)]
            slow = naive_hom(X, Y)
            assert sorted(map(sorted_items, fast)) == sorted(map(sorted_items, slow))


def test_hom_brick_to_torus_unique():
    torus = samples.one_square_torus()
    for eps in all_brick_indices(2):
        assert len(hom_enumerate(brick(eps), torus)) == 1


def test_hom_into_empty():
    assert hom_enumerate(samples.open_square(), RelPCS(2, {}, {})) == []
    assert len(hom_enumerate(RelPCS(2, {}, {}), samples.open_square())) == 1


def test_no_map_from_subdivided_point_to_interval():
    assert hom_enumerate(brick(E("1")), samples.interval()) == []


def test_hom_composition_closed():
    circle = samples.circle()
    wedge = relpcs(
        1,
        {0: ["v"], 1: ["e", "f"]},
        {
            ("e", W("-")): ["v"],
            ("e", W("+")): ["v"],
            ("f", W("-")): ["v"],
            ("f", W("+")): ["v"],
        },
    )
    for f in hom_enumerate(circle, wedge):
        for g in hom_enumerate(wedge, circle):
            composite = f.then(g)
            assert PCS_CARRIER._morphism_violation(circle, circle, composite.mapping) is None


def test_hom_enumeration_is_deterministic():
    for name, P, _n in pcs_corpus()[:10]:
        first = [tuple(map(m, P.all_cubes())) for m in hom_enumerate(P, P)]
        second = [tuple(map(m, P.all_cubes())) for m in hom_enumerate(P, P)]
        assert first == second, name
        assert len(first) == len(set(first)), name


# -- local embeddings ------------------------------------------------------------


def test_identity_is_local_embedding():
    P = samples.one_square_torus()
    ok, witness = is_local_embedding(PCS_CARRIER.identity(P))
    assert ok and witness is None


def test_collapsing_edges_with_common_target_is_not_local_embedding():
    B = brick(E("11"))
    quot, proj = PCS_CARRIER.quotient(B, [("-1", "1-")])
    ok, witness = is_local_embedding(proj)
    assert not ok
    a, b, g, c = witness
    assert {a, b} == {"-1", "1-"}
    assert c == "11"
    assert g in (W("+"),)


def test_injective_morphisms_are_local_embeddings():
    B = brick(E("01"))
    for m in hom_enumerate(B, brick(E("11"))):
        if len(set(m.mapping.values())) == len(m.mapping):
            assert is_local_embedding(m)[0]


# -- euclidean certification -------------------------------------------------------


def test_euclidean_examples():
    assert euclidean_check(samples.circle(), 1).ok
    report = euclidean_check(samples.y_graph(), 1)
    assert not report.ok
    assert report.counterexample in {"a", "v"}
    assert not euclidean_check(samples.one_square_torus(), 2).ok


def test_euclidean_charts_cover_all_cubes():
    report = euclidean_check(samples.circle(), 1)
    assert set(report.charts) == {"v", "e"}
    eps, phi = report.charts["v"]
    assert str(eps) == "1"


def test_failing_charts_name_their_reason_and_neighbourhood():
    report = euclidean_check(samples.y_graph(), 1)
    assert (report.counterexample, report.reason) == ("a", "no surjective brick map")
    assert report.neighbourhood.all_cubes() == ["e1|-", "a|"]
    report = euclidean_check(samples.one_square_torus(), 2)
    assert (report.counterexample, report.reason) == ("e", "no surjective brick map")
    assert report.neighbourhood.all_cubes() == ["c|+0", "c|-0", "c|0+", "c|0-", "e|0"]
    assert upward(samples.one_square_torus(), "e")[0] == report.neighbourhood
    ok = euclidean_check(samples.circle(), 1)
    assert (ok.reason, ok.neighbourhood) == (None, None)


def _agrees_with_the_neighbourhood_oracle(P, n) -> None:
    report = euclidean_check(P, n)
    ok, charts, counterexample = euclidean_by_neighbourhood(P, n)
    assert (report.ok, report.counterexample) == (ok, counterexample)
    assert list(report.charts) == list(charts)
    for c, (eps, phi) in charts.items():
        assert report.charts[c][0] == eps
        assert chart_names(*report.charts[c]) == phi.mapping


def _euclid_inputs():
    """The corpus at n = 1, 2, 3 and its own dimension, their blowups, and
    C2^4 at n = 4."""
    for _name, P, n in pcs_corpus():
        for m in sorted({n, 1, 2, 3}):
            yield P, m
            yield blowup(P, m).blowup, m
    C2_4 = cycle(2)
    for _ in range(3):
        C2_4 = tensor(C2_4, cycle(2))
    yield C2_4, 4


def test_euclidean_check_matches_the_neighbourhood_oracle():
    """Same verdict, counterexample, chart keys in order and chart names."""
    for P, n in _euclid_inputs():
        _agrees_with_the_neighbourhood_oracle(P, n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(relational_pcs(max_cubes=7), st.sampled_from([1, 2]))
def test_euclidean_check_matches_the_neighbourhood_oracle_on_drawn_pcs(P, n):
    _agrees_with_the_neighbourhood_oracle(P, n)


def test_euclidean_check_matches_the_pinned_oracle():
    """Grouping one table per shape by the image of the minimal cube gives
    the maps that one pinned search per cube and shape finds: same verdict,
    counterexample, reason, and charts in order."""
    for P, n in _euclid_inputs():
        assert_same_verdict(euclidean_check(P, n), pinned_euclidean_check(P, n), n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(relational_pcs(max_cubes=7), st.sampled_from([1, 2]))
def test_euclidean_check_matches_the_pinned_oracle_on_drawn_pcs(P, n):
    assert_same_verdict(euclidean_check(P, n), pinned_euclidean_check(P, n), n)


def test_euclidean_check_searches_each_shape_once(monkeypatch):
    """``euclidean_check(P, n)`` makes one unpinned search ``brick(eps) -> P``
    per shape, in shape order, and none when given the table; the
    neighbourhood is built only for a counterexample."""
    real_hom, real_upward, searches, upwards = pcs.hom_enumerate, pcs.upward, [], []

    def hom_spy(X, Y, *args, **kwargs):
        searches.append((X, Y, args, kwargs))
        return real_hom(X, Y, *args, **kwargs)

    def upward_spy(P, c):
        upwards.append(c)
        return real_upward(P, c)

    monkeypatch.setattr(pcs, "hom_enumerate", hom_spy)
    monkeypatch.setattr(pcs, "upward", upward_spy)
    cases = [
        (samples.circle(), 1, []),
        (samples.y_graph(), 1, ["a"]),
        (samples.one_square_torus(), 2, ["e"]),
        (samples.closed_square(), 2, ["b"]),
    ]
    for P, n, want in cases:
        searches.clear()
        upwards.clear()
        report = euclidean_check(P, n)
        assert upwards == want and report.ok == (not want)
        shapes = all_brick_indices(n)
        assert len(searches) == len(shapes)
        for (X, Y, args, kwargs), eps in zip(searches, shapes):
            assert X is brick(eps) and Y is P and (args, kwargs) == ((), {})
        table = probe_table(P, n)
        searches.clear()
        assert_same_verdict(euclidean_check(P, n, table), report, n)
        assert searches == []


def test_brick_boundaries_are_euclidean():
    for n in range(1, 3):
        for eps in all_brick_indices(n):
            assert euclidean_check(brick_boundary(eps), n).ok, str(eps)


def test_brick_boundary_is_the_brick_less_its_minimal_cube():
    """Against the full subobject on the other cubes, face-table and
    dimension order included, for every shape with n <= 4."""
    for n in range(5):
        for eps in all_brick_indices(n):
            B, got = brick(eps), brick_boundary(eps)
            want = restrict(B, set(B.all_cubes()) - {min_cube(eps)})
            assert got == want, str(eps)
            assert list(got.faces) == list(want.faces) and list(got.cubes) == list(want.cubes), str(eps)


def test_deleting_makes_holes_visible():
    B = brick(E("11"))
    broken = restrict(B, set(B.all_cubes()) - {"-1"})
    assert not euclidean_check(broken, 2).ok


# -- serialization ------------------------------------------------------------------


def test_json_round_trip():
    for name, P, _n in pcs_corpus():
        data = to_json_dict(P)
        Q = from_json_dict(data)
        assert Q == P, name
        assert to_json_dict(Q) == data, name


def test_json_errors():
    from cofib.pcs import FormatError

    with pytest.raises(FormatError):
        from_json_dict([])
    for bound in ("x", "2", 2.7, 2.0, True, None):
        with pytest.raises(FormatError):
            from_json_dict({"dim_bound": bound})
    with pytest.raises(FormatError):
        from_json_dict({"dim_bound": 1, "cubes": {"0": ["v", "v"]}})
    with pytest.raises(FormatError):
        from_json_dict(
            {"dim_bound": 1, "cubes": {"1": ["e"]}, "faces": [{"cube": "e", "word": "-x", "targets": []}]}
        )


def _oracle_pool() -> list[RelPCS]:
    """The corpus, C2^3 for faces of degree three, and the unclosed
    :func:`_degree_two_only` beside it."""
    return [P for _name, P, _n in pcs_corpus()] + [tensor(cycle(2), tensor(cycle(2), cycle(2))), _degree_two_only()]


def _pick(draw, values: list):
    return draw(st.sampled_from(values)) if values else None


@st.composite
def faulty_documents(draw):
    """The JSON form of a corpus or drawn object with up to three grading
    faults (unknown or misgraded targets, identity and wrong-length words,
    repeated ids, extra or out-of-range dimensions; a repeated entry merges),
    then at most one wrong type, bad word, missing field, unknown key or
    negative bound."""
    P = draw(st.one_of(st.sampled_from(_oracle_pool()), relational_pcs(max_cubes=8)))
    doc = json.loads(json.dumps(to_json_dict(P)))
    cubes, faces = doc["cubes"], doc["faces"]
    ids = sorted(c for cs in cubes.values() for c in cs) + ["zz"]
    for fault in draw(st.lists(st.sampled_from(["target", "word", "entry", "repeat", "id", "dimension"]), max_size=3)):
        entry = _pick(draw, faces)
        if fault == "target" and entry:
            entry["targets"].append(draw(st.sampled_from(ids)))
        elif fault == "word" and entry:
            word = entry["word"]
            entry["word"] = draw(st.sampled_from(["0" * len(word), word + "-", word[1:]]))
        elif fault == "entry":
            word = draw(st.sampled_from(["-", "+0", "0", "", "--"]))
            faces.append({"cube": draw(st.sampled_from(ids)), "word": word, "targets": [draw(st.sampled_from(ids))]})
        elif fault == "repeat" and entry:
            faces.append(dict(entry, targets=[draw(st.sampled_from(ids))]))
        elif fault == "id" and cubes:
            cubes[draw(st.sampled_from(sorted(cubes)))].append(draw(st.sampled_from(ids)))
        elif fault == "dimension":
            cubes[draw(st.sampled_from(["-1", "0", "1", "2", "3", "7"]))] = [draw(st.sampled_from(ids))]
    part, entry = draw(st.sampled_from([None, "part", "list", "field", "drop", "key", "doc"])), _pick(draw, faces)
    if part == "part":
        doc[draw(st.sampled_from(["cubes", "faces", "dim_bound"]))] = draw(
            st.sampled_from([[], {}, "x", None, -1, -2, 2.0, True, 1])
        )
    elif part == "list" and cubes:
        cubes[draw(st.sampled_from(sorted(cubes)))] = draw(st.sampled_from(["v", [1], [["v"]], None]))
    elif part == "field" and entry:
        entry[draw(st.sampled_from(["cube", "word", "targets"]))] = draw(
            st.sampled_from([["e"], None, 1, "v", [1], [["v"]], "-x", "1", "+ ", "−"])
        )
    elif part == "drop" and entry:
        del entry[draw(st.sampled_from(["cube", "word", "targets"]))]
    elif part == "key":  # a typo, or a key of the other format
        where = draw(st.sampled_from([doc, entry] if entry else [doc]))
        where[draw(st.sampled_from(["face", "edges", "target", "dim_bound", "cubes"]))] = []
    return [doc] if part == "doc" else doc


def _read(reader, doc):
    try:
        return reader(doc)
    except FormatError as exc:
        return f"FormatError: {exc}"


@settings(max_examples=400, deadline=None)
@given(faulty_documents())
def test_reader_agrees_with_the_entry_by_entry_oracle(doc):
    """The reader returns what the entry-by-entry reader does, or fails
    with its message (canonical dimension keys only: the oracle reads any
    key ``int`` reads)."""
    got, want = _read(from_json_dict, doc), _read(reader_oracle, doc)
    assert got == want
    if isinstance(got, RelPCS):
        assert got._graded and to_json_dict(got) == to_json_dict(want)


@st.composite
def faulty_tables(draw):
    """A drawn or corpus object rebuilt by ``RelPCS`` with up to three
    faults.  Half of the draws keep the grading: entries deleted (composites
    first) and targets of the right dimension added, so that what fails is
    closure.  The others also add unknown or misgraded targets, and
    identity, misgraded, unknown-cube or repeated-id entries."""
    P = draw(st.one_of(st.sampled_from(_oracle_pool()), relational_pcs(max_cubes=8)))
    cubes = {d: set(cs) for d, cs in P.cubes.items()}
    faces = {key: set(bs) for key, bs in P.faces.items()}
    ids = sorted(P._dim) + ["zz"]
    kinds = draw(st.sampled_from([["delete", "face"], ["delete", "face", "target", "entry", "id", "bound"]]))
    for fault in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        key = _pick(draw, sorted(faces))
        if fault == "delete":
            for key in draw(st.lists(st.sampled_from(sorted(faces, key=lambda k: (-k[1].degree, k))[:9] or [None]), min_size=1)):
                faces.pop(key, None)
        elif fault == "face" and key is not None:
            faces[key].add(_pick(draw, sorted(P.cubes.get(key[1].domain_dim, ()))) or "zz")
        elif fault == "target" and key is not None:
            faces[key].add(draw(st.sampled_from(ids)))
        elif fault == "entry":
            word = W(draw(st.sampled_from(["-", "+", "0", "00", "-0", "0+", "--", "+-0", "000"])))
            faces.setdefault((draw(st.sampled_from(ids)), word), set()).add(draw(st.sampled_from(ids)))
        elif fault == "id":
            cubes.setdefault(draw(st.integers(0, 3)), set()).add(draw(st.sampled_from(ids)))
        elif fault == "bound":
            P = RelPCS(draw(st.integers(-2, 3)), {}, {})
    return RelPCS(P.dim_bound, cubes, faces)


@settings(max_examples=400, deadline=None)
@given(faulty_tables())
def test_validate_agrees_with_the_sorted_oracle(P):
    """Every finding, grading or closure, in the oracle's order."""
    assert validate(P).problems == validate_oracle(P)


# -- colimit universal properties ----------------------------------------------------


def test_pushout_universal_property_small():
    carrier = PCS_CARRIER
    boundary = brick_boundary(E("1"))
    i = carrier.make_morphism(
        boundary, brick(E("1")), {c: c for c in boundary.all_cubes()}
    )
    target = samples.circle()
    attach = hom_enumerate(boundary, target)[0]
    pushed, from_brick, from_target = carrier.pushout(i, attach)
    assert validate(pushed).ok
    X = samples.circle()
    for u in hom_enumerate(brick(E("1")), X):
        for v in hom_enumerate(target, X):
            if i.then(u).mapping != attach.then(v).mapping:
                continue
            mediators = [
                w
                for w in hom_enumerate(pushed, X)
                if from_brick.then(w).mapping == u.mapping
                and from_target.then(w).mapping == v.mapping
            ]
            assert len(mediators) == 1


def test_quotient_universal_property_small():
    carrier = PCS_CARRIER
    B = brick(E("01"))
    quot, proj = carrier.quotient(B, [("0-", "0+")])
    assert validate(quot).ok
    X = samples.one_square_torus()
    for f in hom_enumerate(B, X):
        if f.mapping["0-"] != f.mapping["0+"]:
            continue
        mediators = [
            w for w in hom_enumerate(quot, X) if proj.then(w).mapping == f.mapping
        ]
        assert len(mediators) == 1
