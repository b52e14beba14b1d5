"""Blowup computation and the theorem checks on the fixture corpus."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    assert_same_verdict,
    blowup_script,
    cycle,
    euclidean_expectations,
    pcs_corpus,
    pinned_euclidean_check,
    relational_pcs,
)
from cofib import pcs, samples
from cofib.blowup import (
    blowup,
    brick_colimit_check,
    brick_generators,
    induced_map,
    verify_blowup,
)
from cofib.lifting import replay
from cofib.pcs import (
    PCS_CARRIER,
    RelPCS,
    brick,
    euclidean_check,
    hom_enumerate,
    relpcs,
    saturate,
    tensor,
    to_json_dict,
    validate,
)
from cofib.words import BrickIndex, CubeWord, all_brick_indices

W = CubeWord.parse
E = BrickIndex.parse


def test_torus_blowup_is_the_torus():
    result = blowup(samples.one_square_torus(), 2)
    B = result.blowup
    assert B.cube_counts() == {0: 1, 1: 2, 2: 1}
    (square,) = B.cubes[2]
    vertical, horizontal = sorted(B.cubes[1])
    assert B.faces_of(square, W("0-")) == B.faces_of(square, W("0+"))
    assert B.faces_of(square, W("-0")) == B.faces_of(square, W("+0"))
    assert B.faces_of(square, W("0-")) != B.faces_of(square, W("-0"))
    assert {result.beta.mapping[e] for e in B.cubes[1]} == {"e"}
    assert result.beta.mapping[square] == "c"
    assert validate(B).ok


def test_blowup_of_single_vertex_is_empty():
    result = blowup(samples.lone_vertex(), 1)
    assert result.blowup.n_cubes() == 0


def test_blowup_of_interval_is_one_open_edge():
    result = blowup(samples.interval(), 1)
    assert result.blowup.cube_counts() == {1: 1}
    assert set(result.beta.mapping.values()) == {"e"}


def test_blowup_of_circle_is_isomorphic_to_it():
    result = blowup(samples.circle(), 1)
    assert PCS_CARRIER.is_isomorphism(result.beta)


def test_blowup_of_y_graph():
    Y = samples.y_graph()
    result = blowup(Y, 1)
    assert result.blowup.cube_counts() == {0: 2, 1: 3}
    report = verify_blowup(Y, 1, result)
    assert report.euclidean.ok and report.lifting.ok
    assert not report.input_euclidean.ok


def test_blowup_grading_preserved_by_beta():
    for name, P, n in pcs_corpus():
        result = blowup(P, n)
        for cube in result.blowup.all_cubes():
            assert result.blowup.dim(cube) == P.dim(result.beta.mapping[cube]), name


def test_blowup_validates_on_corpus():
    for name, P, n in pcs_corpus():
        assert validate(blowup(P, n).blowup).ok, name


def test_blowup_rejects_invalid_input():
    with pytest.raises(ValueError):
        blowup(samples.broken_closure_square(), 2)


def test_blowup_idempotent_up_to_isomorphism():
    for name, P, n in pcs_corpus():
        if P.n_cubes() > 8:
            continue
        once = blowup(P, n).blowup
        twice = blowup(once, n).blowup
        assert PCS_CARRIER.find_isomorphism(twice, once) is not None, name


def test_blowup_provenance_lists_every_cube():
    result = blowup(samples.one_square_torus(), 2)
    entries = result.provenance_json()
    assert {e["cube"] for e in entries} == set(result.blowup.all_cubes())
    assert {e["epsilon"] for e in entries} == {"00", "01", "10", "11"}


def test_postcomposition_induces_a_map_of_blowups():
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
    source = blowup(circle, 1)
    target = blowup(wedge, 1)
    for alpha in hom_enumerate(circle, wedge):
        induced = induced_map(source, target, alpha)
        for cube in source.blowup.all_cubes():
            left = alpha.mapping[source.beta.mapping[cube]]
            right = target.beta.mapping[induced.mapping[cube]]
            assert left == right


def test_induced_map_refuses_blowups_that_do_not_match_alpha():
    """With ``alpha: interval -> circle``, the interval's blowup as target
    gave a map into the wrong blowup, and the circle's at n = 2 a
    ``KeyError``."""
    interval, circle = samples.interval(), samples.circle()
    alpha = next(iter(hom_enumerate(interval, circle)))
    source = blowup(interval, 1)
    with pytest.raises(ValueError, match="does not run"):
        induced_map(source, blowup(interval, 1), alpha)
    with pytest.raises(ValueError, match="different n"):
        induced_map(source, blowup(circle, 2), alpha)
    assert induced_map(source, blowup(circle, 1), alpha).target == blowup(circle, 1).blowup


def test_verify_blowup_on_corpus_matches_expectations():
    expect = euclidean_expectations()
    for name, P, n in pcs_corpus():
        report = verify_blowup(P, n)
        assert report.ok, name
        assert report.input_euclidean.ok == expect[name], name


def test_verify_blowup_reads_the_input_charts_off_the_blowup(monkeypatch):
    """The input's verdict in ``verify_blowup`` is the one that pinned
    searches reach (``pinned_euclidean_check``), and it comes with no search
    into the input at all: charts and bottom legs are the blowup's probes."""
    real, targets = pcs.hom_enumerate, []

    def spy(X, Y, *args, **kwargs):
        targets.append(Y)
        return real(X, Y, *args, **kwargs)

    for name, P, n in pcs_corpus():
        for m in sorted({n, 1, 2, 3}):
            result = blowup(P, m)
            monkeypatch.setattr(pcs, "hom_enumerate", spy)
            targets.clear()
            report = verify_blowup(P, m, result)
            monkeypatch.setattr(pcs, "hom_enumerate", real)
            assert not any(Y is P for Y in targets), (name, m)
            assert_same_verdict(report.input_euclidean, pinned_euclidean_check(P, m), (name, m))


def test_verify_blowup_searches_the_blowup_once_per_shape(monkeypatch):
    """Into the blowup ``RX``, ``verify_blowup`` makes one unpinned search
    ``brick(eps) -> RX`` per shape; its lists are the squares' fillers and
    ``RX``'s chart candidates.  Its only other searches are the top legs
    into ``RX``, confined to fibres, and none pins a cell: no chart search
    and no filler search per square.  ``RX``'s verdict and charts are those
    that pinned searches reach."""
    real, calls = pcs.hom_enumerate, []

    def spy(X, Y, fixed=None, allowed=None, injective=False):
        calls.append((X, Y, fixed, allowed))
        return real(X, Y, fixed, allowed, injective)

    for name, P, n in pcs_corpus() + [("C2^3", tensor_power(2, 3), 3)]:
        result = blowup(P, n)
        RX = result.blowup
        with monkeypatch.context() as m:
            m.setattr(pcs, "hom_enumerate", spy)
            calls.clear()
            report = verify_blowup(P, n, result)
        assert all(Y is RX and fixed is None for _X, Y, fixed, _allowed in calls), name
        unpinned = [X for X, _Y, _fixed, allowed in calls if allowed is None]
        assert unpinned == [brick(eps) for eps in all_brick_indices(n)], name
        assert_same_verdict(report.euclidean, pinned_euclidean_check(RX, n), name)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(relational_pcs(max_cubes=7), st.sampled_from([1, 2]))
def test_verify_blowup_input_verdict_on_drawn_pcs(P, n):
    P = relpcs(P.dim_bound, P.cubes, P.faces)
    assert_same_verdict(verify_blowup(P, n).input_euclidean, pinned_euclidean_check(P, n), n)


def test_verify_blowup_rejects_a_result_of_another_input():
    P = samples.circle()
    result = blowup(P, 1)
    with pytest.raises(ValueError):
        verify_blowup(samples.circle(), 1, result)
    with pytest.raises(ValueError):
        verify_blowup(P, 2, result)
    assert verify_blowup(P, 1, result).ok


def tensor_power(k: int, n: int):
    """C_k tensored with itself n times."""
    X = cycle(k)
    for _ in range(n - 1):
        X = tensor(X, cycle(k))
    return X


LADDER = [(2, 3), (3, 3), (2, 4)]


@pytest.mark.parametrize("k, n, squares", [(2, 3, 64), (3, 3, 216), (2, 4, 256), (2, 5, 1024)])
def test_verify_blowup_ambient_dimension_ladder(k, n, squares):
    """The n-fold tensor power of C_k at ambient dimension n: the
    generators' bricks grow with n, and every square still has one filler."""
    X = tensor_power(k, n)
    report = verify_blowup(X, n)
    assert report.ok
    assert (report.lifting.checked, report.codiagonal_lifting.checked) == (squares, squares)
    assert_same_verdict(report.input_euclidean, euclidean_check(X, n), (k, n))


@pytest.mark.parametrize(
    "k, n, digest",
    [
        (2, 3, "a3ace43b48143aae972c3ab555afae85107d036ba358210c883ddf20b926d1ce"),
        (3, 3, "f43d24718db70c48431fc8e1bd8872e753e2e7f2d32f0371745d8697d0f6d5ae"),
        (2, 4, "121b0eecc89cbfc1a42a5c79589ae567e6e755291e49476db3bcdad070c8ee82"),
    ],
    ids=["C2^3", "C3^3", "C2^4"],
)
def test_ladder_blowup_bytes_are_pinned(k, n, digest):
    """The blowup's face table and per-cube provenance above n = 2, where
    the CLI golden file does not reach, pinned by a sha256 of their JSON."""
    result = blowup(tensor_power(k, n), n)
    data = {"blowup": to_json_dict(result.blowup), "provenance": result.provenance_json()}
    assert hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest() == digest


def test_blowup_face_table_is_already_closed():
    """Saturating the blowup's face table adds nothing, on the corpus at
    n = 1, 2, 3 and its own dimension, and on the ladder."""
    cases = [(name, P, m) for name, P, n in pcs_corpus() for m in sorted({n, 1, 2, 3})]
    cases += [(f"C{k}^{n}", tensor_power(k, n), n) for k, n in LADDER]
    for name, P, n in cases:
        faces = blowup(P, n).blowup.faces
        assert saturate(faces) == faces, (name, n)


def test_blowup_closes_only_its_input(monkeypatch):
    """``blowup`` hands ``saturate`` the input's table, through ``validate``,
    and never its own, which is closed as built."""
    real, tables = pcs.saturate, []

    def spy(faces):
        tables.append(faces)
        return real(faces)

    monkeypatch.setattr(pcs, "saturate", spy)
    for name, P, n in pcs_corpus():
        tables.clear()
        blowup(P, n)
        assert tables == [P.faces], name


def test_brick_colimit_examples():
    assert brick_colimit_check(E("11"))
    assert brick_colimit_check(E("00"))
    assert brick_colimit_check(E("101"))


def test_brick_colimit_all_small_shapes():
    for n in range(0, 5):
        for eps in all_brick_indices(n):
            assert brick_colimit_check(eps), str(eps)


def test_brick_generator_domains_are_the_boundaries():
    gens = dict(brick_generators(2).positive)
    i = gens["i_11"]
    assert i.source.n_cubes() == 8
    assert i.target.n_cubes() == 9


# -- the blowup as a cell complex ---------------------------------------------


def test_blowup_script_replays_bit_exactly():
    """The script, run by the same ``replay`` as the automata certificate,
    rebuilds the blowup bit for bit: every corpus object at m = 1, 2, 3,
    C5 x C5 at n = 2 and C2^3 at n = 3.  Its last step repeated names a
    cube already built, and is refused."""
    cases = [(name, P, m) for name, P, _n in pcs_corpus() for m in (1, 2, 3)]
    cases += [("C5^2", tensor_power(5, 2), 2), ("C2^3", tensor_power(2, 3), 3)]
    assert len(cases) == 74
    for name, P, m in cases:
        result = blowup(P, m)
        script = blowup_script(result, m)
        assert len(script) == result.blowup.n_cubes(), (name, m)
        assert replay(PCS_CARRIER, RelPCS(m, {}, {}), script) == result.blowup, (name, m)
    with pytest.raises(ValueError, match="not yet in use"):
        replay(PCS_CARRIER, RelPCS(m, {}, {}), script + script[-1:])
