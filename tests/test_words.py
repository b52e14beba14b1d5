"""Sign-word combinatorics, checked against a generator-rewriting oracle,
and the letter-named cells of bricks with their sub-brick inclusions."""

import copy
import itertools
import pickle

import pytest

from cofib.pcs import brick, min_cube, sub_bricks
from cofib.words import (
    MINUS,
    PLUS,
    ZERO,
    BrickIndex,
    CubeWord,
    all_brick_indices,
    compose_words,
    factor_through,
)

W = CubeWord.parse
E = BrickIndex.parse


def all_words(codomain_dim: int):
    """All sign words with the given codomain dimension."""
    return map(CubeWord, itertools.product((MINUS, PLUS, ZERO), repeat=codomain_dim))


# -- oracle: compose by concatenating coface generators and rewriting ---------
#
# A word is a composite of single-coordinate insertions applied bottom-up.
# Two adjacent insertions applied out of order swap at the cost of shifting
# the later index up by one; bubbling until sorted recovers the normal form.


def generators_of(w: CubeWord) -> list[tuple[int, int, str]]:
    out = []
    level = w.domain_dim
    for i, c in enumerate(w.letters):
        if c != "0":
            out.append((level, i, c))
            level += 1
    return out


def word_of_generators(m: int, gens) -> CubeWord:
    letters = ["0"] * m
    for level, i, sign in gens:
        assert level == len(letters)
        letters.insert(i, sign)
    return CubeWord(tuple(letters))


def normalize_generators(gens) -> list[tuple[int, int, str]]:
    gens = list(gens)
    changed = True
    while changed:
        changed = False
        for t in range(len(gens) - 1):
            (n1, a, s1), (n2, b, s2) = gens[t], gens[t + 1]
            if a >= b:
                gens[t] = (n1, b, s2)
                gens[t + 1] = (n2, a + 1, s1)
                changed = True
    return gens


def compose_by_rewriting(u: CubeWord, v: CubeWord) -> CubeWord:
    gens = generators_of(u) + generators_of(v)
    return word_of_generators(u.domain_dim, normalize_generators(gens))


def composable_pairs(max_len: int):
    for total in range(max_len + 1):
        for v in all_words(total):
            for u in all_words(v.domain_dim):
                yield u, v


def test_compose_matches_rewriting_oracle_exhaustively():
    checked = 0
    for u, v in composable_pairs(4):
        assert compose_words(u, v) == compose_by_rewriting(u, v)
        checked += 1
    assert checked > 200


def test_compose_example():
    assert compose_words(W("+"), W("0-")) == W("+-")


def test_identity_laws():
    for u, v in composable_pairs(5):
        assert compose_words(CubeWord.identity(u.domain_dim), u) == u
        assert compose_words(u, CubeWord.identity(u.codomain_dim)) == u


def test_associativity_exhaustive_up_to_length_five():
    third = [w for total in range(6) for w in all_words(total)]
    by_domain = {}
    for w in third:
        by_domain.setdefault(w.domain_dim, []).append(w)
    for u, v in composable_pairs(5):
        for w in by_domain.get(v.codomain_dim, ()):
            assert compose_words(compose_words(u, v), w) == compose_words(
                u, compose_words(v, w)
            )


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        compose_words(W("+"), W("--"))


def test_degree_accounting():
    w = W("+0-0")
    assert w.codomain_dim == 4
    assert w.domain_dim == 2
    assert w.degree == 2


def test_factor_through_inverts_composition():
    for u, g in itertools.product(all_words(3), repeat=2):
        v = factor_through(u, g)
        candidates = [v2 for v2 in all_words(g.domain_dim) if compose_words(v2, g) == u]
        assert candidates == ([] if v is None else [v])


# -- interned words ------------------------------------------------------------


def test_equal_letters_give_one_word():
    for w in all_words(3):
        assert CubeWord(tuple(w.letters)) is w
        assert CubeWord(list(w.letters)) is w
        assert W(str(w)) is w and str(w) is w.text
    assert compose_words(W("+"), W("0-")) is W("+-")
    assert CubeWord.identity(2) is W("00")


def test_copies_and_pickles_are_the_interned_word():
    w = W("+0-")
    assert copy.copy(w) is w
    assert copy.deepcopy(w) is w
    assert copy.deepcopy({w: [w]}) == {w: [w]}
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(w, protocol)) is w


def test_word_order_is_letter_order():
    words = [w for m in range(4) for w in all_words(m)]
    assert sorted(words) == sorted(words, key=lambda w: w.letters)
    assert sorted(words, reverse=True) == sorted(words, key=lambda w: w.letters, reverse=True)
    for u, v in itertools.product(words[:30], repeat=2):
        assert (u < v, u <= v, u > v, u >= v) == (
            u.letters < v.letters, u.letters <= v.letters, u.letters > v.letters, u.letters >= v.letters
        )
    with pytest.raises(TypeError):
        W("+") < ("+",)


def test_words_are_immutable():
    w = W("+-")
    with pytest.raises(AttributeError):
        w.letters = ("-",)
    with pytest.raises(AttributeError):
        del w.letters
    with pytest.raises(AttributeError):
        w.extra = 1
    assert w.letters == ("+", "-") and W("+-") is w


def test_bad_letters_raise():
    for bad in ("1", "x", "+1"):
        with pytest.raises(ValueError):
            W(bad)
    with pytest.raises(ValueError):
        CubeWord(("+", 0))


def test_brick_shapes_are_interned():
    """One ``BrickIndex`` per bit tuple, also through copies and pickles,
    ordered by its bits, with its name and minimal dimension stored."""
    shapes = [eps for n in range(4) for eps in all_brick_indices(n)]
    for eps in shapes:
        assert BrickIndex(eps.bits) is eps and BrickIndex(list(eps.bits)) is eps and E(str(eps)) is eps
        assert copy.copy(eps) is eps and copy.deepcopy(eps) is eps
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(eps, protocol)) is eps
        assert (eps.name, eps.min_dim) == ("".join(map(str, eps.bits)), eps.bits.count(0))
    assert sorted(shapes) == sorted(shapes, key=lambda eps: eps.bits)
    for u, v in itertools.product(shapes[:20], repeat=2):
        assert (u < v, u <= v, u > v, u >= v, u == v) == (
            u.bits < v.bits, u.bits <= v.bits, u.bits > v.bits, u.bits >= v.bits, u.bits == v.bits
        )
    with pytest.raises(TypeError):
        E("1") < W("+")
    for bad in ((2,), (0, -1), ("1",)):
        with pytest.raises(ValueError):
            BrickIndex(bad)
    with pytest.raises(AttributeError):
        E("1").bits = (0,)


def test_all_brick_indices_is_one_tuple_in_bit_order():
    for n in range(5):
        shapes = all_brick_indices(n)
        assert shapes is all_brick_indices(n)
        assert shapes == tuple(BrickIndex(bits) for bits in itertools.product((0, 1), repeat=n))
    assert [str(eps) for eps in all_brick_indices(2)] == ["00", "01", "10", "11"]


# -- brick cells and their sub-brick inclusions --------------------------------
#
# A brick's cells are named by letters, one per direction: ``0`` on an open
# direction, ``-``/``+``/``1`` on a subdivided one.  These are examples and
# properties of the inclusions ``pcs.sub_bricks`` reads off the brick; the
# hom-search and upward-neighbourhood oracles are in ``test_pcs.py``.


def inclusions(eps: BrickIndex) -> dict[str, dict[str, str]]:
    """Cell ``w`` of ``brick(eps)`` -> the cell map of its sub-brick's inclusion."""
    return {w: incl.mapping for w, _sub, incl, _g in sub_bricks(eps)}


def test_cells_of_the_square_brick():
    B = brick(E("11"))
    names = {"++", "+-", "-+", "--", "+1", "-1", "1+", "1-", "11"}
    assert set(B.all_cubes()) == names
    assert min_cube(E("11")) == "11"
    assert list(inclusions(E("11"))) == sorted(names - {"11"})


def test_cells_of_degenerate_bricks():
    assert brick(E("00")).all_cubes() == ["00"]
    assert sub_bricks(E("00")) == ()
    assert set(brick(E("01")).all_cubes()) == {"0+", "0-", "01"}
    assert min_cube(E("01")) == "01"


def test_top_is_maximum():
    """The minimal cube is a face of every other cell, along one word."""
    for n in range(4):
        for eps in all_brick_indices(n):
            B = brick(eps)
            bottom = min_cube(eps)
            assert set(inclusions(eps)) == set(B.all_cubes()) - {bottom}
            for w, _sub, _incl, g in sub_bricks(eps):
                assert [h for h, bs in B.face_entries(w) if bottom in bs] == [g]


def test_cell_membership_enforced():
    B = brick(E("01"))
    assert "1+" not in B.all_cubes() and "00" not in B.all_cubes()
    with pytest.raises(ValueError):
        E("12")


def test_sub_index_and_meet():
    """The sub-brick along ``w`` has bit 1 where ``w`` has the letter 1.
    A cell ``w`` below ``w2`` sits in ``w2``'s sub-brick at ``w`` met with
    that sub-brick's shape."""
    shapes = {w: str(sub) for w, sub, _incl, _g in sub_bricks(E("11"))}
    assert (shapes["-1"], shapes["1+"], shapes["++"]) == ("01", "10", "00")
    back = {v: u for u, v in inclusions(E("111"))["1-1"].items()}
    assert back["+-1"] == "+01"
    assert back["1--"] == "10-"
    assert "1+1" not in back


def test_word_to_the_minimal_cube_examples():
    words = {w: g for w, _sub, _incl, g in sub_bricks(E("11"))}
    assert words["-1"] == W("+")
    assert words["1+"] == W("-")
    assert words["++"] == W("--")


def test_sub_brick_inclusion_examples():
    incl = inclusions(E("11"))
    assert incl["-1"] == {"0+": "-+", "0-": "--", "01": "-1"}
    assert incl["+-"] == {"00": "+-"}
    assert inclusions(E("101"))["10+"] == {"+00": "+0+", "-00": "-0+", "100": "10+"}


def test_embedding_of_top_is_the_cell_itself():
    for n in range(1, 4):
        for eps in all_brick_indices(n):
            for w, sub, incl, _g in sub_bricks(eps):
                assert incl.source is brick(sub) and incl.target is brick(eps)
                assert incl.mapping[min_cube(sub)] == w


def _opposite(w: str, w2: str) -> bool:
    return any({a, b} == {"+", "-"} for a, b in zip(w, w2))


def test_opposite_sign_embeddings_are_disjoint():
    for n in range(1, 4):
        for eps in all_brick_indices(n):
            incl = inclusions(eps)
            for w, w2 in itertools.combinations(incl, 2):
                if _opposite(w, w2):
                    assert not set(incl[w].values()) & set(incl[w2].values())


def _pointwise_meet(w: str, w2: str) -> str:
    order = {"0": 0, "+": 1, "-": 1, "1": 2}
    return "".join(a if order[a] <= order[b] else b for a, b in zip(w, w2))


def test_compatible_embeddings_intersect_along_their_meet():
    for n in range(1, 4):
        for eps in all_brick_indices(n):
            incl = inclusions(eps)
            for w, w2 in itertools.combinations(incl, 2):
                if _opposite(w, w2):
                    continue
                meet = incl[_pointwise_meet(w, w2)]
                assert set(incl[w].values()) & set(incl[w2].values()) == set(meet.values())


def test_inclusions_compose_along_the_order():
    """``w <= w2`` when ``w`` is in the image of ``w2``'s inclusion; the map
    between their sub-bricks is the inclusion of ``w`` followed by the
    inverse of ``w2``'s."""
    for eps in all_brick_indices(3):
        incl = inclusions(eps)
        back = {w: {v: u for u, v in m.items()} for w, m in incl.items()}

        def between(w, w2):
            return {u: back[w2][v] for u, v in incl[w].items()}

        for w in incl:
            for w2 in incl:
                if w == w2 or w not in back[w2]:
                    continue
                for w3 in incl:
                    if w2 == w3 or w2 not in back[w3]:
                        continue
                    lower, upper = between(w, w2), between(w2, w3)
                    assert {k: upper[v] for k, v in lower.items()} == between(w, w3)
