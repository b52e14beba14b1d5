"""Sign-word combinatorics, checked against a generator-rewriting oracle."""

import copy
import itertools
import pickle

import pytest

from cofib.words import (
    BrickCell,
    BrickIndex,
    CubeWord,
    all_brick_indices,
    all_words,
    brick_cells,
    cell_le,
    compose_words,
    embed_cell,
    factor_through,
    inclusion_between,
    inclusion_on_cells,
    word_to_min,
)

W = CubeWord.parse


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
        assert W(str(w)) is w
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


# -- brick cell posets ---------------------------------------------------------


def test_cells_of_the_square_brick():
    po = brick_cells(BrickIndex.parse("11"))
    names = {str(w) for w in po}
    assert names == {"++", "+-", "-+", "--", "+1", "-1", "1+", "1-", "11"}
    assert str(po.top) == "11"


def test_cells_of_degenerate_bricks():
    assert [str(w) for w in brick_cells(BrickIndex.parse("00"))] == ["00"]
    po = brick_cells(BrickIndex.parse("01"))
    assert {str(w) for w in po} == {"0+", "0-", "01"}
    assert str(po.top) == "01"


def test_top_is_maximum():
    for n in range(4):
        for eps in all_brick_indices(n):
            po = brick_cells(eps)
            assert all(po.le(w, po.top) for w in po)


def test_cell_membership_enforced():
    with pytest.raises(ValueError):
        BrickCell.parse("1+", BrickIndex.parse("01"))
    with pytest.raises(ValueError):
        BrickCell.parse("00", BrickIndex.parse("01"))


def test_sub_index_and_meet():
    eps = BrickIndex.parse("11")
    w = BrickCell.parse("-1", eps)
    assert str(w.sub_index()) == "01"
    assert str(w.meet(BrickIndex.parse("01"))) == "01"
    assert str(w.meet(BrickIndex.parse("10"))) == "-0"


def test_word_to_min_examples():
    eps = BrickIndex.parse("11")
    assert word_to_min(BrickCell.parse("-1", eps)) == W("+")
    assert word_to_min(BrickCell.parse("11", eps)) == CubeWord.identity(0)
    assert word_to_min(BrickCell.parse("++", eps)) == W("--")


def test_embed_cell_examples():
    eps = BrickIndex.parse("11")
    w = BrickCell.parse("-1", eps)
    sub = w.sub_index()
    assert str(embed_cell(w, BrickCell.parse("01", sub))) == "-1"
    assert str(embed_cell(w, BrickCell.parse("0+", sub))) == "-+"
    top = BrickCell.parse("11", eps)
    for u in brick_cells(eps):
        assert embed_cell(top, u) == u


def test_embed_cell_rejects_wrong_sub_brick():
    eps = BrickIndex.parse("11")
    w = BrickCell.parse("-1", eps)
    with pytest.raises(ValueError):
        embed_cell(w, BrickCell.parse("+0", BrickIndex.parse("10")))


def test_embedding_of_top_is_the_cell_itself():
    for n in range(1, 4):
        for eps in all_brick_indices(n):
            for w in brick_cells(eps):
                sub_top = brick_cells(w.sub_index()).top
                assert embed_cell(w, sub_top) == w


def test_opposite_sign_embeddings_are_disjoint():
    for n in range(1, 4):
        for eps in all_brick_indices(n):
            cells = list(brick_cells(eps))
            for w, w2 in itertools.combinations(cells, 2):
                if not any(
                    {a, b} == {"+", "-"} for a, b in zip(w.letters, w2.letters)
                ):
                    continue
                im1 = set(inclusion_on_cells(w).values())
                im2 = set(inclusion_on_cells(w2).values())
                assert not im1 & im2


def _pointwise_meet(w: BrickCell, w2: BrickCell) -> BrickCell:
    order = {"0": 0, "+": 1, "-": 1, "1": 2}
    letters = []
    for a, b in zip(w.letters, w2.letters):
        letters.append(a if order[a] <= order[b] else b)
    return BrickCell(tuple(letters), w.epsilon)


def test_compatible_embeddings_intersect_along_their_meet():
    for n in range(1, 4):
        for eps in all_brick_indices(n):
            cells = list(brick_cells(eps))
            for w, w2 in itertools.combinations(cells, 2):
                if any({a, b} == {"+", "-"} for a, b in zip(w.letters, w2.letters)):
                    continue
                meet = _pointwise_meet(w, w2)
                im1 = set(inclusion_on_cells(w).values())
                im2 = set(inclusion_on_cells(w2).values())
                im_meet = set(inclusion_on_cells(meet).values())
                assert im1 & im2 == im_meet


def test_inclusions_compose_along_the_order():
    for eps in all_brick_indices(3):
        cells = list(brick_cells(eps))
        for w in cells:
            for w2 in cells:
                if w == w2 or not cell_le(w, w2):
                    continue
                for w3 in cells:
                    if w2 == w3 or not cell_le(w2, w3):
                        continue
                    lower = inclusion_between(w, w2)
                    upper = inclusion_between(w2, w3)
                    direct = inclusion_between(w, w3)
                    assert {k: upper[v] for k, v in lower.items()} == direct
