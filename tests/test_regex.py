"""Regex parsing, the recursive word-set oracle, and the compiler."""

import hashlib
import json
import random
import time
from dataclasses import fields, make_dataclass
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import is_simple
from cofib import samples
from cofib.automata import AUT_CARRIER, RelAutomaton, check_conditions, language_upto, to_json_dict
from cofib.pcs import FormatError
from cofib.regex import (
    Concat,
    Empty,
    Epsilon,
    Lit,
    Star,
    Union,
    compile_regex,
    kleene_fuzz,
    literals,
    parse,
    random_regex,
    regex_lang_upto,
)


def words(ws):
    return sorted("".join(w) for w in ws)


# -- parsing --------------------------------------------------------------------


def test_parse_basic_forms():
    assert parse("a") == Lit("a")
    assert parse("ab") == Concat(Lit("a"), Lit("b"))
    assert parse("a|b") == Union(Lit("a"), Lit("b"))
    assert parse("a*") == Star(Lit("a"))
    assert parse("(a|b)c") == Concat(Union(Lit("a"), Lit("b")), Lit("c"))
    assert parse("∅") == Empty()
    assert parse("ε") == Epsilon()


def test_parse_precedence():
    assert parse("ab|c") == Union(Concat(Lit("a"), Lit("b")), Lit("c"))
    assert parse("ab*") == Concat(Lit("a"), Star(Lit("b")))


def test_parse_ascii_aliases():
    assert parse("0", ascii_aliases=True) == Empty()
    assert parse("()", ascii_aliases=True) == Epsilon()
    assert parse("0") == Lit("0")
    with pytest.raises(FormatError):
        parse("()")


def test_deep_nesting_needs_no_recursion():
    chain = parse("a" * 1100)
    assert literals(chain) == {"a"}
    assert str(chain) == "(" * 1099 + "a" + "a)" * 1099
    deep_union = parse("(∅|" * 600 + "a" + ")" * 600)
    assert words(language_upto(compile_regex(deep_union, "ab"), 3)) == ["a"]


def test_deep_trees_compare_hash_and_evaluate_without_recursion():
    chain, again = parse("a" * 1100), parse("a" * 1100)
    assert chain == again and hash(chain) == hash(again)
    assert chain != parse("a" * 1099 + "b") and chain != parse("a" * 1099)
    assert regex_lang_upto(chain, 2) == set()
    assert regex_lang_upto(parse("a" * 1100), 1100) == {("a",) * 1100}


# The regex nodes as plain dataclasses, with the generated (recursive) repr,
# equality and hash: the oracle for the explicit-stack ones.
_PLAIN = {
    cls: make_dataclass(cls.__name__, [f.name for f in fields(cls)], frozen=True)
    for cls in (Empty, Epsilon, Lit, Union, Concat, Star)
}


def _plain(r):
    if type(r) in _PLAIN:
        return _PLAIN[type(r)](*(_plain(getattr(r, f.name)) for f in fields(r)))
    return r


def test_repr_is_the_generated_dataclass_repr():
    assert repr(Concat(Star(Lit("a")), Epsilon())) == (
        "Concat(left=Star(inner=Lit(char='a')), right=Epsilon())"
    )
    rng = random.Random(17)
    for _ in range(300):
        r = random_regex(rng, rng.randint(0, 5), ("a", "b"))
        assert repr(r) == repr(_plain(r))


def test_repr_of_deep_tree_needs_no_recursion():
    chain = parse("a" * 1100)
    assert repr(chain) == (
        "Concat(left=" * 1099 + "Lit(char='a')" + ", right=Lit(char='a'))" * 1099
    )
    short = parse("a" * 30)
    assert repr(short) == repr(_plain(short))


def test_structural_equality_matches_the_dataclass_fields():
    a, b = Lit("a"), Lit("b")
    assert Concat(a, b) == Concat(Lit("a"), Lit("b"))
    assert hash(Concat(a, b)) == hash(Concat(Lit("a"), Lit("b")))
    assert Union(a, b) != Concat(a, b) and Union(a, b) != Union(b, a)
    assert Star(a) != a and a != Star(a) and Star(a) != Star(Star(a))
    assert Star(Empty()) == Star(Empty()) and Star(Empty()) != Star(Epsilon())
    assert len({parse("a|b*"), parse("(a)|(b)*"), parse("a|b")}) == 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_text_round_trip_equality_and_hash_agree_with_plain_dataclasses(rng):
    """Ten draws of depth 0-8: each reads back from its text, and on every
    ordered pair of a draw and a read-back copy ``==`` agrees with the
    plain dataclasses, and equal trees hash alike."""
    draws = [random_regex(rng, rng.randint(0, 8), ("a", "b")) for _ in range(10)]
    copies = [parse(str(r)) for r in draws]
    for r, copy in zip(draws, copies):
        assert copy == r and copy is not r
    for r in draws:
        for s in copies:
            assert (r == s) == (_plain(r) == _plain(s)), (str(r), str(s))
            if r == s:
                assert hash(r) == hash(s)


def test_parse_errors():
    with pytest.raises(FormatError):
        parse("(a")
    with pytest.raises(FormatError):
        parse("a)")
    with pytest.raises(FormatError):
        parse("*a")


# -- recursive semantics -----------------------------------------------------------


def test_oracle_examples():
    assert words(regex_lang_upto(parse("a|b"), 1)) == ["a", "b"]
    assert words(regex_lang_upto(parse("(ab)*"), 4)) == ["", "ab", "abab"]
    assert words(regex_lang_upto(parse("(a|b)*a"), 2)) == ["a", "aa", "ba"]


def test_oracle_star_of_empty_is_epsilon():
    assert regex_lang_upto(Star(Empty()), 5) == {()}


def test_oracle_length_pruning():
    lang = regex_lang_upto(parse("a*"), 3)
    assert words(lang) == ["", "a", "aa", "aaa"]


def test_oracle_star_of_a_star_stops_at_the_length_limit():
    """The outer star composes only words that fit within ``L``, instead of
    pairing every word of the inner star with every other, which takes
    seconds at L = 12."""
    start = time.process_time()
    lang = regex_lang_upto(parse("((a|b)*)*"), 12)
    assert time.process_time() - start < 5.0
    assert lang == regex_lang_upto(parse("(a|b)*"), 12)
    assert len(lang) == 8191


# -- compiler ------------------------------------------------------------------------


def test_compile_literal():
    A = compile_regex(parse("a"), "ab")
    assert words(language_upto(A, 2)) == ["a"]


def test_compile_star_of_empty():
    A = compile_regex(parse("∅*"), "ab")
    assert words(language_upto(A, 3)) == [""]


def test_compile_concat_of_stars_rejects_interleavings():
    A = compile_regex(parse("a*b*"), "ab")
    lang = language_upto(A, 3)
    assert words(lang) == ["", "a", "aa", "aaa", "aab", "ab", "abb", "b", "bb", "bbb"]
    assert ("b", "a") not in language_upto(A, 8)


def test_naive_glue_accepts_the_interleaving():
    naive = samples.loop_ab()
    assert ("b", "a") in language_upto(naive, 2)


def test_compile_double_star():
    A = compile_regex(parse("a**"), "ab")
    assert words(language_upto(A, 3)) == ["", "a", "aa", "aaa"]


def test_compile_epsilon_concat():
    # left language is exactly the empty word: gluing is vacuous and the
    # right language must come through the extra summand
    A = compile_regex(parse("εb"), "ab")
    assert words(language_upto(A, 3)) == ["b"]


def test_compile_concat_with_empty_language():
    A = compile_regex(Concat(Empty(), Lit("b")), "ab")
    assert language_upto(A, 4) == set()
    B = compile_regex(Concat(Lit("b"), Empty()), "ab")
    assert language_upto(B, 4) == set()


def test_compile_union_with_empty():
    A = compile_regex(parse("∅|a"), "ab")
    assert words(language_upto(A, 2)) == ["a"]


def test_compiled_automata_are_finite_and_simple():
    for text in ["a*b*", "(a|b)*", "(ab)*a", "ε|ab"]:
        A = compile_regex(parse(text), "ab")
        assert len(A.states) < 40
        assert is_simple(A)


def test_normalized_compile_outputs_satisfy_conditions():
    from cofib.automata import normalize

    for text in ["a*b*", "(a|b)*", "a(b|a)*b"]:
        A = compile_regex(parse(text), "ab")
        N = normalize(A).automaton
        assert check_conditions(N)[0]
        assert len(N.initial) == 1


def test_fuzz_corner_cases():
    report = kleene_fuzz(seed=1, count=30, depth=0, L=4)
    assert report.ok


def test_fuzz_small_batch():
    report = kleene_fuzz(seed=3, count=60, depth=3, L=6)
    assert report.ok, report.mismatches


def test_random_regex_depth_zero_is_leaf():
    rng = random.Random(0)
    for _ in range(20):
        r = random_regex(rng, 0, ("a", "b"))
        assert isinstance(r, (Lit, Epsilon, Empty))


def _size(r):
    if isinstance(r, (Empty, Epsilon, Lit)):
        return 1
    if isinstance(r, Star):
        return 1 + _size(r.inner)
    return 1 + _size(r.left) + _size(r.right)


@cache
def _seed99_sample():
    """400 random expressions of depth 4, each with its compiled automaton."""
    rng = random.Random(99)
    sample = [random_regex(rng, 4, ("a", "b")) for _ in range(400)]
    return [(r, compile_regex(r, "ab")) for r in sample]


def test_empirical_state_bound():
    # regression bound measured on this exact sample (see README table);
    # only finiteness is guaranteed, the linear factor is empirical
    for r, A in _seed99_sample():
        states = len(A.states)
        assert states <= 3 * _size(r) + 2, (str(r), states)


def test_compiled_bytes_are_pinned():
    # `rx compile` prints to_json_dict of the compiled automaton, so a
    # changed digest means changed CLI bytes on these 400 expressions
    digest = hashlib.sha256()
    for _r, A in _seed99_sample():
        digest.update(json.dumps(to_json_dict(A), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == (
        "86d8fe8276fcd761ebd25593f0a68e19e2dcbeb2b49cbddec723e76025952745"
    )


def test_compiled_json_of_depths_zero_to_six_is_pinned():
    # 300 draws, depths 0-6 in turn, each automaton's JSON in the key order
    # `to_json_dict` gives; a one-pass chain compilation that changes the
    # `rx compile` bytes re-records this digest on purpose
    rng = random.Random(2029)
    digest = hashlib.sha256()
    for k in range(300):
        r = random_regex(rng, k % 7, "ab")
        digest.update(json.dumps(to_json_dict(compile_regex(r, "ab"))).encode() + b"\n")
    assert digest.hexdigest() == (
        "f33dda41010bfccf65333224d765b2bce64c3847f77afa572ae92f81347ec6b6"
    )


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_compiling_a_chain_builds_one_automaton_per_literal_and_concatenation(monkeypatch, k):
    # a concatenation reads both normal forms as tables, so it builds
    # only its result
    built = []
    init = RelAutomaton.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    r = parse("a" * k)
    monkeypatch.setattr(RelAutomaton, "__init__", spy)
    A = compile_regex(r, "ab")
    assert len(built) == k + (k - 1) and built[-1] is A


def test_compile_builds_no_projection(monkeypatch):
    # normalization reads only the replacement, never its projection
    def refuse(*args, **kwargs):
        raise AssertionError("compile_regex built a morphism")

    monkeypatch.setattr(AUT_CARRIER, "make_morphism", refuse)
    for text in ["a*b*", "(a|b)*a", "(ab)*|ε", "a(b|a)*b", "εb"]:
        r = parse(text)
        assert language_upto(compile_regex(r, "ab"), 5) == regex_lang_upto(r, 5)
