"""Codiagonals, lifting solvers, unique-lifting equivalence, colimit identities."""

import random

import pytest
from corpus import (
    arrow_isomorphic_by_all_homs,
    eager_automata_generators,
    pcs_corpus,
    relational_automata,
    shuffled,
)
from hypothesis import given, settings

from cofib import samples
from cofib.automata import (
    AUT_CARRIER,
    automata_generators,
    automaton,
    cofibrant_replacement,
    gen_accept,
    gen_edge,
    gen_source,
)
from cofib.blowup import blowup, brick_generators
from cofib.cells import CellMorphism, LiftingProblem
from cofib.cli import _appendix_aut_inputs, _appendix_pcs_inputs
from cofib.lifting import (
    LiftReport,
    appendix_identity_suite,
    arrow_isomorphic,
    check_composition_identity,
    check_double_codiagonal_iso,
    check_pushout_square,
    check_retract_identity,
    check_sum_identity,
    codiagonal,
    lifting_problems,
    lifting_reports,
    rlp,
    rlp_with_codiagonal,
    solve_lifts,
    unique_rlp,
    unique_rlp_single,
)
from cofib.pcs import PCS_CARRIER, brick, brick_boundary, hom_enumerate, relpcs, tensor
from cofib.words import BrickIndex

E = BrickIndex.parse


def test_codiagonal_of_isomorphism_is_isomorphism():
    P = brick(E("1"))
    nabla = codiagonal(PCS_CARRIER, PCS_CARRIER.identity(P))
    assert PCS_CARRIER.is_isomorphism(nabla)


def test_codiagonal_of_accept_generator_merges_targets():
    f = gen_accept(["a"], "a")
    nabla = codiagonal(AUT_CARRIER, f)
    dom = nabla.source
    assert len(dom.states) == 2 and len(dom.edges) == 1
    assert dom.accepting == dom.states
    cod = nabla.target
    assert len(cod.states) == 1 and len(cod.accepting) == 1


def test_codiagonal_of_source_generator_is_isomorphism():
    nabla = codiagonal(AUT_CARRIER, gen_source(["a"], "a"))
    assert AUT_CARRIER.is_isomorphism(nabla)


def test_double_codiagonal_is_isomorphism_for_all_generators():
    for _name, i in automata_generators("ab", 1, 1).positive:
        assert check_double_codiagonal_iso(AUT_CARRIER, i)
    for _name, i in brick_generators(2).positive:
        assert check_double_codiagonal_iso(PCS_CARRIER, i)


# -- lift solving ----------------------------------------------------------------


def test_lift_against_isomorphism_is_unique():
    carrier = PCS_CARRIER
    B = brick(E("1"))
    i = carrier.identity(B)
    p = carrier.make_morphism(
        samples.circle(), samples.circle(), {"v": "v", "e": "e"}
    )
    for problem in lifting_problems(carrier, i, p):
        assert len(solve_lifts(carrier, problem)) == 1


def test_identity_target_always_lifts():
    carrier = PCS_CARRIER
    gens = brick_generators(1)
    for _name, i in gens.positive:
        p = carrier.identity(samples.circle())
        for problem in lifting_problems(carrier, i, p):
            assert solve_lifts(carrier, problem)


def test_blowup_square_of_the_torus_has_exactly_one_lift():
    torus = samples.one_square_torus()
    result = blowup(torus, 2)
    gens = dict(brick_generators(2).positive)
    i = gens["i_11"]
    problems = list(lifting_problems(PCS_CARRIER, i, result.beta))
    assert problems
    for problem in problems:
        assert len(solve_lifts(PCS_CARRIER, problem)) == 1


def test_unique_rlp_of_identity_holds_even_on_loops():
    # The only filler of a square against an identity is its bottom leg, so
    # identities have the unique lifting property against everything.
    A = samples.loop_a()
    report = unique_rlp(AUT_CARRIER, AUT_CARRIER.identity(A), automata_generators("a"))
    assert report.ok


def test_unique_rlp_failure_produces_witness():
    # collapsing a two-state path onto a loop: the edge fiber over the loop
    # has one edge but the endpoints disagree, so some square has no filler
    loop = samples.loop_a()
    path = samples.path_ab()
    forgetful = automaton("a", ["x"], [], ["x"], ["x"])
    p = AUT_CARRIER.make_morphism(
        forgetful, loop, {("st", "x"): ("st", "v")}
    )
    report = unique_rlp(AUT_CARRIER, p, automata_generators("a"))
    assert not report.ok
    assert report.lift_count == 0
    assert report.generator == "edge(a)"


# -- the unique-lifting equivalence (sampled) --------------------------------------


def test_unique_lift_equivalence_pcs():
    from corpus import pcs_sample_maps as _pcs_sample_maps

    gens = list(brick_generators(1).positive) + list(brick_generators(2).positive)
    checked = 0
    for _pname, p in _pcs_sample_maps():
        for _iname, i in gens:
            assert unique_rlp_single(PCS_CARRIER, p, i) == rlp_with_codiagonal(
                PCS_CARRIER, p, i
            )
            checked += 1
    assert checked >= 100


def test_unique_lift_equivalence_automata():
    from corpus import aut_sample_maps as _aut_sample_maps

    gens = list(automata_generators("ab", 1, 1).positive)
    checked = 0
    for _pname, p in _aut_sample_maps():
        for _iname, i in gens:
            assert unique_rlp_single(AUT_CARRIER, p, i) == rlp_with_codiagonal(
                AUT_CARRIER, p, i
            )
            checked += 1
    assert checked >= 100


# -- two-out-of-three (sampled) ------------------------------------------------------


def test_two_out_of_three_for_unique_lifting():
    gens = automata_generators("ab", 2, 2)

    def is_we(p):
        return unique_rlp(AUT_CARRIER, p, gens).ok

    A = samples.loop_ab()
    res = cofibrant_replacement(A)
    beta = res.beta
    res2 = cofibrant_replacement(res.replacement)
    beta2 = res2.beta
    samples_checked = 0
    for g, f in [(beta2, beta), (AUT_CARRIER.identity(res.replacement), beta)]:
        comp = g.then(f)
        w_comp, w_f, w_g = is_we(comp), is_we(f), is_we(g)
        if w_comp and w_f:
            assert w_g
        if w_comp and w_g:
            assert w_f
        if w_f and w_g:
            assert w_comp
        samples_checked += 1
    assert samples_checked >= 2


# -- colimit identities ----------------------------------------------------------------


def test_sum_identity_examples():
    a = gen_edge(["a", "b"], "a")
    b = gen_accept(["a", "b"], "b")
    assert check_sum_identity(AUT_CARRIER, [a, b])
    gens = brick_generators(1)
    assert check_sum_identity(PCS_CARRIER, [gens.positive[0][1], gens.positive[1][1]])


def test_pushout_square_example():
    i1 = gen_accept(["a"], "a")
    loop = samples.loop_a()
    f = AUT_CARRIER.hom(i1.source, loop)[0]
    assert check_pushout_square(AUT_CARRIER, i1, f)
    gens = brick_generators(1)
    i_sub = dict(gens.positive)["i_1"]
    circle_blowup = blowup(samples.circle(), 1)
    for f in hom_enumerate(i_sub.source, circle_blowup.blowup):
        assert check_pushout_square(PCS_CARRIER, i_sub, f)


def test_composition_identity_example():
    i1 = gen_edge(["a"], "a")
    i2 = gen_accept(["a"], "a")
    assert check_composition_identity(AUT_CARRIER, i1, i2)
    boundary = brick_boundary(E("1"))
    i_a = PCS_CARRIER.initial_morphism(boundary)
    i_b = dict(brick_generators(1).positive)["i_1"]
    assert check_composition_identity(PCS_CARRIER, i_a, i_b)


def test_retract_identity_examples():
    for _name, i in automata_generators("a", 1, 1).positive:
        assert check_retract_identity(AUT_CARRIER, i)


def test_appendix_suite_counts():
    gens = automata_generators("ab", 1, 1)
    sample = list(gens.positive)
    report = appendix_identity_suite(AUT_CARRIER, sample)
    assert report.ok
    assert report.double_codiagonal_iso == len(sample)
    assert report.sum_identity == len(sample) - 1


def test_copair_rejects_legs_that_disagree():
    """The two legs send the glued vertex to different cells, so no map out
    of the pushout restricts to both."""
    point = relpcs(0, {0: ["v"]}, {})
    two = relpcs(0, {0: ["v", "w"]}, {})
    incl = PCS_CARRIER.make_morphism(point, two, {"v": "v"})
    swap = PCS_CARRIER.make_morphism(two, two, {"v": "w", "w": "v"})
    _pushout, j1, j2 = PCS_CARRIER.pushout(incl, incl)
    with pytest.raises(ValueError, match="legs send"):
        PCS_CARRIER.copair([j1, j2], [PCS_CARRIER.identity(two), swap])
    fold = PCS_CARRIER.copair([j1, j2], [swap, swap])
    assert j1.then(fold).mapping == swap.mapping == j2.then(fold).mapping


def _arrow_isomorphic_agrees(carrier, f, g) -> bool:
    want = arrow_isomorphic_by_all_homs(carrier, f, g)
    assert arrow_isomorphic(carrier, f, g) == want
    return want


def shuffled_arrow(carrier, f, rng) -> CellMorphism:
    """An arrow isomorphic to ``f``: both ends shuffled copies."""
    dom, on_dom = shuffled(carrier, f.source, rng)
    cod, on_cod = shuffled(carrier, f.target, rng)
    return CellMorphism(dom, cod, {on_dom[a]: on_cod[b] for a, b in f.mapping.items()})


def test_arrow_isomorphic_matches_the_oracle_on_the_appendix_sums():
    """``nabla(f1 + f2)`` against ``nabla f1 + nabla f2`` and against
    ``nabla f2 + nabla f1``, over every pair of the appendix sample: all
    isomorphic, the second through the swap of summands."""
    found = tried = 0
    for carrier, sample, _composable, _spans in (_appendix_pcs_inputs(), _appendix_aut_inputs()):
        maps = [f for _name, f in sample]
        for f1 in maps:
            for f2 in maps:
                nabla_sum = codiagonal(carrier, carrier.sum([f1, f2])[0])
                for parts in ([f1, f2], [f2, f1]):
                    sum_nabla = carrier.sum([codiagonal(carrier, f) for f in parts])[0]
                    found += _arrow_isomorphic_agrees(carrier, nabla_sum, sum_nabla)
                    found += _arrow_isomorphic_agrees(carrier, sum_nabla, nabla_sum)
                    tried += 2
    assert found == tried == 4 * (3 * 3 + 12 * 12)


def test_arrow_isomorphic_matches_the_oracle_on_generator_pairs():
    """Generators and codiagonals are pairwise non-isomorphic arrows; each
    is isomorphic to its shuffled copy."""
    rng = random.Random(1719)
    found = 0
    for carrier, gens in ((AUT_CARRIER, automata_generators("ab", 1, 1)),
                          (PCS_CARRIER, brick_generators(2))):
        maps = [f for _name, f in gens.positive + gens.codiagonals]
        for f in maps:
            for g in maps:
                found += _arrow_isomorphic_agrees(carrier, f, g)
            assert _arrow_isomorphic_agrees(carrier, f, shuffled_arrow(carrier, f, rng))
    assert found == 24 + 8


def test_arrow_isomorphic_matches_the_oracle_on_maps_with_the_same_ends():
    """Every pair of maps between the same two small objects: the ends are
    isomorphic, so the square alone decides."""
    found = tried = 0
    for carrier, sources, targets in (
        (PCS_CARRIER, [brick(E(e)) for e in ("0", "1", "01")],
         [P for _name, P, _n in pcs_corpus() if P.n_cubes() <= 9]),
        (AUT_CARRIER, [f.target for _name, f in automata_generators("ab", 1, 1).positive],
         [builder() for builder in samples.AUT_SAMPLES.values()]),
    ):
        for X in sources:
            for Y in targets:
                maps = carrier.hom(X, Y)
                for f in maps:
                    for g in maps:
                        found += _arrow_isomorphic_agrees(carrier, f, g)
                        tried += 1
    assert found > 100 and tried - found > 100, (found, tried)


# -- universal property of automata colimits ---------------------------------------------


def test_automata_pushout_universal_property():
    carrier = AUT_CARRIER
    i = gen_accept(["a"], "a")
    loop = samples.loop_a()
    attach = carrier.hom(i.source, loop)[0]
    pushed, from_cod, from_loop = carrier.pushout(i, attach)
    X = samples.loop_a()
    for u in carrier.hom(i.target, X):
        for v in carrier.hom(loop, X):
            if i.then(u).mapping != attach.then(v).mapping:
                continue
            mediators = [
                w
                for w in carrier.hom(pushed, X)
                if from_cod.then(w).mapping == u.mapping
                and from_loop.then(w).mapping == v.mapping
            ]
            assert len(mediators) == 1


def test_quotient_label_conflicts_rejected():
    A = samples.path_ab()
    with pytest.raises(ValueError):
        AUT_CARRIER.quotient(A, [(("ed", "e0"), ("ed", "e1"))])


def test_coproduct_universal_property_both_carriers():
    B1, B2 = brick(E("1")), brick(E("0"))
    total, (in1, in2) = PCS_CARRIER.coproduct([B1, B2])
    X = samples.circle()
    for u in hom_enumerate(B1, X):
        for v in hom_enumerate(B2, X):
            mediators = [
                w
                for w in hom_enumerate(total, X)
                if in1.then(w).mapping == u.mapping
                and in2.then(w).mapping == v.mapping
            ]
            assert len(mediators) == 1

    A1, A2 = samples.loop_a(), samples.path_ab()
    total, (in1, in2) = AUT_CARRIER.coproduct([A1, A2])
    X = samples.loop_ab()
    for u in AUT_CARRIER.hom(A1, X):
        for v in AUT_CARRIER.hom(A2, X):
            mediators = [
                w
                for w in AUT_CARRIER.hom(total, X)
                if in1.then(w).mapping == u.mapping
                and in2.then(w).mapping == v.mapping
            ]
            assert len(mediators) == 1


# -- bottom-first square enumeration against the tops-first oracle -------------------


def tops_first_squares(carrier, i, p):
    """Every commuting square as ``(top, bottom)``: each top leg in hom
    order, then each bottom leg that agrees with ``p . top`` on the image
    of ``i``, in hom order.  The enumeration ``lifting_problems`` replaced,
    kept as its oracle."""
    for top in carrier.hom(i.source, p.source):
        fixed: dict = {}
        for a, v in top.mapping.items():
            if fixed.setdefault(i.mapping[a], p.mapping[v]) != p.mapping[v]:
                break
        else:
            for bottom in carrier.hom(i.target, p.target, fixed=fixed):
                yield top, bottom


def tops_first_check(carrier, p, morphisms, unique):
    """``_lift_check`` over the oracle's squares."""
    checked = 0
    for name, i in morphisms:
        for top, bottom in tops_first_squares(carrier, i, p):
            problem = LiftingProblem(i, p, top, bottom)
            checked += 1
            n = len(solve_lifts(carrier, problem))
            if n == 0 or (unique and n > 1):
                return LiftReport(False, checked, problem, n, name)
    return LiftReport(True, checked)


def _report(report):
    failure = report.failure
    legs = None
    if failure is not None:
        legs = (failure.i.mapping, failure.top.mapping, failure.bottom.mapping)
    return report.ok, report.checked, report.generator, report.lift_count, legs


def random_replacements(count: int = 40):
    """``(p, generators)`` for the replacement maps of seeded random automata."""
    from corpus import random_automaton

    rng = random.Random(4100)
    out = []
    for _ in range(count):
        A = random_automaton(rng, max_states=4, max_edges=5, alphabet="ab")
        res = cofibrant_replacement(A)
        out.append((res.beta, automata_generators(A.alphabet | res.replacement.alphabet)))
    return out


def lifting_corpus():
    """``(name, carrier, p, generators)``: blowup maps of small tori,
    cylinders and wedges, replacement maps of seeded random automata, and
    maps that fail to lift."""
    from corpus import cycle, path, pcs_sample_maps, wedge

    out = []
    spaces = [
        (f"C{a}xC{b}", tensor(cycle(a), cycle(b)), 2) for a, b in [(1, 1), (1, 3), (2, 2), (2, 3)]
    ]
    spaces += [("C2xP2", tensor(cycle(2), path(2)), 2), ("C1xP1", tensor(cycle(1), path(1)), 2)]
    spaces += [(f"wedge{k}", wedge(k), n) for k in (1, 2, 3) for n in (1, 2)]
    for name, P, n in spaces:
        out.append((f"beta[{name}]", PCS_CARRIER, blowup(P, n).beta, brick_generators(n)))
    for name, p in pcs_sample_maps():
        out.append((name, PCS_CARRIER, p, brick_generators(2)))
    circle = samples.circle()
    _two, legs = PCS_CARRIER.coproduct([circle, circle])
    fold = PCS_CARRIER.copair(legs, [PCS_CARRIER.identity(circle)] * 2)
    out.append(("fold two circles", PCS_CARRIER, fold, brick_generators(1)))
    for k, (p, gens) in enumerate(random_replacements()):
        out.append((f"beta[random {k}]", AUT_CARRIER, p, gens))
    loop = samples.loop_a()
    forgetful = automaton("a", ["x"], [], ["x"], ["x"])
    p = AUT_CARRIER.make_morphism(forgetful, loop, {("st", "x"): ("st", "v")})
    out.append(("forgetful", AUT_CARRIER, p, automata_generators("a")))
    return out


def test_bottom_first_squares_match_tops_first_oracle():
    squares = glued = failed = 0
    for name, carrier, p, gens in lifting_corpus():
        for _iname, i in gens.positive + gens.codiagonals:
            got = [(s.top.mapping, s.bottom.mapping) for s in lifting_problems(carrier, i, p)]
            want = [(t.mapping, b.mapping) for t, b in tops_first_squares(carrier, i, p)]
            assert got == want, name
            squares += len(got)
            glued += len(got) if not i.is_injective() else 0
        reports = [unique_rlp(carrier, p, gens), rlp(carrier, p, gens.codiagonals)]
        want = [
            tops_first_check(carrier, p, gens.positive, True),
            tops_first_check(carrier, p, gens.codiagonals, False),
        ]
        shared = lifting_reports(carrier, p, gens)
        assert [*map(_report, reports)] == [*map(_report, want)] == [*map(_report, shared)], name
        failed += sum(not report.ok for report in reports)
    assert squares > 1000 and glued > 100 and failed >= 2


def test_lift_check_makes_two_hom_calls_per_square(monkeypatch):
    """One search for the bottom legs of each generator, then per square
    one for its top legs and one for its fillers."""
    from corpus import cycle

    maps = [(AUT_CARRIER, p, gens) for p, gens in random_replacements()]
    for a in range(1, 5):
        for b in range(a, 16 // a + 1):
            maps.append((PCS_CARRIER, blowup(tensor(cycle(a), cycle(b)), 2).beta, brick_generators(2)))
    calls = 0
    for carrier, p, gens in maps:
        original = type(carrier).hom

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(type(carrier), "hom", counted)
            calls = 0
            report = unique_rlp(carrier, p, gens)
            assert report.ok and calls <= len(gens.positive) + 2 * report.checked
            calls = 0
            report = rlp(carrier, p, gens.codiagonals)
            assert report.ok and calls <= len(gens.codiagonals) + 2 * report.checked


# -- one bottom-leg search per generator, codiagonals on demand ------------------------


def eager_reports(carrier, p, gens):
    """The oracle of ``lifting_reports``: each check searches its own bottom
    legs, and every codiagonal is built up front."""
    nablas = [(gens.nabla_name.format(n), codiagonal(carrier, f)) for n, f in gens.positive]
    return unique_rlp(carrier, p, gens), rlp(carrier, p, nablas)


def assert_same_reports(carrier, p, gens, name, oracle=None):
    """``lifting_reports`` against ``gens`` equals ``eager_reports``
    against ``oracle`` (``gens`` by default), failing square included."""
    got = lifting_reports(carrier, p, gens)
    want = eager_reports(carrier, p, gens if oracle is None else oracle)
    assert got == want, name
    return got


def test_lifting_reports_match_the_eager_checks_on_corpus_blowups_and_automata():
    from corpus import automata_corpus, pcs_corpus, pcs_sample_maps

    for name, P, n in pcs_corpus():
        assert_same_reports(PCS_CARRIER, blowup(P, n).beta, brick_generators(n), name)
    circle = samples.circle()
    _two, legs = PCS_CARRIER.coproduct([circle, circle])
    fold = PCS_CARRIER.copair(legs, [PCS_CARRIER.identity(circle)] * 2)
    failed = 0
    for name, p in pcs_sample_maps() + [("fold two circles", fold)]:
        for n in (1, 2):
            unique, codiag = assert_same_reports(PCS_CARRIER, p, brick_generators(n), name)
            failed += (not unique.ok) + (not codiag.ok)
    assert failed >= 4
    for k, A in enumerate(automata_corpus(25)):
        res = cofibrant_replacement(A)
        alphabet = A.alphabet | res.replacement.alphabet
        oracle = eager_automata_generators(alphabet)
        assert_same_reports(AUT_CARRIER, res.beta, automata_generators(alphabet), k, oracle)


def test_lifting_reports_match_the_eager_checks_on_the_failing_witness_map():
    loop = samples.loop_a()
    forgetful = automaton("a", ["x"], [], ["x"], ["x"])
    p = AUT_CARRIER.make_morphism(forgetful, loop, {("st", "x"): ("st", "v")})
    unique, _codiag = assert_same_reports(AUT_CARRIER, p, automata_generators("a"), "forgetful")
    assert not unique.ok and unique.generator == "edge(a)" and unique.lift_count == 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(relational_automata(4, 5))
def test_lifting_reports_match_the_eager_checks_on_generated_automata(A):
    # the shared generators against the eager ones built afresh
    gens, oracle = automata_generators("ab"), eager_automata_generators("ab")
    res = cofibrant_replacement(A)
    assert_same_reports(AUT_CARRIER, res.beta, gens, "beta", oracle)
    # gluing two states usually breaks lifting: failures must agree too
    states = sorted(c for c in AUT_CARRIER.cells(A) if c[0] == "st")
    if len(states) >= 2:
        _quotient, fold = AUT_CARRIER.quotient(A, [tuple(states[:2])])
        assert_same_reports(AUT_CARRIER, fold, gens, "fold", oracle)
