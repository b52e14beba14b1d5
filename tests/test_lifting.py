"""Codiagonals, lifting solvers, unique-lifting equivalence, colimit identities."""

import random
from collections import Counter

import pytest
from corpus import (
    arrow_isomorphic_by_all_homs,
    automata_corpus,
    blowup_script,
    cycle,
    eager_automata_generators,
    pcs_corpus,
    pinned_solve_lifts,
    pushout_replay,
    relational_automata,
    relational_pcs,
    restrict,
    shuffled,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cofib import samples
from cofib.automata import (
    AUT_CARRIER,
    RelAutomaton,
    automata_generators,
    automaton,
    cofibrant_replacement,
    gen_accept,
    gen_edge,
    gen_source,
)
from cofib.blowup import blowup, brick_generators, verify_blowup
from cofib.cells import Carrier, CellMorphism, LiftingProblem
from cofib.lifting import (
    APPENDIX_CHECKS,
    Attachment,
    GeneratorSet,
    LiftReport,
    appendix_identity_suite,
    arrow_isomorphic,
    check_composition_identity,
    check_double_codiagonal_iso,
    check_pushout_square,
    check_retract_identity,
    check_sum_identity,
    codiagonal,
    filler_table,
    induced_on_self_pushouts,
    lifting_problems,
    lifting_reports,
    replay,
    rlp,
    solve_lifts,
    unique_lift_sides,
    unique_rlp,
)
from cofib.pcs import PCS_CARRIER, RelPCS, brick, brick_boundary, hom_enumerate, min_cube, relpcs, tensor
from cofib.words import BrickIndex, all_brick_indices

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
    report = unique_rlp(AUT_CARRIER, AUT_CARRIER.identity(A), automata_generators("a").positive)
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
    report = unique_rlp(AUT_CARRIER, p, automata_generators("a").positive)
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
            left, right = unique_lift_sides(PCS_CARRIER, p, i)
            assert left == right
            checked += 1
    assert checked >= 100


def test_unique_lift_equivalence_automata():
    from corpus import aut_sample_maps as _aut_sample_maps

    gens = list(automata_generators("ab", 1, 1).positive)
    checked = 0
    for _pname, p in _aut_sample_maps():
        for _iname, i in gens:
            left, right = unique_lift_sides(AUT_CARRIER, p, i)
            assert left == right
            checked += 1
    assert checked >= 100


def test_unique_lifting_against_the_codiagonals_agrees_with_lifting_on_passing_maps():
    """A map with unique lifting against the generators has it against
    their codiagonals too, so there both checks give one report."""
    cases = [(AUT_CARRIER, p, gens) for p, gens in random_replacements(5)]
    cases.append((PCS_CARRIER, blowup(samples.one_square_torus(), 2).beta, brick_generators(2)))
    for carrier, p, gens in cases:
        assert unique_rlp(carrier, p, gens.positive).ok
        report = unique_rlp(carrier, p, gens.codiagonals)
        assert report.ok and report.checked > 0 and report == rlp(carrier, p, gens.codiagonals)


# -- two-out-of-three (sampled) ------------------------------------------------------


def test_two_out_of_three_for_unique_lifting():
    gens = automata_generators("ab", 2, 2)

    def is_we(p):
        return unique_rlp(AUT_CARRIER, p, gens.positive).ok

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
    for carrier, cases in samples.appendix_cases().values():
        report = appendix_identity_suite(carrier, cases)
        assert report.ok
        assert report.counts == Counter(identity for identity, _label, _args in cases)
        assert set(report.counts) == set(APPENDIX_CHECKS)


def test_lemma_rows_include_maps_without_unique_lifting():
    """Every lemma row checks a square on both sides: unique lifting
    against ``i``, and lifting against ``i`` and its codiagonal.  The
    sides agree, and in each carrier both verdicts occur, so a row can
    fail: no unique lift for the fold of two one-square tori against five
    of the six PCS generators and for β of the torus's blowup against
    ``i_0``, nor for the fold of two copies of ``loop_ab`` against ten of
    the twelve automata generators."""
    want = {"pcs": {(True, True): 6, (False, False): 6}, "automata": {(True, True): 14, (False, False): 10}}
    for name, (carrier, cases) in samples.appendix_cases().items():
        sides = Counter()
        lemma = [(label, *args) for identity, label, args in cases if identity == "unique_lift_equivalence"]
        for label, p, i in lemma:
            unique = unique_rlp(carrier, p, [("i", i)])
            plain = rlp(carrier, p, [("i", i), ("nabla i", codiagonal(carrier, i))])
            assert unique.checked > 0 and plain.checked > 0, label
            assert (unique.ok, plain.ok) == unique_lift_sides(carrier, p, i), label
            sides[unique.ok, plain.ok] += 1
        assert sides == want[name], name


def test_unique_lifting_lemma_on_squares_in_two_dimensions():
    """β of the torus's blowup and the fold of two tori, against the
    generators of n = 2: every row checks a square, the two sides agree,
    and both verdicts occur (the fold has two fillers for some squares)."""
    torus = samples.one_square_torus()
    fold = PCS_CARRIER.copair(PCS_CARRIER.coproduct([torus, torus])[1], [PCS_CARRIER.identity(torus)] * 2)
    sides = set()
    for p in (blowup(torus, 2).beta, fold):
        for name, i in brick_generators(2).positive:
            assert unique_rlp(PCS_CARRIER, p, [(name, i)]).checked > 0, name
            left, right = unique_lift_sides(PCS_CARRIER, p, i)
            assert left == right, name
            sides.add((left, right))
    assert sides == {(True, True), (False, False)}


def test_induced_on_self_pushouts_rejects_a_square_that_does_not_commute():
    """``id`` then ``id`` against ``swap`` then ``id`` on two points: the
    copair alone would accept it, since the self-pushout of an identity
    glues every cell."""
    two = relpcs(0, {0: ["v", "w"]}, {})
    ident = PCS_CARRIER.identity(two)
    swap = PCS_CARRIER.make_morphism(two, two, {"v": "w", "w": "v"})
    with pytest.raises(ValueError, match="does not commute"):
        induced_on_self_pushouts(PCS_CARRIER, ident, ident, swap, ident)
    induced = induced_on_self_pushouts(PCS_CARRIER, ident, ident, swap, swap)
    assert PCS_CARRIER.is_isomorphism(induced)


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
    for carrier, cases in samples.appendix_cases().values():
        maps = [args[0] for identity, _label, args in cases if identity == "double_codiagonal_iso"]
        for f1 in maps:
            for f2 in maps:
                nabla_sum = codiagonal(carrier, carrier.sum([f1, f2])[0])
                for parts in ([f1, f2], [f2, f1]):
                    sum_nabla = carrier.sum([codiagonal(carrier, f) for f in parts])[0]
                    found += _arrow_isomorphic_agrees(carrier, nabla_sum, sum_nabla)
                    found += _arrow_isomorphic_agrees(carrier, sum_nabla, nabla_sum)
                    tried += 2
    assert found == tried == 4 * (6 * 6 + 12 * 12)


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
            fillers = pinned_solve_lifts(carrier, problem)
            if not fillers or (unique and len(fillers) > 1):
                return LiftReport(False, checked, problem, len(fillers), name, fillers)
    return LiftReport(True, checked)


def _report(report):
    failure = report.failure
    legs = fillers = None
    if failure is not None:
        legs = (failure.i.mapping, failure.top.mapping, failure.bottom.mapping)
        fillers = [h.mapping for h in report.fillers]
    return report.ok, report.checked, report.generator, report.lift_count, legs, fillers


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
            glued += len(got) if len(set(i.mapping.values())) < len(i.mapping) else 0
        reports = [unique_rlp(carrier, p, gens.positive), rlp(carrier, p, gens.codiagonals)]
        want = [
            tops_first_check(carrier, p, gens.positive, True),
            tops_first_check(carrier, p, gens.codiagonals, False),
        ]
        shared = lifting_reports(carrier, p, gens)
        assert [*map(_report, reports)] == [*map(_report, want)] == [*map(_report, shared)], name
        failed += sum(not report.ok for report in reports)
    assert squares > 1000 and glued > 100 and failed >= 2


def test_lift_check_makes_two_hom_calls_per_square(monkeypatch):
    """Per generator one search for its bottom legs and, at its first
    square, one for its fillers; per bottom leg one for its top legs.  So
    at most two calls per generator and one per square."""
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
            report = unique_rlp(carrier, p, gens.positive)
            assert report.ok and calls <= 2 * len(gens.positive) + report.checked
            calls = 0
            report = rlp(carrier, p, gens.codiagonals)
            assert report.ok and calls <= 2 * len(gens.codiagonals) + report.checked


def test_codiagonal_check_makes_no_filler_search_of_its_own(monkeypatch):
    """``lifting_reports`` searches ``hom(cod f, dom p)`` once for each
    generator ``f`` with a square, and its codiagonal's check reads those
    rows: searching them again would double the count."""
    from corpus import cycle

    circle = samples.circle()
    _two, legs = PCS_CARRIER.coproduct([circle, circle])
    fold = PCS_CARRIER.copair(legs, [PCS_CARRIER.identity(circle)] * 2)
    maps = [(AUT_CARRIER, p, gens) for p, gens in random_replacements(15)]
    maps += [(PCS_CARRIER, blowup(tensor(cycle(2), cycle(3)), 2).beta, brick_generators(2))]
    maps += [(PCS_CARRIER, fold, brick_generators(1))]
    searched = 0
    for carrier, p, gens in maps:
        cods = [f.target for _name, f in gens.positive]
        squared = sum(any(True for _ in lifting_problems(carrier, f, p)) for _name, f in gens.positive)
        fillers = []
        original = type(carrier).hom

        def spy(self, source, target, *args, **kwargs):
            if target is p.source and any(source is cod for cod in cods):
                fillers.append(source)
            return original(self, source, target, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(type(carrier), "hom", spy)
            unique, codiag = lifting_reports(carrier, p, gens)
        if unique.ok:
            assert len(fillers) == squared
        else:  # the failing generator ends the first check; the second reads on demand
            assert len(fillers) <= squared
        searched += len(fillers)
    assert searched > 100


# -- fillers from one table per generator, against one pinned search per square ------


def assert_fillers_match_the_pinned_oracle(carrier, p, gens, name, alone=True):
    """Every square's filler list, from a table given or built by
    ``solve_lifts``, is the pinned search's (same maps, same order).  The
    reports of ``lifting_reports`` (and, when ``alone``, of both checks on
    their own) equal those the pinned counts give, failing square
    included.  Returns those reports."""
    want = []
    for morphisms, unique in ((gens.positive, True), (gens.codiagonals, False)):
        report = LiftReport(True, 0)
        for iname, i in morphisms:
            table = None
            for problem in lifting_problems(carrier, i, p):
                fillers = pinned_solve_lifts(carrier, problem)
                if table is None:
                    assert solve_lifts(carrier, problem) == fillers, name
                    table = filler_table(carrier, i, p, carrier.hom(i.target, p.source))
                assert solve_lifts(carrier, problem, table) == fillers, name
                if report.ok:
                    n = len(fillers)
                    report.checked += 1
                    if n == 0 or (unique and n > 1):
                        report = LiftReport(False, report.checked, problem, n, iname, fillers)
        want.append(report)
    want = tuple(want)
    if alone:
        assert (unique_rlp(carrier, p, gens.positive), rlp(carrier, p, gens.codiagonals)) == want, name
    assert lifting_reports(carrier, p, gens) == want, name
    return want


def assert_blowup_fillers_match(P, n, name):
    """The pinned oracle on the blowup map, and ``verify_blowup``'s
    reports, from the blowup's own probe table, equal to it."""
    result = blowup(P, n)
    want = assert_fillers_match_the_pinned_oracle(PCS_CARRIER, result.beta, brick_generators(n), name)
    report = verify_blowup(P, n, result)
    assert (report.lifting, report.codiagonal_lifting) == want, name
    return want


def test_fillers_match_the_pinned_oracle_on_corpus_blowups():
    squares = 0
    for name, P, _n in pcs_corpus():
        for n in (1, 2, 3):
            squares += sum(r.checked for r in assert_blowup_fillers_match(P, n, f"{name} at {n}"))
    assert squares > 200


def test_fillers_match_the_pinned_oracle_on_the_automata_corpus():
    # the first half of the corpus: all 200 take about 9 s
    for k, A in enumerate(automata_corpus(100)):
        res = cofibrant_replacement(A)
        gens = automata_generators(A.alphabet | res.replacement.alphabet)
        assert_fillers_match_the_pinned_oracle(AUT_CARRIER, res.beta, gens, k, alone=False)


def test_fillers_match_the_pinned_oracle_on_maps_that_fail():
    """The fold of two circles (two fillers per square), a generator
    ``i`` that glues two points, and a ``p`` with an empty fibre."""
    circle = samples.circle()
    _two, legs = PCS_CARRIER.coproduct([circle, circle])
    fold = PCS_CARRIER.copair(legs, [PCS_CARRIER.identity(circle)] * 2)
    unique, codiag = assert_fillers_match_the_pinned_oracle(PCS_CARRIER, fold, brick_generators(1), "fold")
    assert unique.lift_count == 2 and not codiag.ok

    def alone(name, i):
        return GeneratorSet(((name, i),), PCS_CARRIER, "nabla_{}")

    point, two = relpcs(0, {0: ["x"]}, {}), relpcs(0, {0: ["v", "w"]}, {})
    glue = PCS_CARRIER.make_morphism(two, point, {"v": "x", "w": "x"})
    # tops by their values over (v, w): (v, v) has one filler, (v, w) none
    unique, _codiag = assert_fillers_match_the_pinned_oracle(PCS_CARRIER, glue, alone("glue", glue), "glue")
    assert (unique.checked, unique.lift_count, unique.failure.top.mapping) == (2, 0, {"v": "v", "w": "w"})

    into = PCS_CARRIER.make_morphism(point, two, {"x": "v"})  # nothing over w
    start = alone("start", PCS_CARRIER.initial_morphism(point))
    unique, _codiag = assert_fillers_match_the_pinned_oracle(PCS_CARRIER, into, start, "start")
    assert (unique.checked, unique.lift_count, unique.failure.bottom.mapping) == (2, 0, {"x": "w"})


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(relational_automata(4, 5))
def test_fillers_match_the_pinned_oracle_on_generated_automata(A):
    gens = automata_generators("ab")
    assert_fillers_match_the_pinned_oracle(AUT_CARRIER, cofibrant_replacement(A).beta, gens, "beta")
    states = sorted(c for c in AUT_CARRIER.cells(A) if c[0] == "st")
    if len(states) >= 2:
        _quotient, fold = AUT_CARRIER.quotient(A, [tuple(states[:2])])
        assert_fillers_match_the_pinned_oracle(AUT_CARRIER, fold, gens, "fold")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(relational_pcs(max_cubes=6), st.sampled_from([1, 2]))
def test_fillers_match_the_pinned_oracle_on_drawn_pcs(P, n):
    P = relpcs(P.dim_bound, P.cubes, P.faces)
    assert_blowup_fillers_match(P, n, "beta")
    vertices = sorted(P.cubes.get(0, ()))
    if len(vertices) >= 2:  # a quotient map, which some squares fail against
        _quotient, glue = PCS_CARRIER.quotient(P, [tuple(vertices[:2])])
        assert_fillers_match_the_pinned_oracle(PCS_CARRIER, glue, brick_generators(n), "glue")


# -- one bottom-leg search per generator, codiagonals on demand ------------------------


def eager_reports(carrier, p, gens):
    """The oracle of ``lifting_reports``: each check searches its own bottom
    legs, and every codiagonal is built up front."""
    nablas = [(gens.nabla_name.format(n), codiagonal(carrier, f)) for n, f in gens.positive]
    return unique_rlp(carrier, p, gens.positive), rlp(carrier, p, nablas)


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


# -- replay against the pushout oracle ----------------------------------------


FAULTS = ["repeat", "drop", "swap", "rename", "retarget", "fold"]


def _renamed(cell):
    return (cell[0], cell[1] + "'") if isinstance(cell, tuple) else cell + "'"


def _coface_steps(pick, start, n: int) -> list:
    """Bricks of ambient dimension ``n`` attached along maps into ``start``,
    each minimal cube named afresh; on a start without its lowest cubes
    these land on cubes whose cofaces lie outside the brick."""
    steps = []
    for k, (eps, (name, i)) in enumerate(zip(all_brick_indices(n), brick_generators(n).positive)):
        homs = hom_enumerate(i.source, start)
        if homs and pick([True, False]):
            f = pick(homs)
            steps.append(Attachment((name, ()), i, tuple(f.mapping.items()), ((min_cube(eps), f"new{k}"),)))
    return steps


def replay_case(pick):
    """``(carrier, start, script)``, every choice made by ``pick(options)``:
    a corpus certificate, a blowup script, or bricks attached to a corpus
    object less its cubes below some dimension; then up to three faults.
    A step is repeated, dropped, swapped with another, given fresh names
    new or in use, or one attach image is replaced by some cell of the
    script; or a second copy of it is added, followed by its codiagonal
    along both copies (which glues the two) or along one copy twice
    (which adds nothing), alone or summed with a third copy."""
    kind = pick(["automaton", "blowup", "coface"])
    if kind == "automaton":
        A = pick(_REPLAY_AUTOMATA)
        carrier, start = AUT_CARRIER, RelAutomaton(A.alphabet, [], {}, [], [])
        script = list(cofibrant_replacement(A).certificate)
    elif kind == "blowup":
        P, m = pick(_REPLAY_BLOWUPS)
        carrier, start = PCS_CARRIER, RelPCS(m, {}, {})
        script = blowup_script(blowup(P, m), m)
    else:
        P, d = pick(_REPLAY_STARTS)
        carrier, start = PCS_CARRIER, restrict(P, [c for c in P.all_cubes() if P.dim(c) >= d])
        script = _coface_steps(pick, start, 1) + _coface_steps(pick, start, 2)
    for fault in [pick(FAULTS) for _ in range(pick([0, 1, 2, 3]))]:
        if not script:
            break
        k = pick(range(len(script)))
        step = script[k]
        if fault == "repeat":
            script.insert(pick(range(len(script) + 1)), step)
        elif fault == "drop":
            del script[k]
        elif fault == "swap":
            j = pick(range(len(script)))
            script[k], script[j] = script[j], step
        elif fault == "rename":
            used = [v for s in script for _c, v in s.fresh]
            script[k] = step._replace(fresh=tuple((c, pick([_renamed(v), *used])) for c, v in step.fresh))
        elif fault == "retarget" and step.attach:
            j, cells = pick(range(len(step.attach))), [v for s in script for _c, v in s.attach + s.fresh]
            attach = list(step.attach)
            attach[j] = (attach[j][0], pick(cells))
            script[k] = step._replace(attach=tuple(attach))
        elif fault == "fold":
            gen = step.generator
            twin = step._replace(fresh=tuple((c, _renamed(v)) for c, v in step.fresh))
            _pushed, j1, j2 = carrier.pushout(gen, gen)
            nabla = carrier.copair([j1, j2], [carrier.identity(gen.target)] * 2)
            image = {**{gen.mapping[a]: b for a, b in step.attach}, **dict(step.fresh)}
            other = {**image, **dict(twin.fresh)} if pick([True, False]) else image
            attach = {j1.mapping[c]: image.get(c) for c in carrier.cells(gen.target)}
            attach.update((j2.mapping[c], other.get(c)) for c in carrier.cells(gen.target))
            fold = Attachment(("fold", step.name), nabla, tuple(attach.items()), ())
            if pick([True, False]):  # beside a third copy of the step, so that it adds cells
                both, (d0, d1), (_c0, c1) = carrier.sum([nabla, gen])
                attach = {d0.mapping[x]: y for x, y in fold.attach}
                attach.update((d1.mapping[x], y) for x, y in step.attach)
                fresh = tuple((c1.mapping[c], _renamed(_renamed(v))) for c, v in step.fresh)
                fold = Attachment(fold.name, both, tuple(attach.items()), fresh)
            script[k + 1:k + 1] = [twin, fold]
    return carrier, start, script


_REPLAY_AUTOMATA = automata_corpus(40)
_REPLAY_BLOWUPS = [(P, m) for _name, P, _n in pcs_corpus() for m in (1, 2)] + [(tensor(cycle(3), cycle(3)), 2)]
_REPLAY_STARTS = [
    (P, d)
    for P in [tensor(cycle(2), cycle(3))] + [P for _name, P, _n in pcs_corpus()]
    for d in (1, 2)
    if any(P.dim(c) >= d for c in P.all_cubes())
]


def _outcome(run, carrier, start, script):
    """The object a replay builds, or its error and message."""
    try:
        return run(carrier, start, script)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_replay_agrees_with_the_pushout_oracle(data):
    """The linear replay builds the object the pushout replay builds, or
    fails with its error and message, on drawn scripts of both carriers."""
    carrier, start, script = replay_case(lambda options: data.draw(st.sampled_from(list(options))))
    assert _outcome(replay, carrier, start, script) == _outcome(pushout_replay, carrier, start, script)


def test_replay_cases_reach_every_outcome():
    """Seeded draws of the same cases agree with the oracle and reach a
    built object, each of the four refusals, and a step whose brick makes
    composite faces of cubes outside it."""
    rng, seen = random.Random(33), Counter()
    for _ in range(400):
        carrier, start, script = replay_case(lambda options: rng.choice(list(options)))
        got = _outcome(replay, carrier, start, script)
        assert got == _outcome(pushout_replay, carrier, start, script)
        if not isinstance(got, str):
            seen["built"] += 1
            bare = carrier.build([start, *(s.generator.target for s in script)], [
                {c: c for c in carrier.cells(start)},
                *({**{s.generator.mapping[a]: b for a, b in s.attach}, **dict(s.fresh)} for s in script),
            ])
            seen["composites"] += bare != got
        else:
            seen[next((k for k in ("not a", "loses", "relation", "fresh", "nothing", "glues") if k in got), got)] += 1
    assert {"built", "composites", "not a", "fresh", "nothing", "glues"} <= seen.keys(), seen


def test_replay_builds_once_and_pushes_out_nothing(monkeypatch):
    """A corpus certificate and the blowup script of C12 x C12 each replay
    by one ``build`` of the carrier and no ``Carrier.pushout``."""
    result = cofibrant_replacement(samples.relational_mess())
    C12 = blowup(tensor(cycle(12), cycle(12)), 2)
    cases = [
        (AUT_CARRIER, RelAutomaton(result.source.alphabet, [], {}, [], []), result.certificate, result.replacement),
        (PCS_CARRIER, RelPCS(2, {}, {}), blowup_script(C12, 2), C12.blowup),
    ]
    for carrier, start, script, want in cases:
        calls = Counter()

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(type(carrier), "build", counted("build", type(carrier).build))
        monkeypatch.setattr(Carrier, "pushout", counted("pushout", Carrier.pushout))
        assert replay(carrier, start, script) == want
        monkeypatch.undo()
        assert calls == {"build": 1}, (carrier, calls)
        assert len(script) > 10
