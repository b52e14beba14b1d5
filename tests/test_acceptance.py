"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is either a worked example verified by hand, a
value computed by an independent oracle (recursive language semantics,
morphism counting, all-assignments filters), or a property that must hold
with zero failures over a stated corpus.  Time budgets are asserted where
the criterion states one.
"""

import json
import time
from pathlib import Path

from corpus import (
    aut_sample_maps,
    automata_corpus,
    euclidean_expectations,
    is_simple,
    path_automaton,
    pcs_corpus,
    pcs_sample_maps,
    random_automaton,
)
from cofib import samples
from cofib.automata import (
    AUT_CARRIER,
    automata_generators,
    cofibrant_replacement,
    check_conditions,
    language_upto,
    normalize,
    to_simple,
    verify_replacement,
)
from cofib.blowup import blowup, brick_colimit_check, brick_generators
from cofib.cli import main
from cofib.lifting import appendix_identity_suite, unique_lift_sides, unique_rlp
from cofib.pcs import PCS_CARRIER, euclidean_check
from cofib.regex import compile_regex, kleene_fuzz, parse
from cofib.words import CubeWord, all_brick_indices

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
W = CubeWord.parse


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{status}] {name} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_torus_blowup(capsys):
    start = time.monotonic()
    code = main(["pcs", "blowup", "-n", "2", str(FIXTURES / "one-square.json")])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    data = json.loads(out)
    ok = code == 0
    ok = ok and data["cells_by_dimension"] == {"0": 1, "1": 2, "2": 1}
    faces = {
        (entry["cube"], entry["word"]): entry["targets"]
        for entry in data["blowup"]["faces"]
    }
    (square,) = data["blowup"]["cubes"]["2"]
    edges = data["blowup"]["cubes"]["1"]
    (vertex,) = data["blowup"]["cubes"]["0"]
    # opposite faces of the square coincide, one edge per direction
    ok = ok and faces[(square, "0-")] == faces[(square, "0+")]
    ok = ok and faces[(square, "-0")] == faces[(square, "+0")]
    ok = ok and set(faces[(square, "0-")] + faces[(square, "-0")]) == set(edges)
    # both halves of each edge land on the vertex
    for e in edges:
        ok = ok and faces[(e, "-")] == [vertex] and faces[(e, "+")] == [vertex]
    ok = ok and all(data["beta"][e] == "e" for e in edges)
    ok = ok and data["beta"][square] == "c" and data["beta"][vertex] == "v"
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(1, "torus blowup via CLI", ok, f"({elapsed:.2f}s)")


def test_criterion_02_blowup_theorem_suite(capsys):
    corpus = pcs_corpus()
    required = {"circle", "y-graph", "interval", "lone-vertex", "torus"}
    small = [name for name, P, n in corpus if P.n_cubes() <= 8 and n <= 2]
    start = time.monotonic()
    failures = []
    for name, P, n in corpus:
        result = blowup(P, n)
        lift = unique_rlp(PCS_CARRIER, result.beta, brick_generators(n).positive)
        eu = euclidean_check(result.blowup, n)
        if not (lift.ok and eu.ok):
            failures.append(name)
    elapsed = time.monotonic() - start
    ok = (
        not failures
        and len(small) >= 20
        and required <= set(small)
        and elapsed < 30.0
    )
    with capsys.disabled():
        report(
            2,
            "unique lifting + euclidean blowups",
            ok,
            f"({len(corpus)} fixtures, {elapsed:.1f}s, failures={failures})",
        )


def test_criterion_03_euclidean_iff_isomorphism(capsys):
    expect = euclidean_expectations()
    failures = []
    for name, P, n in pcs_corpus():
        result = blowup(P, n)
        is_euclidean = euclidean_check(P, n).ok
        beta_iso = PCS_CARRIER.is_isomorphism(result.beta)
        if is_euclidean != beta_iso or is_euclidean != expect[name]:
            failures.append(name)
    ok = not failures
    with capsys.disabled():
        report(3, "euclidean iff blowup map is iso", ok, f"(failures={failures})")


def test_criterion_04_brick_colimits(capsys):
    cases = [eps for n in range(0, 5) for eps in all_brick_indices(n)]
    failures = [str(eps) for eps in cases if not brick_colimit_check(eps)]
    ok = not failures
    with capsys.disabled():
        report(
            4,
            "boundary of a brick is the colimit of its sub-bricks",
            ok,
            f"({len(cases)} shapes up to n=4, failures={failures})",
        )


def test_criterion_05_unique_lift_equivalence(capsys):
    failures = []
    counts = {}
    pcs_gens = list(brick_generators(1).positive) + list(brick_generators(2).positive)
    checked = 0
    for pname, p in pcs_sample_maps():
        for iname, i in pcs_gens:
            checked += 1
            left, right = unique_lift_sides(PCS_CARRIER, p, i)
            if left != right:
                failures.append(("pcs", pname, iname))
    counts["pcs"] = checked
    checked = 0
    aut_gens = list(automata_generators("ab", 1, 1).positive)
    for pname, p in aut_sample_maps():
        for iname, i in aut_gens:
            checked += 1
            left, right = unique_lift_sides(AUT_CARRIER, p, i)
            if left != right:
                failures.append(("automata", pname, iname))
    counts["automata"] = checked
    ok = not failures and all(c >= 100 for c in counts.values())
    with capsys.disabled():
        report(5, "unique-RLP iff RLP against generator and codiagonal", ok, f"({counts})")


def test_criterion_06_appendix_identities(capsys):
    """The cases ``cofib toolkit appendix`` runs, through the same suite:
    every case of every identity holds."""
    failures = []
    configs = 0
    for carrier, cases in samples.appendix_cases().values():
        failures += appendix_identity_suite(carrier, cases).failures
        configs += len(cases)
    ok = not failures and configs >= 59
    with capsys.disabled():
        report(6, "codiagonal colimit identities", ok, f"({configs} configurations, failures={failures})")


def test_criterion_07_replacement_suite(capsys):
    corpus = automata_corpus(200)
    start = time.monotonic()
    failures = []
    for k, A in enumerate(corpus):
        result = cofibrant_replacement(A)
        rep = verify_replacement(
            A, result, language_bound=6, check_codiagonals=False
        )
        if not (
            rep.edge_count_ok
            and rep.conditions_ok
            and rep.lifting.ok
            and rep.language_ok
            and rep.replay_ok
        ):
            failures.append((k, rep.summary()))
    elapsed = time.monotonic() - start
    ok = not failures and len(corpus) >= 200 and elapsed < 60.0
    with capsys.disabled():
        report(
            7,
            "replacement suite on random automata",
            ok,
            f"({len(corpus)} automata, {elapsed:.1f}s, failures={len(failures)})",
        )


def test_criterion_08_normalization(capsys):
    corpus = automata_corpus(200)
    failures = []
    for k, A in enumerate(corpus):
        result = normalize(A)
        N = result.automaton
        if A.initial:
            good = (
                is_simple(N)
                and len(N.initial) == 1
                and check_conditions(N)[0]
                and language_upto(N, 6) == language_upto(A, 6)
            )
        else:
            good = result.warning is not None and N == A
        if not good:
            failures.append(k)
    ok = not failures
    with capsys.disabled():
        report(8, "normalization suite", ok, f"({len(corpus)} automata)")


def test_criterion_09_adjunction_counts(capsys):
    import random

    simple_objs = [
        path_automaton((), "ab"),
        path_automaton(("a",), "ab"),
        path_automaton(("a", "b"), "ab"),
        path_automaton(("a", "a", "b"), "ab"),
        samples.loop_a(),
        samples.path_ab(),
    ]
    relational = [
        samples.headless_edge(),
        samples.relational_mess(),
        samples.loop_ab(),
        samples.two_start_automaton(),
    ]
    rng = random.Random(23)
    relational += [
        random_automaton(rng, max_states=4, max_edges=5, alphabet="ab")
        for _ in range(8)
    ]
    failures = []
    pairs = 0
    for H in simple_objs:
        for G in relational:
            pairs += 1
            if len(AUT_CARRIER.hom(H, to_simple(G))) != len(AUT_CARRIER.hom(H, G)):
                failures.append((simple_objs.index(H), relational.index(G)))
    ok = not failures
    with capsys.disabled():
        report(9, "right-adjoint morphism counts", ok, f"({pairs} pairs)")


def test_criterion_10_kleene_fuzz(capsys):
    start = time.monotonic()
    fuzz = kleene_fuzz(seed=7, count=200, depth=4, L=8, alphabet=("a", "b"))
    elapsed = time.monotonic() - start
    compiled = compile_regex(parse("a*b*"), "ab")
    counterexample_ok = ("b", "a") not in language_upto(compiled, 8)
    naive = samples.loop_ab()
    counterexample_ok = counterexample_ok and ("b", "a") in language_upto(naive, 2)
    ok = fuzz.ok and counterexample_ok and elapsed < 60.0
    with capsys.disabled():
        report(
            10,
            "compiled vs recursive languages",
            ok,
            f"(200 regexes depth<=4 L=8, {elapsed:.1f}s, naive-glue counterexample reproduced)",
        )
