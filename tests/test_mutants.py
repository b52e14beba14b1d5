"""The mutant table: every row is a one-edit mutant of one library
function and a check that must catch it.  A row passes on the tree and
fails once its mutant is patched in, so a later change that makes the
check vacuous shows here.

A mutant is the function's own source with one fragment replaced,
compiled in its module's namespace and patched, for the length of the
test, into every ``cofib`` namespace that binds the function.  No mutant
enters ``src``.
"""

import __future__
import contextlib
import importlib
import inspect
import sys
import textwrap
from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest
import test_acceptance
import test_automata
import test_blowup
import test_cli
import test_lifting
import test_pcs
import test_regex
from corpus import replacement_oracle

from cofib import automata, lifting, pcs, regex
from cofib.automata import cofibrant_replacement

blowup = importlib.import_module("cofib.blowup")  # the package attribute is the function


class Mutant(NamedTuple):
    owner: object  # a module, or a class for a method
    name: str
    old: str  # a fragment of the source, found exactly once
    new: str
    check: Callable[[], None]  # raises AssertionError under the mutant


def _compiled_bytes_are_pinned() -> None:
    # compiled afresh: the sample's cache must neither answer for the
    # mutant nor keep its automata
    sample = test_regex._seed99_sample
    test_regex._seed99_sample = sample.__wrapped__
    try:
        test_regex.test_compiled_bytes_are_pinned()
    finally:
        test_regex._seed99_sample = sample


def _replacement_keeps_the_oracles_edge_order() -> None:
    for A in test_automata.edge_order_automata():
        test_automata.assert_same_automaton(cofibrant_replacement(A).replacement, replacement_oracle(A))


def _euclidean_iff_isomorphism() -> None:
    # the criterion binds euclidean_check by name: hand it the module's, mutant or not
    bound = test_acceptance.euclidean_check
    test_acceptance.euclidean_check = pcs.euclidean_check
    try:
        test_acceptance.test_criterion_03_euclidean_iff_isomorphism(SimpleNamespace(disabled=contextlib.nullcontext))
    finally:
        test_acceptance.euclidean_check = bound


MUTANTS = {
    "normal form tables in reverse edge order": Mutant(
        automata, "normalize",
        "edges, (name[start],)", "edges[::-1], (name[start],)",
        test_regex.test_compiled_json_of_depths_zero_to_six_is_pinned,
    ),
    "concatenation drops the raw right operand after an empty word": Mutant(
        regex, "_concat",
        ' + ([("1/", CB)] if eps else [])', "",
        test_regex.test_fuzz_small_batch,
    ),
    "normal form sources sorted by new name": Mutant(
        automata, "normalize",
        "sorted({glued.get(v, v) for v in sources})",
        "sorted({glued.get(v, v) for v in sources}, key=name.get)",
        # "q10" < "q2": only normal forms of ten states or more differ
        _compiled_bytes_are_pinned,
    ),
    "replacement edges in table order": Mutant(
        automata.ReplacementResult, "_edge_ends",
        "for eid in A.edge_ids():", "for eid in A.edges:",
        _replacement_keeps_the_oracles_edge_order,
    ),
    "regex prefix form without the node class": Mutant(
        regex, "_prefix",
        "return (node.__class__, *node._args())", "return (*node._args(),)",
        test_regex.test_structural_equality_matches_the_dataclass_fields,
    ),
    "theorem report ok without its construction checks": Mutant(
        lifting.TheoremReport, "ok",
        " and all(self.checks.values())", "",
        test_cli.test_a_failed_check_fails_the_report_and_its_exit_code,
    ),
    "saturate composes only degree-one faces": Mutant(
        pcs, "saturate",
        "            for b in bs:\n                if b in reached:",
        "            for b in bs if g.degree == 1 else ():\n                if b in reached:",
        test_pcs.test_validate_composes_a_face_that_only_a_composite_word_reaches,
    ),
    "blowup skips its first sub-brick's faces": Mutant(
        blowup, "blowup",
        "for index, g, placed in subs:", "for index, g, placed in subs[1:]:",
        test_blowup.test_verify_blowup_on_corpus_matches_expectations,
    ),
    "beta sends a probe to its least brick cell's image": Mutant(
        blowup, "blowup",
        "beta_map[fid] = f.mapping[bottom]", "beta_map[fid] = f.mapping[min(f.mapping)]",
        test_blowup.test_verify_blowup_on_corpus_matches_expectations,
    ),
    "filler table keys drop the top row": Mutant(
        lifting, "filler_table",
        "key = (tuple(map(at, placed)), ", "key = ((), ",
        test_blowup.test_verify_blowup_on_corpus_matches_expectations,
    ),
    "euclidean check takes any probe at the cube as its chart": Mutant(
        pcs, "euclidean_check",
        "if {(f.mapping[b], w) for b, w in _min_words(eps)} == cover:", "if True:",
        _euclidean_iff_isomorphism,
    ),
    "lifting reports search past their shared dict": Mutant(
        lifting, "lifting_reports",
        "if key not in searched:", "if True:",
        test_lifting.test_lifting_reports_searches_each_hom_set_at_most_once_per_call,
    ),
}


def apply(monkeypatch, mutant: Mutant) -> None:
    """Patch in ``mutant``: its function recompiled from edited source."""
    original = inspect.getattr_static(mutant.owner, mutant.name)
    function = original.fget if isinstance(original, property) else original
    source = textwrap.dedent(inspect.getsource(function))  # a property's with its decorator
    assert source.count(mutant.old) == 1, f"{mutant.name}: the fragment to replace is not in its source once"
    module = sys.modules[function.__module__]
    namespace = dict(vars(module))
    flags = __future__.annotations.compiler_flag
    code = compile(source.replace(mutant.old, mutant.new), module.__file__, "exec", flags=flags, dont_inherit=True)
    exec(code, namespace)
    patched = namespace[mutant.name]
    if isinstance(mutant.owner, type):
        monkeypatch.setattr(mutant.owner, mutant.name, patched)
        return
    for name, ns in list(sys.modules.items()):
        if name == "cofib" or name.startswith("cofib."):
            for attr, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, attr, patched)


@pytest.mark.parametrize("row", sorted(MUTANTS))
def test_each_check_passes_on_the_tree_and_fails_under_its_mutant(row, monkeypatch):
    mutant = MUTANTS[row]
    mutant.check()
    apply(monkeypatch, mutant)
    with pytest.raises(AssertionError):
        mutant.check()
