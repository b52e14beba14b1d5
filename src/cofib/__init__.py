"""Combinatorial manifolds by unique lifting.

Two carriers, one mechanism: relational precubical sets with their
euclidean blowup, and relational automata with the cofibrant replacement
that makes regular-expression concatenation safe.  Everything is finite
and every theorem the library leans on is re-checked on the inputs by
enumerating lifting problems and counting fillers.
"""

from .words import BrickIndex, CubeWord, compose_words
from .cells import Carrier, CellMorphism, LiftingProblem
from .pcs import (
    PCS_CARRIER,
    RelPCS,
    brick,
    euclidean_check,
    hom_enumerate,
    is_local_embedding,
    relpcs,
    tensor,
    upward,
    validate,
)
from .blowup import blowup, brick_colimit_check, brick_generators, verify_blowup
from .lifting import GeneratorSet, codiagonal, rlp, solve_lifts, unique_rlp
from .automata import (
    AUT_CARRIER,
    RelAutomaton,
    automata_generators,
    automaton,
    check_conditions,
    cofibrant_replacement,
    language_upto,
    normalize,
    to_simple,
    verify_replacement,
)
from .regex import compile_regex, kleene_fuzz, parse, regex_lang_upto

__version__ = "0.1.0"

__all__ = [
    "BrickIndex",
    "CubeWord",
    "compose_words",
    "Carrier",
    "CellMorphism",
    "GeneratorSet",
    "LiftingProblem",
    "PCS_CARRIER",
    "RelPCS",
    "brick",
    "euclidean_check",
    "hom_enumerate",
    "is_local_embedding",
    "relpcs",
    "tensor",
    "upward",
    "validate",
    "blowup",
    "brick_colimit_check",
    "brick_generators",
    "verify_blowup",
    "codiagonal",
    "rlp",
    "solve_lifts",
    "unique_rlp",
    "AUT_CARRIER",
    "RelAutomaton",
    "automata_generators",
    "automaton",
    "check_conditions",
    "cofibrant_replacement",
    "language_upto",
    "normalize",
    "to_simple",
    "verify_replacement",
    "compile_regex",
    "kleene_fuzz",
    "parse",
    "regex_lang_upto",
]
