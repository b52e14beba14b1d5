#!/usr/bin/env python3
"""Codiagonals and unique lifting, computed rather than assumed.

Run from the repository root:

    python3 demos/lifting_identities.py

The codiagonal of a map folds the self-pushout of the map back onto its
codomain.  Lifting uniquely against a map is the same as lifting plainly
against the map and its codiagonal; this script counts fillers on both
sides of that equivalence and checks the colimit identities codiagonals
satisfy.
"""

from cofib.automata import AUT_CARRIER, automata_generators, cofibrant_replacement
from cofib.blowup import blowup, brick_generators
from cofib.lifting import (
    check_composition_identity,
    check_double_codiagonal_iso,
    check_sum_identity,
    codiagonal,
    filler_table,
    lifting_problems,
    rlp,
    solve_lifts,
    unique_rlp,
)
from cofib.pcs import PCS_CARRIER
from cofib.samples import loop_ab, one_square_torus

print("Codiagonals of the automata generators")
for name, i in automata_generators("a", 1, 1).positive:
    nabla = codiagonal(AUT_CARRIER, i)
    iso = AUT_CARRIER.is_isomorphism(nabla)
    dom = nabla.source
    print(f"  nabla[{name}]: domain has {len(dom.states)} states / "
          f"{len(dom.edges)} edges; isomorphism: {iso}")
print()

print("Counting fillers for the blowup projection of the one-square object")
X = one_square_torus()
result = blowup(X, 2)
gens = dict(brick_generators(2).positive)
i = gens["i_11"]
# every map cod(i) -> blowup fills one square: one search gives every square's fillers
table = filler_table(PCS_CARRIER, i, result.beta, PCS_CARRIER.hom(i.target, result.blowup))
for problem in lifting_problems(PCS_CARRIER, i, result.beta):
    lifts = solve_lifts(PCS_CARRIER, problem, table)
    print(f"  square against i_11: {len(lifts)} filler(s)")
print()

print("The unique-lifting equivalence, checked by counting")
A = loop_ab()
beta = cofibrant_replacement(A).beta
for name, i in automata_generators("ab", 1, 1).positive[:6]:
    left = unique_rlp(AUT_CARRIER, beta, [(name, i)]).ok
    nabla = codiagonal(AUT_CARRIER, i)
    right = rlp(AUT_CARRIER, beta, [(name, i), (f"nabla[{name}]", nabla)]).ok
    print(f"  {name}: exactly-one-filler={left}  filler-for-i-and-nabla={right}")
print()

print("Colimit identities (sums, composites, double codiagonals)")
gens = [f for _n, f in automata_generators("ab", 1, 1).positive]
print("  sum identity on adjacent pairs:",
      all(check_sum_identity(AUT_CARRIER, gens[k:k+2]) for k in range(len(gens) - 1)))
from cofib.automata import gen_accept, gen_edge
print("  composite identity (add edge, then accepting target):",
      check_composition_identity(AUT_CARRIER, gen_edge("ab", "a"), gen_accept("ab", "a")))
print("  double codiagonals are isomorphisms:",
      all(check_double_codiagonal_iso(AUT_CARRIER, f) for f in gens))
