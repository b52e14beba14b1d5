#!/usr/bin/env python3
"""Codiagonals and unique lifting, computed rather than assumed.

Run from the repository root:

    python3 demos/lifting_identities.py

The codiagonal of a map folds the self-pushout of the map back onto its
codomain.  Lifting uniquely against a map is the same as lifting plainly
against the map and its codiagonal; this script counts fillers on both
sides of that equivalence and runs the suite of colimit identities that
codiagonals satisfy, with that equivalence as one of its rows.
"""

from cofib.automata import AUT_CARRIER, automata_generators
from cofib.blowup import blowup, brick_generators
from cofib.lifting import (
    appendix_identity_suite,
    codiagonal,
    filler_table,
    lifting_problems,
    solve_lifts,
    unique_lift_sides,
)
from cofib.pcs import PCS_CARRIER
from cofib.samples import appendix_cases, one_square_torus

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

print("The unique-lifting equivalence, checked by counting: a replacement map")
print("lifts uniquely; the fold of two copies of loop-ab does not against ten of the")
print("twelve generators, on both sides")
suites = appendix_cases()
for identity, label, args in suites["automata"][1]:
    if identity == "unique_lift_equivalence":
        unique, plain = unique_lift_sides(AUT_CARRIER, *args)
        print(f"  {label}: exactly-one-filler={unique}  filler-for-i-and-nabla={plain}")
print()

print("Colimit identities and the equivalence, one suite run per carrier")
for carrier_name, (carrier, cases) in suites.items():
    report = appendix_identity_suite(carrier, cases)
    counts = ", ".join(f"{identity} {n}" for identity, n in report.counts.items())
    print(f"  {carrier_name}: {counts}; failures: {report.failures or 'none'}")
