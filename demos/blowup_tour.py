#!/usr/bin/env python3
"""A tour of euclidean bricks and the blowup.

Run it from the repository root:

    python3 demos/blowup_tour.py

The script builds the one-square object whose every face collapses onto a
single edge and vertex, computes its blowup, and checks on the spot that
the blowup is euclidean and that the projection back has unique lifts
against every brick generator.
"""

from cofib.blowup import blowup, brick_generators, verify_blowup
from cofib.lifting import unique_rlp
from cofib.pcs import PCS_CARRIER, brick, euclidean_check, min_cube, upward, validate
from cofib.samples import circle, one_square_torus, y_graph
from cofib.words import BrickIndex, all_brick_indices


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("The euclidean bricks in dimension 2")
for eps in all_brick_indices(2):
    B = brick(eps)
    counts = B.cube_counts()
    print(f"  brick {eps}: cells by dimension {counts}, "
          f"minimal cube {min_cube(eps)}")
print("""
A brick records what a neighborhood in a 2-grid looks like: shape 00 is an
open square, 01 and 10 are an edge with the two squares over it, and 11 is
a vertex with its four quadrants and four half-edges.""")

show("A one-square object and its blowup")
X = one_square_torus()
print(f"  input: {X}, validates: {validate(X).ok}")
result = blowup(X, 2)
print(f"  blowup cells by dimension: {result.blowup.cube_counts()}")
print(f"  projection: {dict(sorted(result.beta.mapping.items()))}")
print("""
Every brick shape admits exactly one probe into X, so the blowup has one
vertex, one edge per direction, and one square: the torus.  The square's
opposite faces land on the same edge:""")
for word in ("0-", "0+", "-0", "+0"):
    from cofib.words import CubeWord
    targets = result.blowup.faces_of("00:0", CubeWord.parse(word))
    print(f"    face {word} of the square -> {sorted(targets)}")

show("The neighborhood of the blowup's vertex is a brick")
nbhd, _proj = upward(result.blowup, "11:0")
print(f"  cells: {nbhd.cube_counts()}  (compare brick 11: {brick(BrickIndex.parse('11')).cube_counts()})")

show("Theorem checks, run on the input")
report = verify_blowup(X, 2, result)
for key, value in report.summary().items():
    print(f"  {key}: {value}")

show("A euclidean input is its own blowup")
C = circle()
rc = blowup(C, 1)
print(f"  circle blowup: {rc.blowup.cube_counts()}, "
      f"projection is iso: {PCS_CARRIER.is_isomorphism(rc.beta)}")

show("A branching point cannot be euclidean")
Y = y_graph()
ry = euclidean_check(Y, 1)
print(f"  euclidean: {ry.ok}, first cube without a chart: {ry.counterexample}")
rby = blowup(Y, 1)
print(f"  its blowup separates the branches: {rby.blowup.cube_counts()}")
lift = unique_rlp(PCS_CARRIER, rby.beta, brick_generators(1).positive)
print(f"  unique lifting against the generators still holds: {lift.ok}")
