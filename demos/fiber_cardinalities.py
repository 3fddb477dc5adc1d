"""Fiber cardinalities of the Gauss map across the three curve models.

A degree-n divisor D with ell(D) = 1 maps to its span, an (n-1)-plane in
P^(g-1).  Running a few sampled divisors per model shows the three regimes:
2^n on hyperelliptic curves, binomial(2g-2, g-1) on a non-hyperelliptic
curve at n = g-1, and a single element below that.
"""

import random

from wgauss.algebra import PrimeField
from wgauss.curves import CanonicalG4Curve, HyperellipticCurve, PlaneQuarticCurve
from wgauss.divisors import Divisor
from wgauss.gauss import expected_generic_fiber, fiber, gauss_eval
from wgauss.harness import sample_smooth_divisor

F = PrimeField(10007)

curves = [
    ("hyperelliptic genus 3", HyperellipticCurve(F, [0, -1, 0, 0, 0, 0, 0, 1])),
    ("Klein quartic (genus 3)", PlaneQuarticCurve(
        F, {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1})),
    ("quadric-cubic intersection (genus 4)", CanonicalG4Curve(
        F, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},
        {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
         (0, 0, 0, 3): 1, (1, 1, 1, 0): 1})),
]

for name, curve in curves:
    n = 2
    print(f"\n{name}, n = {n}: expected generic fiber "
          f"{expected_generic_fiber(curve, n)}")
    for trial in range(5):
        rng = random.Random(trial)
        _, W = sample_smooth_divisor(curve, n, rng)
        rep = fiber(W)
        tag = " (degenerate)" if rep.flags["nonreduced"] or rep.flags["weierstrass"] else ""
        print(f"  trial {trial}: deg(W.C) = {rep.WC.degree}, "
              f"cardinality = {rep.cardinality}{tag}")

# degenerate hyperelliptic fibers drop strictly below 2^n
print("\ndegenerate fibers on y^2 = x^7 - x:")
he = curves[0][1]
P = he.sample_point(random.Random(40))
W0 = type(P).affine(F, F.zero, F.zero)          # a Weierstrass point
for D in (Divisor(he, [(P, 2)]), Divisor(he, [(W0, 1), (P, 1)])):
    rep = fiber(gauss_eval(D))
    print(f"  {D}: cardinality {rep.cardinality} < 4, flags {rep.flags}")
