"""Recovering a trisecant pencil of a genus-4 curve from Gauss-map data.

The members of a g^1_3 on the canonical genus-4 curve span trisecant lines;
from those Grassmannian points alone the pencil is rebuilt through
intersection divisors.  The non-reduced members sit over the branch form of
the associated 3:1 morphism, whose total multiplicity 12 is the
Riemann-Hurwitz count 2g - 2 + 2d.
"""

from wgauss.algebra import PrimeField
from wgauss.curves import CanonicalG4Curve
from wgauss.gauss import intersection_divisor
from wgauss.linsys import beta, dual_branch_form, find_g13, reconstruct_system

F = PrimeField(10007)
curve = CanonicalG4Curve(F, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},
                         {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                          (0, 0, 0, 3): 1, (1, 1, 1, 0): 1})

L = find_g13(curve, seed=3)
print(f"pencil found: degree {L.degree}, dimension {L.r}")

params = [(F.one, F.elem(j)) for j in range(5)]
members = [L.member(c) for c in params]
spans = [beta(E) for E in members]
print("member spans are lines:", all(W.dim == 1 for W in spans))

# forget the pencil; rebuild it from the spans
L2, recovered = reconstruct_system(spans)
print("members recovered from spans alone:", recovered == members)
print("a recovered member:", recovered[0])
print("  equals (W.C):", intersection_divisor(spans[0]) == recovered[0])

bf = dual_branch_form(L2)
roots = bf.roots(cap=12)
print(f"branch form degree {bf.formal_degree} "
      f"(Riemann-Hurwitz: 2*4 - 2 + 2*3 = 12); "
      f"root multiplicities sum to {sum(m for _, m in roots)}")
