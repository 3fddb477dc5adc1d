"""The Gauss map on degree-n divisors, intersection divisors, and fibers.

gauss_eval sends a divisor D with ell(D) = 1 to its span, a point of the
Grassmannian G(n-1, g-1).  The intersection divisor (W . C) of a subspace W
is the gcd of the hyperplane sections over hyperplanes containing W; its
degree, which decides the loci, comes from a gcd form with no root found.  The
fiber over W is the subdivisors E of (W . C) whose conditions have rank
dim W + 1: span(E) lies in W, so that says ell(E) = 1 and span(E) = W.
"""

from itertools import product
from math import comb

from .algebra.linalg import reduce_row
from .curves import CurveError
from .divisors import Divisor, hyperelliptic_reduce, x_fibers
from .sections import meet, meet_form
from .spans import NotInSmoothLocusError, condition_rows, span


def gauss_eval(D):
    """span(D), a point of G(n-1, g-1); defined only on the smooth locus."""
    n = D.degree
    g = D.curve.genus
    if not 1 <= n <= g - 1:
        raise ValueError(f"degree {n} out of range 1..{g - 1}")
    sp = span(D)
    if D.degree - sp.dim != 1:  # ell(D) != 1
        raise NotInSmoothLocusError(
            f"ell(D) = {D.degree - sp.dim} >= 2: Gauss map undefined here")
    return sp


def intersection_divisor(W, cap=12):
    """(W . C): gcd of the hyperplane sections over hyperplanes through W."""
    return meet(W.curve, W.hyperplanes.rows, W.field, cap)


def intersection_degree(W):
    """deg (W . C), read from the rational stage of ``intersection_divisor``
    without finding a point (``sections.meet_form``)."""
    return meet_form(W.curve, W.hyperplanes.rows, W.field)[2]


class FiberReport:
    """Everything known about one Gauss-map fiber."""

    __slots__ = ("W", "WC", "fiber", "cardinality", "flags")

    def __init__(self, W, WC, fiber, flags):
        self.W = W
        self.WC = WC
        self.fiber = fiber
        self.cardinality = len(fiber)
        self.flags = flags

    def __repr__(self):
        return (f"FiberReport(card={self.cardinality}, deg_WC={self.WC.degree}, "
                f"flags={self.flags})")


def fiber(W, n=None, cap=12):
    """The degree-n E <= (W . C) with ell(E) = 1 and span(E) = W, in the order
    of ``WC.subdivisors(n)``.  Every hyperplane through W contains E, so E is
    one iff its conditions have rank n = dim W + 1.  A depth-first walk over
    the multiplicities reduces the rows of (W . C), computed once, prefix by
    prefix, and cuts a prefix of degree above its rank (no row is regained)."""
    n = n or W.dim + 1
    curve = W.curve
    WC = intersection_divisor(W, cap=cap)
    flags = {
        "nonreduced": not WC.is_reduced(),
        "weierstrass": (curve.model == "hyperelliptic"
                        and any(curve.is_weierstrass(P) for P in WC.support())),
    }
    groups = condition_rows(WC)
    slot = {P: (gi, halve) for gi, (_, pts) in enumerate(groups) for P, halve in pts}
    items = [(P, m) + slot[P] for P, m in WC.items]
    members = []
    # depth-first, least multiplicity first; left: degree of items[i:], basis:
    # the prefix rows' echelon (the entry's own), taken: rows per group
    stack = [(0, n, WC.degree, [], [], [0] * len(groups))] if n == W.dim + 1 <= WC.degree else []
    while stack:
        i, remaining, left, acc, basis, taken = stack.pop()
        if not remaining:
            members.append(Divisor(curve, acc, field=WC.field))
            continue
        P, m, gi, halve = items[i]
        children = []
        for e in range(max(0, remaining - left + m), min(m, remaining) + 1):
            k = max(taken[gi], (e + 1) // 2 if halve else e)
            for row in groups[gi][0][taken[gi]:k]:
                row = reduce_row(row, basis)
                c = next((j for j, x in enumerate(row) if x), None)
                if c is not None:
                    inv = WC.field.one / row[c]
                    basis.append((c, [x * inv for x in row]))
            taken[gi] = k
            if n - remaining + e > len(basis):
                break
            children.append((i + 1, remaining - e, left - m, acc + [(P, e)],
                             list(basis), list(taken)))
        stack += reversed(children)
    return FiberReport(W, WC, members, flags)


def expected_generic_fiber(curve, n):
    """Generic fiber cardinality of the Gauss map on degree-n divisors."""
    g = curve.genus
    if not 1 <= n <= g - 1:
        raise ValueError(f"n = {n} out of range 1..{g - 1}")
    if curve.model == "hyperelliptic":
        return 2 ** n
    if n == g - 1:
        return comb(2 * g - 2, g - 1)
    return 1


def hyperelliptic_fiber_prediction(D):
    """Predicted fiber through D: conjugate-flip combinations that stay in
    the smooth locus, plus the strict-drop flag (non-reduced or fixed-point
    support forces cardinality below 2^n)."""
    curve = D.curve
    if curve.model != "hyperelliptic":
        raise CurveError("prediction applies to hyperelliptic models")
    groups = x_fibers(curve, D)
    fixed_support = any(kind == "branch" for _, kind, _ in groups)
    strict = (not D.is_reduced()) or fixed_support

    choices = []
    for _, kind, group in groups:
        if kind == "branch":
            choices.append([group])
        else:
            (P1, a), (P2, b) = group
            choices.append([[(P1, j), (P2, a + b - j)] for j in range(a + b + 1)])
    members = []
    for choice in product(*choices):
        cand = Divisor(curve, [pm for opt in choice for pm in opt], field=D.field)
        if hyperelliptic_reduce(cand).k == 0:
            members.append(cand)
    members.sort(key=lambda E: tuple(P.sort_key() for P, _ in E.items))
    return members, strict


def in_multiple_locus(D):
    """Is D in the multiple locus: some other divisor shares its span,
    equivalently deg((span D) . C) >= deg D + 1."""
    return intersection_degree(gauss_eval(D)) >= D.degree + 1


def rnk_flag(deg, n, k):
    """The R_(n,k) rule for a degree-n divisor D with deg(span(D) . C) = deg.

    k = 0 holds for every D and R_(n,k) is empty by convention for k >= n,
    so ``deg`` is read only for 0 < k < n, where the rule is deg >= n + k.
    One (W . C) therefore decides every k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return True
    if k >= n:
        return False
    return deg >= n + k


def in_Rnk(D, k):
    """Membership of D in the (n+k)-intersection locus (see ``rnk_flag``);
    deg (W . C) is computed only when the rule needs it."""
    n = D.degree
    return rnk_flag(intersection_degree(gauss_eval(D)) if 0 < k < n else None, n, k)

