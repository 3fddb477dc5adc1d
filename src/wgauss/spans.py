"""Linear spans of divisors and geometric Riemann-Roch.

The span of an effective divisor D on a canonically embedded curve is the
intersection of all hyperplanes H of P^(g-1) with D <= phi^* H, counted with
multiplicity.  A LinearSpan is stored dually: its ``hyperplanes`` matrix is
the canonical (RREF) basis of the space of hyperplane coefficient vectors h
cutting spans through D, of size s x g, so the projective dimension of the
span is g - 1 - s and ell(D) = deg D - dim(span D).

For hyperelliptic models, hyperplanes correspond to binary forms h(t) of
degree g-1 on the base P^1; the multiplicity rules are: a conjugate pair
{P, iota(P)} with multiplicities (a, b) imposes vanishing to order max(a, b)
at the common x-value, an involution-fixed point of multiplicity m imposes
order ceil(m/2).  For the plane models the conditions are Taylor
coefficients of hyperplane forms along local parametrizations.

Every cut of the curve by a hyperplane or a span is ``sections.meet``; a
residual is one such cut less D.
"""

from math import comb

from .algebra.fields import coerce, common_field
from .algebra.linalg import MatrixExact, plucker
from .curves import INF
from .divisors import x_fibers
from .sections import meet


class NotSpecialError(ValueError):
    """Residual construction attempted on a nonspecial divisor."""


class NotInSmoothLocusError(ValueError):
    """Gauss-map style operation on a divisor with ell >= 2."""


class LinearSpan:
    """Span of a divisor, stored as the dual space of hyperplanes through it."""

    __slots__ = ("curve", "field", "hyperplanes", "_plucker")

    def __init__(self, curve, field, hyperplane_rows):
        self.curve = curve
        self.field = field
        m = MatrixExact(field, hyperplane_rows)
        self.hyperplanes = m.row_space_matrix() if m.nrows else m
        self._plucker = None

    @property
    def ambient(self):
        return self.curve.genus

    @property
    def s(self):
        return self.hyperplanes.nrows

    @property
    def dim(self):
        return self.ambient - 1 - self.s

    def subspace_basis(self):
        """Basis of the linear subspace of F^g underlying the span."""
        if self.s == 0:
            return MatrixExact.identity(self.field, self.ambient).rows
        return self.hyperplanes.kernel_basis()

    def plucker(self):
        """Normalized Plucker vector of the span (requires dim >= 0)."""
        if self._plucker is None:
            basis = self.subspace_basis()
            if not basis:
                raise ValueError("empty span has no Plucker coordinates")
            self._plucker = plucker(MatrixExact(self.field, basis))
        return self._plucker

    def __eq__(self, other):
        if not isinstance(other, LinearSpan):
            return NotImplemented
        if self.curve != other.curve:
            return False
        fld = common_field(self.field, other.field)
        return (self.hyperplanes.map_field(fld).rows
                == other.hyperplanes.map_field(fld).rows)

    def __hash__(self):
        return hash((self.curve, self.s))

    def contains_vector(self, v):
        return not any(self.hyperplanes.apply([coerce(b, self.field) for b in v]))

    def __repr__(self):
        return f"LinearSpan(dim={self.dim} in P^{self.ambient - 1})"

    def to_json(self):
        fld = self.field
        out = {
            "ambient": self.ambient,
            "field": fld.describe(),
            "hyperplanes": [[fld.to_json(c) for c in row]
                            for row in self.hyperplanes.rows],
        }
        if self.dim >= 0:
            out["plucker"] = [fld.to_json(c) for c in self.plucker()]
        return out


def condition_rows(D):
    """D's hyperplane conditions as [(rows, [(P, halve), ..])], a group per
    point on a plane model and per x-fiber on a hyperelliptic one.  E <= D
    imposes the first k rows of a group, k the most its points P need:
    mult_E(P), or ceil(mult_E(P) / 2) at a branch point (``halve``)."""
    curve = D.curve
    g = curve.genus
    fld = D.field
    out = []
    if curve.model != "hyperelliptic":
        for P, m in D.items:
            if m == 1:
                rows = [[coerce(c, fld) for c in P.coords]]
            else:
                series = curve.canonical_series(P, m)
                rows = [[coerce(s.coefficient(l), fld) for s in series] for l in range(m)]
            out.append((rows, [(P, False)]))
        return out
    for t0, kind, group in x_fibers(curve, D):
        k = max(m if kind == "pair" else (m + 1) // 2 for _, m in group)
        if t0 is INF:
            rows = [[fld.one if j == g - 1 - l else fld.zero for j in range(g)]
                    for l in range(k)]
        else:
            rows = [[t0 ** (j - l) * comb(j, l) if j >= l else fld.zero for j in range(g)]
                    for l in range(k)]
        out.append((rows, [(P, kind == "branch") for P, _ in group]))
    return out


def hyperplane_conditions(D):
    """Matrix whose kernel is the space of hyperplanes h with D <= phi^* H."""
    return MatrixExact(D.field, [r for rows, _ in condition_rows(D) for r in rows])


def span(D):
    """The linear span of phi(D), multiplicity-aware."""
    curve = D.curve
    g = curve.genus
    fld = D.field
    M = hyperplane_conditions(D)
    if M.nrows == 0:
        basis = MatrixExact.identity(fld, g).rows
    else:
        basis = M.kernel_basis()
    return LinearSpan(curve, fld, basis)


def ell(D):
    """Dimension of the space of functions with poles bounded by D."""
    return D.degree - span(D).dim


def dim_complete(D):
    """Projective dimension of the complete linear system |D|."""
    return ell(D) - 1


def in_smooth_Wn(D):
    """Is D in the preimage of the smooth locus, i.e. ell(D) = 1?"""
    g = D.curve.genus
    if not 1 <= D.degree <= g - 1:
        raise ValueError(f"degree {D.degree} out of range 1..{g - 1}")
    return ell(D) == 1


def residual(D, cap=12):
    """A residual divisor F with D + F a hyperplane section (degree 2g-2):
    (H . C) - D for the first hyperplane H through span(D) in RREF order,
    one ``sections.meet``.  Requires D to be special.
    """
    sp = span(D)
    if sp.s < 1:
        raise NotSpecialError("residual construction requires a special divisor")
    return meet(D.curve, sp.hyperplanes.rows[:1], sp.field, cap) - D
