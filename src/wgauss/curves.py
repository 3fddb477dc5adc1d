"""Validated smooth curve models and their point geometry.

Three models are supported:

  * hyperelliptic  y^2 = f(x), f squarefree of degree 2g+1 or 2g+2, g >= 2
  * plane_quartic  a smooth ternary quartic (genus 3, canonically embedded)
  * canonical_g4   a smooth quadric-cubic complete intersection in P^3 (genus 4)

Homogeneous forms are sparse dicts keyed by exponent tuples.  Curve points
are either hyperelliptic points (affine (x, y) or tagged points at infinity)
or normalized projective points; coordinates may live in extensions of the
curve's base field.  The two canonical models share one base class: both are
cut out by forms in P^(g-1), their points are their own canonical
coordinates, and one local parametrization serves both.  Both point tables
and both samplers cut the curve with lines and planes in ``sections``.

Infinity conventions for y^2 = f(x): an odd-degree model has a single
involution-fixed point at infinity; an even-degree model has two, labelled
by w = y/x^(g+1) with w^2 = lc(f), swapped by the involution.

Every local parametrization comes from one chart solver (``_chart_series``):
the first chart variable whose complementary Jacobian minor is nonzero is
the parameter, and ``series_solve`` gives the others.  A canonical model is
solved on the chart where its normalization coordinate is 1; y^2 = f(x) on
itself at an affine point, and at infinity on w^2 = u^(2g+2) f(1/u), where
u = 1/x and y = w x^(g+1).

Smoothness of both plane models is decided over F_q by one bivariate test
on affine plane charts (``_chart_singular``): the Jacobian criterion for a
curve f(t, w) = 0, with w eliminated against each partial by resultants and
every candidate t verified exactly over its residue field.  A plane quartic
is tested on the three charts x_i = 1.  A genus-4 curve C = Q n E is tested
on the quadric itself: Q is a rank-4 quadric, split over F_q or over F_(q^2),
or a cone, and the cubic pulled back once to P^1 x P^1, or to the lines
through the cone's vertex, is a curve on charts isomorphic to open pieces of
Q (``sections.rulings``).  For small q an exhaustive search over F_(q^m) is
available as a cross-check.
"""

import hashlib
import json

from .algebra.fields import FieldError, PrimeField, coerce, field_from_json, projective_points
from .algebra.linalg import MatrixExact, bareiss_det, sylvester
from .algebra.mpoly import mp_coeff_list, mp_eval, mp_map_field, mp_partial, mp_substitute
from .algebra.poly import (
    Poly,
    conjugate_roots,
    factor_finite,
    poly_gcd,
    roots_in_splitting_extension,
)
from .algebra.series import TruncatedSeries, series_solve


class CurveError(ValueError):
    """Rejected curve description (singular model, bad degree, bad field)."""


class ValidationInconclusive(CurveError):
    """The smoothness decision procedure degenerated and could not certify."""


class SamplingExhausted(RuntimeError):
    """Rejection sampling ran out of budget (field too small)."""


class _P1Infinity:
    """The point at infinity of P^1 (x-coordinate of hyperelliptic infinity)."""

    def __repr__(self):
        return "INF"


INF = _P1Infinity()


class HomForm:
    """Homogeneous form of fixed degree in ``nvars`` variables."""

    __slots__ = ("field", "nvars", "degree", "coeffs")

    def __init__(self, field, nvars, degree, coeffs):
        clean = {}
        for exps, c in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or sum(exps) != degree:
                raise CurveError(f"monomial {exps} not homogeneous of degree {degree}")
            c = field.elem(c)
            if c:
                clean[exps] = c
        if not clean:
            raise CurveError("zero form")
        self.field = field
        self.nvars = nvars
        self.degree = degree
        self.coeffs = clean

    def __call__(self, point):
        return mp_eval(self.coeffs, point, self.field)

    def map_field(self, target):
        return HomForm(target, self.nvars, self.degree, mp_map_field(self.coeffs, target))

    def pullback(self, A, field=None):
        """F(sum_j A[j] t^j) as a Poly in t, over ``field`` (by default the
        field of the A[j]); each power of a coordinate is built once."""
        K = field or A[0][0].field
        cs = self.coeffs if self.field == K else mp_map_field(self.coeffs, K)
        xs = [Poly(K, [coerce(a[i], K) for a in A]) for i in range(self.nvars)]
        pw = [[Poly.one(K), x] for x in xs]
        out = Poly.zero(K)
        for exps, c in cs.items():
            term = None
            for i, e in enumerate(exps):
                if e:
                    while len(pw[i]) <= e:
                        pw[i].append(pw[i][-1] * xs[i])
                    term = pw[i][e] if term is None else term * pw[i][e]
            out = out + (term * c if term is not None else Poly(K, [c]))
        return out

    def restrict_plane(self, b0, b1, b2, field=None):
        """Ternary form of F restricted to the plane spanned by b0, b1, b2."""
        field = field or self.field
        images = []
        for i in range(self.nvars):
            im = {(1, 0, 0): coerce(b0[i], field),
                  (0, 1, 0): coerce(b1[i], field),
                  (0, 0, 1): coerce(b2[i], field)}
            images.append({k: v for k, v in im.items() if v})
        d = mp_substitute(mp_map_field(self.coeffs, field), images, field, 3)
        return HomForm(field, 3, self.degree, d)

    def to_json(self):
        items = sorted(self.coeffs.items())
        return {",".join(str(e) for e in k): self.field.to_json(v) for k, v in items}

    @classmethod
    def from_json(cls, field, nvars, degree, obj):
        coeffs = {}
        for key, val in obj.items():
            exps = [s.strip() for s in key.split(",")]
            if not all(s.isdecimal() for s in exps):
                raise CurveError(f"invalid curve description: monomial key {key!r} "
                                 "is not comma-separated exponents")
            coeffs[tuple(map(int, exps))] = field.from_json(val)
        return cls(field, nvars, degree, coeffs)

    def __eq__(self, other):
        if isinstance(other, HomForm):
            return (self.field == other.field and self.nvars == other.nvars
                    and self.degree == other.degree and self.coeffs == other.coeffs)
        return NotImplemented


# -- curve points -----------------------------------------------------------

class HyperellipticPoint:
    """Point on y^2 = f(x): affine (x, y) or infinity with branch label w."""

    __slots__ = ("kind", "x", "y", "w", "field")

    def __init__(self, kind, field, x=None, y=None, w=None):
        self.kind = kind
        self.field = field
        self.x = x
        self.y = y
        self.w = w

    @classmethod
    def affine(cls, field, x, y):
        return cls("aff", field, x=field.elem(x), y=field.elem(y))

    @classmethod
    def infinity(cls, field, w=None):
        return cls("inf", field, w=None if w is None else field.elem(w))

    def coerce(self, target):
        if self.kind == "aff":
            return HyperellipticPoint.affine(target, coerce(self.x, target),
                                             coerce(self.y, target))
        w = None if self.w is None else coerce(self.w, target)
        return HyperellipticPoint.infinity(target, w)

    def sort_key(self):
        f = self.field
        if self.kind == "aff":
            return (0, f.sort_key(self.x), f.sort_key(self.y))
        return (1, f.sort_key(self.w) if self.w is not None else ())

    def __eq__(self, other):
        if isinstance(other, HyperellipticPoint):
            if self.kind != other.kind or self.field != other.field:
                return False
            if self.kind == "aff":
                return self.x == other.x and self.y == other.y
            return self.w == other.w
        return NotImplemented

    def __hash__(self):
        if self.kind == "aff":
            return hash(("hp", hash(self.x), hash(self.y)))
        return hash(("hp-inf", hash(self.w)))

    def __repr__(self):
        if self.kind == "aff":
            return f"({self.x!r}, {self.y!r})"
        return f"(inf:{self.w!r})" if self.w is not None else "(inf)"


class ProjectivePoint:
    """Projective point, scaled so the first nonzero coordinate is one."""

    __slots__ = ("coords", "field")

    def __init__(self, field, coords):
        coords = [field.elem(c) for c in coords]
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise ValueError("zero vector is not a projective point")
        inv = field.one / lead
        self.coords = tuple(c * inv for c in coords)
        self.field = field

    def coerce(self, target):
        return ProjectivePoint(target, [coerce(c, target) for c in self.coords])

    def sort_key(self):
        return tuple(self.field.sort_key(c) for c in self.coords)

    def __eq__(self, other):
        if isinstance(other, ProjectivePoint):
            return self.field == other.field and self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(("pp",) + tuple(hash(c) for c in self.coords))

    def __repr__(self):
        return "(" + " : ".join(repr(c) for c in self.coords) + ")"


# -- hyperelliptic model -----------------------------------------------------

class HyperellipticCurve:
    model = "hyperelliptic"

    def __init__(self, field, f_coeffs):
        if not isinstance(field, PrimeField):
            raise CurveError("base field must be a prime field")
        f = Poly(field, f_coeffs)
        if f.degree < 5:
            raise CurveError(f"degree {f.degree} too small (genus would be < 2)")
        d = poly_gcd(f, f.derivative())
        if d.degree != 0:
            raise CurveError("f is not squarefree; the model is singular")
        self.field = field
        self.f = f
        self.genus = (f.degree - 1) // 2
        self.odd_model = f.degree % 2 == 1

    def contains(self, P):
        return P in self._above(INF if P.kind == "inf" else P.x, P.field)

    def infinity_points(self):
        """Points at infinity over the smallest field where they live."""
        return self.points_above_x(INF, self.field)

    def involution(self, P):
        if P.kind == "aff":
            return HyperellipticPoint.affine(P.field, P.x, -P.y)
        if P.w is None:
            return P
        return HyperellipticPoint.infinity(P.field, -P.w)

    def is_weierstrass(self, P):
        if P.kind == "aff":
            return not P.y
        return self.odd_model

    def _above(self, t0, K):
        """The points over t0 (INF allowed) with coordinates in K: none when
        f(t0), or lc(f) at INF on an even model, is not a square in K; one
        when it is zero or t0 is INF on an odd model; else the pair over
        (y, -y), with y from ``K.sqrt``."""
        if t0 is INF:
            if self.odd_model:
                return [HyperellipticPoint.infinity(K)]
            z = coerce(self.f.lead(), K)
        else:   # f(t0) in t0's own field, which may lie below K
            z = self.f(t0)
            if not K.contains(t0):
                t0, z = coerce(t0, K), coerce(z, K)
        if not z:
            ys = [z]
        else:
            y = K.sqrt(z)
            ys = [] if y is None else [y, -y]
        if t0 is INF:
            return [HyperellipticPoint.infinity(K, w) for w in ys]
        return [HyperellipticPoint.affine(K, t0, y) for y in ys]

    def points_above_x(self, t0, field):
        """Points of the fiber of the x-map over t0 (INF allowed), over
        ``field`` or, when none lie there, over its quadratic extension; the
        ramification convention is left to the caller."""
        return self._above(t0, field) or self._above(t0, field.extension(2))

    def weierstrass_points(self, cap=12):
        """All 2g+2 fixed points of the involution, over a splitting extension."""
        K, roots = roots_in_splitting_extension(self.f, cap=cap)
        pts = [HyperellipticPoint.affine(K, r, K.zero) for r, _ in roots]
        if self.odd_model:
            pts.append(HyperellipticPoint.infinity(K))
        return K, pts

    def sample_point(self, rng):
        for _ in range(10000):
            pts = self._above(self.field.rand(rng), self.field)
            if pts:
                return pts[rng.randrange(2)] if len(pts) == 2 else pts[0]
        raise SamplingExhausted("no point found within budget")

    def canonical_coords(self, P):
        """phi(P) = (1 : x : ... : x^(g-1)), infinity mapping to (0 : ... : 1)."""
        g = self.genus
        if P.kind == "inf":
            return ProjectivePoint(P.field, [0] * (g - 1) + [1])
        out, cur = [], P.field.one
        for _ in range(g):
            out.append(cur)
            cur = cur * P.x
        return ProjectivePoint(P.field, out)

    def local_series(self, P, order):
        """(x(t), y(t)) Laurent series of a local parametrization at P, from
        the chart solver on y^2 = f(x) at an affine point and on w^2 =
        u^(2g+2) f(1/u) at infinity, where x = 1/u and y = w x^(g+1)."""
        fld, g = P.field, self.genus
        fl = self.f.map_field(fld)
        if P.kind == "aff":
            h, vals, prec = fl, [P.x, P.y], order
        else:
            w0 = fld.zero if P.w is None else P.w
            h, vals, prec = fl.reverse(2 * g + 2), [fld.zero, w0], order + 4 * (g + 1)
        eq = {(i, 0): -c for i, c in enumerate(h.coeffs) if c}
        eq[(0, 2)] = fld.one
        a, b = _chart_series([eq], vals, prec, fld)
        if P.kind == "aff":
            return a, b
        x = a.inverse()
        return x, b * x ** (g + 1)

    def canonical_series(self, P, order):
        """Canonical coordinates along the local parametrization, normalized
        to regular series with some coordinate nonzero at t = 0."""
        g = self.genus
        x, _ = self.local_series(P, order + 4 * g + 8)
        fld = x.field
        coords = []
        cur = TruncatedSeries.constant(fld, fld.one, x.prec + 4 * g + 8)
        for _ in range(g):
            coords.append(cur)
            cur = cur * x
        v = min(c.valuation() for c in coords)
        out = [c.shift(-v).truncate(order) for c in coords]
        assert all(c.prec >= order for c in out)
        return out

    def describe(self):
        return {
            "model": self.model,
            "field": self.field.describe(),
            "f": [self.field.to_json(c) for c in self.f.coeffs],
        }

    def __eq__(self, other):
        return (isinstance(other, HyperellipticCurve)
                and self.field == other.field and self.f == other.f)

    def __hash__(self):
        return hash(("he", self.field, self.f))

    def points_over(self, rel_degree=1):
        """All points with coordinates in the degree-``rel_degree`` extension."""
        K = self.field.extension(rel_degree)
        out = [P for t0 in K.elements() for P in self._above(t0, K)]
        return K, out + self._above(INF, K)


def _chart_series(eqs, vals, order, field):
    """Series of the chart variables along a local parametrization of the
    affine curve eqs = 0 (dicts keyed by exponent tuples) at its point
    ``vals``, each of precision ``order``: the parameter variable runs as
    its value + t."""
    n = len(vals)
    jac = [[mp_eval(mp_partial(eq, i, field), vals, field) for i in range(n)] for eq in eqs]
    for param in range(n):
        solved = [i for i in range(n) if i != param]
        if MatrixExact(field, [[row[i] for i in solved] for row in jac]).det():
            break
    else:
        raise CurveError("singular point hit in local_series")
    # the equations in (t, y_1, .., y_r): the parameter variable becomes
    # val + t, the a-th solved variable y_a
    images = [None] * n
    for a, i in enumerate([param] + solved):
        images[i] = {tuple(int(a == b) for b in range(n)): field.one}
    images[param][(0,) * n] = vals[param]
    eqs = [mp_substitute(eq, images, field, n) for eq in eqs]
    out = series_solve(eqs, [vals[i] for i in solved], order, field)
    out.insert(param, TruncatedSeries(field, [vals[param], field.one], order))
    return out


# -- canonical models ---------------------------------------------------------

class _CanonicalCurve:
    """A canonically embedded curve in P^(g-1), cut out by ``self.forms``;
    its points are ProjectivePoints, their own canonical coordinates."""

    def contains(self, P):
        return not any(F.map_field(P.field)(P.coords) for F in self.forms)

    def involution(self, P):
        raise CurveError("involution is defined only for hyperelliptic models")

    def canonical_coords(self, P):
        return P

    def local_series(self, P, order):
        """Local parametrization of the curve, a complete intersection, at P:
        g regular series, the normalization coordinate the constant 1 and
        the others from the chart solver on the chart where it is 1."""
        fld = P.field
        norm = next(i for i, c in enumerate(P.coords) if c)  # == 1 after normalization
        rest = [i for i in range(self.genus) if i != norm]
        out = _chart_series([_dehom(F.map_field(fld).coeffs, rest) for F in self.forms],
                            [P.coords[i] for i in rest], order, fld)
        out.insert(norm, TruncatedSeries.constant(fld, fld.one, order))
        return out

    canonical_series = local_series

    def points_over(self, rel_degree=1):
        """(K, the sorted points of C(K)), K = F_(q^m) for m = rel_degree,
        read by Frobenius orbit (``sections.points_over``)."""
        from .sections import points_over
        K = self.field.extension(rel_degree)
        return K, points_over(self, K)

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.forms == other.forms)

    def __hash__(self):
        return hash((self.model, self.field) + tuple(tuple(sorted(F.coeffs)) for F in self.forms))


class PlaneQuarticCurve(_CanonicalCurve):
    model = "plane_quartic"
    genus = 3

    def __init__(self, field, form, check=True):
        if not isinstance(form, HomForm):
            form = HomForm(field, 3, 4, form)
        if form.nvars != 3 or form.degree != 4:
            raise CurveError("expected a ternary quartic form")
        self.field = field
        self.form = form
        self.forms = (form,)
        if check:
            _certify_smooth_plane_quartic(self)

    def sample_point(self, rng):
        from .sections import line_cut
        F = self.field
        for _ in range(2000):
            b0 = [F.rand(rng) for _ in range(3)]
            b1 = [F.rand(rng) for _ in range(3)]
            if MatrixExact(F, [b0, b1]).rank() != 2:
                continue
            pts = line_cut(self, [b0, b1], F)
            if not pts:
                continue
            P = pts[rng.randrange(len(pts))][0]
            assert self.contains(P)
            return P
        raise SamplingExhausted("no point found within budget")

    def describe(self):
        return {
            "model": self.model,
            "field": self.field.describe(),
            "form": self.form.to_json(),
        }


class CanonicalG4Curve(_CanonicalCurve):
    model = "canonical_g4"
    genus = 4

    def __init__(self, field, quadric, cubic, check=True):
        if not isinstance(quadric, HomForm):
            quadric = HomForm(field, 4, 2, quadric)
        if not isinstance(cubic, HomForm):
            cubic = HomForm(field, 4, 3, cubic)
        if quadric.nvars != 4 or quadric.degree != 2:
            raise CurveError("expected a quaternary quadric")
        if cubic.nvars != 4 or cubic.degree != 3:
            raise CurveError("expected a quaternary cubic")
        self.field = field
        self.quadric = quadric
        self.cubic = cubic
        self.forms = (quadric, cubic)
        self.gram = gram_matrix(field, quadric)
        if check:
            _certify_smooth_g4(self)

    def sample_point(self, rng):
        from .sections import plane_rational_points
        F = self.field
        for _ in range(2000):
            h = [F.rand(rng) for _ in range(4)]
            if not any(h):
                continue
            pts = plane_rational_points(self, h)
            if not pts:
                continue
            return pts[rng.randrange(len(pts))]
        raise SamplingExhausted("no point found within budget")

    def describe(self):
        return {
            "model": self.model,
            "field": self.field.describe(),
            "forms": {"quadric": self.quadric.to_json(), "cubic": self.cubic.to_json()},
        }


# -- resultants -------------------------------------------------------------

def _res_in_last_var(g1, g2, d1, d2, field):
    """Resultant of two bivariate dicts viewed as polys in variable 1,
    with formal degrees d1, d2; entries become univariate Polys in var 0."""
    zero = Poly.zero(field)

    def coeff_polys(g, d):   # highest power of variable 1 first
        out = []
        for c in mp_coeff_list(g, 1):
            deg = max((k[0] for k in c), default=-1)
            out.append(Poly(field, [c.get((i,), field.zero) for i in range(deg + 1)]))
        return [zero] * (d + 1 - len(out)) + out[::-1]

    rows = sylvester(coeff_polys(g1, d1), coeff_polys(g2, d2), zero)
    return bareiss_det(rows, Poly.one(field))


def gram_matrix(field, quadric):
    """The symmetric matrix G of a quadratic form: Q(x) = x.G.x."""
    half = field.one / field.elem(2)
    n = quadric.nvars
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                key = tuple(2 if t == i else 0 for t in range(n))
                row.append(quadric.coeffs.get(key, field.zero))
            else:
                key = tuple(1 if t in (i, j) else 0 for t in range(n))
                row.append(quadric.coeffs.get(key, field.zero) * half)
        rows.append(row)
    return MatrixExact(field, rows)


# -- smoothness certification ------------------------------------------------

def _certify_smooth_plane_quartic(curve):
    for i in range(3):   # the charts x_i = 1
        chart = _dehom(curve.form.coeffs, [j for j in range(3) if j != i])
        if _chart_singular(curve.field, chart):
            raise CurveError("singular plane quartic")


def _certify_smooth_g4(curve):
    """C = Q n E on the quadric: the cubic is pulled back once to the
    rulings' parameter space over its field of definition K (P^1 x P^1 for
    a rank-4 quadric, split over F_q or F_(q^2); the lines through the vertex
    for a cone), where C is a curve G = 0 on charts isomorphic to open
    pieces of Q, or of the cone minus its vertex."""
    if curve.gram.rank() < 3:
        raise CurveError("quadric has rank < 3; the intersection is singular")
    from .sections import rulings
    kind, K, images = rulings(curve)
    G = mp_substitute(mp_map_field(curve.cubic.coeffs, K), images, K, 4)
    if not G:
        raise CurveError("cubic is a multiple of the quadric")
    # G is keyed (u, v, s, t); on the cone G(0, v, s, t) = v^3 E(vertex), and
    # the vertex, singular on Q, is singular on C when it lies on E
    if kind == "cone":
        singular = (0, 3, 0, 0) not in G
        charts = [(1, 3), (1, 2)]             # u = 1, and s = 1 or t = 1
    else:
        singular = False
        charts = [(1, 3), (1, 2), (0, 3), (0, 2)]
    if singular or any(_chart_singular(K, _dehom(G, keep)) for keep in charts):
        raise CurveError("singular quadric-cubic intersection")


def _dehom(d, keep):
    """A (bi)homogeneous dict on the chart where the variables outside
    ``keep`` are 1, keyed by the exponents of ``keep``."""
    return {tuple(k[j] for j in keep): c for k, c in d.items()}


def _chart_singular(field, f):
    """Has the affine curve f(t, w) = 0 (a dict keyed (i, j) for t^i w^j) a
    singular point over the algebraic closure of ``field``?

    The Jacobian criterion: a singular point is a common zero of f, f_t and
    f_w.  w is eliminated from f against each nonzero partial, so a singular
    point's t is a root of every resultant and of their gcd, and one root
    of each irreducible factor of the gcd is verified exactly.  If every
    resultant vanishes, f shares a factor with each partial, so the curve is
    reducible or non-reduced: singular either way, as a reducible complete
    intersection is connected.
    """
    if not any(k[1] for k in f):
        f = {(j, i): c for (i, j), c in f.items()}   # eliminate a variable of f
        if not any(k[1] for k in f):
            return False   # f is a constant: the chart holds no point
    parts = [h for h in (mp_partial(f, 0, field), mp_partial(f, 1, field)) if h]
    d = max(k[1] for k in f)
    g = None
    for h in parts:
        r = _res_in_last_var(f, h, d, max(k[1] for k in h), field)
        if not r.is_zero():
            g = r if g is None else poly_gcd(g, r)
    return g is None or _verify_candidates_bivar(field, [f] + parts, g)


def _verify_candidates_bivar(field, sys2, g):
    """Has the system of dicts in (t, w) a common zero over the closure whose
    t is a root of g?  One root of each irreducible factor of g decides its
    Galois orbit."""
    for f, _ in factor_finite(g):
        if f.degree < 1:
            continue
        K = field.extension(f.degree)
        t0 = conjugate_roots(f, K)[0]
        common = None
        for d in sys2:
            cs = [K.zero] * (max(k[1] for k in d) + 1)
            for (i, j), v in d.items():
                cs[j] = cs[j] + coerce(v, K) * t0 ** i
            h = Poly(K, cs)
            if not h.is_zero():
                common = h if common is None else poly_gcd(common, h)
        if common is None or common.degree >= 1:
            return True
    return False


def exhaustive_singular_search(curve, rel_degree=1):
    """Rational singular points by brute force (small fields; cross-check):
    the points of C(K) where the forms' gradients have rank < len(forms)."""
    if not isinstance(curve, _CanonicalCurve):
        raise CurveError("exhaustive search applies to plane models")
    K = curve.field.extension(rel_degree)
    forms = [F.map_field(K) for F in curve.forms]
    grads = [[mp_partial(F.coeffs, i, K) for i in range(curve.genus)] for F in forms]
    found = []
    for P in projective_points(K, curve.genus):
        if any(F(P) for F in forms):
            continue
        jac = MatrixExact(K, [[mp_eval(g, P, K) for g in row] for row in grads])
        if jac.rank() < len(forms):
            found.append(ProjectivePoint(K, P))
    return found


# -- public constructors / serialization -------------------------------------

def validate(description):
    """Build a validated Curve from a description dict (or pass one through)."""
    if isinstance(description, (HyperellipticCurve, _CanonicalCurve)):
        return description
    if not isinstance(description, dict):
        raise CurveError("invalid curve description: not a JSON object")
    model = description.get("model")
    if model not in ("hyperelliptic", "plane_quartic", "canonical_g4"):
        raise CurveError(f"unknown model {model!r}")
    # a field or coefficient the description cannot supply is a fault of
    # the description, not of the library
    try:
        field = field_from_json(description.get("field"))
        if model == "hyperelliptic":
            f = [field.from_json(c) for c in _entry(description, "f", list)]
        elif model == "plane_quartic":
            form = HomForm.from_json(field, 3, 4, _entry(description, "form", dict))
        else:
            forms = _entry(description, "forms", dict)
            quad = HomForm.from_json(field, 4, 2, _entry(forms, "quadric", dict))
            cub = HomForm.from_json(field, 4, 3, _entry(forms, "cubic", dict))
    except FieldError as e:
        raise CurveError(f"invalid curve description: {e}") from e
    if model == "hyperelliptic":
        return HyperellipticCurve(field, f)
    if model == "plane_quartic":
        return PlaneQuarticCurve(field, form)
    return CanonicalG4Curve(field, quad, cub)


def _entry(obj, key, kind):
    """obj[key], which must be a JSON array (list) or object (dict)."""
    value = obj.get(key)
    if not isinstance(value, kind):
        raise CurveError(f"invalid curve description: {key!r} is not a JSON "
                         f"{'array' if kind is list else 'object'}")
    return value


def curve_hash(curve):
    blob = json.dumps(curve.describe(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
