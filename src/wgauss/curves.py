"""Validated smooth curve models and their point geometry.

Three models are supported:

  * hyperelliptic  y^2 = f(x), f squarefree of degree 2g+1 or 2g+2, g >= 2
  * plane_quartic  a smooth ternary quartic (genus 3, canonically embedded)
  * canonical_g4   a smooth quadric-cubic complete intersection in P^3 (genus 4)

Homogeneous forms are sparse dicts keyed by exponent tuples.  Curve points
are either hyperelliptic points (affine (x, y) or tagged points at infinity)
or normalized projective points; coordinates may live in extensions of the
curve's base field.

Infinity conventions for y^2 = f(x): an odd-degree model has a single
involution-fixed point at infinity; an even-degree model has two, labelled
by w = y/x^(g+1) with w^2 = lc(f), swapped by the involution.  The chart at
infinity uses u = 1/x throughout.

Smoothness of the plane models is decided by resultant elimination with
candidate verification over finite fields; rational-coefficient models are
certified through reduction at a good prime.  For small p (<= 101) an
exhaustive rational search is available as a cross-check.
"""

import hashlib
import json
import random
from math import comb

from .algebra.fields import (
    QQ,
    ExtField,
    FieldError,
    PrimeField,
    Rationals,
    coerce,
    field_from_json,
)
from .algebra.linalg import MatrixExact
from .algebra.poly import (
    Poly,
    conic_cubic_resultant,
    distinct_roots_in_field,
    factor_finite,
    poly_gcd,
    roots_in_field,
    roots_in_splitting_extension,
)
from .algebra.series import (
    TruncatedSeries,
    series_solve,
    series_solve_system2,
)


class CurveError(ValueError):
    """Rejected curve description (singular model, bad degree, bad field)."""


class ValidationInconclusive(CurveError):
    """The smoothness decision procedure degenerated and could not certify."""


class SamplingExhausted(RuntimeError):
    """Rejection sampling ran out of budget (field too small)."""


class _P1Infinity:
    """The point at infinity of P^1 (x-coordinate of hyperelliptic infinity)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _P1Infinity()


# -- sparse multivariate polynomials (dict keyed by exponent tuples) --------

def mp_add(a, b, field):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        nv = v if w is None else w + v
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


def mp_mul(a, b, field):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            w = out.get(k)
            nv = va * vb if w is None else w + va * vb
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
    return out


def mp_scale(a, c, field):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def mp_substitute(a, images, field, arity):
    """Substitute images[i] (a dict of the output arity) for variable i."""
    out = {}
    cache = [{} for _ in images]

    def power(i, e):
        if e == 0:
            return {(0,) * arity: field.one}
        got = cache[i].get(e)
        if got is None:
            got = mp_mul(power(i, e - 1), images[i], field)
            cache[i][e] = got
        return got

    for exps, c in a.items():
        term = {(0,) * arity: c}
        for i, e in enumerate(exps):
            if e:
                term = mp_mul(term, power(i, e), field)
        out = mp_add(out, term, field)
    return out


def mp_eval(a, point, field):
    acc = field.zero
    for exps, c in a.items():
        t = c
        for x, e in zip(point, exps):
            if e:
                t = t * x ** e
        acc = acc + t
    return acc


def mp_partial(a, i, field):
    out = {}
    for exps, c in a.items():
        if exps[i]:
            k = tuple(e - (1 if j == i else 0) for j, e in enumerate(exps))
            v = c * exps[i]
            if v:
                out[k] = out.get(k, field.zero) + v
    return {k: v for k, v in out.items() if v}


def mp_map_field(a, target):
    return {k: coerce(v, target) for k, v in a.items()}


def mp_coeff_list(a, var, field):
    """View as a polynomial in variable ``var``: list of dicts without that var."""
    if not a:
        return []
    d = max(k[var] for k in a)
    out = [dict() for _ in range(d + 1)]
    for exps, c in a.items():
        rest = exps[:var] + exps[var + 1:]
        out[exps[var]][rest] = c
    return out


class HomForm:
    """Homogeneous form of fixed degree in ``nvars`` variables."""

    __slots__ = ("field", "nvars", "degree", "coeffs")

    def __init__(self, field, nvars, degree, coeffs):
        clean = {}
        for exps, c in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or sum(exps) != degree:
                raise CurveError(f"monomial {exps} not homogeneous of degree {degree}")
            c = field.elem(c) if not field.contains(c) else c
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

    def partial(self, i):
        d = mp_partial(self.coeffs, i, self.field)
        return d  # raw dict; degree-0 partials of linear forms are fine as dicts

    def map_field(self, target):
        return HomForm(target, self.nvars, self.degree, mp_map_field(self.coeffs, target))

    def restrict_line(self, b0, b1, field=None):
        """Binary form coefficients [c_0..c_d] of F(s*b0 + t*b1), c_j on s^(d-j) t^j."""
        field = field or self.field
        images = [
            {(1, 0): coerce(b0[i], field), (0, 1): coerce(b1[i], field)}
            for i in range(self.nvars)
        ]
        images = [{k: v for k, v in im.items() if v} for im in images]
        d = mp_substitute(mp_map_field(self.coeffs, field), images, field, 2)
        out = [field.zero] * (self.degree + 1)
        for (i, j), c in d.items():
            out[j] = c
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
            exps = tuple(int(s) for s in key.split(","))
            coeffs[exps] = field.from_json(val)
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
        return cls("aff", field, x=field.elem(x) if not field.contains(x) else x,
                   y=field.elem(y) if not field.contains(y) else y)

    @classmethod
    def infinity(cls, field, w=None):
        if w is not None and not field.contains(w):
            w = field.elem(w)
        return cls("inf", field, w=w)

    def is_infinite(self):
        return self.kind == "inf"

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
        coords = [field.elem(c) if not field.contains(c) else c for c in coords]
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


def _ext_over(field, factor):
    """Extension of ``field`` by the given relative degree."""
    if factor == 1:
        return field
    if isinstance(field, Rationals):
        raise FieldError("extensions of QQ are not supported")
    return ExtField(field.char, field.degree * factor)


def _sqrt_in_tower(field, a):
    """(field', root) with root^2 = a; extends by degree 2 when needed."""
    r = field.sqrt(a)
    if r is not None:
        return field, r
    if isinstance(field, Rationals):
        raise FieldError("square root requires a quadratic extension of QQ")
    up = _ext_over(field, 2)
    r = up.sqrt(coerce(a, up))
    assert r is not None
    return up, r


# -- hyperelliptic model -----------------------------------------------------

class HyperellipticCurve:
    model = "hyperelliptic"

    def __init__(self, field, f_coeffs):
        if field is not QQ and not isinstance(field, (PrimeField, Rationals)):
            raise CurveError("base field must be QQ or a prime field")
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

    @property
    def ambient_dim(self):
        return self.genus  # canonical coordinates have g entries

    def contains(self, P):
        if P.kind == "aff":
            fl = self.f.map_field(P.field)
            return P.y * P.y == fl(P.x)
        if self.odd_model:
            return P.w is None
        lead = coerce(self.f.lead(), P.field)
        return P.w is not None and P.w * P.w == lead

    def infinity_points(self):
        """Points at infinity over the smallest field where they live."""
        if self.odd_model:
            return [HyperellipticPoint.infinity(self.field)]
        fld, w = _sqrt_in_tower(self.field, self.f.lead())
        return [HyperellipticPoint.infinity(fld, w),
                HyperellipticPoint.infinity(fld, -w)]

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

    def x_value(self, P):
        return P.x if P.kind == "aff" else INF

    def points_above_x(self, t0, field):
        """Points of the fiber of the x-map over t0 (INF allowed), with the
        ramification convention left to the caller."""
        if t0 is INF:
            if self.odd_model:
                return [HyperellipticPoint.infinity(field)]
            fld, w = _sqrt_in_tower(field, coerce(self.f.lead(), field))
            return [HyperellipticPoint.infinity(fld, w),
                    HyperellipticPoint.infinity(fld, -w)]
        t0 = coerce(t0, field) if not field.contains(t0) else t0
        z = self.f.map_field(field)(t0)
        if not z:
            return [HyperellipticPoint.affine(field, t0, field.zero)]
        fld, y = _sqrt_in_tower(field, z)
        t0 = coerce(t0, fld)
        return [HyperellipticPoint.affine(fld, t0, y),
                HyperellipticPoint.affine(fld, t0, -y)]

    def weierstrass_points(self, cap=12):
        """All 2g+2 fixed points of the involution, over a splitting extension."""
        K, roots = roots_in_splitting_extension(self.f, cap=cap)
        pts = [HyperellipticPoint.affine(K, r, K.zero) for r, _ in roots]
        if self.odd_model:
            pts.append(HyperellipticPoint.infinity(K))
        return K, pts

    def sample_point(self, rng, budget=10000):
        if not self.field.is_finite:
            raise CurveError("point sampling requires a finite base field")
        for _ in range(budget):
            x0 = self.field.rand(rng)
            z = self.f(x0)
            if not z:
                return HyperellipticPoint.affine(self.field, x0, self.field.zero)
            y = self.field.sqrt(z)
            if y is None:
                continue
            if rng.randrange(2):
                y = -y
            return HyperellipticPoint.affine(self.field, x0, y)
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
        """(x(t), y(t)) Laurent series of a local parametrization at P."""
        fld = P.field
        fl = self.f.map_field(fld)
        g = self.genus
        if P.kind == "aff":
            shifted = _taylor_shift(fl, P.x)
            if P.y:
                # parameter t = x - x0, solve y(t)^2 = f(x0 + t)
                eq = {(i, 0): -c for i, c in enumerate(shifted.coeffs)}
                eq[(0, 2)] = fld.one
                y = series_solve(eq, P.y, order, fld)
                x = TruncatedSeries(fld, [P.x, fld.one], order)
                return x, y
            # Weierstrass point: parameter t = y, solve f(x0 + X(t)) = t^2
            eq = {(0, j): c for j, c in enumerate(shifted.coeffs)}
            eq[(2, 0)] = eq.get((2, 0), fld.zero) - fld.one
            eq = {k: v for k, v in eq.items() if v}
            X = series_solve(eq, fld.zero, order, fld)
            x = X + TruncatedSeries.constant(fld, P.x, order)
            y = TruncatedSeries(fld, [fld.zero, fld.one], order)
            return x, y
        # infinity: chart u = 1/x, w = y / x^(g+1), so w^2 = f(x) / x^(2g+2)
        rev = fl.reverse(2 * g + 2)
        need = order + 4 * (g + 1)
        if self.odd_model:
            # rev(u) = u * r(u) with r(0) = lc(f); branch point, parameter t = w
            r = Poly(fld, rev.coeffs[1:])
            eq = {(0, j + 1): c for j, c in enumerate(r.coeffs)}
            eq[(2, 0)] = -fld.one
            u = series_solve({k: v for k, v in eq.items() if v}, fld.zero, need, fld)
            x = u.inverse()
            w = TruncatedSeries(fld, [fld.zero, fld.one], need)
            y = w * x ** (g + 1)
            return x, y
        # even model, two points; parameter t = u, solve w(t)^2 = rev(t)
        eq = {(j, 0): c for j, c in enumerate(rev.coeffs)}
        eq[(0, 2)] = eq.get((0, 2), fld.zero) - fld.one
        w = series_solve({k: v for k, v in eq.items() if v}, P.w, need, fld)
        u = TruncatedSeries(fld, [fld.zero, fld.one], need)
        x = u.inverse()
        y = w * x ** (g + 1)
        return x, y

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
        return hash(("he", self.field, self.f.coeffs))

    def points_over(self, rel_degree=1):
        """All points with coordinates in the degree-``rel_degree`` extension."""
        if not self.field.is_finite:
            raise CurveError("enumeration requires a finite field")
        K = _ext_over(self.field, rel_degree)
        fl = self.f.map_field(K)
        out = []
        for x0 in K.elements():
            z = fl(x0)
            if not z:
                out.append(HyperellipticPoint.affine(K, x0, K.zero))
                continue
            y = K.sqrt(z)
            if y is not None:
                out.append(HyperellipticPoint.affine(K, x0, y))
                out.append(HyperellipticPoint.affine(K, x0, -y))
        if self.odd_model:
            out.append(HyperellipticPoint.infinity(K))
        else:
            w = K.sqrt(coerce(self.f.lead(), K))
            if w is not None:
                out.append(HyperellipticPoint.infinity(K, w))
                out.append(HyperellipticPoint.infinity(K, -w))
        return K, out


def _taylor_shift(f, a):
    """f(a + t) as a polynomial in t."""
    field = f.field
    out = Poly.zero(field)
    xa = Poly(field, [a, field.one])
    for c in reversed(f.coeffs):
        out = out * xa + Poly(field, [c])
    return out


# -- plane models ------------------------------------------------------------

class PlaneQuarticCurve:
    model = "plane_quartic"
    genus = 3

    def __init__(self, field, form, check=True):
        if not isinstance(form, HomForm):
            form = HomForm(field, 3, 4, form)
        if form.nvars != 3 or form.degree != 4:
            raise CurveError("expected a ternary quartic form")
        self.field = field
        self.form = form
        if check:
            _certify_smooth_plane_quartic(self)

    @property
    def ambient_dim(self):
        return 3

    def contains(self, P):
        return not self.form.map_field(P.field)(P.coords)

    def involution(self, P):
        raise CurveError("involution is defined only for hyperelliptic models")

    def canonical_coords(self, P):
        return P

    def sample_point(self, rng, budget=2000):
        if not self.field.is_finite:
            raise CurveError("point sampling requires a finite base field")
        F = self.field
        for _ in range(budget):
            b0 = [F.rand(rng) for _ in range(3)]
            b1 = [F.rand(rng) for _ in range(3)]
            m = MatrixExact(F, [b0, b1])
            if m.rank() != 2:
                continue
            quart = self.form.restrict_line(b0, b1)
            pts = _binary_rational_points(F, quart)
            if not pts:
                continue
            s0, t0 = pts[rng.randrange(len(pts))]
            coords = [s0 * a + t0 * b for a, b in zip(b0, b1)]
            P = ProjectivePoint(F, coords)
            assert self.contains(P)
            return P
        raise SamplingExhausted("no point found within budget")

    def local_series(self, P, order):
        return _plane_local_series([self.form], P, order, nvars=3)

    def canonical_series(self, P, order):
        return self.local_series(P, order)

    def points_over(self, rel_degree=1):
        if not self.field.is_finite:
            raise CurveError("enumeration requires a finite field")
        K = _ext_over(self.field, rel_degree)
        form = self.form.map_field(K)
        out = []
        # affine chart x = 1, plus the line at infinity x = 0
        for y0 in K.elements():
            coeffs = [K.zero] * 5
            for (i, j, k), c in form.coeffs.items():
                coeffs[k] = coeffs[k] + c * y0 ** j
            for z0, _ in roots_in_field(Poly(K, coeffs)):
                out.append(ProjectivePoint(K, [K.one, y0, z0]))
            if not any(coeffs):
                raise CurveError("quartic contains a line; not smooth")
        coeffs = [K.zero] * 5
        for (i, j, k), c in form.coeffs.items():
            if i == 0:
                coeffs[k] = coeffs[k] + c
        for z0, _ in roots_in_field(Poly(K, coeffs)):
            out.append(ProjectivePoint(K, [K.zero, K.one, z0]))
        if not form((K.zero, K.zero, K.one)):
            out.append(ProjectivePoint(K, [K.zero, K.zero, K.one]))
        return K, out

    def describe(self):
        return {
            "model": self.model,
            "field": self.field.describe(),
            "form": self.form.to_json(),
        }

    def __eq__(self, other):
        return (isinstance(other, PlaneQuarticCurve)
                and self.field == other.field and self.form == other.form)

    def __hash__(self):
        return hash(("pq", self.field, tuple(sorted(self.form.coeffs))))


class CanonicalG4Curve:
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
        if check:
            _certify_smooth_g4(self)

    @property
    def ambient_dim(self):
        return 4

    def contains(self, P):
        return (not self.quadric.map_field(P.field)(P.coords)
                and not self.cubic.map_field(P.field)(P.coords))

    def involution(self, P):
        raise CurveError("involution is defined only for hyperelliptic models")

    def canonical_coords(self, P):
        return P

    def sample_point(self, rng, budget=2000):
        if not self.field.is_finite:
            raise CurveError("point sampling requires a finite base field")
        F = self.field
        for _ in range(budget):
            h = [F.rand(rng) for _ in range(4)]
            if not any(h):
                continue
            pts = self.plane_rational_points(h)
            if not pts:
                continue
            return pts[rng.randrange(len(pts))]
        raise SamplingExhausted("no point found within budget")

    def plane_rational_points(self, h):
        """Rational points of the curve on the plane with normal vector h."""
        F = self.field
        basis = _plane_basis(self, h)
        if basis is None:
            raise ValidationInconclusive("no usable basis for the plane")
        b0, b1, b2 = basis
        conic = self.quadric.restrict_plane(b0, b1, b2)
        cub = self.cubic.restrict_plane(b0, b1, b2)
        out = []
        for (a0, bb0, c0) in _ternary_common_rational_zeros(F, conic, cub):
            coords = [a0 * u + bb0 * v + c0 * w for u, v, w in zip(b0, b1, b2)]
            P = ProjectivePoint(F, coords)
            if self.contains(P):
                out.append(P)
        seen, uniq = set(), []
        for P in out:
            if P.coords not in seen:
                seen.add(P.coords)
                uniq.append(P)
        return uniq

    def local_series(self, P, order):
        return _plane_local_series([self.quadric, self.cubic], P, order, nvars=4)

    def canonical_series(self, P, order):
        return self.local_series(P, order)

    def points_over(self, rel_degree=1):
        """(K, the sorted points of C(K)), K = F_(q^m) for m = rel_degree.

        The points are found line by line on the rulings of the quadric
        (``rulings``): through the Segre map when the quadric has rank 4
        and splits over K, through the vertex when it is a cone.  A rank-4
        quadric whose determinant is not a square in K (possible only for
        odd m) keeps the sweep over the pencil of planes through the line
        x0 = x1 = 0.
        """
        if not self.field.is_finite:
            raise CurveError("enumeration requires a finite field")
        from .rulings import points_over
        K = _ext_over(self.field, rel_degree)
        return K, points_over(self, K)

    def describe(self):
        return {
            "model": self.model,
            "field": self.field.describe(),
            "forms": {"quadric": self.quadric.to_json(), "cubic": self.cubic.to_json()},
        }

    def __eq__(self, other):
        return (isinstance(other, CanonicalG4Curve) and self.field == other.field
                and self.quadric == other.quadric and self.cubic == other.cubic)

    def __hash__(self):
        return hash(("g4", self.field, tuple(sorted(self.quadric.coeffs)),
                     tuple(sorted(self.cubic.coeffs))))


def _binary_rational_points(field, coeffs):
    """Rational projective roots (s, t) of a binary form given by coeffs."""
    poly = Poly(field, coeffs)
    out = []
    if poly.is_zero():
        raise CurveError("restriction vanished identically")
    d = len(coeffs) - 1
    for r, _ in roots_in_field(poly):
        out.append((field.one, r))
    if poly.degree < d:
        out.append((field.zero, field.one))
    return out


def _plane_local_series(forms, P, order, nvars):
    """Local parametrization of a smooth complete-intersection plane point.

    Returns ``nvars`` regular series: the normalization coordinate is the
    constant 1, the parameter coordinate is linear in t, the remaining ones
    solve the system.
    """
    fld = P.field
    coords = P.coords
    norm = next(i for i, c in enumerate(coords) if c)  # == 1 after normalization
    rest = [i for i in range(nvars) if i != norm]
    # affine forms in the chart variables, as dicts over ``rest``
    affs = []
    for form in forms:
        d = {}
        for exps, c in form.map_field(fld).coeffs.items():
            key = tuple(exps[i] for i in rest)
            d[key] = d.get(key, fld.zero) + c
        affs.append({k: v for k, v in d.items() if v})
    vals = [coords[i] for i in rest]

    if len(forms) == 1:
        # plane curve: choose solved variable by nonzero partial
        aff = affs[0]
        parts = [mp_eval(mp_partial(aff, i, fld), vals, fld) for i in range(2)]
        solve_i = 1 if parts[1] else 0
        param_i = 1 - solve_i
        if not parts[solve_i]:
            raise CurveError("singular point hit in local_series")
        # eq(t, Y): substitute param var = val + t, solved var = Y
        eq = {}
        for (e0, e1), c in aff.items():
            ep = (e0, e1)[param_i]
            es = (e0, e1)[solve_i]
            for i in range(ep + 1):
                key = (i, es)
                add = c * comb(ep, i) * vals[param_i] ** (ep - i)
                if add:
                    eq[key] = eq.get(key, fld.zero) + add
        y = series_solve({k: v for k, v in eq.items() if v}, vals[solve_i], order, fld)
        t_series = TruncatedSeries(fld, [vals[param_i], fld.one], order)
        out = [None] * nvars
        out[norm] = TruncatedSeries.constant(fld, fld.one, order)
        out[rest[param_i]] = t_series
        out[rest[solve_i]] = y
        return out

    # complete intersection in P^3: pick parameter variable with invertible
    # 2x2 Jacobian minor in the remaining two
    jac = [[mp_eval(mp_partial(aff, i, fld), vals, fld) for i in range(3)]
           for aff in affs]
    choice = None
    for param_i in range(3):
        o1, o2 = [i for i in range(3) if i != param_i]
        det = jac[0][o1] * jac[1][o2] - jac[0][o2] * jac[1][o1]
        if det:
            choice = (param_i, o1, o2)
            break
    if choice is None:
        raise CurveError("singular point hit in local_series")
    param_i, o1, o2 = choice

    def shifted_eq(aff):
        eq = {}
        for exps, c in aff.items():
            ep, e1, e2 = exps[param_i], exps[o1], exps[o2]
            for i in range(ep + 1):
                key = (i, e1, e2)
                add = c * comb(ep, i) * vals[param_i] ** (ep - i)
                if add:
                    eq[key] = eq.get(key, fld.zero) + add
        return {k: v for k, v in eq.items() if v}

    y, z = series_solve_system2(shifted_eq(affs[0]), shifted_eq(affs[1]),
                                vals[o1], vals[o2], order, fld)
    out = [None] * nvars
    out[norm] = TruncatedSeries.constant(fld, fld.one, order)
    out[rest[param_i]] = TruncatedSeries(fld, [vals[param_i], fld.one], order)
    out[rest[o1]] = y
    out[rest[o2]] = z
    return out


# -- smoothness certification ------------------------------------------------

_SHEAR_CACHE = {}


def _shear_matrices(field, nvars):
    """Deterministic sequence of invertible coordinate changes (cached)."""
    key = (field, nvars)
    if key not in _SHEAR_CACHE:
        mats = [MatrixExact.identity(field, nvars)]
        rng = random.Random(0xC0FFEE + nvars)
        for _ in range(14):
            while True:
                m = MatrixExact(field, [[field.elem(rng.randrange(0, 7))
                                         for _ in range(nvars)]
                                        for _ in range(nvars)])
                if m.det():
                    mats.append(m)
                    break
        _SHEAR_CACHE[key] = mats
    return _SHEAR_CACHE[key]


def _apply_shear(form_dict, mat, field, nvars):
    """Substitute x_i -> sum_j mat[i][j] x_j for the first mat.nrows of the
    nvars variables; the others stay.  The identity returns a copy."""
    if mat == MatrixExact.identity(field, mat.nrows):
        return dict(form_dict)
    unit = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    images = [{unit[j]: c for j, c in enumerate(row) if c} for row in mat.rows]
    images += [{unit[i]: field.one} for i in range(mat.nrows, nvars)]
    return mp_substitute(form_dict, images, field, nvars)


def _res_in_last_var(g1, g2, d1, d2, field):
    """Resultant of two bivariate dicts viewed as polys in variable 1,
    with formal degrees d1, d2; entries become univariate Polys in var 0."""
    c1 = mp_coeff_list(g1, 1, field)
    c2 = mp_coeff_list(g2, 1, field)

    def as_poly(d):
        if not d:
            return Poly.zero(field)
        deg = max(k[0] for k in d)
        return Poly(field, [d.get((i,), field.zero) for i in range(deg + 1)])

    p1 = [as_poly(c) for c in c1] + [Poly.zero(field)] * (d1 + 1 - len(c1))
    p2 = [as_poly(c) for c in c2] + [Poly.zero(field)] * (d2 + 1 - len(c2))
    n = d1 + d2
    rows = []
    for i in range(d2):
        rows.append([Poly.zero(field)] * i + list(reversed(p1))
                    + [Poly.zero(field)] * (n - d1 - 1 - i))
    for i in range(d1):
        rows.append([Poly.zero(field)] * i + list(reversed(p2))
                    + [Poly.zero(field)] * (n - d2 - 1 - i))
    return _poly_det(rows, field)


def _poly_det(rows, field):
    """Determinant of a matrix of Polys by fraction-free elimination."""
    n = len(rows)
    rows = [list(r) for r in rows]
    sign = 1
    prev = Poly.one(field)
    for k in range(n - 1):
        piv = None
        for i in range(k, n):
            if not rows[i][k].is_zero():
                piv = i
                break
        if piv is None:
            return Poly.zero(field)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                q, r = num.divmod(prev)
                assert r.is_zero()
                rows[i][j] = q
            rows[i][k] = Poly.zero(field)
        prev = rows[k][k]
    det = rows[n - 1][n - 1]
    return det if sign == 1 else -det


def _ternary_common_rational_zeros(field, conic, cubic):
    """Rational projective common zeros of a ternary conic and cubic.

    Assumes the pair cuts a finite scheme (no common factor).  Points are
    returned in plane coordinates (a, b, c).
    """
    return _first_shear_zeros(field, (
        (mat, _apply_shear(conic.coeffs, mat, field, 3),
         _apply_shear(cubic.coeffs, mat, field, 3))
        for mat in _shear_matrices(field, 3)), _rational_chart_zeros)


def _first_shear_zeros(field, shears, chart_zeros):
    """Common zeros of the first (mat, q, e) of ``shears`` whose chart
    elimination works, mapped back through mat.

    ``chart_zeros(qs, es, r, g)`` gets the chart dicts (a = 1) of the sheared
    ternary conic and cubic q and e, their c-resultant r and the gcd g of the
    binary forms on the line a = 0 (at b = 1), and returns triples.
    """
    for mat, q, e in shears:
        if not q.get((0, 0, 2)) or not e.get((0, 0, 3)):
            continue  # need both top coefficients for a sound c-resultant
        qs, es = _spec_a(q, True, field), _spec_a(e, True, field)
        r = conic_cubic_resultant(_b_polys(qs, 2, field), _b_polys(es, 3, field))
        if r.is_zero():
            continue  # common component through the chart; shear and retry
        # top c-coefficients are nonzero, so every common zero on the line
        # a = 0 has b != 0 and is found at b = 1
        g = poly_gcd(_c_poly(_spec_a(q, False, field), field.one, 2, field),
                     _c_poly(_spec_a(e, False, field), field.one, 3, field))
        out = []
        for pt in chart_zeros(qs, es, r, g):
            K = pt[0].field
            out.append(tuple((mat if K == field else mat.map_field(K)).apply(pt)))
        return out
    raise ValidationInconclusive("conic-cubic intersection degenerated under all shears")


def _b_polys(d, deg, field):
    """A chart dict in (b, c) of degree deg as the Polys in b of c^0 .. c^deg."""
    return [Poly(field, [d.get((j, k), field.zero) for j in range(deg + 1 - k)])
            for k in range(deg + 1)]


def _spec_a(d, a_one, field):
    """Ternary dict at a = 1 (the chart) or a = 0 (the line), in (b, c)."""
    out = {}
    for (i, j, k), v in d.items():
        if a_one or i == 0:
            key = (j, k)
            out[key] = out.get(key, field.zero) + v
    return {k2: v2 for k2, v2 in out.items() if v2}


def _rational_chart_zeros(qs, es, r, g):
    """Rational zeros for ``_first_shear_zeros``: c-roots over each rational
    root b0 of r, then the rational roots of g."""
    field = r.field
    pts = []
    for b0, _ in roots_in_field(r):
        g1, g2 = _c_poly(qs, b0, 2, field), _c_poly(es, b0, 3, field)
        pts += [(field.one, b0, c0) for c0, _ in roots_in_field(poly_gcd(g1, g2))]
    return pts + [(field.zero, field.one, c0) for c0, _ in roots_in_field(g)]


def _c_poly(d, b0, deg, field):
    """A dict in (b, c) at b = b0, as a Poly in c of formal degree deg."""
    pw = [field.one]
    for _ in range(deg):
        pw.append(pw[-1] * b0)
    cs = [field.zero] * (deg + 1)
    for (j, k), v in d.items():
        cs[k] = cs[k] + v * pw[j]
    return Poly(field, cs)


def _ternary_common_zeros_ext(field, conic, cubic, cap=24):
    """All common projective zeros of a ternary conic and cubic over the
    algebraic closure, as triples with coordinates in extension fields.

    Support only (no multiplicities); assumes the intersection is finite.
    """

    def chart_zeros(qs, es, r, g):
        pts = []
        for f, _ in factor_finite(r):
            if f.degree == 0:
                continue
            K1 = _ext_over(field, f.degree)
            for b0 in ([-f[0]] if f.degree == 1 else
                       distinct_roots_in_field(f.map_field(K1))):
                K = b0.field
                g12 = poly_gcd(_c_poly(mp_map_field(qs, K), b0, 2, K),
                               _c_poly(mp_map_field(es, K), b0, 3, K))
                if g12.degree >= 1:
                    K2, croots = roots_in_splitting_extension(g12, cap=cap)
                    for c0, _ in croots:
                        pts.append((coerce(field.one, K2), coerce(b0, K2), c0))
        if g.degree >= 1:
            K2, croots = roots_in_splitting_extension(g, cap=cap)
            pts += [(K2.zero, K2.one, c0) for c0, _ in croots]
        return pts

    return _first_shear_zeros(field, (
        (mat, _apply_shear(conic.coeffs, mat, field, 3),
         _apply_shear(cubic.coeffs, mat, field, 3))
        for mat in _shear_matrices(field, 3)), chart_zeros)


def _good_reduction_field(curve_field):
    return [PrimeField(p) for p in (10007, 10009, 10037, 10039, 101, 257, 65537)]


def _certify_smooth_plane_quartic(curve):
    field = curve.field
    if isinstance(field, Rationals):
        # reduce at a good prime: smooth mod p implies smooth over QQ
        dens = [c.denominator for c in curve.form.coeffs.values()]
        for F in _good_reduction_field(field):
            if any(d % F.p == 0 for d in dens):
                continue
            try:
                red = {k: F.elem(v) for k, v in curve.form.coeffs.items()}
                PlaneQuarticCurve(F, HomForm(F, 3, 4, red))
                return
            except ValidationInconclusive:
                continue
            except CurveError:
                continue
        raise ValidationInconclusive(
            "could not certify smoothness over QQ by good reduction")
    partials = [HomForm(field, 3, 3, curve.form.partial(i)) for i in range(3)]
    if _plane_system_has_common_zero(field, [p.coeffs for p in partials], 3):
        raise CurveError("singular plane quartic")


def _plane_system_has_common_zero(field, dicts, nvars):
    """Does a system of ternary forms have a common projective zero over the
    algebraic closure?  Elimination with candidate verification."""
    assert nvars == 3
    for mat in _shear_matrices(field, 3):
        sheared = [_apply_shear(d, mat, field, 3) for d in dicts]
        verdict = _sheared_system_zero_test(field, sheared)
        if verdict is not None:
            return verdict
    raise ValidationInconclusive("plane smoothness elimination degenerated")


def _sheared_system_zero_test(field, dicts):
    # work in the chart a = 1, then the line a = 0 (chart b = 1), then (0,0,1)
    def dehom(d, which):
        out = {}
        for (i, j, k), v in d.items():
            if which == "a1":
                key = (j, k)
            elif i == 0 and which == "a0b1":
                key = (k,)
            elif which == "a0b1":
                continue
            out[key] = out.get(key, field.zero) + v
        return {k2: v2 for k2, v2 in out.items() if v2}

    # chart a = 1: bivariate system in (b, c)
    sys2 = [dehom(d, "a1") for d in dicts]
    if any(not s for s in sys2):
        return True  # a partial vanished identically on the chart: singular
    r = _pairwise_resultants_univar(field, sys2)
    if r is None:
        return None
    g = r
    if g.is_zero():
        return None
    found = _verify_candidates_bivar(field, sys2, g)
    if found:
        return True
    # chart a = 0, b = 1: univariate system in c
    sys1 = [dehom(d, "a0b1") for d in dicts]
    polys = []
    for s in sys1:
        if not s:
            return True
        deg = max(k[0] for k in s)
        polys.append(Poly(field, [s.get((i,), field.zero) for i in range(deg + 1)]))
    g1 = polys[0]
    for ppp in polys[1:]:
        g1 = poly_gcd(g1, ppp)
    if g1.degree >= 1:
        return True
    # the point (0, 0, 1)
    if all(not mp_eval(d, (field.zero, field.zero, field.one), field) for d in dicts):
        return True
    return False


def _pairwise_resultants_univar(field, sys2):
    """gcd over pairs of Res_c(g_i, g_j) (univariate in b); None if degenerate."""
    polys = []
    base = sys2[0]
    d0 = max(k[1] for k in base) if base else 0
    for other in sys2[1:]:
        d1 = max(k[1] for k in other) if other else 0
        r = _res_in_last_var(base, other, d0, d1, field)
        polys.append(r)
    g = polys[0]
    for r in polys[1:]:
        if g.is_zero() and r.is_zero():
            continue
        if g.is_zero():
            g = r
            continue
        if not r.is_zero():
            g = poly_gcd(g, r)
    if g.is_zero():
        return None
    return g


def _verify_candidates_bivar(field, sys2, g):
    """Check candidate first-coordinate roots of g against the system."""
    for f, mult in factor_finite(g):
        if f.degree == 0:
            continue
        K = _ext_over(field, f.degree) if f.degree > 1 else field
        if f.degree == 1:
            b0 = -f[0]
        else:
            fk = f.map_field(K)
            roots = distinct_roots_in_field(fk)
            if not roots:
                continue
            b0 = roots[0]  # Galois orbit: one representative decides
        specs = []
        ok = True
        for s in sys2:
            deg = max(k[1] for k in s)
            cs = [K.zero] * (deg + 1)
            for (j, k2), v in s.items():
                cs[k2] = cs[k2] + coerce(v, K) * coerce(b0, K) ** j
            ppp = Poly(K, cs)
            specs.append(ppp)
        gg = None
        for ppp in specs:
            if ppp.is_zero():
                continue
            gg = ppp if gg is None else poly_gcd(gg, ppp)
        if gg is None or gg.degree >= 1:
            return True
    return False


def _plane_basis(curve, h):
    """Basis of the plane h . x = 0 with the last vector off the curve."""
    F = curve.field
    m = MatrixExact(F, [h])
    ker = m.kernel_basis()
    if len(ker) != 3:
        return None
    b0, b1, b2 = ker
    # ensure b2 is not on both surfaces (keeps resultants nondegenerate)
    candidates = [b2, b0, b1,
                  tuple(a + b for a, b in zip(b2, b0)),
                  tuple(a + b for a, b in zip(b2, b1)),
                  tuple(a + b + c for a, b, c in zip(b0, b1, b2))]
    for cand in candidates:
        if curve.quadric(cand) or curve.cubic(cand):
            others = [v for v in (b0, b1, b2)]
            mm = MatrixExact(F, [others[0], others[1], cand])
            if mm.rank() == 3:
                return (others[0], others[1], cand)
            mm = MatrixExact(F, [others[0], others[2], cand])
            if mm.rank() == 3:
                return (others[0], others[2], cand)
            mm = MatrixExact(F, [others[1], others[2], cand])
            if mm.rank() == 3:
                return (others[1], others[2], cand)
    return None


def _gram_matrix(field, quadric):
    """The symmetric matrix G of a quaternary quadric: Q(x) = x.G.x."""
    half = field.one / field.elem(2)
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            if i == j:
                key = tuple(2 if t == i else 0 for t in range(4))
                row.append(quadric.coeffs.get(key, field.zero))
            else:
                key = tuple(1 if t in (i, j) else 0 for t in range(4))
                row.append(quadric.coeffs.get(key, field.zero) * half)
        rows.append(row)
    return MatrixExact(field, rows)


def _certify_smooth_g4(curve):
    field = curve.field
    if isinstance(field, Rationals):
        dens = ([c.denominator for c in curve.quadric.coeffs.values()]
                + [c.denominator for c in curve.cubic.coeffs.values()])
        for F in _good_reduction_field(field):
            if any(d % F.p == 0 for d in dens):
                continue
            try:
                CanonicalG4Curve(
                    F,
                    HomForm(F, 4, 2, {k: F.elem(v) for k, v in curve.quadric.coeffs.items()}),
                    HomForm(F, 4, 3, {k: F.elem(v) for k, v in curve.cubic.coeffs.items()}))
                return
            except ValidationInconclusive:
                continue
            except CurveError:
                continue
        raise ValidationInconclusive(
            "could not certify smoothness over QQ by good reduction")
    if _gram_matrix(field, curve.quadric).rank() < 3:
        raise CurveError("quadric has rank < 3; the intersection is singular")
    if _cubic_multiple_of_quadric(field, curve.quadric, curve.cubic):
        raise CurveError("cubic is a multiple of the quadric")
    if _g4_singular_exists(field, curve.quadric, curve.cubic):
        raise CurveError("singular quadric-cubic intersection")


def _cubic_multiple_of_quadric(field, quadric, cubic):
    # is cubic = quadric * (linear)?  Solve for the linear form.
    rows, rhs = [], []
    monos3 = sorted({k for k in cubic.coeffs} | {
        tuple(q + l for q, l in zip(kq, kl))
        for kq in quadric.coeffs for kl in
        [tuple(1 if t == i else 0 for t in range(4)) for i in range(4)]})
    for mono in monos3:
        row = []
        for i in range(4):
            kl = tuple(1 if t == i else 0 for t in range(4))
            kq = tuple(m - l for m, l in zip(mono, kl))
            if min(kq) < 0:
                row.append(field.zero)
            else:
                row.append(quadric.coeffs.get(kq, field.zero))
        rows.append(row)
        rhs.append(cubic.coeffs.get(mono, field.zero))
    sol = MatrixExact(field, rows).solve(rhs)
    return sol is not None


def _g4_singular_exists(field, quadric, cubic):
    """Does the singular scheme of Q = E = 0 have a point over the closure?"""
    for mat in _shear_matrices(field, 4):
        q4 = _apply_shear(quadric.coeffs, mat, field, 4)
        e4 = _apply_shear(cubic.coeffs, mat, field, 4)
        verdict = _g4_singular_sheared(field, q4, e4)
        if verdict is not None:
            return verdict
    raise ValidationInconclusive("genus-4 smoothness elimination degenerated")


def _g4_singular_sheared(field, q4, e4):
    # chart-by-chart affine check; each chart sets one coordinate to 1
    for chart in range(4):
        rest = [i for i in range(4) if i != chart]

        def dehom(d):
            out = {}
            for exps, v in d.items():
                key = tuple(exps[i] for i in rest)
                out[key] = out.get(key, field.zero) + v
            return {k: v for k, v in out.items() if v}

        qa, ea = dehom(q4), dehom(e4)
        grads_q = [mp_partial(qa, i, field) for i in range(3)]
        grads_e = [mp_partial(ea, i, field) for i in range(3)]
        minors = []
        for i in range(3):
            for j in range(i + 1, 3):
                m = mp_add(mp_mul(grads_q[i], grads_e[j], field),
                           mp_scale(mp_mul(grads_q[j], grads_e[i], field),
                                    -field.one, field), field)
                minors.append(m)
        system = [qa, ea] + [m for m in minors if m]
        if len(system) < 3:
            return True  # all minors vanish identically: singular everywhere
        verdict = _trivariate_system_zero_test(field, system)
        if verdict is None:
            return None
        if verdict:
            return True
    return False


def _trivariate_system_zero_test(field, system):
    """Common zero over the closure of trivariate affine dicts; None if the
    elimination degenerates (caller shears and retries)."""
    # eliminate var 2 against the first equation
    base = system[0]
    if not base:
        return True
    d_base = max(k[2] for k in base)
    if d_base == 0:
        # no var-2 dependence: fall through using another base
        reordered = sorted(system, key=lambda d: -max(k[2] for k in d) if d else 0)
        base = reordered[0]
        d_base = max(k[2] for k in base) if base else 0
        if d_base == 0:
            return None
        system = reordered
    bivs = []
    for other in system[1:]:
        if not other:
            return True
        d_o = max(k[2] for k in other)
        r = _mp_resultant(field, base, other, d_base, d_o)
        bivs.append(r)
    bivs = [b for b in bivs if b]
    if not bivs:
        return None
    # now eliminate var 1 pairwise against the first bivariate
    b0 = bivs[0]
    d0 = max(k[1] for k in b0)
    gs = []
    for other in bivs[1:]:
        d1 = max(k[1] for k in other)
        r = _res_in_last_var(b0, other, max(d0, 1), max(d1, 1), field)
        gs.append(r)
    if not gs:
        # single bivariate: candidates are its components -- degenerate path
        return None
    g = None
    for r in gs:
        if r.is_zero():
            continue
        g = r if g is None else poly_gcd(g, r)
    if g is None:
        return None
    if g.degree < 1:
        return False
    # candidates: verify by substitution, one Galois representative per factor
    for f, _ in factor_finite(g):
        if f.degree == 0:
            continue
        K = _ext_over(field, f.degree) if f.degree > 1 else field
        if f.degree == 1:
            a0 = -f[0]
        else:
            roots = distinct_roots_in_field(f.map_field(K))
            if not roots:
                continue
            a0 = roots[0]
        if _verify_g4_candidate(field, K, system, a0):
            return True
    return False


def _mp_resultant(field, g1, g2, d1, d2):
    """Resultant in the last variable of sparse multivariate dicts, with
    formal degrees d1, d2; entries are dicts in the other variables."""
    last = len(next(iter(g1))) - 1
    c1 = mp_coeff_list(g1, last, field)
    c2 = mp_coeff_list(g2, last, field)
    c1 += [dict() for _ in range(d1 + 1 - len(c1))]
    c2 += [dict() for _ in range(d2 + 1 - len(c2))]
    n = d1 + d2
    rows = []
    zero = dict()
    for i in range(d2):
        rows.append([zero] * i + list(reversed(c1)) + [zero] * (n - d1 - 1 - i))
    for i in range(d1):
        rows.append([zero] * i + list(reversed(c2)) + [zero] * (n - d2 - 1 - i))
    det = _mp_det(rows, field)
    return det


def _mp_det(rows, field):
    """Cofactor-expansion determinant for small matrices of mp dicts."""
    n = len(rows)
    if n == 1:
        return rows[0][0]

    def minor_det(rs, cols):
        if len(cols) == 1:
            return rs[0][cols[0]]
        acc = {}
        for idx, c in enumerate(cols):
            cell = rs[0][c]
            if not cell:
                continue
            sub = minor_det(rs[1:], cols[:idx] + cols[idx + 1:])
            if not sub:
                continue
            term = mp_mul(cell, sub, field)
            if idx % 2:
                term = mp_scale(term, -field.one, field)
            acc = mp_add(acc, term, field)
        return acc

    return minor_det(rows, tuple(range(n)))


def _verify_g4_candidate(field, K, system, a0):
    """Is there a common zero of the trivariate system over the closure with
    first coordinate a0?"""
    # substitute var0 = a0: bivariate systems over K, then eliminate again
    sys2 = []
    for d in system:
        out = {}
        for (i, j, k), v in d.items():
            key = (j, k)
            out[key] = out.get(key, K.zero) + coerce(v, K) * a0 ** i
        out = {k2: v2 for k2, v2 in out.items() if v2}
        sys2.append(out)
    if any(not s for s in sys2):
        nonzero = [s for s in sys2 if s]
        if not nonzero:
            return True
        sys2 = nonzero
        if len(sys2) == 1:
            return True  # single bivariate: curve of zeros
    base = sys2[0]
    d0 = max(k[1] for k in base)
    g = None
    for other in sys2[1:]:
        d1 = max(k[1] for k in other)
        if d0 == 0 and d1 == 0:
            continue
        r = _res_in_last_var(base, other, max(d0, 1), max(d1, 1), field if K is field else K)
        if r.is_zero():
            continue
        g = r if g is None else poly_gcd(g, r)
    if g is None:
        return True  # everything collapsed: positive-dimensional candidate
    if g.degree < 1:
        # also must check var1-independent consistency at "infinity" of var1:
        return False
    for f, _ in factor_finite(g):
        if f.degree == 0:
            continue
        K2 = _ext_over(K, f.degree) if f.degree > 1 else K
        if f.degree == 1:
            b0 = -f[0]
        else:
            roots = distinct_roots_in_field(f.map_field(K2))
            if not roots:
                continue
            b0 = roots[0]
        # substitute var1 = b0 and gcd the univariates in var2
        gg = None
        consistent = True
        for d in sys2:
            deg = max(k2[1] for k2 in d) if d else 0
            cs = [K2.zero] * (deg + 1)
            for (j, k2v), v in d.items():
                cs[k2v] = cs[k2v] + coerce(v, K2) * coerce(b0, K2) ** j
            ppp = Poly(K2, cs)
            if ppp.is_zero():
                continue
            gg = ppp if gg is None else poly_gcd(gg, ppp)
            if gg.degree == 0:
                consistent = False
                break
        if consistent and (gg is None or gg.degree >= 1):
            return True
    return False


def exhaustive_singular_search(curve, rel_degree=1):
    """Rational singular points by brute force (small fields; cross-check)."""
    field = curve.field
    if not field.is_finite:
        raise CurveError("exhaustive search requires a finite field")
    K = _ext_over(field, rel_degree)
    found = []
    if curve.model == "plane_quartic":
        form = curve.form.map_field(K)
        parts = [HomForm(K, 3, 3, form.partial(i)) for i in range(3)]
        for P in _projective_points(K, 3):
            if not form(P) and all(not pf(P) for pf in parts):
                found.append(ProjectivePoint(K, P))
    elif curve.model == "canonical_g4":
        quad = curve.quadric.map_field(K)
        cub = curve.cubic.map_field(K)
        gq = [quad.partial(i) for i in range(4)]
        ge = [cub.partial(i) for i in range(4)]
        for P in _projective_points(K, 4):
            if quad(P) or cub(P):
                continue
            vq = [mp_eval(g, P, K) for g in gq]
            ve = [mp_eval(g, P, K) for g in ge]
            m = MatrixExact(K, [vq, ve])
            if m.rank() < 2:
                found.append(ProjectivePoint(K, P))
    else:
        raise CurveError("exhaustive search applies to plane models")
    return found


def _projective_points(field, nvars):
    elems = list(field.elements())
    for lead in range(nvars):
        prefix = [field.zero] * lead + [field.one]
        free = nvars - lead - 1

        def rec(acc, depth):
            if depth == 0:
                yield tuple(acc)
                return
            for e in elems:
                yield from rec(acc + [e], depth - 1)

        for tail in rec([], free):
            yield tuple(prefix) + tail


# -- public constructors / serialization -------------------------------------

def validate(description):
    """Build a validated Curve from a description dict (or pass one through)."""
    if isinstance(description, (HyperellipticCurve, PlaneQuarticCurve, CanonicalG4Curve)):
        return description
    model = description.get("model")
    if model not in ("hyperelliptic", "plane_quartic", "canonical_g4"):
        raise CurveError(f"unknown model {model!r}")
    # a field or coefficient the description cannot supply is a fault of
    # the description, not of the library
    try:
        field = field_from_json(description["field"])
        if model == "hyperelliptic":
            f = [field.from_json(c) for c in description["f"]]
        elif model == "plane_quartic":
            form = HomForm.from_json(field, 3, 4, description["form"])
        else:
            forms = description["forms"]
            quad = HomForm.from_json(field, 4, 2, forms["quadric"])
            cub = HomForm.from_json(field, 4, 3, forms["cubic"])
    except FieldError as e:
        raise CurveError(f"invalid curve description: {e}") from e
    if model == "hyperelliptic":
        return HyperellipticCurve(field, f)
    if model == "plane_quartic":
        return PlaneQuarticCurve(field, form)
    return CanonicalG4Curve(field, quad, cub)


def curve_to_json(curve):
    return curve.describe()


def curve_from_json(obj):
    return validate(obj)


def curve_hash(curve):
    blob = json.dumps(curve.describe(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
