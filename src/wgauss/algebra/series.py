"""Truncated Laurent series over an exact field, and one Newton solver.

A series holds coefficients for exponents offset, offset+1, ..., prec-1
and claims nothing at prec or beyond.  Negative offsets give Laurent tails;
ordinary power-series work keeps offset >= 0.  Arithmetic tracks precision:
adding series of different precision truncates to the weaker one, and
multiplication propagates precision the standard way.

``series_solve`` computes every local parametrization: it solves r = 1 or 2
equations F(t, y_1, .., y_r) = 0 for power series y_a(t) from a seed with
an invertible Jacobian, by Newton iteration with doubling precision (von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 9).  Each equation and each
Jacobian entry is grouped once by y-monomial into a coefficient list in t,
so t is never multiplied; each step builds the powers of every y_a once and
shares them between the equations and their partials.  The update divides
by the Jacobian determinant: a series inverse for r = 1, Cramer's rule for
r = 2.
"""

from .fields import FieldError


class SingularSeedError(ValueError):
    """Implicit series solve attempted at a singular point."""


class TruncatedSeries:
    __slots__ = ("field", "offset", "coeffs", "prec")

    def __init__(self, field, coeffs, prec, offset=0):
        coeffs = [field.elem(c) if not field.contains(c) else c for c in coeffs]
        # normalize: strip leading zeros into the offset, clamp to prec
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            offset += 1
        if offset + len(coeffs) > prec:
            coeffs = coeffs[:max(0, prec - offset)]
        if not coeffs:
            offset = prec
        self.field = field
        self.offset = offset
        self.coeffs = tuple(coeffs)
        self.prec = prec

    @classmethod
    def zero(cls, field, prec):
        return cls(field, [], prec)

    @classmethod
    def constant(cls, field, value, prec):
        return cls(field, [value], prec)

    def is_zero(self):
        return not self.coeffs

    def valuation(self):
        """Exponent of the first nonzero coefficient; None if zero to precision."""
        return self.offset if self.coeffs else None

    def coefficient(self, n):
        if n >= self.prec:
            raise ValueError(f"coefficient at {n} beyond precision {self.prec}")
        i = n - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def _align(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.field, self.field.elem(other), self.prec)
        if other.field != self.field:
            raise FieldError("mixed-field series")
        return other

    @classmethod
    def _exact(cls, field, coeffs, prec, offset):
        """The series of ``coeffs``, elements of ``field``, from t^offset and
        padded with zeros to prec, without ``__init__``'s coercion."""
        i = next((i for i, c in enumerate(coeffs[:max(0, prec - offset)]) if c), None)
        s = cls.__new__(cls)
        s.field, s.prec, s.offset, s.coeffs = field, prec, prec, ()
        if i is not None:
            s.offset = offset + i
            s.coeffs = tuple(coeffs[i:prec - offset]) + (field.zero,) * (prec - offset - len(coeffs))
        return s

    def __add__(self, other):
        other = self._align(other)
        f = self.field
        prec = min(self.prec, other.prec)
        lo = min(self.offset, other.offset, prec)
        a, b = (f._encode((f.zero,) * (s.offset - lo) + s.coeffs[:max(0, prec - s.offset)])
                for s in (self, other))
        return TruncatedSeries._exact(f, f._decode(f.kernel.add(a, b)), prec, lo)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.field, [-c for c in self.coeffs], self.prec, self.offset)

    def __sub__(self, other):
        return self + (-self._align(other))

    def __rsub__(self, other):
        return self._align(other) - self

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.field, [c * other for c in self.coeffs],
                                   self.prec, self.offset)
        other = self._align(other)
        # product precision: each factor's uncertainty shifted by the other's valuation
        prec = min(self.offset + other.prec, other.offset + self.prec)
        off = self.offset + other.offset
        f = self.field
        if not (self.coeffs and other.coeffs):
            return TruncatedSeries(f, [], prec, off)
        code = f.kernel.mul(f._encode(self.coeffs), f._encode(other.coeffs))
        return TruncatedSeries._exact(f, f._decode(code[:max(0, prec - off)]), prec, off)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        r = TruncatedSeries.constant(self.field, self.field.one, self.prec + abs(self.offset) * e + 1)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def inverse(self):
        """Reciprocal; leading coefficient must be nonzero (unit times t^v)."""
        if not self.coeffs:
            raise ZeroDivisionError("inverting a series that is zero to precision")
        f = self.field
        v = self.offset
        n = self.prec - v  # known coefficients of the unit part
        a = list(self.coeffs) + [f.zero] * (n - len(self.coeffs))
        inv0 = f.one / a[0]
        out = [inv0] + [f.zero] * (n - 1)
        for k in range(1, n):
            s = f.zero
            for i in range(1, k + 1):
                if i < len(a) and a[i]:
                    s = s + a[i] * out[k - i]
            out[k] = -inv0 * s
        return TruncatedSeries(f, out, n - v, -v)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return TruncatedSeries(self.field, list(self.coeffs), prec, self.offset)

    def shift(self, n):
        """Multiply by t^n."""
        return TruncatedSeries(self.field, list(self.coeffs), self.prec + n, self.offset + n)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return (self.field == other.field and self.offset == other.offset
                    and self.coeffs == other.coeffs and self.prec == other.prec)
        return NotImplemented

    def __repr__(self):
        terms = [f"({c!r})t^{self.offset + i}" for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(t^{self.prec})>"


def series_solve(eqs, seeds, order, field):
    """Solve eqs(t, y(t)) = 0 mod t^order for y = (y_1, .., y_r), r =
    len(eqs) in {1, 2}, with y_a(0) = seeds[a]; returns the list of the r
    series, each of precision ``order``.

    Each equation is a dict {(i, j_1, .., j_r): coeff} for the monomial
    t^i y_1^j_1 .. y_r^j_r.  Requires eqs(0, seeds) = 0 and an invertible
    Jacobian in y at (0, seeds); otherwise raises SingularSeedError.
    """
    r = len(eqs)
    if r not in (1, 2) or len(seeds) != r:
        raise ValueError("series_solve takes one or two equations, one seed each")
    grouped = [_by_y_monomial(eq, field) for eq in eqs]
    jacobian = [[_y_partial(g, a) for a in range(r)] for g in grouped]
    top = [max((J[a] for g in grouped for J in g), default=0) for a in range(r)]

    def newton_terms(ys, prec):
        """Residuals, Jacobian and its determinant at ys, to precision prec."""
        powers = []
        for y, d in zip(ys, top):
            pw = [TruncatedSeries.constant(field, field.one, prec)]
            for _ in range(d):
                pw.append(pw[-1] * y)
            powers.append(pw)
        monomials = {}

        def value(g):
            acc = TruncatedSeries.zero(field, prec)
            for J, cs in g.items():
                m = monomials.get(J)
                if m is None:
                    m = powers[0][J[0]] if r == 1 else powers[0][J[0]] * powers[1][J[1]]
                    monomials[J] = m
                acc = acc + (m * cs[0] if len(cs) == 1
                             else TruncatedSeries(field, cs, prec) * m)
            return acc

        res = [value(g) for g in grouped]
        jac = [[value(d) for d in row] for row in jacobian]
        det = jac[0][0] if r == 1 else jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
        return res, jac, det

    ys = [TruncatedSeries.constant(field, _elem(field, s), 1) for s in seeds]
    res, _, det = newton_terms(ys, 1)
    if any(not f.is_zero() for f in res):
        raise SingularSeedError("seed does not satisfy the equations")
    if det.is_zero():
        raise SingularSeedError("singular Jacobian at the seed point")
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        ys = [TruncatedSeries(field, list(y.coeffs), prec, y.offset) for y in ys]
        res, jac, det = newton_terms(ys, prec)
        dinv = det.inverse()
        if r == 1:
            steps = [res[0] * dinv]
        else:   # Cramer's rule
            (a, b), (c, d) = jac
            steps = [(d * res[0] - b * res[1]) * dinv, (a * res[1] - c * res[0]) * dinv]
        ys = [(y - s).truncate(prec) for y, s in zip(ys, steps)]
    return [y.truncate(order) for y in ys]


def _elem(field, c):
    return c if field.contains(c) else field.elem(c)


def _by_y_monomial(eq, field):
    """{(j_1, .., j_r): [coefficients of t^0, t^1, ..]} for an equation."""
    out = {}
    for (i, *J), c in eq.items():
        cs = out.setdefault(tuple(J), [])
        cs.extend([field.zero] * (i + 1 - len(cs)))
        cs[i] = cs[i] + _elem(field, c)
    return out


def _y_partial(grouped, a):
    """The derivative in y_a of an equation grouped by y-monomial."""
    out = {}
    for J, cs in grouped.items():
        if J[a]:
            out[J[:a] + (J[a] - 1,) + J[a + 1:]] = [c * J[a] for c in cs]
    return out
