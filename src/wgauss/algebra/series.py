"""Truncated Laurent series over an exact field.

A series holds coefficients for exponents offset, offset+1, ..., prec-1
and claims nothing at prec or beyond.  Negative offsets give Laurent tails;
ordinary power-series work keeps offset >= 0.  Arithmetic tracks precision:
adding series of different precision truncates to the weaker one, and
multiplication propagates precision the standard way.
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

    @classmethod
    def var(cls, field, prec):
        """The series t + O(t^prec)."""
        return cls(field, [field.zero, field.one], prec)

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

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero series has no leading coefficient")
        return self.coeffs[0]

    def _align(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.field, self.field.elem(other), self.prec)
        if other.field != self.field:
            raise FieldError("mixed-field series")
        return other

    def __add__(self, other):
        other = self._align(other)
        prec = min(self.prec, other.prec)
        lo = min(self.offset, other.offset, prec)
        out = []
        for n in range(lo, prec):
            a = self.coefficient(n) if n < self.prec else self.field.zero
            b = other.coefficient(n) if n < other.prec else self.field.zero
            out.append(a + b)
        return TruncatedSeries(self.field, out, prec, lo)

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
        n = max(0, prec - off)
        f = self.field
        kernel = f._kernel()
        if kernel is not None and self.coeffs and other.coeffs:
            code = kernel.mul(f._encode(self.coeffs), f._encode(other.coeffs))
            out = list(f._decode(code[:n])) + [f.zero] * (n - len(code))
            return TruncatedSeries(f, out, prec, off)
        out = [self.field.zero] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if i + j < n:
                        out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.field, out, prec, off)

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

    def __truediv__(self, other):
        other = self._align(other)
        return self * other.inverse()

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return TruncatedSeries(self.field, list(self.coeffs), prec, self.offset)

    def shift(self, n):
        """Multiply by t^n."""
        return TruncatedSeries(self.field, list(self.coeffs), self.prec + n, self.offset + n)

    def derivative(self):
        out = []
        for i, c in enumerate(self.coeffs):
            out.append(c * (self.offset + i))
        off = self.offset - 1
        return TruncatedSeries(self.field, out, self.prec - 1, off)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return (self.field == other.field and self.offset == other.offset
                    and self.coeffs == other.coeffs and self.prec == other.prec)
        return NotImplemented

    def __repr__(self):
        terms = [f"({c!r})t^{self.offset + i}" for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(t^{self.prec})>"


def evaluate_poly(coeffs, s):
    """Evaluate a polynomial (coefficient list, lowest first) at a series."""
    field = s.field
    acc = TruncatedSeries.zero(field, s.prec + 1)
    for c in reversed(list(coeffs)):
        acc = acc * s + c
    return acc


def evaluate_bivariate(eq, t, y):
    """Evaluate {(i, j): c} meaning sum c * t^i * y^j at series t, y."""
    field = y.field
    max_j = max(j for (_, j) in eq)
    # collect as polynomial in y with series coefficients in t
    by_j = {}
    for (i, j), c in eq.items():
        by_j.setdefault(j, {})[i] = c
    acc = TruncatedSeries.zero(field, y.prec + 1)
    for j in range(max_j, -1, -1):
        acc = acc * y
        if j in by_j:
            d = by_j[j]
            cs = [d.get(i, field.zero) for i in range(max(d) + 1)]
            acc = acc + evaluate_poly(cs, t)
    return acc


def bivariate_dy(eq):
    out = {}
    for (i, j), c in eq.items():
        if j >= 1:
            out[(i, j - 1)] = out.get((i, j - 1), 0) + c * j
    return {k: v for k, v in out.items()}


def series_solve(eq, y0, order, field=None):
    """Solve eq(t, y(t)) = 0 mod t^order for y with y(0) = y0.

    ``eq`` is a bivariate dict {(i, j): coeff} for the monomial t^i y^j.
    Requires eq(0, y0) = 0 and d(eq)/dy nonzero at (0, y0); otherwise raises
    SingularSeedError.  Newton iteration with doubling precision.
    """
    if field is None:
        field = y0.field
    y0 = field.elem(y0) if not field.contains(y0) else y0
    eq = {k: (field.elem(v) if not field.contains(v) else v) for k, v in eq.items()}
    c0 = sum((c * y0 ** j for (i, j), c in eq.items() if i == 0), field.zero)
    if c0:
        raise SingularSeedError("seed does not satisfy the equation")
    deq = bivariate_dy(eq)
    d0 = sum((c * y0 ** j for (i, j), c in deq.items() if i == 0), field.zero)
    if not d0:
        raise SingularSeedError("vanishing derivative at the seed point")
    prec = 1
    y = TruncatedSeries.constant(field, y0, 1)
    while prec < order:
        prec = min(2 * prec, order)
        y = TruncatedSeries(field, list(y.coeffs), prec, y.offset)
        t = TruncatedSeries.var(field, prec)
        fy = evaluate_bivariate(eq, t, y)
        dfy = evaluate_bivariate(deq, t, y)
        y = y - fy * dfy.inverse()
        y = y.truncate(prec)
    return y.truncate(order)


def series_solve_system2(eq1, eq2, y0, z0, order, field):
    """Solve two trivariate equations eq(t, y, z) = 0 for (y(t), z(t)).

    Equations are dicts {(i, j, k): coeff} for t^i y^j z^k.  The 2x2 Jacobian
    in (y, z) must be invertible at the seed.
    """
    def ev(eq, t, y, z):
        acc = TruncatedSeries.zero(field, order + 1)
        for (i, j, k), c in eq.items():
            term = TruncatedSeries.constant(field, field.elem(c), t.prec)
            if i:
                term = term * t ** i
            if j:
                term = term * y ** j
            if k:
                term = term * z ** k
            acc = acc + term
        return acc

    def dvar(eq, axis):
        out = {}
        for (i, j, k), c in eq.items():
            if axis == 1 and j >= 1:
                key = (i, j - 1, k)
                out[key] = out.get(key, field.zero) + field.elem(c) * j
            if axis == 2 and k >= 1:
                key = (i, j, k - 1)
                out[key] = out.get(key, field.zero) + field.elem(c) * k
        return out

    d11, d12 = dvar(eq1, 1), dvar(eq1, 2)
    d21, d22 = dvar(eq2, 1), dvar(eq2, 2)

    y = TruncatedSeries.constant(field, field.elem(y0), 1)
    z = TruncatedSeries.constant(field, field.elem(z0), 1)
    prec = 1
    t1 = TruncatedSeries.var(field, 1)
    f1, f2 = ev(eq1, t1, y, z), ev(eq2, t1, y, z)
    if not f1.is_zero() or not f2.is_zero():
        raise SingularSeedError("seed does not satisfy the system")
    a = ev(d11, t1, y, z).coefficient(0)
    b = ev(d12, t1, y, z).coefficient(0)
    c = ev(d21, t1, y, z).coefficient(0)
    d = ev(d22, t1, y, z).coefficient(0)
    if not (a * d - b * c):
        raise SingularSeedError("singular Jacobian at the seed point")
    while prec < order:
        prec = min(2 * prec, order)
        y = TruncatedSeries(field, list(y.coeffs), prec, y.offset)
        z = TruncatedSeries(field, list(z.coeffs), prec, z.offset)
        t = TruncatedSeries.var(field, prec)
        f1, f2 = ev(eq1, t, y, z), ev(eq2, t, y, z)
        a, b = ev(d11, t, y, z), ev(d12, t, y, z)
        c, d = ev(d21, t, y, z), ev(d22, t, y, z)
        det = a * d - b * c
        dinv = det.inverse()
        dy = (d * f1 - b * f2) * dinv
        dz = (a * f2 - c * f1) * dinv
        y = (y - dy).truncate(prec)
        z = (z - dz).truncate(prec)
    return y.truncate(order), z.truncate(order)
