"""Truncated Laurent series over an exact field, and one Newton solver.

A series holds coefficients for exponents offset, offset+1, ..., prec-1
and claims nothing at prec or beyond.  Negative offsets give Laurent tails;
ordinary power-series work keeps offset >= 0.  Arithmetic tracks precision:
adding series of different precision truncates to the weaker one, and
multiplication propagates precision the standard way.

It is stored as (field, offset, prec, code), ``code`` the unit part in the
field's kernel coding (kernel.py) with no zero at either end; zero to
precision is the empty code with offset = prec.  So equal series, however
made, compare equal.  Arithmetic is kernel calls on codes: only the
constructor encodes, and only ``coefficient``, ``coeffs`` and repr decode.

``series_solve`` computes every local parametrization: it solves r = 1 or 2
equations F(t, y_1, .., y_r) = 0 for power series y_a(t) from a seed with
an invertible Jacobian, by Newton iteration with doubling precision (von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 9).  Each equation and each
Jacobian entry is grouped once by y-monomial into a coded coefficient list
in t, so t is never multiplied; each step builds the powers of every y_a once
and shares them between the equations and their partials.  The update
divides by the Jacobian determinant: a series inverse for r = 1, Cramer's
rule for r = 2.
"""

from .fields import FieldError


class SingularSeedError(ValueError):
    """Implicit series solve attempted at a singular point."""


class TruncatedSeries:
    __slots__ = ("field", "offset", "prec", "code")

    def __init__(self, field, coeffs, prec, offset=0):
        self._cut(field, field._encode([field.elem(c) for c in coeffs]), prec, offset)

    @classmethod
    def _from_code(cls, field, code, prec, offset=0):
        s = cls.__new__(cls)
        s._cut(field, code, prec, offset)
        return s

    def _cut(self, field, code, prec, offset):
        """Set self to the series of ``code`` from t^offset, cut at prec, with
        its low zeros moved into the offset and its top zeros stripped."""
        kern = field.kernel
        code = code[:max(0, prec - offset)]
        i, zero = 0, kern.zero
        while i < len(code) and code[i] == zero:
            i += 1
        self.field, self.prec, self.code = field, prec, kern.strip(code[i:])
        self.offset = offset + i if self.code else prec

    @classmethod
    def zero(cls, field, prec):
        return cls._from_code(field, (), prec)

    @classmethod
    def constant(cls, field, value, prec):
        return cls(field, [value], prec)

    @property
    def coeffs(self):
        """The coefficients of t^offset, .., up to the last nonzero one."""
        return self.field._decode(self.code)

    def is_zero(self):
        return not self.code

    def valuation(self):
        """Exponent of the first nonzero coefficient; None if zero to precision."""
        return self.offset if self.code else None

    def coefficient(self, n):
        if n >= self.prec:
            raise ValueError(f"coefficient at {n} beyond precision {self.prec}")
        i = n - self.offset
        if 0 <= i < len(self.code):
            return self.field._decode(self.code[i:i + 1])[0]
        return self.field.zero

    def _align(self, other, prec):
        """other as a series over self's field; a scalar becomes the constant
        series of precision prec."""
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.field, [other], prec)
        if other.field != self.field:
            raise FieldError("mixed-field series")
        return other

    def _sum(self, other, op):
        """self op other for the kernel's add or sub, the codes aligned by
        prepending zero codes."""
        other = self._align(other, self.prec)
        prec = min(self.prec, other.prec)
        lo = min(self.offset, other.offset)
        zero = self.field.kernel.zero
        a, b = ((zero,) * (s.offset - lo) + s.code for s in (self, other))
        return TruncatedSeries._from_code(self.field, op(a, b), prec, lo)

    def __add__(self, other):
        return self._sum(other, self.field.kernel.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, self.field.kernel.sub)

    def __rsub__(self, other):
        return self._align(other, self.prec) - self

    def __neg__(self):
        return TruncatedSeries._from_code(self.field, self.field.kernel.sub((), self.code),
                                          self.prec, self.offset)

    def __mul__(self, other):
        # a scalar is a constant known far enough not to lower self's precision
        other = self._align(other, self.prec - self.offset)
        # product precision: each factor's uncertainty shifted by the other's valuation
        prec = min(self.offset + other.prec, other.offset + self.prec)
        return TruncatedSeries._from_code(self.field, self.field.kernel.mul(self.code, other.code),
                                          prec, self.offset + other.offset)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        r = TruncatedSeries._from_code(self.field, self.field.kernel.ONE,
                                       self.prec + abs(self.offset) * e + 1)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def inverse(self):
        """Reciprocal; leading coefficient must be nonzero (unit times t^v).
        Newton's w <- w + w (1 - u w) on the unit part u doubles the known
        coefficients of w = 1/u at each step."""
        if not self.code:
            raise ZeroDivisionError("inverting a series that is zero to precision")
        kern, u, v = self.field.kernel, self.code, self.offset
        n = self.prec - v  # known coefficients of the unit part
        w, m = kern.divmod(kern.ONE, u[:1])[0], 1
        while m < n:
            m = min(2 * m, n)
            e = kern.sub(kern.ONE, kern.mul(u[:m], w)[:m])
            w = kern.add(w, kern.mul(w, e)[:m])
        return TruncatedSeries._from_code(self.field, w, n - v, -v)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return TruncatedSeries._from_code(self.field, self.code, prec, self.offset)

    def shift(self, n):
        """Multiply by t^n."""
        return TruncatedSeries._from_code(self.field, self.code, self.prec + n, self.offset + n)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return (self.field == other.field and self.offset == other.offset
                    and self.code == other.code and self.prec == other.prec)
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
    jacobian = [[_by_y_monomial(_y_partial(eq, a), field) for a in range(r)] for eq in eqs]
    top = [max((J[a] for g in grouped for J in g), default=0) for a in range(r)]
    series = TruncatedSeries._from_code

    def newton_terms(ys, prec):
        """Residuals, Jacobian and its determinant at ys, to precision prec."""
        powers = []
        for y, d in zip(ys, top):
            pw = [series(field, field.kernel.ONE, prec)]
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
                acc = acc + series(field, cs, prec) * m
            return acc

        res = [value(g) for g in grouped]
        jac = [[value(d) for d in row] for row in jacobian]
        det = jac[0][0] if r == 1 else jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
        return res, jac, det

    ys = [TruncatedSeries.constant(field, s, 1) for s in seeds]
    res, _, det = newton_terms(ys, 1)
    if any(not f.is_zero() for f in res):
        raise SingularSeedError("seed does not satisfy the equations")
    if det.is_zero():
        raise SingularSeedError("singular Jacobian at the seed point")
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        ys = [series(field, y.code, prec, y.offset) for y in ys]
        res, jac, det = newton_terms(ys, prec)
        dinv = det.inverse()
        if r == 1:
            steps = [res[0] * dinv]
        else:   # Cramer's rule
            (a, b), (c, d) = jac
            steps = [(d * res[0] - b * res[1]) * dinv, (a * res[1] - c * res[0]) * dinv]
        ys = [(y - s).truncate(prec) for y, s in zip(ys, steps)]
    return [y.truncate(order) for y in ys]


def _by_y_monomial(eq, field):
    """{(j_1, .., j_r): code of [coefficients of t^0, t^1, ..]} for an equation."""
    out = {}
    for (i, *J), c in eq.items():
        cs = out.setdefault(tuple(J), [])
        cs.extend([field.zero] * (i + 1 - len(cs)))
        cs[i] = field.elem(c)
    return {J: field._encode(cs) for J, cs in out.items()}


def _y_partial(eq, a):
    """The derivative in y_a of an equation."""
    return {(i, *J[:a], J[a] - 1, *J[a + 1:]): c * J[a] for (i, *J), c in eq.items() if J[a]}
