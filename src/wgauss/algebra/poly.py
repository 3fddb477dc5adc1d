"""Dense univariate polynomials over a finite field.

Coefficients are stored lowest degree first with a nonzero leading
coefficient (empty tuple for the zero polynomial).  A Poly carries its
field explicitly; mixing fields raises.  Factorization and root finding
use a squarefree split, distinct-degree, then Cantor-Zassenhaus
equal-degree splitting, seeded deterministically from the input so
results are reproducible.

Coefficients are field elements, but the hot loops -- ``+``, ``-``, ``*``,
``divmod``, ``%``, ``//``, ``powmod`` and ``poly_gcd`` -- run on the
int-coded kernel ``field.kernel`` (see kernel.py), one of three codings
that the field fixes, by its size, when it is made: residues for F_p, Zech
logarithms for F_{p^k} with q <= 4096, and tuples of residues with
Kronecker products above.  A Poly encodes its coefficients once, on first
use, and keeps the codes; a kernel result keeps only its codes until its
coefficients are read.
"""

import math
import random

from .fields import ExtField, FieldError, PrimeField, coerce
from .linalg import bareiss_det, sylvester


class ExtensionCapError(RuntimeError):
    """A splitting field would exceed the configured extension-degree cap."""


class Poly:
    __slots__ = ("field", "_coeffs", "_code")

    def __init__(self, field, coeffs):
        cs = [field.elem(c) if not field.contains(c) else c for c in coeffs]
        n = len(cs)
        while n and not cs[n - 1]:
            n -= 1
        self.field = field
        self._coeffs = tuple(cs[:n])
        self._code = None

    @classmethod
    def _from_code(cls, field, code):
        """Poly from the kernel's codes (stripped) of ``field``; its
        elements are decoded on first use."""
        out = object.__new__(cls)
        out.field = field
        out._coeffs = None
        out._code = code
        return out

    @property
    def coeffs(self):
        cs = self._coeffs
        if cs is None:
            cs = self._coeffs = self.field._decode(self._code)
        return cs

    def _encoded(self):
        code = self._code
        if code is None:
            code = self._code = self.field._encode(self._coeffs)
        return code

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [1])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @property
    def degree(self):
        cs = self._coeffs
        return len(self._code if cs is None else cs) - 1

    def is_zero(self):
        return self.degree < 0

    def __bool__(self):
        return self.degree >= 0

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise FieldError("mixed-field polynomials")
            return other
        return Poly(self.field, [other])

    def __add__(self, other):
        other = self._check(other)
        return Poly._from_code(self.field, self.field.kernel.add(
            self._encoded(), other._encoded()))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return Poly._from_code(self.field, self.field.kernel.sub(
            self._encoded(), other._encoded()))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.field, [c * other for c in self.coeffs])
        other = self._check(other)
        if not self or not other:
            return Poly.zero(self.field)
        return Poly._from_code(self.field, self.field.kernel.mul(
            self._encoded(), other._encoded()))

    __rmul__ = __mul__

    def __pow__(self, e):
        r, b = Poly.one(self.field), self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def divmod(self, other):
        other = self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = self.field.kernel.divmod(self._encoded(), other._encoded())
        return Poly._from_code(self.field, q), Poly._from_code(self.field, r)

    def __truediv__(self, other):
        """Exact quotient; raises ArithmeticError on a nonzero remainder."""
        q, r = self.divmod(other)
        if r:
            raise ArithmeticError("inexact polynomial division")
        return q

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        other = self._check(other)
        return Poly._from_code(self.field, self.field.kernel.mod(
            self._encoded(), other._encoded()))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def monic(self):
        if self.is_zero():
            return self
        inv = self.field.one / self.lead()
        return Poly(self.field, [c * inv for c in self.coeffs])

    def derivative(self):
        if self.degree < 1:
            return Poly.zero(self.field)
        return Poly(self.field, [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def __call__(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reverse(self, degree=None):
        """Coefficient reversal at the stated degree (default: own degree)."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("reversal degree below actual degree")
        cs = [self.field.zero] * (d + 1)
        for i, c in enumerate(self.coeffs):
            cs[d - i] = c
        return Poly(self.field, cs)

    def map_field(self, target):
        return Poly(target, [coerce(c, target) for c in self.coeffs])

    def sort_key(self):
        return (len(self.coeffs), tuple(self.field.sort_key(c) for c in self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c!r})*x^{i}" if i else f"({c!r})")
        return "Poly(" + " + ".join(terms) + ")"


def poly_gcd(a, b):
    """Monic greatest common divisor; rejects mixed-field inputs."""
    if a.field != b.field:
        raise FieldError("mixed-field inputs to gcd")
    return Poly._from_code(a.field, a.field.kernel.gcd(a._encoded(), b._encoded()))


def powmod(base, e, mod):
    """base^e mod ``mod``, for e >= 0 (e = 0 gives 1, unreduced)."""
    mod = base._check(mod)
    return Poly._from_code(base.field, base.field.kernel.powmod(
        base._encoded(), e, mod._encoded()))


def resultant(a, b):
    """Sylvester-matrix determinant, first argument's coefficient rows first."""
    f = a.field
    if b.field != f:
        raise FieldError("mixed-field inputs to resultant")
    if a.degree < 0 or b.degree < 0:
        return f.zero
    return bareiss_det(sylvester(a.coeffs[::-1], b.coeffs[::-1], f.zero), f.one)


def discriminant(a):
    """Res(a, a') / lc(a), with the usual sign (-1)^(d(d-1)/2)."""
    d = a.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(a, a.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return r / a.lead() * sign


# -- finite-field factorization --------------------------------------------

def _seed_of(a):
    v = 0xD1F
    for c in a.coeffs:
        v = (v * 0x1000193 + a.field.encode_int(c) + 1) & ((1 << 61) - 1)
    v = (v * 0x1000193 + a.field.order) & ((1 << 61) - 1)
    return v


def squarefree_decomposition(a):
    """[(squarefree factor, multiplicity)] over a finite field, a monic."""
    field = a.field
    p = field.char
    out = []
    a = a.monic()

    def frob_root(g):
        # g = h(x^p); recover h by taking p^(k-1)-th powers of coefficients
        e = field.order // p
        cs = []
        for i in range(0, g.degree + 1, p):
            cs.append(g[i] ** e)
        return Poly(field, cs)

    def sf(a, mult):
        if a.degree < 1:
            return
        d = a.derivative()
        if d.is_zero():
            sf(frob_root(a), mult * p)
            return
        g = poly_gcd(a, d)
        w = a // g
        m = 1
        while w.degree > 0:
            y = poly_gcd(w, g)
            z = w // y
            if z.degree > 0:
                out.append((z.monic(), m * mult))
            w, g = y, g // y
            m += 1
        if g.degree > 0:
            sf(frob_root(g), mult * p)

    sf(a, 1)
    return out


def distinct_degree_decomposition(a):
    """[(product of irreducibles of degree d, d)] for squarefree monic a."""
    field = a.field
    q = field.order
    out = []
    x = Poly.x(field)
    h = x
    f = a
    d = 0
    while f.degree > 2 * (d + 1) - 1 and f.degree > 0:
        d += 1
        h = powmod(h, q, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def equal_degree_split(a, d, rng, one=False):
    """Cantor-Zassenhaus split of a (all factors of degree d) into irreducibles;
    with ``one``, into a list of one of them, keeping the smaller part of each
    split.  For d = 1 the splitting elements are x + c, so each exponent bit
    of a try costs a square and one multiply by a linear polynomial."""
    field = a.field
    if a.degree == d:
        return [a.monic()]
    out = []
    stack = [a.monic()]
    e = (field.order ** d - 1) // 2
    while stack and not (one and out):
        f = stack.pop()
        if f.degree == d:
            out.append(f)
            continue
        while True:
            r = Poly(field, [field.rand(rng) for _ in range(f.degree if d > 1 else 1)] + [field.one])
            g = poly_gcd(r, f)
            if 0 < g.degree < f.degree:
                break
            h = powmod(r, e, f) - Poly.one(field)
            g = poly_gcd(h, f)
            if 0 < g.degree < f.degree:
                break
        parts = [g, f // g]
        stack += [min(parts, key=lambda u: u.degree)] if one else parts
    return out


def factor_finite(a):
    """[(irreducible monic factor, multiplicity)], deterministic order.

    The product of factor^mult equals monic(a).
    """
    if a.degree < 0:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(_seed_of(a))
    result = []
    for sqf, mult in squarefree_decomposition(a):
        for part, d in distinct_degree_decomposition(sqf):
            for irr in equal_degree_split(part, d, rng):
                result.append((irr, mult))
    result.sort(key=lambda fm: fm[0].sort_key())
    return result


def distinct_roots_in_field(a):
    """All roots of a lying in its own (finite) coefficient field, no multiplicity."""
    field = a.field
    x = Poly.x(field)
    xq = powmod(x, field.order, a)
    lin = poly_gcd(xq - x, a)
    if lin.degree <= 0:
        return []
    roots = _linear_split(lin)
    roots.sort(key=field.sort_key)
    return roots


def roots_in_field(a):
    """[(root, multiplicity)] for roots lying in a's own finite field.

    Cheaper than full factorization: the distinct roots come from the gcd
    with x^q - x, and each multiplicity by division.  A linear polynomial
    is its own root, with no exponentiation.
    """
    if a.degree < 1:
        return []
    if a.degree == 1:
        return [(-a[0] / a[1], 1)]
    return [(r, root_multiplicity(a, r)) for r in distinct_roots_in_field(a)]


def root_multiplicity(a, r):
    """The multiplicity of r as a root of a (0 when it is none)."""
    lin, m = Poly(a.field, [-r, a.field.one]), 0
    while True:
        a, rem = a.divmod(lin)
        if rem:
            return m
        m += 1


def _linear_split(lin):
    """Distinct roots of a squarefree product of rational linear factors: closed
    forms in degrees 1 and 2, else ``equal_degree_split`` with elements x + c."""
    field = lin.field
    if lin.degree == 1:
        return [-lin.monic()[0]]
    if lin.degree == 2:
        mon = lin.monic()
        b, c = mon[1], mon[0]
        disc = b * b - c * 4
        s = field.sqrt(disc)
        if s is None:
            raise ValueError(f"{lin!r} has no root in {field!r}")
        half = field.one / field.elem(2)
        return [(-b + s) * half, (-b - s) * half]
    rng = random.Random(_seed_of(lin) ^ 0x11EA4)
    return [-f[0] for f in equal_degree_split(lin.monic(), 1, rng)]


def conjugate_roots(f, K):
    """The roots in K of f, irreducible over its field F_q, sorted by K.sort_key:
    one root r from a split of f over K, then its Frobenius orbit r^q, r^(q^2),
    ....  FieldError if K does not hold F_(q^deg f); ValueError if f is reducible."""
    d, q = f.degree, f.field.order
    if K.degree % (f.field.degree * d):
        raise FieldError(f"{K!r} holds no roots of degree-{d} {f!r}")
    lin = equal_degree_split(f.map_field(K), 1, random.Random(_seed_of(f)), one=True)
    roots = [-lin[0][0]]
    for _ in range(d - 1):
        roots.append(roots[-1] ** q)
        if roots[-1] == roots[0]:   # the orbit closed early
            raise ValueError(f"{f!r} is reducible over {f.field!r}")
    return sorted(roots, key=K.sort_key)


def roots_in_splitting_extension(a, cap=12):
    """All roots of a over a splitting extension, with multiplicities.

    Returns (field, [(root, mult)]), roots sorted by the field's key; the field
    is the canonical extension of degree lcm over the irreducible factors, and
    each factor's roots are one Frobenius orbit (``conjugate_roots``).  Degrees
    beyond ``cap`` raise ExtensionCapError.  Multiplicities sum to deg(a).
    """
    if a.degree < 0:
        raise ValueError("zero polynomial")
    base = a.field
    factors = factor_finite(a)
    total = base.degree
    for f, _ in factors:
        total = math.lcm(total, base.degree * f.degree)
    if total > cap:
        raise ExtensionCapError(
            f"splitting field degree {total} exceeds cap {cap}")
    target = PrimeField(base.char) if total == 1 else ExtField(base.char, total)
    out = [(r, m) for f, m in factors for r in conjugate_roots(f, target)]
    out.sort(key=lambda rm: target.sort_key(rm[0]))
    assert sum(m for _, m in out) == a.degree
    return target, out


def binary_gcd(forms):
    """The gcd (g, d) of binary forms given as (Poly in t/s, formal degree)
    over one field; zero forms impose nothing, and d - deg g, the least
    degree deficit, is the multiplicity of (0 : 1).  ValueError if all vanish."""
    live = [(S, d) for S, d in forms if S]
    if not live:
        raise ValueError("every binary form vanishes")
    g = live[0][0]
    for S, _ in live[1:]:
        g = poly_gcd(g, S)
    return g, g.degree + min(d - S.degree for S, d in live)


def binary_roots(forms, cap=None):
    """(K, [((s, t), m)]): the common zeros (s : t) of binary forms, the
    zeros of their ``binary_gcd``, with multiplicity.

    The zeros with s = 1 are the roots of the gcd: with ``cap``, all of them,
    over its splitting field K (see ``roots_in_splitting_extension``);
    without, those in the forms' own field K.  (0 : 1) comes last.
    """
    g, d = binary_gcd(forms)
    base = K = g.field
    roots = []
    if g.degree >= 1:
        K, roots = (K, roots_in_field(g)) if cap is None else roots_in_splitting_extension(g, cap)
    out = [((K.one, r), m) for r, m in roots]
    if d > g.degree:
        out.append(((base.zero, base.one), d - g.degree))
    return K, out
