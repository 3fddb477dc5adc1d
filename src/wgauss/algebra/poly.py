"""Dense univariate polynomials over a finite field.

Coefficients are stored lowest degree first with a nonzero leading
coefficient (empty tuple for the zero polynomial).  A Poly carries its
field explicitly; mixing fields raises.  Factorization and root finding
use a squarefree split, distinct-degree, then Cantor-Zassenhaus
equal-degree splitting, seeded deterministically from the input so
results are reproducible.  A quadratic, or a degree-2 piece of a split,
takes one ``field.sqrt`` and no exponentiation (``_quadratic_roots``).
Over F_q, q = p^k, the rest reads one Frobenius table per squarefree part
f, x^(p^i) mod f for i = 0..k, from one powmod with exponent p and the
kernel's Frobenius map (``_frobenius_table``):
its last entry is the x^q of the distinct-degree step, and linear factors
are split through the trace to F_p, T = Tr(c x) + t raised to (p - 1)/2
(``_trace_split``), so no exponent of that path is longer than p.  Only
factors of degree d > 1 are split with random elements raised to
(q^d - 1)/2.  Every root list is a set sorted by the field's key, so the
random draws never show in a result.

A Poly is (field, code): ``code`` holds its coefficients in the int coding
of the kernel ``field.kernel`` (see kernel.py), one of three codings that
the field fixes, by its size, when it is made: residues for F_p, Zech
logarithms for F_{p^k} with q <= 4096, and tuples of residues with
Kronecker products above.  Codes are stripped and each field has one
coding, so equality and hashing compare codes.  Arithmetic -- ``+``, ``-``,
``*``, ``divmod``, ``%``, ``//``, ``monic``, ``reverse``, ``powmod`` and
``poly_gcd`` -- runs on the kernel; only the constructor encodes field
elements, and only ``coeffs``, ``[i]``, ``lead``, evaluation,
``derivative``, ``map_field``, ``sort_key`` and repr decode them.
"""

import math
import random

from .fields import ExtField, FieldError, PrimeField, coerce
from .linalg import bareiss_det, sylvester


class ExtensionCapError(RuntimeError):
    """A splitting field would exceed the configured extension-degree cap."""


class Poly:
    __slots__ = ("field", "code")

    def __init__(self, field, coeffs):
        self.field = field
        self.code = field.kernel.strip(field._encode([field.elem(c) for c in coeffs]))

    @classmethod
    def _from_code(cls, field, code):
        """Poly from the kernel's codes (stripped) of ``field``."""
        out = object.__new__(cls)
        out.field, out.code = field, code
        return out

    @property
    def coeffs(self):
        return self.field._decode(self.code)

    @classmethod
    def zero(cls, field):
        return cls._from_code(field, ())

    @classmethod
    def one(cls, field):
        return cls._from_code(field, field.kernel.ONE)

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @property
    def degree(self):
        return len(self.code) - 1

    def is_zero(self):
        return not self.code

    def __bool__(self):
        return bool(self.code)

    def __getitem__(self, i):
        if 0 <= i < len(self.code):
            return self.field._decode(self.code[i:i + 1])[0]
        return self.field.zero

    def lead(self):
        if not self.code:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.field._decode(self.code[-1:])[0]

    def _check(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise FieldError("mixed-field polynomials")
            return other
        return Poly(self.field, [other])

    def _op(self, op, other):
        return Poly._from_code(self.field, op(self.code, self._check(other).code))

    def __add__(self, other):
        return self._op(self.field.kernel.add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._op(self.field.kernel.sub, other)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return Poly._from_code(self.field, self.field.kernel.sub((), self.code))

    def __mul__(self, other):
        return self._op(self.field.kernel.mul, other)

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
        q, r = self.field.kernel.divmod(self.code, self._check(other).code)
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
        return self._op(self.field.kernel.mod, other)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.code == other.code
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.code))

    def monic(self):
        return Poly._from_code(self.field, self.field.kernel.monic(self.code))

    def derivative(self):
        cs = self.coeffs
        return Poly(self.field, [cs[i] * i for i in range(1, len(cs))])

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
        kern = self.field.kernel
        return Poly._from_code(self.field, kern.strip(
            (kern.zero,) * (d - self.degree) + self.code[::-1]))

    def map_field(self, target):
        return Poly(target, [coerce(c, target) for c in self.coeffs])

    def sort_key(self):
        return (len(self.code), tuple(self.field.sort_key(c) for c in self.coeffs))

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
    return a._op(a.field.kernel.gcd, b)


def powmod(base, e, mod):
    """base^e mod ``mod``, for e >= 0 (e = 0 gives 1, unreduced)."""
    code = base.field.kernel.powmod(base.code, e, base._check(mod).code)
    return Poly._from_code(base.field, code)


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
    p, frob = field.char, field.kernel.frob
    out, a, mult = [], a.monic(), 1
    while a.degree >= 1:
        d = a.derivative()
        g = a
        if not d.is_zero():
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
        # g = h(x^p); go on with h, its coefficients p-th roots, sigma^(k-1) on F_(p^k)
        cs = g.code[::p]
        for _ in range(field.degree - 1):
            cs = tuple([frob(c) for c in cs])
        a, mult = Poly._from_code(field, cs), mult * p
    return out


def distinct_degree_decomposition(a, xq):
    """[(product of irreducibles of degree d, d)] for squarefree monic a over
    F_q, given xq = x^q mod a (the last entry of a's ``_frobenius_table``)."""
    field = a.field
    q = field.order
    out = []
    x = Poly.x(field)
    h = xq
    f = a
    d = 0
    while f.degree > 2 * (d + 1) - 1 and f.degree > 0:
        d += 1
        if d > 1:
            h = powmod(h, q, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _frobenius_table(f, k):
    """Codes of X_i = x^(p^i) mod f for i = 0..k, p the characteristic.

    X_1 is one powmod with exponent p.  Then, with X_i = sum_j a_ij x^j and
    sigma the kernel's Frobenius, X_(i+1) = X_i^p = sum_j sigma(a_ij) X_1^j
    mod f (von zur Gathen & Shoup, "Computing Frobenius maps and factoring
    polynomials", Comput. Complexity 2, 1992): one ``combine`` with the
    powers of X_1 per entry, and no exponent longer than p."""
    field = f.field
    kern = field.kernel
    m = f.code
    x = kern.mod(Poly.x(field).code, m)
    X1 = kern.powmod(x, field.char, m)
    table = [x, X1]
    if k > 1:
        powers = [kern.ONE, X1][:f.degree]
        while len(powers) < f.degree:
            powers.append(kern.mod(kern.mul(powers[-1], X1), m))
        frob = kern.frob
        while len(table) <= k:
            table.append(kern.combine([frob(c) for c in table[-1]], powers))
    return table


# splits tried per piece before it is refused; on valid input each parts two roots w.p. >= 4/9
_SPLIT_TRIES = 64


def _trace_split(f, table, rng, one=False):
    """The monic linear factors of f, a product of distinct ones over its
    field F_q, q = p^k; with ``one``, a list of one of them, keeping the
    smaller part of each split.

    ``table`` holds the codes of X_i = x^(p^i) mod a multiple of f for
    i < r, where r | k and X_r = x mod f.  The splitting element is
    T = Tr(c x) + t = sum_(i<k) sigma^i(c) X_(i mod r) + t, with c random in
    F_q, t random in F_p and sigma the kernel's Frobenius.  At each root z,
    T(z) = Tr(c z) + t lies in F_p, so T^((p-1)/2) is 0 or +-1 there, and
    gcd(T^((p-1)/2) - 1, f) parts two roots z, z' with probability about 1/2,
    as T(z) and T(z') are independent and uniform in F_p.  Over F_p,
    T = c x + t.  A piece of degree 2 is split by ``_quadratic_roots``, or
    refused with ValueError."""
    field = f.field
    kern, p, k = field.kernel, field.char, field.degree
    e = (p - 1) // 2
    frob = kern.frob
    out = []
    stack = [(f.monic(), table)]
    while stack and not (one and out):
        g, tab = stack.pop()
        if g.degree == 1:
            out.append(g)
            continue
        if g.degree == 2:
            roots = _quadratic_roots(g)
            if len(roots) < 2:
                raise ValueError(f"{g!r} has no two distinct roots in {field!r}")
            out += [Poly(field, [-r, field.one]) for r in roots[:1 if one else 2]]
            continue
        m = g.code
        tab = [kern.mod(X, m) for X in tab]
        terms = [tab[i % len(tab)] for i in range(k)] + [kern.ONE]
        for _ in range(_SPLIT_TRIES):
            c, t = field._encode([field.rand(rng), field.elem(rng.randrange(p))])
            cs = [c]
            for _ in range(k - 1):
                cs.append(frob(cs[-1]))
            T = Poly._from_code(field, kern.combine(cs + [t], terms))
            h = poly_gcd(powmod(T, e, g) - 1, g)
            if 0 < h.degree < g.degree:
                break
        else:
            raise ValueError(f"{g!r} has no {g.degree} distinct roots in {field!r}")
        parts = [h, g // h]
        stack += [(u, tab) for u in ([min(parts, key=lambda u: u.degree)] if one else parts)]
    return out


def equal_degree_split(a, d, rng):
    """Cantor-Zassenhaus split of a, all of whose irreducible factors over
    F_q have degree d > 1, into them: splitting elements are random
    polynomials, raised to (q^d - 1)/2."""
    field = a.field
    out = []
    stack = [a.monic()]
    e = (field.order ** d - 1) // 2
    while stack:
        f = stack.pop()
        if f.degree == d:
            out.append(f)
            continue
        if f.degree % d:
            raise ValueError(f"{a!r} is no product of degree-{d} irreducibles over {field!r}")
        for _ in range(_SPLIT_TRIES):
            r = Poly(field, [field.rand(rng) for _ in range(f.degree)] + [field.one])
            g = poly_gcd(r, f)
            if 0 < g.degree < f.degree:
                break
            h = powmod(r, e, f) - Poly.one(field)
            g = poly_gcd(h, f)
            if 0 < g.degree < f.degree:
                break
        else:
            raise ValueError(f"{f!r} did not split into degree-{d} factors over {field!r}")
        stack += [g, f // g]
    return out


def factor_finite(a):
    """[(irreducible monic factor, multiplicity)], deterministic order.

    The product of factor^mult equals monic(a).  A squarefree part of degree
    <= 2 takes no Frobenius table: ``_quadratic_roots`` decides it.
    """
    if a.degree < 0:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(_seed_of(a))
    k = a.field.degree
    result = []
    for sqf, mult in squarefree_decomposition(a):
        if sqf.degree <= 2:
            roots = _quadratic_roots(sqf) if sqf.degree == 2 else []
            result += [(Poly(a.field, [-r, 1]), mult) for r in roots] or [(sqf, mult)]
            continue
        table = _frobenius_table(sqf, k)
        xq = Poly._from_code(a.field, table[k])
        for part, d in distinct_degree_decomposition(sqf, xq):
            if d == 1:
                irrs = _trace_split(part, table[:k], rng)
            else:
                irrs = equal_degree_split(part, d, rng)
            result += [(irr, mult) for irr in irrs]
    result.sort(key=lambda fm: fm[0].sort_key())
    return result


def distinct_roots_in_field(a):
    """All roots of a lying in its own field F_q, no multiplicity: a
    quadratic's ``_quadratic_roots``, else the gcd of a with x^q - x, x^q from
    a's ``_frobenius_table``, split through the trace with the same table."""
    if a.degree == 2:
        return _quadratic_roots(a)
    field = a.field
    k = field.degree
    table = _frobenius_table(a, k)
    lin = poly_gcd(Poly._from_code(field, table[k]) - Poly.x(field), a)
    if lin.degree <= 0:
        return []
    roots = _linear_split(lin, table[:k])
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
    if not a:
        raise ValueError("the zero polynomial has no root multiplicity")
    lin, m = Poly(a.field, [-r, a.field.one]), 0
    while True:
        a, rem = a.divmod(lin)
        if rem:
            return m
        m += 1


def _linear_split(lin, table):
    """Distinct roots of a squarefree product of rational linear factors, by
    ``_trace_split`` with ``table``, x^(p^i) mod a multiple of lin, i < deg F_q."""
    rng = random.Random(_seed_of(lin) ^ 0x11EA4)
    return [-f[0] for f in _trace_split(lin, table, rng)]


def _quadratic_roots(f):
    """The distinct roots in its field of f, of degree 2, sorted by its key:
    (-b +- s)/2 for monic(f) = x^2 + b x + c and s = sqrt(b^2 - 4c), none
    when b^2 - 4c is no square."""
    field = f.field
    c, b, _ = f.monic().coeffs
    s, half = field.sqrt(b * b - c * 4), field.elem((field.char + 1) // 2)
    return [] if s is None else sorted({(s - b) * half, (-s - b) * half}, key=field.sort_key)


def conjugate_roots(f, K):
    """The roots in K of f, irreducible over its field F_q, sorted by K.sort_key:
    one root r from a split of f over K, then its Frobenius orbit r^q, r^(q^2),
    ..., each sigma^(deg F_q) by the kernel's Frobenius sigma.

    A quadratic splits by ``_quadratic_roots``, else by ``_trace_split`` with
    f's ``_frobenius_table`` over F_q, up to x^(q^d), d = deg f, mapped into
    K: f splits into distinct linear factors over F_(q^d) exactly when
    x^(q^d) = x mod f.  FieldError if K does not hold F_(q^d); ValueError if
    f is reducible (a quadratic: the discriminant is a square)."""
    F, d = f.field, f.degree
    if d < 1:
        raise ValueError(f"{f!r} over {F!r} has degree {d}: no roots to conjugate")
    b = F.degree
    if K.degree % (b * d):
        raise FieldError(f"{K!r} holds no roots of degree-{d} {f!r}")
    fK = f.map_field(K)
    if d <= 2:
        root = -fK.monic()[0] if d == 1 else _quadratic_roots(fK)[0]
    else:
        table = _frobenius_table(f, b * d)
        if table[-1] != table[0]:
            raise ValueError(f"{f!r} is reducible over {F!r}: no distinct roots in {K!r}")
        table = [Poly._from_code(F, X).map_field(K).code for X in table[:-1]]
        root = -_trace_split(fK, table, random.Random(_seed_of(f)), one=True)[0][0]
    frob, code = K.kernel.frob, K._encode([root])
    for _ in range(d - 1):
        r = code[-1]
        for _ in range(b):
            r = frob(r)
        if r == code[0]:   # the orbit closed early
            raise ValueError(f"{f!r} is reducible over {F!r}"
                             + (": the discriminant is a square" if d == 2 else ""))
        code += (r,)
    return sorted(K._decode(code), key=K.sort_key)


def splitting_field(a, cap=12):
    """(K, ``factor_finite(a)``): K is the canonical extension of degree lcm
    over the irreducible factors, where each factor's roots are one
    Frobenius orbit (``conjugate_roots``); beyond ``cap`` it raises
    ExtensionCapError."""
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
    return PrimeField(base.char) if total == 1 else ExtField(base.char, total), factors


def roots_in_splitting_extension(a, cap=12):
    """(K, [(root, mult)]): all roots of a over its ``splitting_field`` K,
    sorted by K's key; the mults sum to deg(a)."""
    K, factors = splitting_field(a, cap)
    out = [(r, m) for f, m in factors for r in conjugate_roots(f, K)]
    out.sort(key=lambda rm: K.sort_key(rm[0]))
    assert sum(m for _, m in out) == a.degree
    return K, out


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
