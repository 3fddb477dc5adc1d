"""Exact base fields: the rationals, prime fields F_p, and their extensions.

Field objects are lightweight descriptors that construct elements and
provide field-level services (square roots, enumeration, extensions).
Elements overload the arithmetic operators, so polynomial and matrix code
is written once and runs over any of the three kinds of field.

Representations:
  * rationals      -- plain ``fractions.Fraction`` (no wrapper class)
  * F_p            -- ``FpElement`` holding an int in [0, p)
  * F_{p^k}        -- ``ExtElement`` holding a length-k tuple of ints,
                      coefficients of 1, x, ..., x^{k-1} modulo a fixed
                      irreducible monic modulus

These element classes are the public representation.  Polynomial
arithmetic (poly.py) runs on the int-coded kernel of kernel.py instead,
obtained from ``field._kernel()``, and converts with ``_encode``/``_decode``
at the ``Poly`` boundary: F_p codes a coefficient as its residue; F_{p^k}
with q <= ``kernel.ZECH_MAX_ORDER`` (4096) codes it as its discrete log to
a primitive element, from log/Zech tables built on first use and kept on
the field.  Element multiplication, ``_inv`` and ``__pow__`` of such a
field read the same tables.
Larger F_{p^k} (and QQ) have no kernel and stay on element arithmetic.

The modulus of F_{p^k} is deterministic: monic x^k + c with the non-leading
coefficient block c enumerated as a base-p counter (constant term least
significant), first irreducible wins.  Embeddings F_{p^a} -> F_{p^b} for
a | b send the generator to the lexicographically least root of the degree-a
modulus in F_{p^b}, so coercions are reproducible across runs.
"""

from fractions import Fraction

from .kernel import (ZECH_MAX_ORDER, FpKernel, ZechKernel, _prime_divisors,
                     _tdivmod, _tgcd, _tmul, _tpowmod, _tstrip)


class FieldError(ValueError):
    """Invalid field construction or cross-field operation."""


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond the sizes used here
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers; elements are ``Fraction``."""

    char = 0
    degree = 1
    order = None
    is_finite = False

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def elem(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return Fraction(int(x[0]), int(x[1]))
        raise FieldError(f"cannot coerce {x!r} into QQ")

    def contains(self, x):
        return isinstance(x, Fraction)

    def _kernel(self):
        return None

    def encode_int(self, x):
        # injective-enough mix for seeding deterministic randomness
        return ((x.numerator << 32) ^ x.denominator) & ((1 << 62) - 1)

    def sort_key(self, x):
        return (x.numerator, x.denominator)

    def to_json(self, x):
        return str(x) if x.denominator != 1 else int(x)

    def from_json(self, obj):
        return self.elem(obj)

    def is_square(self, x):
        if x < 0:
            return False
        n, d = x.numerator, x.denominator
        rn, rd = _isqrt(n), _isqrt(d)
        return rn * rn == n and rd * rd == d

    def sqrt(self, x):
        if not self.is_square(x):
            return None
        return Fraction(_isqrt(x.numerator), _isqrt(x.denominator))

    def describe(self):
        return {"type": "rational"}

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


def _isqrt(n):
    import math
    return math.isqrt(n)


QQ = Rationals()


class FpElement:
    """Element of a prime field, an int reduced mod p."""

    __slots__ = ("value", "field")

    def __init__(self, value, field):
        self.value = value % field.p
        self.field = field

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise FieldError("mixed prime fields")
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value + v, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value - v, self.field)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.value, self.field)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value * v, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.value * pow(v, -1, self.field.p), self.field)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(v * pow(self.value, -1, self.field.p), self.field)

    def __pow__(self, e):
        if e < 0:
            return FpElement(pow(self.value, e, self.field.p), self.field)
        return FpElement(pow(self.value, e, self.field.p), self.field)

    def __neg__(self):
        return FpElement(-self.value, self.field)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.field.p == other.field.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __bool__(self):
        return self.value != 0

    def __hash__(self):
        return hash((self.field.p, 1, self.value))

    def __repr__(self):
        return f"{self.value}:F{self.field.p}"


class PrimeField:
    """F_p for an odd prime p."""

    is_finite = True
    degree = 1

    _registry = {}

    def __new__(cls, p):
        inst = cls._registry.get(p)
        if inst is None:
            if not _is_prime(p) or p == 2:
                raise FieldError(f"{p} is not an odd prime")
            inst = super().__new__(cls)
            inst.p = p
            inst.char = p
            inst.order = p
            inst.zero = FpElement(0, inst)
            inst.one = FpElement(1, inst)
            inst._nonresidue = None
            inst._fp_kernel = FpKernel(p)
            cls._registry[p] = inst
        return inst

    def _kernel(self):
        return self._fp_kernel

    def _encode(self, coeffs):
        return tuple([c.value for c in coeffs])

    def _decode(self, code):
        return tuple([FpElement(v, self) for v in code])

    def elem(self, x):
        if isinstance(x, FpElement):
            if x.field.p != self.p:
                raise FieldError("mixed prime fields")
            return x
        if isinstance(x, int):
            return FpElement(x, self)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError("denominator divisible by p")
            return FpElement(x.numerator * pow(x.denominator, -1, self.p), self)
        raise FieldError(f"cannot coerce {x!r} into F_{self.p}")

    def contains(self, x):
        return isinstance(x, FpElement) and x.field.p == self.p

    def elements(self):
        for v in range(self.p):
            yield FpElement(v, self)

    def rand(self, rng):
        return FpElement(rng.randrange(self.p), self)

    def encode_int(self, x):
        return x.value

    def sort_key(self, x):
        return (x.value,)

    def to_json(self, x):
        return x.value

    def from_json(self, obj):
        return self.elem(int(obj))

    def is_square(self, x):
        if x.value == 0:
            return True
        return pow(x.value, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, x):
        """Deterministic square root in F_p, or None for non-residues."""
        a, p = x.value, self.p
        if a == 0:
            return self.zero
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
        else:
            r = _tonelli(a, p)
        r = min(r, p - r)
        return FpElement(r, self)

    def nonresidue(self):
        if self._nonresidue is None:
            for v in range(2, self.p):
                if pow(v, (self.p - 1) // 2, self.p) == self.p - 1:
                    self._nonresidue = FpElement(v, self)
                    break
        return self._nonresidue

    def extension(self, k):
        if k == 1:
            return self
        return ExtField(self.p, k)

    def describe(self):
        return {"type": "prime", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


def _tonelli(a, p):
    # Tonelli-Shanks for p = 1 mod 4; a is a known residue
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _t_irreducible(f, p):
    # Rabin test: x^(p^k) = x mod f, and gcd(x^(p^(k/r)) - x, f) = 1
    k = len(f) - 1
    x = (0, 1)
    xq = _tpowmod(x, p ** k, f, p)
    if _tstrip(tuple((a - b) % p for a, b in _zipc(xq, x))) != ():
        return False
    for r in _prime_divisors(k):
        xe = _tpowmod(x, p ** (k // r), f, p)
        d = _tgcd(tuple((a - b) % p for a, b in _zipc(xe, x)), f, p)
        if len(d) != 1:
            return False
    return True


def _zipc(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return zip(a, b)


class ExtElement:
    """Element of F_{p^k}: coefficient tuple of length k."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field):
        self.coeffs = coeffs
        self.field = field

    def _coerce(self, other):
        f = self.field
        if isinstance(other, ExtElement):
            if other.field is f:
                return other.coeffs
            if other.field.p == f.p and other.field.k == f.k:
                return other.coeffs
            raise FieldError("mixed extension fields; coerce explicitly")
        if isinstance(other, int):
            return (other % f.p,) + (0,) * (f.k - 1)
        if isinstance(other, FpElement):
            if other.field.p != f.p:
                raise FieldError("mixed characteristics")
            return (other.value,) + (0,) * (f.k - 1)
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        p = self.field.p
        return ExtElement(tuple((a + b) % p for a, b in zip(self.coeffs, v)), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        p = self.field.p
        return ExtElement(tuple((a - b) % p for a, b in zip(self.coeffs, v)), self.field)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        p = self.field.p
        return ExtElement(tuple((b - a) % p for a, b in zip(self.coeffs, v)), self.field)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ExtElement(self.field._mul(self.coeffs, v), self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ExtElement(self.field._mul(self.coeffs, self.field._inv(v)), self.field)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ExtElement(self.field._mul(v, self.field._inv(self.coeffs)), self.field)

    def __pow__(self, e):
        f = self.field
        z = f._kernel()
        if z is not None:
            n = z.log[self.coeffs]
            if n >= 0:
                return f._elems[n * e % z.n]
            if e < 0:
                raise ZeroDivisionError("division by zero in extension field")
            return f.one if e == 0 else f.zero
        if e < 0:
            base = f._inv(self.coeffs)
            e = -e
        else:
            base = self.coeffs
        r = f.one.coeffs
        while e:
            if e & 1:
                r = f._mul(r, base)
            base = f._mul(base, base)
            e >>= 1
        return ExtElement(r, f)

    def __neg__(self):
        p = self.field.p
        return ExtElement(tuple((-a) % p for a in self.coeffs), self.field)

    def __eq__(self, other):
        if isinstance(other, ExtElement):
            return (self.field.p == other.field.p and self.field.k == other.field.k
                    and self.coeffs == other.coeffs)
        if isinstance(other, (int, FpElement)):
            v = self._coerce(other)
            return self.coeffs == v
        return NotImplemented

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __repr__(self):
        return f"{list(self.coeffs)}:F{self.field.p}^{self.field.k}"


class ExtField:
    """F_{p^k} = F_p[x]/(m) with the canonical modulus for (p, k)."""

    is_finite = True

    _registry = {}

    def __new__(cls, p, k):
        inst = cls._registry.get((p, k))
        if inst is None:
            if k < 2:
                raise FieldError("extension degree must be >= 2")
            PrimeField(p)  # validates p
            inst = super().__new__(cls)
            inst.p = p
            inst.k = k
            inst.degree = k
            inst.char = p
            inst.order = p ** k
            inst.modulus = inst._find_modulus(p, k)
            # reduction table: x^(k+j) mod m, j = 0..k-2
            red = []
            cur = tuple((-c) % p for c in inst.modulus[:k])  # x^k
            red.append(cur)
            for _ in range(k - 2):
                cur = inst._reduce_shift(cur)
                red.append(cur)
            inst._red = red
            inst.zero = ExtElement((0,) * k, inst)
            inst.one = ExtElement((1,) + (0,) * (k - 1), inst)
            inst.gen = ExtElement(((0, 1) + (0,) * (k - 2))[:k], inst)
            inst._nonresidue = None
            inst._emb_cache = {}
            inst._zech = None      # ZechKernel, built by _kernel()
            inst._elems = None     # log -> element, zero last (log -1)
            cls._registry[(p, k)] = inst
        return inst

    @staticmethod
    def _find_modulus(p, k):
        # base-p counter over the non-leading coefficients, constant term
        # least significant; first irreducible monic wins
        import math
        d = math.gcd(k, p - 1)
        c = 1
        while True:
            digits, v = [], c
            for _ in range(k):
                digits.append(v % p)
                v //= p
            if v:
                raise FieldError("no irreducible modulus found")  # unreachable
            # single-digit candidates are x^k + c: skip when -c is a k-th
            # power (then a root exists), which is the common reducible case
            if c < p and pow((-c) % p, (p - 1) // d, p) == 1:
                c += 1
                continue
            f = tuple(digits) + (1,)
            if _t_irreducible(f, p):
                return f
            c += 1

    def _reduce_shift(self, cur):
        # multiply a fully reduced length-k coefficient vector by x
        p, k, m = self.p, self.k, self.modulus
        out = [0] + list(cur)
        if out[k]:
            c = out[k]
            for i in range(k):
                out[i] = (out[i] - c * m[i]) % p
        return tuple(out[:k])

    def _mul(self, a, b):
        z = self._zech
        if z is not None:
            la, lb = z.log[a], z.log[b]
            if la < 0 or lb < 0:
                return self.zero.coeffs
            return z.exp[(la + lb) % z.n]
        # schoolbook product reduced by the modulus: fields without tables,
        # and the ZechKernel constructor (it runs before _zech is set)
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        out = conv[:k]
        for j in range(k - 1):
            c = conv[k + j]
            if c:
                row = self._red[j]
                for i in range(k):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def _kernel(self):
        """Zech-log kernel of a field with q <= ZECH_MAX_ORDER, else None."""
        z = self._zech
        if z is None and self.order <= ZECH_MAX_ORDER:
            z = self._zech = ZechKernel(self.p, self.k, self._mul)
            self._elems = [ExtElement(v, self) for v in z.exp] + [self.zero]
        return z

    def _encode(self, coeffs):
        log = self._zech.log
        return tuple([log[c.coeffs] for c in coeffs])

    def _decode(self, code):
        elems = self._elems
        return tuple([elems[v] for v in code])

    def _inv(self, a):
        z = self._kernel()
        if z is not None:
            n = z.log[a]
            if n < 0:
                raise ZeroDivisionError("division by zero in extension field")
            return z.exp[-n % z.n]
        a = _tstrip(a)
        if not a:
            raise ZeroDivisionError("division by zero in extension field")
        # extended Euclid against the modulus
        p, m = self.p, self.modulus
        r0, r1 = m, a
        s0, s1 = (), (1,)
        while r1:
            q, r = _tdivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _tstrip(tuple((x - y) % p for x, y in _zipc(s0, _tmul(q, s1, p))))
        inv_lead = pow(r0[-1], -1, p)
        s0 = tuple(c * inv_lead % p for c in s0)
        return tuple(s0) + (0,) * (self.k - len(s0))

    def elem(self, x):
        if isinstance(x, ExtElement) and x.field is self:
            return x
        if isinstance(x, ExtElement) and (x.field.p, x.field.k) == (self.p, self.k):
            return ExtElement(x.coeffs, self)
        if isinstance(x, int):
            return ExtElement((x % self.p,) + (0,) * (self.k - 1), self)
        if isinstance(x, FpElement):
            if x.field.p != self.p:
                raise FieldError("mixed characteristics")
            return ExtElement((x.value,) + (0,) * (self.k - 1), self)
        if isinstance(x, (tuple, list)):
            c = tuple(int(v) % self.p for v in x)
            if len(c) > self.k:
                raise FieldError("coefficient vector too long")
            return ExtElement(c + (0,) * (self.k - len(c)), self)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError("denominator divisible by p")
            v = x.numerator * pow(x.denominator, -1, self.p) % self.p
            return ExtElement((v,) + (0,) * (self.k - 1), self)
        raise FieldError(f"cannot coerce {x!r} into F_{self.p}^{self.k}")

    def contains(self, x):
        return isinstance(x, ExtElement) and (x.field.p, x.field.k) == (self.p, self.k)

    def elements(self):
        p, k = self.p, self.k
        for n in range(self.order):
            digits, v = [], n
            for _ in range(k):
                digits.append(v % p)
                v //= p
            yield ExtElement(tuple(digits), self)

    def rand(self, rng):
        return ExtElement(tuple(rng.randrange(self.p) for _ in range(self.k)), self)

    def encode_int(self, x):
        v = 0
        for c in reversed(x.coeffs):
            v = v * self.p + c
        return v

    def sort_key(self, x):
        return x.coeffs

    def to_json(self, x):
        return list(x.coeffs)

    def from_json(self, obj):
        return self.elem(obj)

    def is_square(self, x):
        if not x:
            return True
        return x ** ((self.order - 1) // 2) == self.one

    def sqrt(self, x):
        """Square root in F_q via Tonelli-Shanks; None for non-residues."""
        if not x:
            return self.zero
        q = self.order
        if x ** ((q - 1) // 2) != self.one:
            return None
        if q % 4 == 3:
            r = x ** ((q + 1) // 4)
            return min(r, -r, key=self.sort_key)
        else:
            m, s = q - 1, 0
            while m % 2 == 0:
                m //= 2
                s += 1
            z = self.nonresidue()
            mm, c, t, r = s, z ** m, x ** m, x ** ((m + 1) // 2)
            while t != self.one:
                i, t2 = 0, t
                while t2 != self.one:
                    t2 = t2 * t2
                    i += 1
                b = c ** (1 << (mm - i - 1))
                mm, c = i, b * b
                t, r = t * c, r * b
        return min(r, -r, key=self.sort_key)

    def nonresidue(self):
        if self._nonresidue is None:
            e = (self.order - 1) // 2
            for x in self.elements():
                if x and x ** e != self.one:
                    self._nonresidue = x
                    break
        return self._nonresidue

    def extension(self, k):
        return ExtField(self.p, self.k * k) if k > 1 else self

    def embedding_images(self, src):
        """Powers of the image of src's generator; src.degree | self.degree."""
        key = src.degree
        if key not in self._emb_cache:
            if src.degree == 1:
                self._emb_cache[key] = [self.one]
            else:
                if self.k % src.degree != 0:
                    raise FieldError("no embedding: degree does not divide")
                from .poly import Poly, distinct_roots_in_field
                f = Poly(self, [self.elem(c) for c in src.modulus])
                roots = distinct_roots_in_field(f)
                if len(roots) != src.degree:
                    raise FieldError("modulus failed to split in target")
                r = min(roots, key=self.sort_key)
                pows, cur = [self.one], self.one
                for _ in range(src.degree - 1):
                    cur = cur * r
                    pows.append(cur)
                self._emb_cache[key] = pows
        return self._emb_cache[key]

    def describe(self):
        return {"type": "extension", "p": self.p, "k": self.k}

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return isinstance(other, ExtField) and (other.p, other.k) == (self.p, self.k)

    def __hash__(self):
        return hash(("Fq", self.p, self.k))


def field_from_json(obj):
    t = obj.get("type")
    if t == "rational":
        return QQ
    if t == "prime":
        return PrimeField(int(obj["p"]))
    if t == "extension":
        return ExtField(int(obj["p"]), int(obj["k"]))
    raise FieldError(f"unknown field descriptor {obj!r}")


def coerce(x, target):
    """Map an element into ``target``, embedding extensions as needed."""
    if target is QQ or isinstance(target, Rationals):
        if isinstance(x, (Fraction, int)):
            return QQ.elem(x)
        raise FieldError("cannot coerce finite-field element into QQ")
    if isinstance(x, (int, Fraction)):
        return target.elem(x)
    if isinstance(x, FpElement):
        if x.field.p != target.char:
            raise FieldError("mixed characteristics")
        return target.elem(x.value)
    if isinstance(x, ExtElement):
        if x.field.p != target.char:
            raise FieldError("mixed characteristics")
        if isinstance(target, PrimeField):
            if any(x.coeffs[1:]):
                raise FieldError("element does not lie in the prime field")
            return target.elem(x.coeffs[0])
        if x.field.k == target.k:
            return target.elem(x.coeffs)
        if target.k % x.field.k != 0:
            raise FieldError("no embedding between these extensions")
        pows = target.embedding_images(x.field)
        acc = target.zero
        for c, w in zip(x.coeffs, pows):
            if c:
                acc = acc + w * c
        return acc
    raise FieldError(f"cannot coerce {x!r}")


def common_field(f1, f2):
    """Smallest field containing both (same characteristic required)."""
    if f1 == f2:
        return f1
    if f1 is QQ or f2 is QQ or isinstance(f1, Rationals) or isinstance(f2, Rationals):
        if f1 == f2:
            return f1
        raise FieldError("cannot mix QQ with finite fields")
    if f1.char != f2.char:
        raise FieldError("mixed characteristics")
    import math
    d = math.lcm(f1.degree, f2.degree)
    return PrimeField(f1.char) if d == 1 else ExtField(f1.char, d)
