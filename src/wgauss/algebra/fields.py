"""Exact base fields: prime fields F_p and their extensions F_{p^k}.

Field objects are lightweight descriptors that construct elements and
provide field-level services (square roots, enumeration, extensions).
Elements overload the arithmetic operators, so polynomial and matrix code
is written once and runs over either kind of field.  There is no field of
characteristic 0: a model over Q is reduced mod a large prime (p >= 10007
stands in for generic characteristic) before it is handed to the library.

Representations:
  * F_p            -- ``FpElement`` holding an int in [0, p)
  * F_{p^k}        -- ``ExtElement`` holding a length-k tuple of ints,
                      coefficients of 1, x, ..., x^{k-1} modulo a fixed
                      irreducible monic modulus

These element classes are the public representation.  Polynomial and
series arithmetic (poly.py, series.py) run on an int-coded kernel of
kernel.py instead, ``field.kernel``, and convert with ``_encode``/``_decode``
at the ``Poly`` and series boundary.  Each field makes its kernel in its
constructor, chosen by its size, and keeps it: F_p codes a coefficient as
its residue; F_{p^k} with q <= ``kernel.ZECH_MAX_ORDER`` (4096) as its
discrete log to a primitive element, from log/Zech tables built with the
field; larger F_{p^k} as its own coefficient tuple, with Kronecker products
and no tables.  Extension elements multiply, divide and raise to powers
through the kernel's ``fmul``/``finv``/``fpow`` on coefficient tuples.

The modulus of F_{p^k} is deterministic: monic x^k + c with the non-leading
coefficient block c enumerated as a base-p counter (constant term least
significant), first irreducible wins.  Embeddings F_{p^a} -> F_{p^b} for
a | b send the generator to the lexicographically least root of the degree-a
modulus in F_{p^b}, so coercions are reproducible across runs.

Two closed forms keep the set-up of a large field cheap without changing
its answers.  The binomials x^k + c, c < p, come first in counter order and
are decided by Capelli's theorem (``_binomial_irreducible``), so Rabin's
test runs only on the later candidates.  ``nonresidue()``, the first
non-square in ``elements()`` order, uses a^((q-1)/2) = (a^((p-1)/2))^k for
a in F_p: for odd k it is F_p's non-residue, and for even k, where every
constant is a square, the search starts after the p constants.
"""

import math
from itertools import product

from .kernel import ZECH_MAX_ORDER, FpKernel, TupleKernel, ZechKernel, _prime_divisors


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
        if e < 0 and not self.value:
            raise ZeroDivisionError("division by zero in F_p")
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
            inst._nonresidue = inst._sqrt_c = None
            inst.kernel = FpKernel(p)
            cls._registry[p] = inst
        return inst

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
        return self.elem(json_int(obj))

    def is_square(self, x):
        if x.value == 0:
            return True
        return pow(x.value, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, x):
        return _sqrt(self, x)

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


def projective_points(field, n):
    """P^(n-1) over a finite field as the n-tuples whose first nonzero entry
    is one: by the position of that entry, then in itertools.product order
    over ``elements()``."""
    elems = list(field.elements())
    for lead in range(n):
        head = (field.zero,) * lead + (field.one,)
        for tail in product(elems, repeat=n - 1 - lead):
            yield head + tail


def _sqrt(field, x):
    """The square root of x in a finite field of odd order q with the
    smaller sort key of r, -r, or None for a non-square, from one power of x:
    r = x^((q+1)/4) when q = 3 mod 4, else Tonelli-Shanks from x^((m-1)/2),
    q - 1 = 2^s m, with n^m made once for the field's first non-residue n."""
    if not x:
        return field.zero
    q, one = field.order, field.one
    if q % 4 == 3:
        r = x ** ((q + 1) // 4)
        if r * r != x:
            return None
    else:
        m, s = q - 1, 0
        while m % 2 == 0:
            m //= 2
            s += 1
        c = field._sqrt_c = field._sqrt_c or field.nonresidue() ** m
        w = x ** ((m - 1) // 2)
        r, t = x * w, x * w * w
        while t != one:
            i, t2 = 0, t
            while t2 != one:
                t2 = t2 * t2
                i += 1
            if i == s:   # x^m has order 2^s: x is no square
                return None
            b = c ** (1 << (s - i - 1))
            s, c = i, b * b
            t, r = t * c, r * b
    return min(r, -r, key=field.sort_key)


def _t_irreducible(f, p):
    # Rabin test: x^(p^k) = x mod f, and gcd(x^(p^(k/r)) - x, f) = 1
    k, kern = len(f) - 1, FpKernel(p)
    x = (0, 1)
    if kern.sub(kern.powmod(x, p ** k, f), x):
        return False
    for r in _prime_divisors(k):
        xe = kern.powmod(x, p ** (k // r), f)
        if len(kern.gcd(kern.sub(xe, x), f)) != 1:
            return False
    return True


def _binomial_irreducible(a, k, p):
    """Whether x^k - a, a != 0, is irreducible over F_p.

    Capelli's theorem (Lidl & Niederreiter, Finite Fields, Thm 3.75 in
    another form): if and only if a is not an r-th power for any prime r | k
    and, when 4 | k, a is not in -4 F_p^4.
    """
    for r in _prime_divisors(k):
        if pow(a, (p - 1) // math.gcd(r, p - 1), p) == 1:
            return False
    if k % 4 == 0:
        b = -a * pow(4, -1, p) % p
        if pow(b, (p - 1) // math.gcd(4, p - 1), p) == 1:
            return False
    return True


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
        return ExtElement(tuple([(a + b) % p for a, b in zip(self.coeffs, v)]), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        p = self.field.p
        return ExtElement(tuple([(a - b) % p for a, b in zip(self.coeffs, v)]), self.field)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        p = self.field.p
        return ExtElement(tuple([(b - a) % p for a, b in zip(self.coeffs, v)]), self.field)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ExtElement(self.field.kernel.fmul(self.coeffs, v), self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        kern = self.field.kernel
        return ExtElement(kern.fmul(self.coeffs, kern.finv(v)), self.field)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        kern = self.field.kernel
        return ExtElement(kern.fmul(v, kern.finv(self.coeffs)), self.field)

    def __pow__(self, e):
        return ExtElement(self.field.kernel.fpow(self.coeffs, e), self.field)

    def __neg__(self):
        p = self.field.p
        return ExtElement(tuple([(-a) % p for a in self.coeffs]), self.field)

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
        c = self.coeffs
        if not any(c[1:]):   # in F_p: hash like the FpElement it equals
            return hash((self.field.p, 1, c[0]))
        return hash((self.field.p, self.field.k, c))

    def __repr__(self):
        return f"{list(self.coeffs)}:F{self.field.p}^{self.field.k}"


class ExtField:
    """F_{p^k} = F_p[x]/(m) with the canonical modulus for (p, k)."""

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
            tuples = TupleKernel(p, k, inst.modulus)
            inst.kernel = ZechKernel(tuples) if inst.order <= ZECH_MAX_ORDER else tuples
            inst.zero = ExtElement((0,) * k, inst)
            inst.one = ExtElement((1,) + (0,) * (k - 1), inst)
            inst.gen = ExtElement(((0, 1) + (0,) * (k - 2))[:k], inst)
            inst._nonresidue = inst._sqrt_c = None
            inst._emb_cache = {}
            cls._registry[(p, k)] = inst
        return inst

    @staticmethod
    def _find_modulus(p, k):
        # base-p counter over the non-leading coefficients, constant term
        # least significant; first irreducible monic wins.  Binomials
        # x^k + c (c < p) are decided by Capelli's theorem, the rest by
        # Rabin's test.  No binomial is irreducible unless every prime
        # r | k divides p - 1: else every element of F_p is an r-th power.
        c = 1 if all((p - 1) % r == 0 for r in _prime_divisors(k)) else p
        while c < p:
            if _binomial_irreducible(p - c, k, p):
                return (c,) + (0,) * (k - 1) + (1,)
            c += 1
        end = p ** k
        while c < end:
            digits, v = [], c
            for _ in range(k):
                digits.append(v % p)
                v //= p
            f = tuple(digits) + (1,)
            if _t_irreducible(f, p):
                return f
            c += 1
        raise FieldError("no irreducible modulus found")  # unreachable

    def _encode(self, coeffs):
        return self.kernel.encode([c.coeffs for c in coeffs])

    def _decode(self, code):
        return tuple([ExtElement(v, self) for v in self.kernel.decode(code)])

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
        raise FieldError(f"cannot coerce {x!r} into F_{self.p}^{self.k}")

    def contains(self, x):
        return isinstance(x, ExtElement) and (x.field.p, x.field.k) == (self.p, self.k)

    def elements(self):
        for n in range(self.order):
            yield self._element(n)

    def _element(self, n):
        """Element number n of elements(): base-p digits of n, constant
        term least significant."""
        digits = []
        for _ in range(self.k):
            digits.append(n % self.p)
            n //= self.p
        return ExtElement(tuple(digits), self)

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
        if isinstance(obj, list):
            return self.elem([json_int(v) for v in obj])
        return self.elem(json_int(obj))

    def is_square(self, x):
        if not x:
            return True
        return x ** ((self.order - 1) // 2) == self.one

    def sqrt(self, x):
        return _sqrt(self, x)

    def nonresidue(self):
        """The first non-square in elements() order.

        For a in F_p, a^((q-1)/2) = (a^((p-1)/2))^k, since a^(p^i) = a.  So
        for odd k the non-squares of F_p stay non-squares, and as the p
        constants come first the answer is F_p's non-residue; for even k
        every constant is a square and the search starts after them.
        """
        if self._nonresidue is None:
            if self.k % 2:
                self._nonresidue = self.elem(PrimeField(self.p).nonresidue())
            else:
                e = (self.order - 1) // 2
                for n in range(self.p, self.order):
                    x = self._element(n)
                    if x ** e != self.one:
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
                from .poly import Poly, conjugate_roots
                r = conjugate_roots(Poly(PrimeField(self.p), src.modulus), self)[0]
                self._emb_cache[key] = [r ** i for i in range(src.degree)]
        return self._emb_cache[key]

    def describe(self):
        return {"type": "extension", "p": self.p, "k": self.k}

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return isinstance(other, ExtField) and (other.p, other.k) == (self.p, self.k)

    def __hash__(self):
        return hash(("Fq", self.p, self.k))


def json_int(v):
    """A JSON integer; a float, string or bool is no number of a field."""
    if type(v) is not int:
        raise FieldError(f"expected an integer, got {v!r}")
    return v


def field_from_json(obj):
    t = obj.get("type") if isinstance(obj, dict) else None
    if t == "rational":
        raise FieldError("rational models are not supported; reduce the model "
                         "mod a large prime such as 10007 first")
    if t == "prime":
        return PrimeField(json_int(obj.get("p")))
    if t == "extension":
        return ExtField(json_int(obj.get("p")), json_int(obj.get("k")))
    raise FieldError(f"unknown field descriptor {obj!r}")


def coerce(x, target):
    """Map an element into ``target``, embedding extensions as needed."""
    if isinstance(x, int):
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
    if f1.char != f2.char:
        raise FieldError("mixed characteristics")
    d = math.lcm(f1.degree, f2.degree)
    return PrimeField(f1.char) if d == 1 else ExtField(f1.char, d)
