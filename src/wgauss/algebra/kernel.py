"""Int-coded polynomial arithmetic over finite fields.

Polynomials are tuples of coefficient codes, lowest degree first, with no
trailing zero (the empty tuple is the zero polynomial).  Three codings
share one interface.  Each kernel has its own ``add``, ``sub``, ``mul``,
``mod`` (which also fills a quotient list), ``monic``, ``frob`` and
``combine``, as these depend on its coding; ``_Kernel`` holds, once for
all three, ``strip`` (which drops trailing zero coefficients from a code),
``divmod`` and the Euclidean ``gcd`` on ``mod`` and ``monic``, and
``powmod``, whose ``_power`` squares and multiplies on ``mul`` and ``mod``
(``FpKernel`` overrides it on one fixed modulus, ``TupleKernel`` on packed
ints).  ``zero`` is the code of the zero coefficient and ``ONE`` that of
the polynomial 1.  Each field makes its kernel in its constructor, chosen
by its size, and keeps it as ``field.kernel`` for its whole life:

  * ``FpKernel`` -- F_p; a coefficient is its residue in [0, p).  The
    modulus search and ``TupleKernel.finv`` use it on their own residues.
  * ``ZechKernel`` -- F_{p^k} with q <= ``ZECH_MAX_ORDER``; a coefficient is
    its discrete log to a fixed primitive element g, in [0, q - 1), and -1
    codes zero.  Multiplying adds logs; adding uses the Zech table
    Z(i) = log(1 + g^i), so g^u + g^v = g^(u + Z(v - u)).  The tables are
    built with the field's ``TupleKernel``.
  * ``TupleKernel`` -- larger F_{p^k}; a coefficient is its tuple of k
    residues, and a polynomial product is one int multiply by Kronecker
    substitution (D. Harvey, "Faster polynomial multiplication via
    multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009).

The two kernels of F_{p^k} also multiply, invert and raise to powers single
elements given as coefficient tuples (``fmul``, ``finv``, ``fpow``), which
is how ``ExtElement`` computes, and map those tuples to and from their
codes (``encode``, ``decode``).  All three return the same polynomials as
schoolbook arithmetic on field elements; only the coding of the
coefficients differs.

Each kernel also holds the Frobenius map sigma(c) = c^p on one coefficient
code (``frob``), fixed when the field is made, and sums constants times
polynomials (``combine``); root finding builds x^(p^i) mod f and traces to
F_p from the two (poly.py).  ``FpKernel``'s sigma is the identity;
``ZechKernel``'s multiplies a log by p mod q - 1 and leaves zero as it is;
``TupleKernel``'s is the F_p-linear map sum a_i y^i -> sum a_i y^(ip), one
sparse k x k matrix over F_p whose rows are y^(ip) mod the field modulus.
"""

import struct


class _Kernel:
    """What the three kernels share (see the module docstring)."""

    __slots__ = ()

    def strip(self, c):
        """The code c as a tuple, without its trailing zero coefficients."""
        zero, n = self.zero, len(c)
        while n and c[n - 1] == zero:
            n -= 1
        return tuple(c[:n])

    def divmod(self, a, b):
        q = [self.zero] * max(0, len(a) - len(b) + 1)
        r = self.mod(a, b, q)
        return self.strip(q), r

    def gcd(self, a, b):
        """Monic gcd (the zero polynomial for gcd(0, 0))."""
        a, b = self.strip(a), self.strip(b)
        while b:
            a, b = b, self.mod(a, b)
        return self.monic(a)

    def powmod(self, a, e, m):
        if e < 0:
            raise ValueError("negative exponent")
        a = self.mod(a, m)
        if e == 0 or not a:
            return () if e else self.ONE
        return self._power(a, e, m)

    def _power(self, a, e, m):
        """a^e mod m for a reduced, nonzero a and e >= 1, by square-and-multiply."""
        r = a
        for bit in bin(e)[3:]:
            r = self.mod(self.mul(r, r), m)
            if bit == "1":
                r = self.mod(self.mul(r, a), m)
        return r


# -- F_p ---------------------------------------------------------------------

class FpKernel(_Kernel):
    """Polynomial arithmetic over F_p on residues."""

    __slots__ = ("p",)
    zero, ONE = 0, (1,)

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        p = self.p
        if len(a) < len(b):
            a, b = b, a
        return self.strip([(x + y) % p for x, y in zip(a, b)] + list(a[len(b):]))

    def sub(self, a, b):
        p = self.p
        return self.add(a, [(-y) % p for y in b])

    def mul(self, a, b):
        if not a or not b:
            return ()
        p = self.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        return self.strip(out)

    def mod(self, a, m, q=None):
        """Remainder of a by m; the quotient goes into the list q if given.
        The products are accumulated as plain ints and reduced once at the end."""
        if not m:
            raise ZeroDivisionError("polynomial division by zero")
        dm = len(m) - 1
        if len(a) <= dm:
            return a
        p = self.p
        inv = pow(m[-1], -1, p)
        low = m[:-1]
        r = list(a)
        while len(r) > dm:
            c = r.pop() * inv % p
            if c:
                off = len(r) - dm
                if q is not None:
                    q[off] = c
                for i, mi in enumerate(low, off):
                    r[i] -= c * mi
        return self.strip([v % p for v in r])

    def monic(self, a):
        if not a or a[-1] == 1:
            return a
        p = self.p
        inv = pow(a[-1], -1, p)
        return tuple([c * inv % p for c in a])

    def _power(self, a, e, m):
        """Against the rows x^(d+j) mod m, d = deg m, j < d - 1, made once: a
        step squares by symmetric products or multiplies by a (in O(d) when
        linear), folds its high half mod p through the rows, then reduces."""
        p, d = self.p, len(m) - 1
        inv = -pow(m[-1], -1, p)
        rows = [[c * inv % p for c in m[:-1]]]               # x^d mod m
        for _ in range(d - 2):
            row = rows[-1]
            rows.append([(u + row[-1] * v) % p for u, v in zip([0] + row[:-1], rows[0])])

        def fold(prod):
            out = prod[:d]
            for h, row in zip([v % p for v in prod[d:]], rows):
                if h:
                    for i, v in enumerate(row):
                        out[i] += h * v
            return [v % p for v in out]

        r, (a0, a1) = list(a) + [0] * (d - len(a)), (a + (0,))[:2]
        for bit in bin(e)[3:]:
            sq = [0] * (2 * d - 1)
            for i, ri in enumerate(r):
                if ri:
                    sq[2 * i] += ri * ri
                    ri += ri
                    for j, rj in enumerate(r[i + 1:], 2 * i + 1):
                        sq[j] += ri * rj
            r = fold(sq)
            if bit == "1" and len(a) <= 2:
                r = [(a0 * u + a1 * (v + r[-1] * w)) % p
                     for u, v, w in zip(r, [0] + r[:-1], rows[0])]
            elif bit == "1":
                prod = [0] * (d + len(a) - 1)
                for i, ai in enumerate(a):
                    for j, rj in enumerate(r, i):
                        prod[j] += ai * rj
                r = fold(prod)
        return self.strip(r)

    def frob(self, c):
        return c

    def combine(self, cs, polys):
        """sum_j cs[j] * polys[j], for constants cs[j]."""
        p = self.p
        out = [0] * max(map(len, polys))
        for c, a in zip(cs, polys):
            if c:
                for i, v in enumerate(a):
                    out[i] += c * v
        return self.strip([v % p for v in out])


# -- small F_{p^k}: Zech logarithms ------------------------------------------

# F_{p^k} with q <= this builds its tables when it is made (a few ms, < 1 MiB)
ZECH_MAX_ORDER = 4096


class ZechKernel(_Kernel):
    """Log tables of F_q, and arithmetic on logs and on coefficient vectors.

    ``exp[i]`` is the coefficient vector of g^i, and ``exp[-1]`` the zero
    vector; ``log`` inverts it (the zero vector maps to -1).  ``zech`` holds
    Z(i) for i in [0, q - 1) twice over, so that it can be indexed by any
    difference of two logs, negative ones included.  q is odd, so
    -1 = g^((q-1)/2) and negation adds ``half``.
    """

    __slots__ = ("p", "n", "half", "gen", "exp", "log", "zech")
    zero, ONE = -1, (0,)

    def __init__(self, tuples):
        """Tables of the field of the ``TupleKernel`` tuples, built with its
        ``fmul`` and ``fpow``.

        The generator is the first element, in base-p counter order of its
        coefficient vector (constant term least significant), of order q - 1.
        """
        p, k, one = tuples.p, tuples.k, tuples.one
        n = p ** k - 1
        primes = _prime_divisors(n)
        for code in range(p, n + 1):
            g = tuple((code // p ** i) % p for i in range(k))
            if all(tuples.fpow(g, n // r) != one for r in primes):
                break
        exp = [one]
        for _ in range(n - 1):
            exp.append(tuples.fmul(exp[-1], g))
        log = {v: i for i, v in enumerate(exp)}
        log[tuples.zero] = -1
        zech = [log[((v[0] + 1) % p,) + v[1:]] for v in exp]
        self.p, self.n, self.half, self.gen = p, n, n // 2, g
        self.exp, self.log, self.zech = exp + [tuples.zero], log, zech + zech

    # -- elements of F_q, as coefficient vectors --

    def fmul(self, a, b):
        la, lb = self.log[a], self.log[b]
        if la < 0 or lb < 0:
            return self.exp[-1]
        return self.exp[(la + lb) % self.n]

    def finv(self, a):
        i = self.log[a]
        if i < 0:
            raise ZeroDivisionError("division by zero in extension field")
        return self.exp[-i % self.n]

    def fpow(self, a, e):
        """a^e, for any int e."""
        i = self.log[a]
        if i >= 0:
            return self.exp[i * e % self.n]
        if e < 0:
            raise ZeroDivisionError("division by zero in extension field")
        return self.exp[-1 if e else 0]           # 0^e = 0, 0^0 = 1

    def encode(self, vecs):
        log = self.log
        return tuple([log[v] for v in vecs])

    def decode(self, code):
        exp = self.exp
        return [exp[i] for i in code]

    # -- polynomials over F_q, on logs --

    def add(self, a, b):
        n, zech = self.n, self.zech
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            if v < 0:
                continue
            u = out[i]
            if u < 0:
                out[i] = v
            else:
                z = zech[v - u]
                out[i] = -1 if z < 0 else (u + z) % n
        return self.strip(out)

    def sub(self, a, b):
        n, half = self.n, self.half
        return self.add(a, [-1 if v < 0 else (v + half) % n for v in b])

    def mul(self, a, b):
        if not a or not b:
            return ()
        n, zech = self.n, self.zech
        out = [-1] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai < 0:
                continue
            for j, bj in enumerate(b, i):
                if bj < 0:
                    continue
                t = ai + bj
                c = out[j]
                if c < 0:
                    out[j] = t % n
                else:
                    z = zech[t - c]
                    out[j] = -1 if z < 0 else (c + z) % n
        return tuple(out)                   # lead a[-1] b[-1] is nonzero

    def mod(self, a, m, q=None):
        """Remainder of a by m; the quotient goes into the list q if given."""
        if not m:
            raise ZeroDivisionError("polynomial division by zero")
        dm = len(m) - 1
        if len(a) <= dm:
            return a
        n, zech = self.n, self.zech
        lm = m[-1]
        shift = self.half - lm                # -m_i / lc(m) = g^(m_i + shift)
        low = [-1 if c < 0 else (c + shift) % n for c in m[:-1]]
        r = list(a)
        while len(r) > dm:
            c = r.pop()
            if c < 0:
                continue
            off = len(r) - dm
            if q is not None:
                q[off] = (c - lm) % n
            for i, mi in enumerate(low, off):
                if mi < 0:
                    continue
                t = c + mi
                cur = r[i]
                if cur < 0:
                    r[i] = t % n
                else:
                    z = zech[t - cur]
                    r[i] = -1 if z < 0 else (cur + z) % n
        return self.strip(r)

    def monic(self, a):
        if not a or a[-1] == 0:
            return a
        n, lead = self.n, a[-1]
        return tuple([-1 if c < 0 else (c - lead) % n for c in a])

    def frob(self, c):
        return c if c < 0 else c * self.p % self.n

    def combine(self, cs, polys):
        """sum_j cs[j] * polys[j], for constants cs[j]: a constant shifts
        every log of its polynomial."""
        n, out = self.n, ()
        for c, a in zip(cs, polys):
            if c >= 0 and a:
                out = self.add(out, [-1 if v < 0 else (v + c) % n for v in a])
        return out


# -- large F_{p^k}: coefficient tuples, Kronecker products -------------------

_WORD = 8                 # slot bytes of the fast path: struct's "Q"


def _pack(flat, w):
    """The int whose w-byte slots, least significant first, hold ``flat``."""
    if w == _WORD:
        raw = struct.pack("<%dQ" % len(flat), *flat)
    else:
        raw = b"".join([v.to_bytes(w, "little") for v in flat])
    return int.from_bytes(raw, "little")


def _unpack(v, n, w):
    """The n lowest w-byte slots of the int v, least significant first."""
    raw = v.to_bytes(n * w, "little")
    if w == _WORD:
        return struct.unpack("<%dQ" % n, raw)
    return [int.from_bytes(raw[i:i + w], "little") for i in range(0, n * w, w)]


class TupleKernel(_Kernel):
    """Arithmetic over a large F_{p^k} on coefficient tuples.

    A coefficient is its element's tuple of k residues (``ExtElement.coeffs``),
    a polynomial of degree < k in the field generator y; zero is the zero
    tuple.  Write the monic field modulus as y^k + M(y), deg M = d < k.

    Products use Kronecker substitution.  A polynomial over F_q is packed
    into one int of w-byte slots, coefficient i in slots i(2k-1) ..
    i(2k-1)+k-1, so one int multiply leaves every coefficient of the product
    in its own 2k-1 slots as a polynomial in y of degree <= 2k-2.  ``_fold``
    reduces all of them at once on the packed int: y^k = -M(y) turns the top
    k-1 slots of every coefficient into a multiple of -M, one more multiply,
    repeated ``rounds`` times (once when d <= 1, as for the moduli of
    F_(10007^k)); then each slot is reduced mod p.  Slots are sized so that
    no sum carries into the next slot.  Division runs on the packed dividend:
    a step folds only the leading coefficient c and adds c * (-m) as one
    more multiply, so the remainder is folded once, at the end.
    """

    __slots__ = ("p", "k", "modulus", "red", "rows", "frows", "zero", "one", "ONE",
                 "stride", "wide", "pad", "neg_low", "rounds", "growth", "masks",
                 "fw", "fpack", "funpack", "fp")

    def __init__(self, p, k, modulus):
        self.p, self.k, self.modulus = p, k, modulus
        self.fp = FpKernel(p)                 # finv's extended Euclid
        low = modulus[:k]
        # red[j] = y^(k+j) reduced by the modulus, for j = 0..k-2
        red = [tuple((-c) % p for c in low)]
        for _ in range(k - 2):
            top, cur = red[-1][-1], (0,) + red[-1][:-1]
            red.append(tuple((v + top * r) % p for v, r in zip(cur, red[0])))
        self.red = red
        self.rows = [[(t, r) for t, r in enumerate(row) if r] for row in red]
        # frows[i] = y^(ip) reduced by the modulus, for i = 0..k-1: sigma's matrix
        fp, yp, cur = self.fp, self.fp.powmod((0, 1), p, modulus), (1,)
        frows = []
        for _ in range(k):
            frows.append([(t, r) for t, r in enumerate(cur) if r])
            cur = fp.mod(fp.mul(cur, yp), modulus)
        self.frows = frows
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self.ONE = (self.one,)
        self.stride = 2 * k - 1
        self.wide = k * (p - 1) ** 2          # bound on one slot of c * c'
        self.pad = [0] * (k - 1)
        d = max(i for i, c in enumerate(low) if c)
        self.neg_low = red[0][:d + 1]         # -M(y)
        # a round maps y-degree <= e to <= e - k + d; start at 2k - 2
        self.rounds, e = 0, 2 * k - 2
        while e >= k:
            self.rounds, e = self.rounds + 1, e - k + d
        self.growth = (1 + min(k - 1, d + 1) * (p - 1)) ** self.rounds
        self.masks = {}                       # w -> (blocks, low, high, -M)
        self.fw = self._width(1)              # slot bytes of fmul
        if self.fw == _WORD:
            self.fpack = struct.Struct("<%dQ" % k).pack
            self.funpack = struct.Struct("<%dQ" % self.stride).unpack

    # -- elements of F_q --

    def fmul(self, a, b):
        p, k = self.p, self.k
        if k == 2:                            # y^2 = r0 + r1 y
            (a0, a1), (b0, b1), (r0, r1) = a, b, self.red[0]
            h = a1 * b1
            return ((a0 * b0 + h * r0) % p, (a0 * b1 + a1 * b0 + h * r1) % p)
        # a Kronecker product of two single coefficients, folded through
        # the nonzero entries of red (two per row for a trinomial modulus)
        w = self.fw
        if w == _WORD:
            pack = self.fpack
            v = (int.from_bytes(pack(*a), "little")
                 * int.from_bytes(pack(*b), "little"))
            conv = self.funpack(v.to_bytes(w * self.stride, "little"))
        else:
            conv = _unpack(_pack(a, w) * _pack(b, w), self.stride, w)
        out = list(conv[:k])
        for h, row in zip(conv[k:], self.rows):
            if h:
                for t, r in row:
                    out[t] += h * r
        return tuple([v % p for v in out])

    def finv(self, a):
        """Inverse: a conjugate over the norm for k = 2, else the extended
        Euclidean algorithm against the modulus."""
        p = self.p
        r0, r1 = self.modulus, self.fp.strip(a)
        if not r1:
            raise ZeroDivisionError("division by zero in extension field")
        if self.k == 2:                       # y' = r1 - y, y y' = -r0
            (a0, a1), (c0, c1) = a, self.red[0]
            inv = pow((a0 * a0 + a0 * a1 * c1 - a1 * a1 * c0) % p, -1, p)
            return ((a0 + a1 * c1) * inv % p, -a1 * inv % p)
        fp, s0, s1 = self.fp, (), (1,)
        while r1:
            q, r = fp.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, fp.sub(s0, fp.mul(q, s1))
        inv = pow(r0[-1], -1, p)
        return tuple([c * inv % p for c in s0]) + (0,) * (self.k - len(s0))

    def fpow(self, a, e):
        """a^e, for any int e."""
        if e < 0:
            a, e = self.finv(a), -e
        r = self.one
        for bit in bin(e)[2:]:
            r = self.fmul(r, r)
            if bit == "1":
                r = self.fmul(r, a)
        return r

    def frob(self, a):
        """a^p: the residues a_i of a = sum a_i y^i times the rows y^(ip)."""
        p = self.p
        out = [0] * self.k
        for ai, row in zip(a, self.frows):
            if ai:
                for t, r in row:
                    out[t] += ai * r
        return tuple([v % p for v in out])

    def encode(self, vecs):
        return tuple(vecs)

    def decode(self, code):
        return code

    # -- packed polynomials --

    def _width(self, n):
        """Slot bytes for a sum of n residue products, plus one residue,
        through the fold."""
        bits = ((n * self.wide + self.p) * self.growth).bit_length()
        return _WORD if bits <= 8 * _WORD else (bits + 7) // 8

    def _packed(self, a, w):
        pad = self.pad
        flat = []
        for c in a:
            flat += c
            flat += pad
        return _pack(flat, w)

    def _fold(self, v, n, w):
        """Residues of the n coefficients of the packed v, as one flat list
        laid out like the slots (k residues, then k - 1 zeros, per coefficient)."""
        k, st = self.k, self.stride
        s = 8 * w
        blocks, low, high, neg = self.masks.get(w, (0, 0, 0, 0))
        if blocks < n:
            # low and high select slots 0..k-1 and k..2k-2 of each coefficient
            rep = ((1 << s * st * n) - 1) // ((1 << s * st) - 1)
            blocks, low, high, neg = self.masks[w] = (
                n, rep * ((1 << s * k) - 1), rep * ((1 << s * (k - 1)) - 1),
                _pack(self.neg_low, w))
        for _ in range(self.rounds):
            v = (v & low) + ((v >> s * k) & high) * neg
        p = self.p
        return [c % p for c in _unpack(v, n * st, w)]

    def _coeffs(self, flat):
        """Coefficient tuples of a flat residue list, trailing zeros dropped."""
        k = self.k
        return self.strip([tuple(flat[i:i + k])
                           for i in range(0, len(flat), self.stride)])

    def _divisor(self, m, w):
        """m prepared for _reduce: its degree, the packed -m without its
        lead, and the inverse of the lead (None when it is 1)."""
        if not m:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        neg = [tuple([(-v) % p for v in c]) for c in m[:-1]]
        inv = None if m[-1] == self.one else self.finv(m[-1])
        return len(m) - 1, self._packed(neg, w), inv

    def _reduce(self, v, n, div, w, quo=None):
        """Remainder by ``div`` of the packed v with n coefficients, as a
        flat residue list; the quotient goes into the list quo if given."""
        dm, neg, inv = div
        k = self.k
        bits = 8 * w * self.stride
        for i in range(n - 1, dm - 1, -1):
            off = i * bits
            top = v >> off
            if not top:
                continue
            v -= top << off
            c = self._fold(top, 1, w)[:k]
            if not any(c):
                continue
            if inv is not None:
                c = self.fmul(c, inv)
            if quo is not None:
                quo[i - dm] = tuple(c)
            v += _pack(c, w) * neg << (i - dm) * bits
        return self._fold(v, dm, w)

    # -- polynomials over F_q --

    def mul(self, a, b):
        if not a or not b:
            return ()
        w = self._width(min(len(a), len(b)))
        va = self._packed(a, w)
        vb = va if a is b else self._packed(b, w)
        return self._coeffs(self._fold(va * vb, len(a) + len(b) - 1, w))

    def mod(self, a, m, q=None):
        """Remainder of a by m; the quotient goes into the list q if given."""
        w = self._width(len(a))
        div = self._divisor(m, w)
        if len(a) < len(m):
            return a
        return self._coeffs(self._reduce(self._packed(a, w), len(a), div, w, q))

    def _power(self, a, e, m):
        # r stays a flat residue list of deg m coefficients between steps
        w = self._width(2 * len(m))
        div = self._divisor(m, w)
        dm, va = len(m) - 1, self._packed(a, w)
        r = self._reduce(va, len(a), div, w)
        for bit in bin(e)[3:]:
            vr = _pack(r, w)
            r = self._reduce(vr * vr, 2 * dm - 1, div, w)
            if bit == "1":
                r = self._reduce(_pack(r, w) * va, dm + len(a) - 1, div, w)
        return self._coeffs(r)

    def combine(self, cs, polys):
        """sum_j cs[j] * polys[j], for constants cs[j]: one Kronecker product
        per term, summed on the packed ints, and one fold."""
        n = max(map(len, polys))
        w = self._width(len(cs))
        v = 0
        for c, a in zip(cs, polys):
            if a and any(c):
                v += _pack(c, w) * self._packed(a, w)
        return self._coeffs(self._fold(v, n, w)) if v else ()

    def monic(self, a):
        if not a or a[-1] == self.one:
            return a
        inv = self.finv(a[-1])
        return tuple([self.fmul(c, inv) for c in a])

    def add(self, a, b):
        p = self.p
        if len(a) < len(b):
            a, b = b, a
        out = [tuple([(x + y) % p for x, y in zip(u, v)]) for u, v in zip(a, b)]
        return self.strip(out + list(a[len(b):]))

    def sub(self, a, b):
        p = self.p
        return self.add(a, [tuple([(-y) % p for y in v]) for v in b])


def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
