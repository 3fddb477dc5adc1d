"""Int-coded polynomial arithmetic over finite fields.

Polynomials are tuples of ints, lowest degree first, with no trailing zero
(the empty tuple is the zero polynomial).  Two codings share one interface
(``mul``, ``divmod``, ``mod``, ``powmod``, ``gcd``):

  * ``FpKernel`` -- F_p; a coefficient is its residue in [0, p).  The
    module-level ``_t*`` functions are the same arithmetic with p passed
    explicitly; the modulus search and the inverse of a large F_{p^k}
    use them directly.
  * ``ZechKernel`` -- a small F_{p^k}; a coefficient is its discrete log
    to a fixed primitive element g, in [0, q - 1), and -1 codes zero.
    Multiplying adds logs; adding uses the Zech table
    Z(i) = log(1 + g^i), so g^u + g^v = g^(u + Z(v - u)).

Both return the same polynomials as schoolbook arithmetic on field
elements; only the coding of the coefficients differs.
"""

# -- F_p ---------------------------------------------------------------------
# Inputs are tuples of residues; _tmod and the kernel expect them stripped.

def _tstrip(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _tmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _tstrip(out)


def _tdivmod(a, b, p):
    a, b = list(a), _tstrip(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv % p
        q[len(a) - 1 - db] = c
        off = len(a) - 1 - db
        for i in range(db + 1):
            a[off + i] = (a[off + i] - c * b[i]) % p
        a.pop()
    return _tstrip(q), _tstrip(a)


def _tmod(a, m, p):
    # the remainder of _tdivmod, for the inner loops of powmod and gcd: the
    # products are accumulated as plain ints and reduced once at the end
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    dm = len(m) - 1
    if len(a) <= dm:
        return a
    inv = pow(m[-1], -1, p)
    low = m[:-1]
    r = list(a)
    while len(r) > dm:
        c = r.pop() * inv % p
        if c:
            for i, mi in enumerate(low, len(r) - dm):
                r[i] -= c * mi
    return _tstrip([v % p for v in r])


def _tpowmod(a, e, m, p):
    if e < 0:
        raise ValueError("negative exponent")
    a = _tmod(a, m, p)
    if e == 0:
        return (1,)
    r = a
    for bit in bin(e)[3:]:
        r = _tmod(_tmul(r, r, p), m, p)
        if bit == "1":
            r = _tmod(_tmul(r, a, p), m, p)
    return r


def _tgcd(a, b, p):
    """Monic gcd (the zero polynomial for gcd(0, 0))."""
    a, b = _tstrip(a), _tstrip(b)
    while b:
        a, b = b, _tmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple(c * inv % p for c in a)
    return a


class FpKernel:
    """Polynomial arithmetic over F_p on residues."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def mul(self, a, b):
        return _tmul(a, b, self.p)

    def divmod(self, a, b):
        return _tdivmod(a, b, self.p)

    def mod(self, a, m):
        return _tmod(a, m, self.p)

    def powmod(self, a, e, m):
        return _tpowmod(a, e, m, self.p)

    def gcd(self, a, b):
        return _tgcd(a, b, self.p)


# -- small F_{p^k}: Zech logarithms ------------------------------------------

ZECH_MAX_ORDER = 4096   # tables are built only for q <= this (a few ms, < 1 MiB)


def _zstrip(c):
    n = len(c)
    while n and c[n - 1] < 0:
        n -= 1
    return tuple(c[:n])


class ZechKernel:
    """Log tables of F_q and polynomial arithmetic on logs.

    ``exp[i]`` is the coefficient vector of g^i and ``log`` inverts it (the
    zero vector maps to -1).  ``zech`` holds Z(i) for i in [0, q - 1) twice
    over, so that it can be indexed by any difference of two logs, negative
    ones included.  q is odd, so -1 = g^((q-1)/2) and negation adds ``half``.
    """

    __slots__ = ("n", "half", "gen", "exp", "log", "zech")

    def __init__(self, p, k, mul):
        """Tables of F_{p^k}; ``mul`` multiplies two coefficient vectors.

        The generator is the first element, in base-p counter order of its
        coefficient vector (constant term least significant), of order q - 1.
        """
        q = p ** k
        n = q - 1
        one = (1,) + (0,) * (k - 1)
        primes = _prime_divisors(n)

        def power(x, e):
            r = one
            for bit in bin(e)[2:]:
                r = mul(r, r)
                if bit == "1":
                    r = mul(r, x)
            return r

        for code in range(p, q):
            g = tuple((code // p ** i) % p for i in range(k))
            if all(power(g, n // r) != one for r in primes):
                break
        exp = [one]
        for _ in range(n - 1):
            exp.append(mul(exp[-1], g))
        log = {v: i for i, v in enumerate(exp)}
        log[(0,) * k] = -1
        zech = [log[((v[0] + 1) % p,) + v[1:]] for v in exp]
        self.n, self.half, self.gen = n, n // 2, g
        self.exp, self.log, self.zech = exp, log, zech + zech

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

    def divmod(self, a, b):
        q = [-1] * max(0, len(a) - len(b) + 1)
        r = self.mod(a, b, q)
        return _zstrip(q), r

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
        return _zstrip(r)

    def powmod(self, a, e, m):
        if e < 0:
            raise ValueError("negative exponent")
        a = self.mod(a, m)
        if e == 0:
            return (0,)
        r = a
        for bit in bin(e)[3:]:
            r = self.mod(self.mul(r, r), m)
            if bit == "1":
                r = self.mod(self.mul(r, a), m)
        return r

    def gcd(self, a, b):
        a, b = _zstrip(a), _zstrip(b)
        while b:
            a, b = b, self.mod(a, b)
        if a:
            n, lead = self.n, a[-1]
            a = tuple(-1 if c < 0 else (c - lead) % n for c in a)
        return a


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
