import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgauss
from wgauss.algebra import (
    ExtensionCapError,
    ExtField,
    FieldError,
    Poly,
    PrimeField,
    factor_finite,
    poly_gcd,
    powmod,
    resultant,
    roots_in_field,
    roots_in_splitting_extension,
)

from wgauss.algebra.kernel import ZECH_MAX_ORDER, FpKernel, TupleKernel, ZechKernel, _Kernel
from wgauss.algebra.mpoly import mp_substitute
from wgauss.algebra import poly
from wgauss.algebra.poly import (
    _frobenius_table,
    _linear_split,
    _trace_split,
    binary_roots,
    conjugate_roots,
    distinct_roots_in_field,
    root_multiplicity,
    squarefree_decomposition,
)

SRC = Path(wgauss.__file__).resolve().parents[1]
F7 = PrimeField(7)
F31 = PrimeField(31)
F10007 = PrimeField(10007)


def rand_poly(field, degree, rng, monic=False):
    cs = [field.rand(rng) for _ in range(degree)]
    cs.append(field.one if monic else field.rand(rng))
    while not cs[-1]:
        cs[-1] = field.rand(rng)
    return Poly(field, cs)


def test_gcd_common_root_structure():
    F = F7
    a = Poly(F, [-1, 0, 1])        # x^2 - 1
    b = Poly(F, [-1, 0, 0, 1])     # x^3 - 1
    assert poly_gcd(a, b) == Poly(F, [-1, 1])


def test_gcd_with_zero_is_monic():
    F = F31
    a = Poly(F, [2, 4, 6])
    assert poly_gcd(a, Poly.zero(F)) == a.monic()


def test_gcd_planted_factor():
    rng = random.Random(7)
    F = F10007
    for _ in range(25):
        shared = rand_poly(F, 2, rng, monic=True)
        a = shared * rand_poly(F, 4, rng, monic=True)
        b = shared * rand_poly(F, 4, rng, monic=True)
        g = poly_gcd(a, b)
        # planted factor divides the gcd; generically equals it
        assert (g % shared).is_zero()
        assert (a % g).is_zero() and (b % g).is_zero()


def test_gcd_rejects_mixed_fields():
    with pytest.raises(FieldError):
        poly_gcd(Poly(F7, [1, 1]), Poly(F31, [1, 1]))
    with pytest.raises(FieldError):
        powmod(Poly(F7, [1, 1]), 3, Poly(F31, [1, 0, 1]))


@given(st.lists(st.integers(0, 6), min_size=1, max_size=7),
       st.lists(st.integers(0, 6), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both_hypothesis(ca, cb):
    a, b = Poly(F7, ca), Poly(F7, cb)
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
    else:
        assert (a % g).is_zero() and (b % g).is_zero()


def test_factor_x2_minus_1_over_f7():
    fs = {(tuple(c.value for c in f.coeffs)): m for f, m in factor_finite(Poly(F7, [-1, 0, 1]))}
    assert fs == {(6, 1): 1, (1, 1): 1}


def test_factor_reconstruction_random():
    rng = random.Random(9)
    for _ in range(40):
        a = rand_poly(F10007, 8, rng)
        fs = factor_finite(a)
        prod = reduce(lambda acc, fm: acc * fm[0] ** fm[1], fs, Poly.one(F10007))
        assert prod * a.lead() == a


def test_factor_planted_multiplicity():
    rng = random.Random(10)
    lin = Poly(F31, [-3, 1])
    q = None
    while q is None:
        cand = rand_poly(F31, 3, rng, monic=True)
        fs = factor_finite(cand)
        if len(fs) == 1 and fs[0][1] == 1:
            q = cand
    a = lin * lin * q
    fs = dict((f.coeffs, m) for f, m in factor_finite(a))
    assert fs[lin.coeffs] == 2
    assert fs[q.coeffs] == 1


@pytest.mark.parametrize("F", [ExtField(3, 2), ExtField(7, 3), ExtField(3, 8)], ids=repr)
def test_factor_pth_power_multiplicities_over_extensions(F):
    # (x - r)^p (x - s)^(2p + 1): the squarefree split takes p-th roots of
    # coefficients, sigma^(k-1) by the kernel's Frobenius, over a
    # Zech-coded and a tuple-coded field too
    rng = random.Random(12)
    p = F.char
    for _ in range(5):
        r, s = F.rand(rng), F.rand(rng)
        lr, ls = Poly(F, [-r, F.one]), Poly(F, [-s, F.one])
        want = [(lr, 3 * p + 1)] if r == s else sorted(
            [(lr, p), (ls, 2 * p + 1)], key=lambda fm: fm[0].sort_key())
        assert factor_finite(lr ** p * ls ** (2 * p + 1)) == want


def test_factor_deterministic():
    rng = random.Random(11)
    a = rand_poly(F10007, 10, rng)
    assert factor_finite(a) == factor_finite(a)


def test_roots_x2_minus_2_over_f5_exhaustive():
    F5 = PrimeField(5)
    a = Poly(F5, [-2, 0, 1])
    K, roots = roots_in_splitting_extension(a)
    assert K == ExtField(5, 2)
    assert len(roots) == 2 and all(m == 1 for _, m in roots)
    # oracle: exhaustive search over F_25
    found = [x for x in K.elements() if x * x == K.elem(2)]
    assert sorted(r.coeffs for r, _ in roots) == sorted(x.coeffs for x in found)


def test_roots_triple_zero():
    K, roots = roots_in_splitting_extension(Poly(F7, [0, 0, 0, 1]))
    assert K == F7
    assert roots == [(F7.zero, 3)]


def test_roots_squarefree_degree4_distinct():
    rng = random.Random(12)
    F11 = PrimeField(11)
    for _ in range(20):
        a = rand_poly(F11, 4, rng, monic=True)
        if poly_gcd(a, a.derivative()).degree != 0:
            continue
        K, roots = roots_in_splitting_extension(a)
        assert len(roots) == 4 and all(m == 1 for _, m in roots)
        for r, _ in roots:
            acc = K.zero
            for i, c in enumerate(a.coeffs):
                acc = acc + K.elem(c.value) * r ** i
            assert not acc


def test_roots_multiplicity_sum_and_evaluation():
    rng = random.Random(13)
    for _ in range(15):
        a = rand_poly(F31, 3, rng) * rand_poly(F31, 2, rng)
        K, roots = roots_in_splitting_extension(a)
        assert sum(m for _, m in roots) == a.degree
        g = a.map_field(K)
        assert all(not g(r) for r, _ in roots)


@pytest.mark.parametrize("F", [F7, ExtField(7, 3), F10007, ExtField(10007, 2)],
                         ids=repr)
def test_roots_in_field_linear_matches_general_path(F):
    # a linear a skips the exponentiation; the general path, gcd with
    # x^q - x and its split, must give the same root
    rng = random.Random(18)
    x = Poly.x(F)
    for i in range(30):
        a = Poly(F, [F.zero if i % 5 == 0 else F.rand(rng), F.rand(rng) or F.one])
        lin = poly_gcd(powmod(x, F.order, a) - x, a)
        assert lin == a.monic()
        assert roots_in_field(a) == [(r, 1) for r in distinct_roots_in_field(a)]
        assert roots_in_field(a) == [(-lin[0], 1)]


@pytest.mark.parametrize("F", [F7, ExtField(7, 2), F10007], ids=repr)
def test_root_multiplicity_matches_factor_finite(F):
    # on products of linear factors, repeated roots included, every
    # multiplicity is that of the factorization, and 0 off the roots
    rng = random.Random(19)
    for _ in range(20):
        roots = [F.rand(rng) for _ in range(rng.randrange(1, 8))]
        a = reduce(lambda u, v: u * v, [Poly(F, [-r, F.one]) for r in roots])
        mult = {-f[0]: m for f, m in factor_finite(a)}
        for r in roots + [F.rand(rng) for _ in range(3)]:
            assert root_multiplicity(a, r) == mult.get(r, 0)
        assert roots_in_field(a) == sorted(mult.items(), key=lambda rm: F.sort_key(rm[0]))


def test_extension_cap():
    # irreducible of degree 5 over F_31: splitting degree 5 > cap 4
    rng = random.Random(14)
    while True:
        a = rand_poly(F31, 5, rng, monic=True)
        fs = factor_finite(a)
        if len(fs) == 1 and fs[0][1] == 1 and fs[0][0].degree == 5:
            break
    with pytest.raises(ExtensionCapError):
        roots_in_splitting_extension(a, cap=4)


def _random_with_repeats(F, rng, i):
    # a random monic of degree 1..4, times the square of a random monic of
    # degree 1..2 on every third draw
    a = rand_poly(F, rng.randrange(1, 5), rng, monic=True)
    return a * rand_poly(F, rng.randrange(1, 3), rng, monic=True) ** 2 if i % 3 == 0 else a


@pytest.mark.parametrize("F", [PrimeField(3), PrimeField(5), F7, ExtField(3, 2),
                               ExtField(5, 2), PrimeField(67)], ids=repr)
def test_roots_in_splitting_extension_match_a_scan_of_the_field(F):
    # oracle: every element of the returned field K (|K| <= 2,500, or p^2
    # when larger, so that F_67 reaches the tuple-coded F_(67^2)) tried as
    # a zero of a, with its multiplicity, in K.sort_key order
    bound = max(2500, F.char ** 2)
    cap = max(m for m in range(F.degree, 13, F.degree) if F.char ** m <= bound)
    rng = random.Random(F.order)
    fields = set()
    for i in range(20):
        a = _random_with_repeats(F, rng, i)
        try:
            K, roots = roots_in_splitting_extension(a, cap=cap)
        except ExtensionCapError:
            continue
        g = a.map_field(K)
        scan = [(x, root_multiplicity(g, x)) for x in K.elements() if not g(x)]
        assert roots == sorted(scan, key=lambda rm: K.sort_key(rm[0]))
        fields.add(K.degree)
    assert len(fields) >= 2


@pytest.mark.parametrize("F", [F10007, ExtField(10007, 2), ExtField(10007, 3)], ids=repr)
def test_roots_in_splitting_extension_are_frobenius_closed(F):
    rng = random.Random(F.degree)
    for i in range(9):
        a = _random_with_repeats(F, rng, i)
        try:
            K, roots = roots_in_splitting_extension(a, cap=12)
        except ExtensionCapError:
            continue
        g = a.map_field(K)
        assert all(root_multiplicity(g, r) == m for r, m in roots)
        assert sum(m for _, m in roots) == a.degree
        key = lambda rm: K.sort_key(rm[0])
        assert sorted(((r ** F.order, m) for r, m in roots), key=key) == roots


def test_conjugate_roots_refusals():
    cubic = Poly(F7, [2, 0, 0, 1])   # x^3 + 2: irreducible, -2 is no cube mod 7
    assert len(conjugate_roots(cubic, ExtField(7, 6))) == 3
    with pytest.raises(FieldError):
        conjugate_roots(cubic, ExtField(7, 2))
    with pytest.raises(FieldError):
        conjugate_roots(Poly(ExtField(7, 2), [3, 1]), ExtField(7, 3))
    with pytest.raises(ValueError):
        conjugate_roots(Poly(F7, [2, -3, 1]), ExtField(7, 2))   # (x - 1)(x - 2)
    # (x^2 + 1)(x^3 + 2): the quadratic's roots lie in F_49, not in F_(7^5),
    # so no split over F_(7^5) can find a linear factor of it
    with pytest.raises(ValueError):
        conjugate_roots(Poly(F7, [1, 0, 1]) * cubic, ExtField(7, 5))
    with pytest.raises(ValueError):   # the table [x]; (0, 1) codes x over F_7
        _linear_split(Poly(F7, [-3, 0, 1]), [(0, 1)])   # 3 is no square mod 7


@pytest.mark.parametrize("F", [F10007, ExtField(7, 3), ExtField(10007, 3),
                               ExtField(67, 2)], ids=repr)
def test_kernel_frobenius(F):
    # sigma(a) = a^p, sigma(ab) = sigma(a) sigma(b) and sigma^k = id, on the
    # codes of a prime, a Zech-coded and two tuple-coded fields
    kern, rng = F.kernel, random.Random(21)
    code = lambda a: F._encode([a])[0]
    sigma = lambda a: F._decode((kern.frob(code(a)),))[0]
    elems = [F.zero, F.one] + [F.rand(rng) for _ in range(20)]
    for a, b in zip(elems, elems[::-1]):
        assert sigma(a) == a ** F.char
        assert sigma(a * b) == sigma(a) * sigma(b)
        c = code(a)
        for _ in range(F.degree):
            c = kern.frob(c)
        assert c == code(a)


def test_linear_roots_over_a_large_extension_use_exponents_up_to_p(monkeypatch):
    # six distinct linear factors over F_(10007^6): the squarefree part's
    # x^q comes from the Frobenius table and the split from the trace to
    # F_p, so no powmod exponent exceeds p, where (q - 1)/2 has 80 bits
    F = ExtField(10007, 6)
    rng = random.Random(22)
    roots = set()
    while len(roots) < 6:
        roots.add(F.rand(rng))
    a = reduce(lambda u, v: u * v, [Poly(F, [-r, F.one]) for r in roots])
    exponents, powmod_ = [], TupleKernel.powmod

    def spy(self, b, e, m):
        exponents.append(e)
        return powmod_(self, b, e, m)

    monkeypatch.setattr(TupleKernel, "powmod", spy)
    K, got = roots_in_splitting_extension(a)
    assert K == F and got == sorted(((r, 1) for r in roots), key=lambda rm: F.sort_key(rm[0]))
    assert exponents and max(exponents) <= F.char


# SHA-256 of the root lists of a seeded sweep over F_10007, F_(10007^2) and
# F_(10007^3) that reaches splitting fields F_(10007^6) and F_(10007^12),
# and of the embedding images below; computed before root finding by
# Frobenius orbit replaced a second root search in the lcm field
ROOT_SWEEP_PIN = "ed58136c73244a190809229808815ff960e6b4ffa936482c983d7fa4d4a38d7e"


def test_root_lists_and_embeddings_are_pinned():
    rng = random.Random(2111)
    sweep, degrees = [], set()
    for base in (F10007, ExtField(10007, 2), ExtField(10007, 3)):
        for shape in ((2, 3), (3, 4), (1, 1, 2), (6,), (4, 2, 2), (1, 3, 3)):
            for repeat in (1, 2):
                fs = [rand_poly(base, d, rng, monic=True) for d in shape]
                a = reduce(lambda u, v: u * v, fs[1:], fs[0] ** repeat)
                try:
                    K, roots = roots_in_splitting_extension(a, cap=12)
                except ExtensionCapError:
                    sweep.append("cap")
                    continue
                degrees.add(K.degree)
                sweep.append([K.describe(), [[K.to_json(r), m] for r, m in roots]])
    assert {6, 12} <= degrees
    images = []
    for p, pairs in ((7, ((2, 4), (3, 6))), (10007, ((2, 6), (3, 6), (6, 12)))):
        for a, b in pairs:
            K = ExtField(p, b)
            images.append([p, a, b, [K.to_json(w)
                                     for w in K.embedding_images(ExtField(p, a))]])
    blob = json.dumps([sweep, images], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == ROOT_SWEEP_PIN


def test_resultant_linear_convention():
    # Res(x - a, x - b) = a - b with the first argument's rows first
    F = F31
    a, b = F.elem(5), F.elem(9)
    r = resultant(Poly(F, [-a, F.one]), Poly(F, [-b, F.one]))
    assert r == a - b


def test_resultant_self_zero():
    rng = random.Random(15)
    a = rand_poly(F31, 4, rng)
    assert not resultant(a, a)


def test_resultant_root_product_oracle():
    rng = random.Random(16)
    F = F31
    for _ in range(10):
        a, b = rand_poly(F, 3, rng), rand_poly(F, 3, rng)
        if poly_gcd(a, b).degree != 0:
            continue
        r = resultant(a, b)
        K, roots = roots_in_splitting_extension(a)
        bk = b.map_field(K)
        prod = K.one
        for alpha, m in roots:
            prod = prod * bk(alpha) ** m
        from wgauss.algebra import coerce
        assert coerce(r, K) == coerce(a.lead(), K) ** b.degree * prod


def test_resultant_zero_iff_common_factor():
    rng = random.Random(17)
    for _ in range(30):
        a, b = rand_poly(F7, 4, rng), rand_poly(F7, 4, rng)
        assert (not resultant(a, b)) == (poly_gcd(a, b).degree >= 1)


def test_discriminant():
    from wgauss.algebra import discriminant
    # disc(x^2 + bx + c) = b^2 - 4c
    rng = random.Random(18)
    for _ in range(20):
        b, c = F31.rand(rng), F31.rand(rng)
        a = Poly(F31, [c, b, F31.one])
        assert discriminant(a) == b * b - c * 4
    # zero iff repeated root
    lin = Poly(F31, [3, 1])
    assert not discriminant(lin * lin)


def test_resultant_works_over_qq():
    a = Poly(F10007, [1, 0, 1])
    b = Poly(F10007, [-2, 0, 1])
    assert resultant(a, b) == 9  # (i^2-2)(-i^2-2) = (-3)(-3)


def test_poly_eval_and_arith_over_qq():
    a = Poly(F10007, [F10007.one / 2, 0, 1])
    assert a(F10007.elem(2)) == F10007.elem(9) / 2
    assert (a * a).degree == 4


# -- int-coded kernel against a schoolbook element-level reference ----------
# The reference works on coefficient vectors (length 1 for F_p) with its own
# field arithmetic: vector convolution reduced by the field's modulus, and
# inversion as a^(q-2).  It shares no code with the kernel or its tables.

KERNEL_FIELDS = [F7, F10007, ExtField(7, 2), ExtField(7, 3), ExtField(7, 4),
                 ExtField(10007, 2)]


def _vec(c):
    return (c.value,) if hasattr(c, "value") else c.coeffs


def _ref_fadd(F, a, b):
    return tuple((x + y) % F.char for x, y in zip(a, b))


def _ref_fneg(F, a):
    return tuple(-x % F.char for x in a)


def _ref_fmul(F, a, b):
    p, k = F.char, F.degree
    conv = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    if k > 1:
        m = F.modulus                     # monic, length k + 1
        for top in range(2 * k - 2, k - 1, -1):
            c = conv[top]
            for i in range(k + 1):
                conv[top - k + i] -= c * m[i]
    return tuple(x % p for x in conv[:k])


def _ref_finv(F, a):
    assert any(a)
    r, e = (1,) + (0,) * (F.degree - 1), F.order - 2
    while e:
        if e & 1:
            r = _ref_fmul(F, r, a)
        a = _ref_fmul(F, a, a)
        e >>= 1
    return r


def _ref_strip(F, c):
    c = list(c)
    while c and not any(c[-1]):
        c.pop()
    return c


def _ref_mul(F, a, b):
    zero = (0,) * F.degree
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = _ref_fadd(F, out[i + j], _ref_fmul(F, x, y))
    return _ref_strip(F, out)


def _ref_divmod(F, a, b):
    zero = (0,) * F.degree
    inv = _ref_finv(F, b[-1])
    r, q = list(a), [zero] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b):
        c = _ref_fmul(F, r[-1], inv)
        off = len(r) - len(b)
        q[off] = c
        for i, y in enumerate(b):
            r[off + i] = _ref_fadd(F, r[off + i], _ref_fneg(F, _ref_fmul(F, c, y)))
        r.pop()
        r = _ref_strip(F, r)
    return _ref_strip(F, q), r


def _ref_powmod(F, a, e, m):
    r = [(1,) + (0,) * (F.degree - 1)]
    a = _ref_divmod(F, a, m)[1]
    while e:
        if e & 1:
            r = _ref_divmod(F, _ref_mul(F, r, a), m)[1]
        a = _ref_divmod(F, _ref_mul(F, a, a), m)[1]
        e >>= 1
    return r


def _ref_gcd(F, a, b):
    while b:
        a, b = b, _ref_divmod(F, a, b)[1]
    if not a:
        return a
    inv = _ref_finv(F, a[-1])
    return [_ref_fmul(F, c, inv) for c in a]


def _poly_of_codes(F, codes):
    """Poly whose coefficients are the field elements numbered by ``codes``
    (base-p digits, constant term least significant)."""
    cs = []
    for v in codes:
        digits = []
        for _ in range(F.degree):
            digits.append(v % F.char)
            v //= F.char
        cs.append(F.elem(digits[0]) if F.degree == 1 else F.elem(digits))
    return Poly(F, cs)


def _vecs(a):
    return [_vec(c) for c in a.coeffs]


kernel_field = st.sampled_from(KERNEL_FIELDS)
codes = st.lists(st.integers(0, 10007 ** 2 - 1), max_size=8)


def _draw_poly(F, raw):
    return _poly_of_codes(F, [v % F.order for v in raw])


@given(kernel_field, codes, codes)
@settings(max_examples=80, deadline=None)
def test_kernel_mul_matches_reference(F, ra, rb):
    a, b = _draw_poly(F, ra), _draw_poly(F, rb)
    assert _vecs(a * b) == _ref_mul(F, _vecs(a), _vecs(b))
    assert _vecs(a * a) == _ref_mul(F, _vecs(a), _vecs(a))


@given(kernel_field, codes, codes)
@settings(max_examples=80, deadline=None)
def test_kernel_divmod_matches_reference(F, ra, rb):
    a, b = _draw_poly(F, ra), _draw_poly(F, rb)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    q, r = a.divmod(b)
    assert (_vecs(q), _vecs(r)) == _ref_divmod(F, _vecs(a), _vecs(b))
    assert a % b == r and a // b == q


@given(kernel_field, codes, codes.filter(any), st.integers(0, 60))
@settings(max_examples=80, deadline=None)
def test_kernel_powmod_matches_reference(F, ra, rm, e):
    a, m = _draw_poly(F, ra), _draw_poly(F, rm)
    if m.is_zero():
        return
    assert _vecs(powmod(a, e, m)) == _ref_powmod(F, _vecs(a), e, _vecs(m))


@given(kernel_field, codes, codes, codes)
@settings(max_examples=80, deadline=None)
def test_kernel_gcd_matches_reference(F, ra, rb, rc):
    # a shared factor c makes nontrivial gcds common
    c = _draw_poly(F, rc)
    a, b = _draw_poly(F, ra) * c, _draw_poly(F, rb) * c
    assert _vecs(poly_gcd(a, b)) == _ref_gcd(F, _vecs(a), _vecs(b))


# -- large F_(p^k): coefficient tuples and Kronecker products ---------------
# F_(67^2) is the smallest of these above ZECH_MAX_ORDER; the modulus of
# F_(7^12) has three low terms, so its fold takes two rounds; F_(p^2) with
# p = 2^31 - 1 needs slots wider than 64 bits.

LARGE_FIELDS = [ExtField(10007, 2), ExtField(10007, 3), ExtField(10007, 6),
                ExtField(67, 2), ExtField(7, 12), ExtField(2 ** 31 - 1, 2)]


@st.composite
def large_polys(draw, count):
    """A large field and ``count`` polynomials over it; coefficients are
    often q - 1, whose residues are all p - 1, the widest slot sums."""
    F = draw(st.sampled_from(LARGE_FIELDS))
    coeff = st.one_of(st.integers(0, F.order - 1), st.just(F.order - 1))
    return F, [_poly_of_codes(F, draw(st.lists(coeff, max_size=8)))
               for _ in range(count)]


@given(large_polys(2))
@settings(max_examples=60, deadline=None)
def test_large_kernel_mul_matches_reference(drawn):
    F, (a, b) = drawn
    assert _vecs(a * b) == _ref_mul(F, _vecs(a), _vecs(b))
    assert _vecs(a * a) == _ref_mul(F, _vecs(a), _vecs(a))


@given(large_polys(2))
@settings(max_examples=60, deadline=None)
def test_large_kernel_divmod_matches_reference(drawn):
    F, (a, b) = drawn
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    q, r = a.divmod(b)
    assert (_vecs(q), _vecs(r)) == _ref_divmod(F, _vecs(a), _vecs(b))
    assert a % b == r and a // b == q


@given(large_polys(2), st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_large_kernel_powmod_matches_reference(drawn, e):
    F, (a, m) = drawn
    if m.is_zero():
        return
    assert _vecs(powmod(a, e, m)) == _ref_powmod(F, _vecs(a), e, _vecs(m))


@given(large_polys(3))
@settings(max_examples=40, deadline=None)
def test_large_kernel_gcd_matches_reference(drawn):
    F, (a, b, c) = drawn
    a, b = a * c, b * c
    assert _vecs(poly_gcd(a, b)) == _ref_gcd(F, _vecs(a), _vecs(b))


@pytest.mark.parametrize("F", KERNEL_FIELDS + LARGE_FIELDS, ids=repr)
def test_kernel_combine_matches_reference(F):
    # constants times polynomials, summed, as the Frobenius table and the
    # trace split use it; the code q - 1 has every residue p - 1, so the
    # last n terms give the widest slot sums of the packed products
    rng = random.Random(23)
    top = _poly_of_codes(F, [F.order - 1] * 7)
    for n in range(1, 9):
        consts = [F.rand(rng) for _ in range(n)] + [F.zero] + [top.lead()] * n
        polys = [rand_poly(F, rng.randrange(7), rng) for _ in range(n)] + [top] * (n + 1)
        got = F.kernel.combine(F._encode(consts), [a.code for a in polys])
        ref = [(0,) * F.degree] * 7
        for c, a in zip(consts, polys):
            for i, y in enumerate(_vecs(a)):
                ref[i] = _ref_fadd(F, ref[i], _ref_fmul(F, _vec(c), y))
        assert _vecs(Poly._from_code(F, got)) == _ref_strip(F, ref)


@pytest.mark.parametrize("F", LARGE_FIELDS, ids=repr)
def test_large_kernel_all_max_coefficients(F):
    # every residue p - 1: the largest slot sums, and a non-monic modulus
    top = F.elem([F.char - 1] * F.degree)
    for n in (1, 2, 7, 20):
        a, b = Poly(F, [top] * n), Poly(F, [top] * (n + 3))
        assert _vecs(a * b) == _ref_mul(F, _vecs(a), _vecs(b))
        assert _vecs(b * b) == _ref_mul(F, _vecs(b), _vecs(b))
        q, r = b.divmod(a)
        assert (_vecs(q), _vecs(r)) == _ref_divmod(F, _vecs(b), _vecs(a))
    m = Poly(F, [top] * 7)
    for e in (2, 3, F.order):
        assert _vecs(powmod(Poly(F, [top] * 6), e, m)) == _ref_powmod(
            F, _vecs(Poly(F, [top] * 6)), e, _vecs(m))
    c = Poly(F, [top, F.one, top])
    a, b = Poly(F, [top] * 5) * c, Poly(F, [top] * 4) * c
    assert _vecs(poly_gcd(a, b)) == _ref_gcd(F, _vecs(a), _vecs(b))


@given(st.one_of(st.tuples(kernel_field, codes, codes).map(
    lambda t: (t[0], [_draw_poly(t[0], t[1]), _draw_poly(t[0], t[2])])),
    large_polys(2)))
@settings(max_examples=80, deadline=None)
def test_kernel_add_sub_match_reference(drawn):
    F, (a, b) = drawn
    va, vb = _vecs(a), _vecs(b)
    zero = (0,) * F.degree
    va += [zero] * (len(vb) - len(va))
    vb += [zero] * (len(va) - len(vb))
    total = _ref_strip(F, [_ref_fadd(F, x, y) for x, y in zip(va, vb)])
    diff = _ref_strip(F, [_ref_fadd(F, x, _ref_fneg(F, y)) for x, y in zip(va, vb)])
    assert _vecs(a + b) == total and _vecs(b + a) == total
    assert _vecs(a - b) == diff
    assert a - a == Poly.zero(F) and not (a - a)
    # a result keeps only its codes until read; it still hashes as its value
    assert hash(a + b) == hash(Poly(F, (a + b).coeffs))


@pytest.mark.parametrize("F", KERNEL_FIELDS + LARGE_FIELDS[1:], ids=repr)
def test_kernel_add_sub_of_unequal_lengths(F):
    rng = random.Random(14)
    polys = [Poly.zero(F)] + [rand_poly(F, d, rng) for d in range(4)]
    for a in polys:
        for b in polys:
            total = [_ref_fadd(F, _vec(a[i]), _vec(b[i]))
                     for i in range(max(len(a.coeffs), len(b.coeffs)))]
            diff = [_ref_fadd(F, _vec(a[i]), _ref_fneg(F, _vec(b[i])))
                    for i in range(len(total))]
            assert _vecs(a + b) == _ref_strip(F, total)
            assert _vecs(a - b) == _ref_strip(F, diff)


# The element-facing side of Poly: construction, decoding and the operations
# that take or give field elements, on every coding.

any_field = st.sampled_from(KERNEL_FIELDS + LARGE_FIELDS)


def _ref_digits(F, raw):
    """The coefficient vectors numbered by ``raw`` (reduced mod |F|), in
    base-p digits, constant term least significant: the field elements of
    ``_poly_of_codes``, worked out without the field."""
    out = []
    for v in raw:
        v %= F.order
        digits = []
        for _ in range(F.degree):
            digits.append(v % F.char)
            v //= F.char
        out.append(tuple(digits))
    return out


def _elems(F, vecs):
    return [F.elem(v) if F.degree > 1 else F.elem(v[0]) for v in vecs]


@given(any_field, codes)
@settings(max_examples=80, deadline=None)
def test_poly_construction_and_decoding_match_reference(F, raw):
    vecs = _ref_digits(F, raw)
    cs, ref = _elems(F, vecs), _ref_strip(F, vecs)
    zero = (0,) * F.degree
    a = Poly(F, cs)
    # trailing zeros, given or not, and a Poly built from codes are one value
    for b in (Poly(F, cs + [0, 0]), Poly(F, cs + [F.zero]),
              Poly._from_code(F, F.kernel.strip(F._encode(cs)))):
        assert a == b and b == a and hash(a) == hash(b)
    assert _vecs(a) == ref and a.degree == len(ref) - 1
    assert [_vec(a[i]) for i in range(len(ref) + 3)] == ref + [zero] * 3
    if ref:
        assert _vec(a.lead()) == ref[-1]
        assert a != Poly(F, cs[:len(ref) - 1]) and a != Poly.zero(F)
    else:
        assert a == Poly.zero(F) and not a
        with pytest.raises(ValueError):
            a.lead()


@given(any_field, codes, st.integers(-30, 30), st.integers(0, 10007 ** 2 - 1),
       st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_poly_element_operations_match_reference(F, raw, n, rc, extra):
    va = _ref_strip(F, _ref_digits(F, raw))
    a = Poly(F, _elems(F, va))
    (vc,) = _ref_digits(F, [rc])
    (c,) = _elems(F, [vc])
    p, zero = F.char, (0,) * F.degree
    assert _vecs(-a) == [_ref_fneg(F, y) for y in va]
    # an element and an int times a polynomial, on either side
    scaled = _ref_strip(F, [_ref_fmul(F, y, vc) for y in va])
    assert _vecs(a * c) == scaled and _vecs(c * a) == scaled
    vn = (n % p,) + (0,) * (F.degree - 1)
    scaled = _ref_strip(F, [_ref_fmul(F, y, vn) for y in va])
    assert _vecs(a * n) == scaled and _vecs(n * a) == scaled
    if va:
        inv = _ref_finv(F, va[-1])
        assert _vecs(a.monic()) == [_ref_fmul(F, y, inv) for y in va]
    else:
        assert a.monic() == a
    d = a.degree + extra
    rev = [zero] * (d + 1)
    for i, y in enumerate(va):
        rev[d - i] = y
    assert _vecs(a.reverse(d)) == _ref_strip(F, rev)
    assert a.reverse() == a.reverse(a.degree)
    if va:
        with pytest.raises(ValueError):
            a.reverse(a.degree - 1)
    deriv = [tuple(x * i % p for x in y) for i, y in enumerate(va)][1:]
    assert _vecs(a.derivative()) == _ref_strip(F, deriv)


@pytest.mark.parametrize("F", KERNEL_FIELDS + LARGE_FIELDS[1:], ids=repr)
def test_kernel_powmod_edge_cases(F):
    rng = random.Random(12)
    one = [(1,) + (0,) * (F.degree - 1)]
    base = rand_poly(F, 4, rng)
    nonmonic = rand_poly(F, 3, rng)
    while nonmonic.lead() == F.one:
        nonmonic = rand_poly(F, 3, rng)
    unit = Poly(F, [nonmonic.lead()])                 # modulus of degree 0
    zero = Poly.zero(F)
    cases = [(base, 0, nonmonic), (zero, 0, nonmonic), (zero, 5, nonmonic),
             (base, 0, unit), (base, 7, unit), (base, 1, nonmonic),
             (base, F.order, nonmonic)]
    for a, e, m in cases:
        got = powmod(a, e, m)
        assert _vecs(got) == _ref_powmod(F, _vecs(a), e, _vecs(m))
    # e = 0 gives 1 even where the modulus is a unit, as the schoolbook does
    assert _vecs(powmod(base, 0, unit)) == one
    with pytest.raises(ZeroDivisionError):
        powmod(base, 3, zero)
    with pytest.raises(ValueError):
        powmod(base, -1, nonmonic)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_zech_tables(k):
    F = ExtField(7, k)
    z = F.kernel
    n = F.order - 1
    assert z is not None and z.n == n
    powers, cur = [], F.one.coeffs
    for _ in range(n):
        powers.append(cur)
        cur = _ref_fmul(F, cur, z.gen)
    # g^0, ..., g^(q-2) are distinct and g^(q-1) = 1: g has order q - 1
    assert cur == F.one.coeffs and len(set(powers)) == n
    # exp and log are inverse bijections between [0, q-1) and F_q^*, and
    # between -1 (exp's last entry) and zero
    assert z.exp[:n] == powers and len(z.exp) == n + 1
    assert sorted(z.log) == sorted(_vec(x) for x in F.elements())
    assert all(z.log[v] == i for i, v in enumerate(z.exp[:n]))
    assert z.log[F.zero.coeffs] == -1 and z.exp[-1] == F.zero.coeffs
    # Zech table: g^Z(i) = 1 + g^i, and -1 where 1 + g^i = 0
    for i in range(n):
        s = _ref_fadd(F, z.exp[i], F.one.coeffs)
        assert z.zech[i] == z.zech[i + n] == (z.log[s] if any(s) else -1)


def test_kernel_is_chosen_by_field_size():
    # the constructor fixes the kernel: checked before any arithmetic
    assert isinstance(PrimeField(10009).kernel, FpKernel)
    assert ExtField(3, 7).order == 2187 <= ZECH_MAX_ORDER
    assert isinstance(ExtField(3, 7).kernel, ZechKernel)         # tables built
    assert ExtField(3, 8).order == 6561 > ZECH_MAX_ORDER
    assert ExtField(73, 2).order == 5329 > ZECH_MAX_ORDER
    for F in (ExtField(3, 8), ExtField(73, 2), ExtField(10009, 3)):
        assert isinstance(F.kernel, TupleKernel)                  # no tables


def test_kernels_share_one_interface():
    # series and table code call these names on whatever kernel the field has
    fields = [F10007, ExtField(7, 3), ExtField(10007, 2)]
    assert [type(F.kernel) for F in fields] == [FpKernel, ZechKernel, TupleKernel]
    for F in fields:
        kern = F.kernel
        for name in ("add", "sub", "mul", "divmod", "mod", "powmod", "gcd", "frob",
                     "combine", "strip", "monic"):
            assert callable(getattr(kern, name)), (F, name)
        assert kern.zero == F._encode([F.zero])[0]
        assert kern.ONE == F._encode([F.one])
        a = F._encode([F.zero, F.one, F.zero, F.zero])
        assert kern.strip(a) == a[:2] and kern.strip(list(a[:1])) == ()


def test_one_division_one_euclid_one_representation():
    # division and the Euclidean loop live on the shared base class only, and
    # a Poly is its field and its code, with no second state beside them
    for name in ("divmod", "gcd"):
        assert name in vars(_Kernel)
        assert not [k for k in (FpKernel, ZechKernel, TupleKernel) if name in vars(k)]
    assert Poly.__slots__ == ("field", "code")


def test_small_extension_series_arithmetic_in_a_fresh_process():
    # a small extension field made in a fresh interpreter, so that no other
    # test can have run its arithmetic first: its series sum and product
    # need its kernel before anything else reads it
    code = """
from wgauss.algebra import ExtField
from wgauss.algebra.series import TruncatedSeries
K = ExtField(7, 2)
a = TruncatedSeries(K, [K.gen, K.one], 4)
b = TruncatedSeries(K, [K.one, K.gen], 4)
s, m = a + b, a * b
g = K.gen
assert [s.coefficient(i) for i in range(4)] == [g + 1, g + 1, 0, 0], s
assert [m.coefficient(i) for i in range(4)] == [g, g * g + 1, g, 0], m
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("F", [ExtField(7, 3), ExtField(7, 5)] + LARGE_FIELDS,
                         ids=repr)
def test_ext_inverse_and_power_match_reference(F):
    rng = random.Random(13)
    for _ in range(30):
        a = F.rand(rng)
        if not a:
            continue
        inv = F.one / a
        assert inv.coeffs == _ref_finv(F, a.coeffs)
        assert (a ** -3).coeffs == _ref_fmul(F, inv.coeffs, _ref_fmul(F, inv.coeffs, inv.coeffs))
        assert (a ** 5).coeffs == _ref_fmul(F, a.coeffs, _ref_fmul(
            F, _ref_fmul(F, a.coeffs, a.coeffs), _ref_fmul(F, a.coeffs, a.coeffs)))
        assert (a * a).coeffs == _ref_fmul(F, a.coeffs, a.coeffs)
    assert F.zero ** 0 == F.one and F.zero ** 3 == F.zero
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero
    with pytest.raises(ZeroDivisionError):
        F.zero ** -1


def test_poly_division_is_exact():
    a, b = Poly(F7, [1, 2, 3]), Poly(F7, [4, 1])
    assert (a * b) / b == a
    with pytest.raises(ArithmeticError):
        (a * b + 1) / b


def test_binary_roots_zero_forms_infinity_and_both_modes():
    x = Poly.x(F7)
    S = (x - 2) * (x - 3) * (x * x - 3)   # 3 is not a square mod 7
    inf = (F7.zero, F7.one)
    # a zero form imposes nothing; the deficit 6 - 4 is the multiplicity at (0 : 1)
    K, zeros = binary_roots([(S, 6), (Poly.zero(F7), 5)])
    assert K == F7
    assert zeros == [((F7.one, F7.elem(2)), 1), ((F7.one, F7.elem(3)), 1), (inf, 2)]
    # with a cap, every root, over the splitting field, (0 : 1) still last
    K2, zeros2 = binary_roots([(S, 6)], cap=2)
    assert K2 == ExtField(7, 2)
    assert [m for _, m in zeros2] == [1, 1, 1, 1, 2] and zeros2[-1] == (inf, 2)
    finite = [t for (s, t), _ in zeros2[:-1]]
    assert all(s == K2.one for (s, _), _ in zeros2[:-1])
    assert all(not S.map_field(K2)(t) for t in finite)
    assert [z for z in finite if z in (K2.elem(2), K2.elem(3))] == [K2.elem(2), K2.elem(3)]
    assert sorted(finite, key=K2.sort_key) == finite
    with pytest.raises(ExtensionCapError):
        binary_roots([(S, 6)], cap=1)
    # common zeros: the gcd's roots, and the least deficit at (0 : 1)
    T = (x - 2) ** 2 * (x - 5)
    K, zeros = binary_roots([(S * (x - 2), 7), (T, 4)])
    assert zeros == [((F7.one, F7.elem(2)), 2), (inf, 1)]
    assert binary_roots([(S * (x - 2), 5), (T, 3)], cap=12) == \
        (F7, [((F7.one, F7.elem(2)), 2)])
    with pytest.raises(ValueError):
        binary_roots([(Poly.zero(F7), 3), (Poly.zero(F7), 2)])


def test_substitution_and_squarefree_split_free_their_work_on_return():
    # no reference cycle keeps a power table or a split's polynomials alive
    # until the next cyclic collection
    a = {(2, 0, 1): F7.one, (1, 1, 1): F7.elem(2), (0, 2, 1): F7.one, (0, 0, 3): F7.elem(2)}
    images = [{(1, 0): F7.one}, {(0, 1): F7.one}, {(0, 1): F7.elem(3)}]
    x = Poly.x(F7)
    f = (x - 1) ** 7 * (x - 2) ** 3 * (x + 2)
    gc.collect()
    gc.disable()
    try:
        sub = mp_substitute(a, images, F7, 2)    # (x + y)^2 z + 2 z^3 at z = 3y
        split = squarefree_decomposition(f)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert sub == {(2, 1): F7.elem(3), (1, 2): F7.elem(6), (0, 3): F7.one}
    assert split == [(x + 2, 1), (x - 2, 3), (x - 1, 7)]


# -- quadratics by their discriminant --------------------------------------

QUADRATIC_FIELDS = [F7, PrimeField(13), ExtField(7, 2), ExtField(7, 3), F10007,
                    ExtField(10007, 2), ExtField(10007, 3), ExtField(10007, 6)]


def _ref_trace_split(f, table, rng):
    """The monic linear factors of f, a product of distinct ones, by random
    trace splits T^((p-1)/2) down to degree 1, with no closed form: the path
    that split quadratics before the discriminant did.  sigma(c) is c^p."""
    field = f.field
    kern, p, k = field.kernel, field.char, field.degree
    out, stack = [], [f.monic()]
    while stack:
        g = stack.pop()
        if g.degree == 1:
            out.append(g)
            continue
        tab = [kern.mod(X, g.code) for X in table]
        terms = [tab[i % len(tab)] for i in range(k)] + [kern.ONE]
        while True:
            cs = [field.rand(rng)]
            for _ in range(k - 1):
                cs.append(cs[-1] ** p)
            cs.append(field.elem(rng.randrange(p)))
            T = Poly._from_code(field, kern.combine(field._encode(cs), terms))
            h = poly_gcd(powmod(T, (p - 1) // 2, g) - 1, g)
            if 0 < h.degree < g.degree:
                break
        stack += [h, g // h]
    return out


def _ref_factor(a):
    """factor_finite of a quadratic by the Frobenius table: each squarefree
    part of degree 2 is split when gcd(x^q - x, part) has degree 2."""
    F = a.field
    out = []
    for sqf, mult in squarefree_decomposition(a):
        irrs = [sqf]
        if sqf.degree == 2:
            table = _frobenius_table(sqf, F.degree)
            lin = poly_gcd(Poly._from_code(F, table[-1]) - Poly.x(F), sqf)
            if lin.degree == 2:
                irrs = _ref_trace_split(lin, table[:-1], random.Random(5))
        out += [(irr, mult) for irr in irrs]
    return sorted(out, key=lambda fm: fm[0].sort_key())


def _ref_conjugate_roots(f, K):
    """Both roots in K of f, an irreducible quadratic, by a trace split over
    K with f's Frobenius table mapped into K."""
    F = f.field
    table = _frobenius_table(f, 2 * F.degree)
    assert table[-1] == table[0]
    table = [Poly._from_code(F, X).map_field(K).code for X in table[:-1]]
    lin = _ref_trace_split(f.map_field(K), table, random.Random(6))
    return sorted((-g[0] for g in lin), key=K.sort_key)


def _quadratics(F, rng):
    """(kind, quadratic) with a zero, a square and a non-square discriminant,
    each with a leading coefficient other than 1."""
    x = Poly.x(F)
    lead = F.rand(rng)
    while not lead or lead == F.one:
        lead = F.rand(rng)
    r, s, u = F.rand(rng), F.rand(rng), F.rand(rng)
    while s == r:
        s = F.rand(rng)
    while not u:
        u = F.rand(rng)
    return [("zero", (x - r) ** 2 * lead), ("square", (x - r) * (x - s) * lead),
            ("non-square", ((x - r) ** 2 - F.nonresidue() * u * u) * lead)]


@pytest.mark.parametrize("F", QUADRATIC_FIELDS, ids=repr)
def test_quadratics_match_the_table_and_trace_split_path(F):
    rng = random.Random(30)
    K2 = F.extension(2) if F.degree == 1 else ExtField(F.char, 2 * F.degree)
    for _ in range(2):
        for kind, a in _quadratics(F, rng):
            factors = factor_finite(a)
            assert factors == _ref_factor(a)
            assert [f.degree for f, _ in factors] == \
                {"zero": [1], "square": [1, 1], "non-square": [2]}[kind]
            rootlist = [(-f[0], m) for f, m in factors if f.degree == 1]
            assert roots_in_field(a) == sorted(rootlist, key=lambda rm: F.sort_key(rm[0]))
            assert distinct_roots_in_field(a) == [r for r, _ in roots_in_field(a)]
            K, roots = roots_in_splitting_extension(a)
            if kind == "non-square":
                f = factors[0][0]
                expect = _ref_conjugate_roots(f, K2)
                assert K == K2 and conjugate_roots(f, K2) == expect
                assert roots == [(r, 1) for r in expect]
            else:
                assert K == F and roots == roots_in_field(a)
                with pytest.raises(ValueError, match="the discriminant is a square"):
                    conjugate_roots(a, K2)


@given(st.sampled_from([3, 7, 13, 10007]), st.data())
@settings(max_examples=150, deadline=None)
def test_fp_powmod_matches_square_and_multiply(p, data):
    # the fixed-modulus FpKernel.powmod against _Kernel's square-and-multiply
    # on mul and mod: non-monic moduli of degree 1..13, bases longer than the
    # modulus, e = 0 and exponents up to 2^40
    kern = FpKernel(p)
    d = data.draw(st.integers(1, 13), label="deg m")
    residues = st.integers(0, p - 1)
    m = tuple(data.draw(st.lists(residues, min_size=d, max_size=d), label="low")) \
        + (data.draw(st.integers(1, p - 1), label="lead"),)
    a = kern.strip(data.draw(st.lists(residues, max_size=2 * d + 3), label="base"))
    e = data.draw(st.one_of(st.just(0), st.integers(1, 2 * p), st.integers(0, 1 << 40)),
                  label="e")
    r = kern.mod(a, m)
    expect = kern.ONE if e == 0 else _Kernel._power(kern, r, e, m) if r else ()
    assert kern.powmod(a, e, m) == expect


def test_quadratics_take_no_exponentiation(monkeypatch):
    # over F_10007, a quadratic is factored, rooted and split into conjugates
    # by its discriminant: no powmod and no Frobenius table
    F, K2 = F10007, ExtField(10007, 2)
    quads = _quadratics(F, random.Random(31))
    calls = []

    def spy(orig):
        def counted(*args):
            calls.append(orig.__qualname__)
            return orig(*args)
        return counted

    monkeypatch.setattr(_Kernel, "powmod", spy(_Kernel.powmod))   # every kernel's
    monkeypatch.setattr(poly, "_frobenius_table", spy(_frobenius_table))
    for kind, a in quads:
        factor_finite(a)
        roots_in_field(a)
        if kind == "non-square":
            assert len(conjugate_roots(a, K2)) == 2
    assert calls == []


def test_root_multiplicity_of_the_zero_polynomial_is_refused():
    with pytest.raises(ValueError, match="zero polynomial"):
        root_multiplicity(Poly.zero(F7), F7.elem(3))


def test_trace_split_refuses_a_factor_without_roots():
    # (x^2 + 1)(x - 1) over F_7: -1 is no square mod 7, so the split reaches
    # x^2 + 1 and its discriminant -4 refuses it
    f = Poly(F7, [1, 0, 1]) * Poly(F7, [-1, 1])
    with pytest.raises(ValueError, match=r"\(1:F7\)\*x\^2\) has no two distinct roots in GF\(7\)"):
        _trace_split(f, [Poly.x(F7).code], random.Random(3))


# -- every root-finding entry returns or refuses, typed, on any input -----------

def _alarmed(fn, *args, seconds=5):
    """fn(*args) under SIGALRM, so a loop that never ends fails the test."""
    import signal

    def hang(*_):
        raise AssertionError(f"{fn.__name__}{args!r} did not return in {seconds} s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_splits_refuse_input_they_cannot_split():
    F = PrimeField(7)
    x = Poly.x(F)
    f = (x ** 3 + 2) * (x - 1)
    table = poly._frobenius_table(f, 1)[:1]
    with pytest.raises(ValueError, match="distinct roots"):
        _alarmed(poly._trace_split, f, table, random.Random(0))
    with pytest.raises(ValueError, match="degree-2"):
        _alarmed(poly.equal_degree_split, (x ** 2 + 1) * (x - 1), 2, random.Random(0))


_ENTRY_FIELDS = [PrimeField(3), PrimeField(7), ExtField(7, 2), PrimeField(13)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_ENTRY_FIELDS), st.lists(st.integers(0, 10 ** 6), max_size=7),
       st.integers(1, 3), st.integers(0, 1), st.integers(0, 10 ** 6))
def test_root_finding_entries_return_or_refuse_typed(F, cs, d, square, r):
    a = Poly(F, [F.from_json(c % F.order) if F.degree == 1 else
                 F.from_json([c % F.p, c // F.p % F.p]) for c in cs])
    if square:   # repeated factors
        a = a * a
    typed = (ValueError, ArithmeticError, FieldError, ExtensionCapError)
    root = F.from_json(r % F.p)
    calls = [(poly.roots_in_field, a), (poly.distinct_roots_in_field, a),
             (poly.factor_finite, a), (poly.conjugate_roots, a, F.extension(max(a.degree, 1))),
             (poly.roots_in_splitting_extension, a, 12),
             (poly.equal_degree_split, a, d, random.Random(r)),
             (poly.binary_roots, [(a, max(a.degree, 0) + d)], 12),
             (poly.root_multiplicity, a, root)]
    for fn, *args in calls:
        try:
            _alarmed(fn, *args)
        except typed:
            pass


@pytest.mark.parametrize("F", [F7, ExtField(7, 2)], ids=["F7", "F49"])
@pytest.mark.parametrize("cs", [[], [1], [3]], ids=["zero", "one", "three"])
def test_conjugate_roots_refuses_degree_below_one(F, cs):
    """A constant or the zero polynomial has no Frobenius orbit: a plain
    ValueError naming the polynomial and its field, not a ZeroDivisionError
    or a failed unpacking."""
    f = Poly(F, cs)
    for K in (F, F.extension(2)):
        with pytest.raises(ValueError) as err:
            poly.conjugate_roots(f, K)
        assert type(err.value) is ValueError
        assert repr(f) in str(err.value) and repr(F) in str(err.value)
