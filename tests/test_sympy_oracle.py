"""Differential oracle: factorization, roots, powmod, resultants (the
closed-form conic-cubic one too) and discriminants over GF(p) against
sympy's independent implementation, on seeded random inputs.

sympy is a test-only dependency (the ``test`` extra); these tests skip
without it.
"""

import random

import pytest

from wgauss.algebra import (Poly, PrimeField, discriminant, factor_finite,
                            powmod, resultant, roots_in_field)
from wgauss.algebra.poly import conic_cubic_resultant

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ
sympy = pytest.importorskip("sympy")

PRIMES = [7, 31, 10007]


def _to_sympy(a):
    """Coefficient list of a, highest degree first, as sympy expects."""
    return [ZZ(c.value) for c in reversed(a.coeffs)]


def _from_sympy(F, cs):
    return Poly(F, [int(c) for c in reversed(cs)])


def _random_poly(F, rng):
    """A random polynomial, often with planted repeated and linear factors."""
    a = Poly(F, [F.rand(rng) for _ in range(rng.randrange(1, 9))] + [F.rand(rng) or F.one])
    for _ in range(rng.randrange(0, 3)):
        lin = Poly(F, [F.rand(rng), F.one])
        a = a * lin ** rng.randrange(1, 4)
    return a


def _inputs(p, count, seed):
    F = PrimeField(p)
    rng = random.Random(seed * 1_000_003 + p)
    return F, [_random_poly(F, rng) for _ in range(count)]


@pytest.mark.parametrize("p", PRIMES)
def test_factor_finite_matches_sympy(p):
    F, polys = _inputs(p, 25, 1)
    for a in polys:
        lc, facs = galoistools.gf_factor(_to_sympy(a), p, ZZ)
        want = sorted(((_from_sympy(F, f), m) for f, m in facs),
                      key=lambda fm: (fm[0].sort_key(), fm[1]))
        assert factor_finite(a) == want
        assert F.elem(int(lc)) == a.lead()


@pytest.mark.parametrize("p", PRIMES)
def test_roots_in_field_match_sympy(p):
    F, polys = _inputs(p, 25, 2)
    for a in polys:
        _, facs = galoistools.gf_factor(_to_sympy(a), p, ZZ)
        want = sorted([(F.elem(-int(f[1])), m) for f, m in facs if len(f) == 2],
                      key=lambda rm: F.sort_key(rm[0]))
        assert roots_in_field(a) == want


@pytest.mark.parametrize("p", PRIMES)
def test_powmod_matches_sympy(p):
    F, polys = _inputs(p, 40, 3)
    rng = random.Random(p)
    for a, m in zip(polys, polys[1:] + polys[:1]):
        for e in (0, 1, 2, rng.randrange(3, 200), p, p ** 2 + rng.randrange(p)):
            want = galoistools.gf_pow_mod(_to_sympy(a), e, _to_sympy(m), p, ZZ)
            got = powmod(a, e, m)
            if m.degree == 0 and e == 0:
                assert got == Poly.one(F)   # 1, unreduced, as documented
            else:
                assert got == _from_sympy(F, want)


def _sympy_expr(a, x):
    return sum(int(c.value) * x ** i for i, c in enumerate(a.coeffs))


@pytest.mark.parametrize("p", PRIMES)
def test_resultant_matches_sympy(p):
    # The oracle is sympy's Sylvester matrix of the integer lifts, whose
    # determinant reduced mod p is the resultant over GF(p): the lifts keep
    # their leading coefficients.  sympy's own resultant is not used: it
    # has the wrong sign for some inputs, e.g. Res(x^3 + 6x^2 + 4x + 6,
    # 4x^5 + 4x^4 + x^3 + 3x), where the root product agrees with the
    # determinant.
    sylvester = pytest.importorskip("sympy.polys.subresultants_qq_zz").sylvester
    x = sympy.Symbol("x")
    F, polys = _inputs(p, 30, 4)
    rng = random.Random(p + 4)
    consts = [Poly(F, [F.rand(rng) or F.one]) for _ in range(3)]
    pairs = list(zip(polys, polys[1:] + polys[:1]))
    # a shared factor makes the resultant 0; constants take the short cuts
    pairs += [(a * b, b) for a, b in pairs[:6]]
    pairs += [(c, a) for c, a in zip(consts, polys)]
    pairs += [(a, c) for c, a in zip(consts, polys)]
    for a, b in pairs:
        ea, eb = _sympy_expr(a, x), _sympy_expr(b, x)
        if a.degree == 0 or b.degree == 0:     # no Sylvester matrix
            want = sympy.Poly(ea, x, modulus=p).resultant(sympy.Poly(eb, x, modulus=p))
        else:
            want = sylvester(ea, eb, x).det()
        assert resultant(a, b) == F.elem(int(want))


@pytest.mark.parametrize("p", PRIMES)
def test_discriminant_matches_sympy(p):
    x = sympy.Symbol("x")
    F, polys = _inputs(p, 30, 5)
    for a in polys:
        if a.degree < 1:
            continue
        want = sympy.Poly(_sympy_expr(a, x), x, modulus=p).discriminant()
        assert discriminant(a) == F.elem(int(want))


@pytest.mark.parametrize("p", PRIMES)
def test_conic_cubic_resultant_matches_sympy(p):
    # Res_c of q = q2 c^2 + q1(b) c + q0(b) and e = e3 c^3 + ... + e0(b)
    # against the determinant of sympy's Sylvester matrix in c of the
    # integer lifts, reduced mod p; q2 and e3 are nonzero constants, as in
    # the plane solves
    sylvester = pytest.importorskip("sympy.polys.subresultants_qq_zz").sylvester
    b, c = sympy.symbols("b c")
    F, polys = _inputs(p, 40, 6)
    rng = random.Random(p + 6)
    zero = Poly.zero(F)
    for i in range(0, 40, 5):
        q0, q1, e0, e1, e2 = (zero if rng.random() < 0.2 else a for a in polys[i:i + 5])
        q2, e3 = (Poly(F, [F.rand(rng) or F.one]) for _ in range(2))
        q, e = [q0, q1, q2], [e0, e1, e2, e3]
        eq = sum(_sympy_expr(a, b) * c ** k for k, a in enumerate(q))
        ee = sum(_sympy_expr(a, b) * c ** k for k, a in enumerate(e))
        want = sympy.Poly(sylvester(eq, ee, c).det(), b, modulus=p)
        got = conic_cubic_resultant(q, e)
        assert got == Poly(F, [int(x) for x in reversed(want.all_coeffs())] if want else [])
