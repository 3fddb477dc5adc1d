"""Differential oracle: factorization, roots and powmod over GF(p) against
sympy's independent implementation, on seeded random inputs.

sympy is not a dependency of the project; these tests skip without it.
"""

import random

import pytest

from wgauss.algebra import (Poly, PrimeField, factor_finite, powmod,
                            roots_in_field)

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ

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
