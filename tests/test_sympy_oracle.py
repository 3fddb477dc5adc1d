"""Differential oracle: factorization, roots, powmod, resultants and
discriminants over GF(p) against sympy's independent implementation, and
the smoothness certificates of plane quartics and genus-4 curves against
sympy's Groebner bases, on seeded random inputs.

sympy is a test-only dependency (the ``test`` extra); these tests skip
without it.
"""

import random
from itertools import combinations, combinations_with_replacement

import pytest

from wgauss.algebra import (Poly, PrimeField, discriminant, factor_finite,
                            powmod, resultant, roots_in_field)
from wgauss.curves import CurveError, HomForm, gram_matrix, validate
from wgauss.sections import _quadric_type

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


# -- smoothness certificates against Groebner bases ---------------------------

SMALL_PRIMES = [3, 5, 7, 11, 13]


def _monomials(nvars, deg):
    return [tuple(c.count(i) for i in range(nvars))
            for c in combinations_with_replacement(range(nvars), deg)]


def _groebner_singular(p, forms):
    """Has the curve cut out by the forms (dicts keyed by exponent tuples)
    a singular point over the closure of GF(p)?  Each chart x_i = 1 holds
    one iff the forms and the maximal minors of their Jacobian generate a
    proper ideal, that is, a reduced Groebner basis other than [1]."""
    nvars = len(next(iter(forms[0])))
    xs = sympy.symbols(f"x0:{nvars}")
    exprs = [sum(c * sympy.prod([x ** e for x, e in zip(xs, k)]) for k, c in f.items())
             for f in forms]
    for i in range(nvars):
        rest = xs[:i] + xs[i + 1:]
        eqs = [e.subs(xs[i], 1) for e in exprs]
        jac = sympy.Matrix([[sympy.diff(e, x) for x in rest] for e in eqs])
        eqs += [jac[:, list(cols)].det() for cols in combinations(range(nvars - 1), len(forms))]
        eqs = [e for e in map(sympy.expand, eqs) if e != 0]
        if not eqs or sympy.groebner(eqs, *rest, modulus=p, order="grevlex").exprs != [1]:
            return True
    return False


def _certified_singular(desc):
    try:
        validate(desc)
    except CurveError:
        return True
    return False


def _json_form(f):
    return {",".join(map(str, k)): v for k, v in f.items()}


def test_quartic_certificates_match_groebner_bases():
    verdicts = []
    for i in range(40):
        rng = random.Random(f"quartic-{i}")
        p = rng.choice(SMALL_PRIMES)
        form = {m: rng.randrange(1, p) for m in rng.sample(_monomials(3, 4), rng.randrange(2, 9))}
        desc = {"model": "plane_quartic", "field": {"type": "prime", "p": p},
                "form": _json_form(form)}
        verdicts.append(_certified_singular(desc))
        assert verdicts[-1] == _groebner_singular(p, [form]), desc
    assert set(verdicts) == {True, False}


def _random_g4_forms(rng, p, cone):
    """A random quadric (every other one a cone: a ternary quadric in three
    random linear forms) and a random sparse cubic."""
    if cone:
        lin = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
        quad = {}
        for a, b in combinations_with_replacement(range(3), 2):
            c = rng.randrange(p)
            for k in range(4):
                for m in range(4):
                    key = tuple((k == r) + (m == r) for r in range(4))
                    quad[key] = (quad.get(key, 0) + c * lin[a][k] * lin[b][m]) % p
        quad = {k: v for k, v in quad.items() if v}
    else:
        quad = {m: rng.randrange(p) for m in _monomials(4, 2)}
    cubic = {m: rng.randrange(1, p) for m in rng.sample(_monomials(4, 3), rng.randrange(3, 12))}
    return quad or {(1, 0, 0, 1): 1}, cubic


def test_genus4_certificates_match_groebner_bases():
    verdicts, kinds = [], set()
    for i in range(16):
        rng = random.Random(f"g4-{i}")
        p = rng.choice(SMALL_PRIMES)
        quad, cubic = _random_g4_forms(rng, p, cone=i % 2)
        F = PrimeField(p)
        gram = gram_matrix(F, HomForm(F, 4, 2, quad))
        if gram.rank() >= 3:
            kinds.add(_quadric_type(gram))
        desc = {"model": "canonical_g4", "field": {"type": "prime", "p": p},
                "forms": {"quadric": _json_form(quad), "cubic": _json_form(cubic)}}
        verdicts.append(_certified_singular(desc))
        assert verdicts[-1] == _groebner_singular(p, [quad, cubic]), desc
    assert set(verdicts) == {True, False}
    assert kinds == {"split", "nonsplit", "cone"}
