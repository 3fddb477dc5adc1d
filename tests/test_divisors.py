import random
from math import comb

import pytest

from wgauss.algebra import ExtField, FieldError, PrimeField
from wgauss.curves import INF, CurveError, HyperellipticCurve, PlaneQuarticCurve
from wgauss.divisors import (
    Divisor,
    divisor_from_json,
    gcd_div,
    hyperelliptic_reduce,
    pullback_x,
    x_fibers,
)

F = PrimeField(10007)
CURVE = HyperellipticCurve(F, [0, -1, 0, 0, 0, 0, 0, 1])


def pts(n, seed=0):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        P = CURVE.sample_point(rng)
        if P not in out:
            out.append(P)
    return out


def test_gcd_div_examples():
    P, Q, R = pts(3, 1)
    D = Divisor(CURVE, [(P, 2), (Q, 1)])
    E = Divisor(CURVE, [(P, 1), (Q, 1), (R, 1)])
    assert gcd_div(D, E) == Divisor(CURVE, [(P, 1), (Q, 1)])
    assert gcd_div(D, D) == D
    assert gcd_div(D, Divisor(CURVE, [])).is_zero()


def test_gcd_div_laws():
    rng = random.Random(2)
    ps = pts(4, 3)
    for _ in range(20):
        def rnd():
            return Divisor(CURVE, [(P, rng.randrange(0, 3)) for P in ps])
        D, E, G = rnd(), rnd(), rnd()
        assert gcd_div(D, E) == gcd_div(E, D)
        assert gcd_div(D, gcd_div(E, G)) == gcd_div(gcd_div(D, E), G)
        assert gcd_div(D, D) == D
        assert gcd_div(D, E) <= D


def test_gcd_rejects_mixed_curves():
    other = HyperellipticCurve(F, [1, 1, 0, 0, 0, 1])
    P = CURVE.sample_point(random.Random(0))
    Q = other.sample_point(random.Random(0))
    with pytest.raises(CurveError):
        gcd_div(Divisor(CURVE, [(P, 1)]), Divisor(other, [(Q, 1)]))


def test_subdivisors_reduced_count():
    P, Q, R, S = pts(4, 4)
    D = Divisor(CURVE, [(P, 1), (Q, 1), (R, 1), (S, 1)])
    subs = list(D.subdivisors(2))
    assert len(subs) == comb(4, 2) == 6
    assert len(set(subs)) == 6
    for E in subs:
        assert E <= D and E.degree == 2


def test_subdivisors_multiplicity():
    P, = pts(1, 5)
    D = Divisor(CURVE, [(P, 2)])
    assert list(D.subdivisors(1)) == [Divisor(CURVE, [(P, 1)])]


def gen_fun_count(mults, n):
    # coefficient of x^n in prod (1 + x + ... + x^m)
    poly = [1]
    for m in mults:
        new = [0] * (len(poly) + m)
        for i, c in enumerate(poly):
            for j in range(m + 1):
                new[i + j] += c
        poly = new
    return poly[n] if n < len(poly) else 0


def test_subdivisors_generating_function_oracle():
    rng = random.Random(6)
    ps = pts(5, 7)
    for _ in range(15):
        mults = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
        D = Divisor(CURVE, list(zip(ps, mults)))
        total = D.degree
        assert total <= 12
        for n in range(total + 1):
            got = sum(1 for _ in D.subdivisors(n))
            assert got == gen_fun_count(mults, n)


def test_pullback_degrees_and_branching():
    rng = random.Random(8)
    # non-branch point
    P = CURVE.sample_point(rng)
    while not P.y:
        P = CURVE.sample_point(rng)
    D = pullback_x(CURVE, [(P.x, 1)])
    assert D.degree == 2
    sup = D.support()
    assert CURVE.involution(sup[0]) in sup
    # branch point x = 0
    D2 = pullback_x(CURVE, [(F.zero, 1)])
    assert D2.degree == 2 and D2.items[0][1] == 2
    # infinity of the odd model
    D3 = pullback_x(CURVE, [(INF, 1)])
    assert D3.degree == 2 and D3.items[0][0].kind == "inf"
    # degree doubles on random inputs
    for _ in range(20):
        p1 = [(F.rand(rng), rng.randrange(1, 3)) for _ in range(rng.randrange(1, 4))]
        deg = sum(m for _, m in p1)
        assert pullback_x(CURVE, p1).degree == 2 * deg


def test_pullback_needs_extension_when_nonresidue():
    # find x with f(x) a non-residue: pullback points live in F_p^2
    rng = random.Random(9)
    while True:
        x0 = F.rand(rng)
        z = CURVE.f(x0)
        if z and F.sqrt(z) is None:
            break
    D = pullback_x(CURVE, [(x0, 1)])
    assert D.field == ExtField(10007, 2)
    assert D.degree == 2


def test_hyperelliptic_reduce_pair_plus_point():
    P, Q = pts(2, 10)
    iP = CURVE.involution(P)
    D = Divisor(CURVE, [(P, 1), (iP, 1), (Q, 1)])
    hf = hyperelliptic_reduce(D)
    assert hf.k == 1
    assert hf.B == Divisor(CURVE, [(Q, 1)])


def test_hyperelliptic_reduce_weierstrass_double():
    W = type(CURVE.sample_point(random.Random(0))).affine(F, F.zero, F.zero)
    hf = hyperelliptic_reduce(Divisor(CURVE, [(W, 2)]))
    assert hf.k == 1 and hf.B.is_zero()
    hf3 = hyperelliptic_reduce(Divisor(CURVE, [(W, 3)]))
    assert hf3.k == 1 and hf3.B == Divisor(CURVE, [(W, 1)])


def test_hyperelliptic_reduce_conjugate_free():
    ps = pts(3, 11)
    D = Divisor(CURVE, [(P, 1) for P in ps])
    hf = hyperelliptic_reduce(D)
    assert hf.k == 0 and hf.B == D


def test_reduce_order_invariant():
    # k and B do not depend on the order the items are handed in
    rng = random.Random(12)
    for _ in range(10):
        P, Q = CURVE.sample_point(rng), CURVE.sample_point(rng)
        iP = CURVE.involution(P)
        if P == Q or iP == Q:
            continue
        a = hyperelliptic_reduce(Divisor(CURVE, [(P, 1), (iP, 1), (Q, 1)]))
        b = hyperelliptic_reduce(Divisor(CURVE, [(Q, 1), (iP, 1), (P, 1)]))
        assert a.k == b.k == 1 and a.B == b.B == Divisor(CURVE, [(Q, 1)])


def test_divisor_ordering_and_coercion():
    # points over F_p and F_p^2 coerce into the compositum and sort stably
    rng = random.Random(13)
    x0 = next(x for x in (F.rand(rng) for _ in range(100))
              if CURVE.f(x) and F.sqrt(CURVE.f(x)) is None)
    Dext = pullback_x(CURVE, [(x0, 1)])
    P = CURVE.sample_point(rng)
    D = Dext + Divisor(CURVE, [(P, 1)])
    assert D.degree == 3
    assert D.field.degree == 2
    assert D == Divisor(CURVE, list(D.items), field=D.field)


def test_divisor_json_roundtrip():
    rng = random.Random(14)
    P, Q = CURVE.sample_point(rng), CURVE.sample_point(rng)
    D = Divisor(CURVE, [(P, 2), (Q, 1), (CURVE.infinity_points()[0], 1)])
    blob = D.to_json()
    D2 = divisor_from_json(CURVE, blob)
    assert D2 == D
    # extension-field divisors round trip as well
    x0 = next(x for x in (F.rand(rng) for _ in range(100))
              if CURVE.f(x) and F.sqrt(CURVE.f(x)) is None)
    Dext = pullback_x(CURVE, [(x0, 1)])
    assert divisor_from_json(CURVE, Dext.to_json()) == Dext
    # quartic divisors too
    K = PlaneQuarticCurve(F, {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1})
    R = K.sample_point(rng)
    DK = Divisor(K, [(R, 2)])
    assert divisor_from_json(K, DK.to_json()) == DK
    # a degree or multiplicity that is no JSON integer is refused, not truncated
    with pytest.raises(FieldError):
        divisor_from_json(CURVE, [{"point": [0, 0], "ext_degree": 1.5, "mult": 2.7}])


def test_x_fibers_classification():
    P, = pts(1, 15)
    iP = CURVE.involution(P)
    W = type(P).affine(F, F.zero, F.zero)
    D = Divisor(CURVE, [(P, 2), (iP, 1), (W, 1)])
    fibers = x_fibers(CURVE, D)
    kinds = sorted(kind for _, kind, _ in fibers)
    assert kinds == ["branch", "pair"]
    for t0, kind, group in fibers:
        if kind == "pair":
            assert {m for _, m in group} == {1, 2}
