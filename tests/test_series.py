import random

import pytest

from wgauss.algebra import (
    ExtField,
    PrimeField,
    SingularSeedError,
    TruncatedSeries,
    series_solve,
)

F = PrimeField(10007)
# one field per kernel coding: residues, Zech logs, coefficient tuples
CODINGS = [F, ExtField(7, 3), ExtField(10007, 2)]


def test_binomial_series():
    # y^2 = 1 + t at (0, 1): 1 + t/2 - t^2/8
    eq = {(0, 2): F.elem(-1), (0, 0): F.elem(1), (1, 0): F.elem(1)}
    y, = series_solve([eq], [F.one], 3, F)
    assert y.prec == 3
    assert y.coefficient(0) == 1
    assert y.coefficient(1) == F.one / 2
    assert y.coefficient(2) == -F.one / 8


def test_residual_zero_random_seeds():
    rng = random.Random(21)
    for _ in range(15):
        # y^2 = f(t) with f(0) a nonzero square
        c0 = F.rand(rng)
        while not c0:
            c0 = F.rand(rng)
        c0 = c0 * c0
        c1, c2, c3 = (F.rand(rng) for _ in range(3))
        y0 = F.sqrt(c0)
        eq = {(0, 2): F.elem(-1), (0, 0): c0, (1, 0): c1, (2, 0): c2, (3, 0): c3}
        N = 8
        y, = series_solve([eq], [y0], N, F)
        assert y.prec == N
        t = TruncatedSeries(F, [F.zero, F.one], N)
        res = TruncatedSeries.zero(F, N)
        for (i, j), c in eq.items():
            res = res + t ** i * y ** j * c
        assert res.is_zero()


def test_doubling_consistency():
    eq = {(0, 2): F.elem(-1), (0, 0): F.elem(4), (1, 0): F.elem(3), (2, 0): F.elem(5)}
    y0 = F.elem(2)
    y8, = series_solve([eq], [y0], 8, F)
    y4, = series_solve([eq], [y0], 4, F)
    assert y8.truncate(4) == y4


def test_singular_seed_rejected():
    eq = {(0, 2): F.elem(1), (1, 0): F.elem(-1)}  # y^2 = t at (0,0)
    with pytest.raises(SingularSeedError):
        series_solve([eq], [F.zero], 4, F)


def test_bad_seed_rejected():
    eq = {(0, 2): F.elem(-1), (0, 0): F.elem(2)}
    with pytest.raises(SingularSeedError):
        series_solve([eq], [F.elem(5)], 4, F)


def test_laurent_inverse():
    # 1 / (t^2 (1 + t)) = t^-2 - t^-1 + 1 - t + ...
    s = TruncatedSeries(F, [1, 1], 6, offset=2)
    inv = s.inverse()
    assert inv.valuation() == -2
    assert inv.coefficient(-2) == 1
    assert inv.coefficient(-1) == -1
    assert inv.coefficient(0) == 1
    prod = s * inv
    assert prod.coefficient(0) == 1
    assert all(not prod.coefficient(i) for i in range(1, prod.prec))


def test_mul_precision_tracking():
    a = TruncatedSeries(F, [1, 1], 3, offset=1)   # t + t^2 + O(t^3)
    b = TruncatedSeries(F, [1], 2, offset=0)      # 1 + O(t^2)
    c = a * b
    assert c.prec == 3  # min(1 + 2, 0 + 3)
    assert c.coefficient(1) == 1


def test_system_solve_two_vars():
    # y^2 = 1 + t, z = y + t z^2 near (y, z) = (1, 1)
    eq1 = {(0, 0, 0): F.elem(1), (1, 0, 0): F.elem(1), (0, 2, 0): F.elem(-1)}
    eq2 = {(0, 1, 0): F.elem(1), (1, 0, 2): F.elem(1), (0, 0, 1): F.elem(-1)}
    y, z = series_solve([eq1, eq2], [F.one, F.one], 5, F)
    assert y.prec == z.prec == 5
    assert y.coefficient(1) == F.one / 2
    # check residuals
    t = TruncatedSeries(F, [F.zero, F.one], 5)
    r1 = y * y - (1 + t)
    assert r1.is_zero()
    r2 = y + t * z * z - z
    assert r2.is_zero()


def test_system_singular_jacobian_rejected():
    # y^2 = t, z = y at (y, z) = (0, 0): the seed solves the system, but
    # the Jacobian in (y, z) is [[0, 0], [-1, 1]]
    eq1 = {(0, 2, 0): F.one, (1, 0, 0): F.elem(-1)}
    eq2 = {(0, 0, 1): F.one, (0, 1, 0): F.elem(-1)}
    with pytest.raises(SingularSeedError):
        series_solve([eq1, eq2], [F.zero, F.zero], 4, F)


def test_system_bad_seed_rejected():
    eq1 = {(0, 1, 0): F.one, (0, 0, 0): F.elem(-2)}
    eq2 = {(0, 0, 1): F.one, (1, 0, 0): F.one}
    with pytest.raises(SingularSeedError):
        series_solve([eq1, eq2], [F.elem(3), F.zero], 4, F)


@pytest.mark.parametrize("K", [PrimeField(11)] + CODINGS, ids=repr)
def test_equal_series_compare_equal_however_made(K):
    T = TruncatedSeries
    one, s = T(K, [1], 4), T(K, [1, 2], 4)
    assert one == T(K, [1, 0, 0], 4) == T(K, [0, 1, 0], 4, offset=-1)
    assert one + T.zero(K, 4) == one == T.zero(K, 4) + one
    assert s * one == s == one * s
    assert s - T.zero(K, 4) == s and (s - s) == T.zero(K, 4)
    assert T(K, [1, 2, 0, 5], 6).truncate(3) == T(K, [1, 2], 3)
    assert T(K, [0, 0], 4) == T.zero(K, 4) == s * 0
    assert one != T(K, [1], 5) and one != T(K, [2], 4) and one != one.shift(1)


# -- the series arithmetic against schoolbook arithmetic on element lists ----
# A reference series is (offset, prec, [coefficients of t^offset .. t^(prec-1)])
# with offset its valuation, or offset = prec when it is zero to precision.

def _norm(K, o, p, cs):
    cs = list(cs[:max(0, p - o)])
    i = next((i for i, c in enumerate(cs) if c), None)
    if i is None:
        return p, p, []
    return o + i, p, cs[i:] + [K.zero] * (p - o - len(cs))


def _at(K, a, i):
    o, p, cs = a
    return cs[i - o] if o <= i < p else K.zero


def _ref_sum(K, a, b, sign):
    p = min(a[1], b[1])
    o = min(a[0], b[0], p)
    return _norm(K, o, p, [_at(K, a, i) + _at(K, b, i) * sign for i in range(o, p)])


def _ref_mul(K, a, b):
    (oa, pa, ca), (ob, pb, cb) = a, b
    o, p = oa + ob, min(oa + pb, ob + pa)
    out = [K.zero] * max(0, p - o)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            if i + j < len(out):
                out[i + j] = out[i + j] + x * y
    return _norm(K, o, p, out)


def _ref_inverse(K, a):
    v, p, cs = a
    n = p - v
    inv0 = K.one / cs[0]
    out = [inv0] + [K.zero] * (n - 1)
    for k in range(1, n):
        s = K.zero
        for i in range(1, k + 1):
            s = s + cs[i] * out[k - i]
        out[k] = -inv0 * s
    return _norm(K, -v, n - v, out)


def _ref_pow(K, a, e):
    if e < 0:
        a, e = _ref_inverse(K, a), -e
    r = a
    for _ in range(e - 1):
        r = _ref_mul(K, r, a)
    return r


def _check(K, s, a):
    o, p, cs = a
    assert s.prec == p and s.valuation() == (o if cs else None)
    assert [s.coefficient(i) for i in range(min(o, s.offset), p)] == \
        [_at(K, a, i) for i in range(min(o, s.offset), p)]
    assert s == TruncatedSeries(K, cs, p, o)


def _random_series(K, rng, laurent):
    o = rng.randrange(-3, 4) if laurent else rng.randrange(0, 3)
    cs = [K.zero if rng.random() < 0.3 else K.rand(rng) for _ in range(rng.randrange(0, 7))]
    p = o + len(cs) + rng.randrange(0, 4)
    return TruncatedSeries(K, cs, p, o), _norm(K, o, p, cs)


@pytest.mark.parametrize("K", CODINGS, ids=repr)
def test_arithmetic_matches_schoolbook_on_elements(K):
    rng = random.Random(f"series-{K!r}")
    for _ in range(60):
        (s, a), (u, b) = (_random_series(K, rng, rng.random() < 0.5) for _ in range(2))
        _check(K, s + u, _ref_sum(K, a, b, 1))
        _check(K, s - u, _ref_sum(K, a, b, -1))
        _check(K, -s, _ref_sum(K, _norm(K, 0, a[1], []), a, -1))
        _check(K, s * u, _ref_mul(K, a, b))
        c = K.rand(rng) if rng.random() < 0.8 else K.zero
        _check(K, s * c, _norm(K, a[0], a[1], [x * c for x in a[2]]))
        _check(K, 3 * s, _norm(K, a[0], a[1], [x * 3 for x in a[2]]))
        _check(K, 1 + s, _ref_sum(K, _norm(K, 0, a[1], [K.one]), a, 1))
        _check(K, 1 - s, _ref_sum(K, _norm(K, 0, a[1], [K.one]), a, -1))
        m = rng.randrange(-2, 8)
        _check(K, s.truncate(m), _norm(K, a[0], min(m, a[1]), a[2]))
        _check(K, s.shift(m), _norm(K, a[0] + m, a[1] + m, a[2]))
        if a[2]:
            for e in (1, 2, 3):
                _check(K, s ** e, _ref_pow(K, a, e))
            _check(K, s.inverse(), _ref_inverse(K, a))
            _check(K, s ** -2, _ref_pow(K, a, -2))
        else:
            with pytest.raises(ZeroDivisionError):
                s.inverse()
