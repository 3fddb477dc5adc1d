import random

import pytest

from wgauss.algebra import (
    PrimeField,
    SingularSeedError,
    TruncatedSeries,
    series_solve,
)

F = PrimeField(10007)


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
