import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgauss.algebra import ExtField, MatrixExact, Poly, PrimeField, plucker
from wgauss.algebra.linalg import VectorTable, bareiss_det

F = PrimeField(10007)


def rand_matrix(field, m, n, rng):
    return MatrixExact(field, [[field.rand(rng) for _ in range(n)] for _ in range(m)])


def test_identity_rank_and_kernel():
    m = MatrixExact.identity(F, 3)
    assert m.rank() == 3 and m.kernel_basis() == [] and m.rref()[0] == m


def test_zero_matrix():
    m = MatrixExact(F, [[F.zero] * 4 for _ in range(3)])
    assert m.rank() == 0
    assert len(m.kernel_basis()) == 4


def test_planted_repeated_rows():
    rng = random.Random(30)
    basis = rand_matrix(F, 2, 5, rng)
    rows = [basis.rows[0], basis.rows[1],
            tuple(a + b for a, b in zip(basis.rows[0], basis.rows[1])),
            basis.rows[0]]
    m = MatrixExact(F, rows)
    assert m.rank() == 2


def test_rank_plus_nullity():
    rng = random.Random(31)
    for _ in range(20):
        m = rand_matrix(F, rng.randrange(1, 5), rng.randrange(1, 6), rng)
        kernel = m.kernel_basis()
        assert m.rank() + len(kernel) == m.ncols
        for v in kernel:
            assert all(not c for c in m.apply(v))


def test_rref_idempotent():
    rng = random.Random(32)
    for _ in range(10):
        m = rand_matrix(F, 4, 6, rng)
        r1, _ = m.rref()
        r2, _ = r1.rref()
        assert r1 == r2


def test_det_and_solve_over_qq():
    m = MatrixExact(F, [[1, 2], [3, 4]])
    assert m.det() == F.elem(-2)


def _leibniz_det(rows, zero, one):
    n = len(rows)
    acc = zero
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        acc = acc + term if sign == 1 else acc - term
    return acc


def test_bareiss_det_matches_leibniz_over_fields_and_fx():
    rng = random.Random(33)
    F7 = PrimeField(7)
    for n in range(1, 5):
        for _ in range(10):
            # sparse entries, so zero pivots and row swaps occur
            rows = [[F7.rand(rng) if rng.random() < 0.5 else F7.zero for _ in range(n)]
                    for _ in range(n)]
            assert MatrixExact(F7, rows).det() == _leibniz_det(rows, F7.zero, F7.one)
            prows = [[Poly(F7, [F7.rand(rng) for _ in range(rng.randrange(3))])
                      for _ in range(n)] for _ in range(n)]
            one = Poly.one(F7)
            assert bareiss_det(prows, one) == _leibniz_det(prows, Poly.zero(F7), one)
    assert MatrixExact(F, []).det() == F.one


def test_plucker_axis_plane():
    m = MatrixExact(F, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert plucker(m) == (F.one, F.zero, F.zero, F.zero, F.zero, F.zero)


def test_plucker_invariant_under_row_operations():
    rng = random.Random(33)
    for _ in range(20):
        m = rand_matrix(F, 2, 4, rng)
        if m.rank() != 2:
            continue
        a = rng.randrange(1, 10007)
        rows = [tuple(c * a for c in m.rows[0]),
                tuple(x + y for x, y in zip(m.rows[1], m.rows[0]))]
        m2 = MatrixExact(F, rows)
        assert plucker(m) == plucker(m2)


def test_plucker_quadratic_relation():
    rng = random.Random(34)
    for _ in range(20):
        m = rand_matrix(F, 2, 4, rng)
        if m.rank() != 2:
            continue
        p12, p13, p14, p23, p24, p34 = plucker(m)
        assert not (p12 * p34 - p13 * p24 + p14 * p23)


def test_plucker_complete_invariant_vs_rref():
    rng = random.Random(35)
    mats = [rand_matrix(F, 2, 4, rng) for _ in range(12)]
    mats = [m for m in mats if m.rank() == 2]
    for a in mats:
        for b in mats:
            same_space = a.row_space_matrix() == b.row_space_matrix()
            assert same_space == (plucker(a) == plucker(b))


def test_plucker_rejects_dependent_rows():
    m = MatrixExact(F, [[1, 2, 3], [2, 4, 6]])
    with pytest.raises(ValueError):
        plucker(m)


# residues, Zech logs and coefficient tuples: the three kernel codings
ROW_FIELDS = [PrimeField(7), ExtField(7, 3), ExtField(7, 6)]
BIG = ROW_FIELDS[-1]
# few distinct entries, zero among them, so that dependent rows are common
ROW_ENTRIES = {K: [K.zero, K.one, -K.one] + list(K.elements())[-2:] for K in ROW_FIELDS[:2]}
ROW_ENTRIES[BIG] = [BIG.zero, BIG.one, -BIG.one, BIG.gen, BIG.gen ** 5 + BIG.elem(3)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_in_row_space_matches_stacked_rank(data):
    K = data.draw(st.sampled_from(ROW_FIELDS))
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 5))
    entry = st.sampled_from(ROW_ENTRIES[K])

    def combination(rows):
        cs = [data.draw(entry) for _ in rows]
        return [sum((c * r[j] for c, r in zip(cs, rows)), K.zero) for j in range(n)]

    rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    if rows and data.draw(st.booleans()):  # a dependent row
        rows.append(combination(rows))
    base = MatrixExact(K, rows or [[K.zero] * n])
    vecs, in_span = [], []
    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(["zero", "span", "free"]))
        if kind == "zero":
            vecs.append([K.zero] * n)
        elif kind == "span" and rows:
            vecs.append(combination(rows))
        else:
            vecs.append([data.draw(entry) for _ in range(n)])
            continue
        in_span.append(len(vecs) - 1)
    rank = base.rank()
    want = {j for j, v in enumerate(vecs)
            if MatrixExact(K, list(base.rows) + [v]).rank() == rank}
    table = VectorTable(K, vecs)
    assert table.in_row_space(base) == want
    assert table.in_row_space(base) == want  # now from the cached RREF
    assert set(in_span) <= want
    if K is not BIG:  # the same vectors and rows mapped into a larger field
        assert table.map_field(BIG).in_row_space(base.map_field(BIG)) == want
