import random

import pytest

from wgauss.algebra import PrimeField
from wgauss.curves import CanonicalG4Curve, HyperellipticCurve, PlaneQuarticCurve
from wgauss.divisors import Divisor, hyperelliptic_reduce
from wgauss.sections import meet
from wgauss.spans import (
    NotSpecialError,
    ell,
    dim_complete,
    hyperplane_conditions,
    in_smooth_Wn,
    residual,
    span,
)
from helpers_rr import ell_function_space

F = PrimeField(10007)
HE = HyperellipticCurve(F, [0, -1, 0, 0, 0, 0, 0, 1])
KLEIN = PlaneQuarticCurve(F, {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1})
G4 = CanonicalG4Curve(F, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},
                      {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                       (0, 0, 0, 3): 1, (1, 1, 1, 0): 1})


def he_points(n, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        P = HE.sample_point(rng)
        if P.y and P not in out and HE.involution(P) not in out:
            out.append(P)
    return out


def test_pair_span_is_a_point():
    P, = he_points(1, 1)
    D = Divisor(HE, [(P, 1), (HE.involution(P), 1)])
    sp = span(D)
    assert sp.dim == 0
    assert ell(D) == 2 and dim_complete(D) == 1


def test_single_point_ell_one():
    for curve, seed in ((HE, 2), (KLEIN, 3), (G4, 4)):
        P = curve.sample_point(random.Random(seed))
        D = Divisor(curve, [(P, 1)])
        assert ell(D) == 1
        assert span(D).dim == 0


def test_weierstrass_triple_condition():
    W = type(HE.sample_point(random.Random(0))).affine(F, F.zero, F.zero)
    D = Divisor(HE, [(W, 3)])
    sp = span(D)
    assert sp.dim == 1  # order ceil(3/2) = 2 conditions on binary cubics
    # brute-force oracle at small p: count monomial forms vanishing enough
    Fs = PrimeField(11)
    Cs = HyperellipticCurve(Fs, [0, -1, 0, 0, 0, 0, 0, 1])
    Ws = type(W).affine(Fs, Fs.zero, Fs.zero)
    Ds = Divisor(Cs, [(Ws, 3)])
    sps = span(Ds)
    count = 0
    from itertools import product
    for h in product(range(11), repeat=3):
        if not any(h):
            continue
        sec = meet(Cs, [[Fs.elem(c) for c in h]], Fs, 12)
        if Ds <= sec:
            count += 1
    # h-space of dimension s has (p^s - 1) nonzero vectors
    assert count == 11 ** sps.s - 1


def test_quartic_two_point_span_is_line():
    rng = random.Random(5)
    P, Q = KLEIN.sample_point(rng), KLEIN.sample_point(rng)
    D = Divisor(KLEIN, [(P, 1), (Q, 1)])
    sp = span(D)
    assert sp.dim == 1
    assert sp.contains_vector(P.coords) and sp.contains_vector(Q.coords)


def test_g4_general_points_span_everything():
    pts = [G4.sample_point(random.Random(s)) for s in (11, 12, 13, 14)]
    D = Divisor(G4, [(P, 1) for P in pts])
    sp = span(D)
    assert sp.dim == 3 and sp.s == 0
    assert ell(D) == 1


def test_span_monotone_under_addition():
    rng = random.Random(6)
    for curve in (HE, KLEIN):
        for _ in range(10):
            P, Q, R = (curve.sample_point(rng) for _ in range(3))
            D = Divisor(curve, [(P, 1), (Q, 1)])
            bigger = span(D + Divisor(curve, [(R, 1)]))
            assert all(bigger.contains_vector(v) for v in span(D).subspace_basis())


def test_riemann_roch_identity():
    # ell(D) - s = deg D - g + 1 structurally
    rng = random.Random(7)
    g = HE.genus
    for _ in range(20):
        items = [(HE.sample_point(rng), rng.randrange(1, 3)) for _ in range(2)]
        D = Divisor(HE, items)
        sp = span(D)
        assert ell(D) - sp.s == D.degree - g + 1


def test_clifford_bound_on_special_divisors():
    rng = random.Random(8)
    checked = 0
    for _ in range(60):
        items = [(HE.sample_point(rng), 1) for _ in range(rng.randrange(1, 5))]
        D = Divisor(HE, items)
        if 0 < D.degree < 2 * HE.genus - 2 and span(D).s >= 1:
            assert dim_complete(D) * 2 < D.degree
            checked += 1
    assert checked > 5


def test_ell_matches_function_space_oracle():
    rng = random.Random(9)
    K, wps = HE.weierstrass_points()
    rational_wps = [P for P in wps if P.field.degree == 1]
    for _ in range(30):
        items = []
        deg = 0
        target = rng.randrange(1, 5)
        while deg < target:
            r = rng.random()
            if r < 0.12:
                P = HE.infinity_points()[0]
            elif r < 0.27 and rational_wps:
                P = rational_wps[rng.randrange(len(rational_wps))]
            else:
                P = HE.sample_point(rng)
            m = rng.randrange(1, 3)
            items.append((P, m))
            deg += m
        D = Divisor(HE, items)
        assert ell(D) == ell_function_space(HE, D)


def test_in_smooth_wn():
    P, Q = he_points(2, 10)
    assert in_smooth_Wn(Divisor(HE, [(P, 1), (Q, 1)]))
    assert not in_smooth_Wn(Divisor(HE, [(P, 1), (HE.involution(P), 1)]))
    assert in_smooth_Wn(Divisor(HE, [(P, 1)]))
    with pytest.raises(ValueError):
        in_smooth_Wn(Divisor(HE, [(P, 1)] ) * 3)  # degree 3 = g is fine; 4 is not
    with pytest.raises(ValueError):
        in_smooth_Wn(Divisor(HE, [(P, 4)]))


def sing_shift(curve, D, p):
    """D + p + iota(p): lands in the singular-locus preimage (ell >= 2)."""
    extra = Divisor(curve, [(p, 1), (curve.involution(p), 1)])
    return D + extra


def test_sing_shift_lands_in_singular_locus():
    rng = random.Random(11)
    # n = 2: D = 0, output p + iota(p) has ell = 2
    p = HE.sample_point(rng)
    out = sing_shift(HE, Divisor(HE, []), p)
    assert out.degree == 2 and ell(out) == 2
    # random D of degree n - 2 = 1: ell(D + p + iota p) >= 2 always
    for _ in range(20):
        D = Divisor(HE, [(HE.sample_point(rng), 1)])
        out = sing_shift(HE, D, HE.sample_point(rng))
        assert ell(out) >= 2


def test_sing_shift_injective_on_classes():
    rng = random.Random(12)
    p = HE.sample_point(rng)
    seen = {}
    for _ in range(15):
        D = Divisor(HE, [(HE.sample_point(rng), 1)])
        out = sing_shift(HE, D, p)
        form = hyperelliptic_reduce(out)
        key = (form.k, form.B)
        base = hyperelliptic_reduce(D)
        for other_key, other_base in seen.items():
            if key == other_key:
                assert (base.k, base.B) == other_base
        seen[key] = (base.k, base.B)


def test_residual_properties():
    rng = random.Random(13)
    P = HE.sample_point(rng)
    D = Divisor(HE, [(P, 1), (HE.involution(P), 1)])
    Fr = residual(D)
    assert Fr.degree == 2 * HE.genus - 2 - D.degree
    assert (D + Fr).degree == 2 * HE.genus - 2
    # the sum is a hyperplane section: some hyperplane contains its span
    assert span(D + Fr).s >= 1
    # quartic: two points -> remaining part of the line section, degree 2
    Pq, Qq = KLEIN.sample_point(rng), KLEIN.sample_point(rng)
    Dq = Divisor(KLEIN, [(Pq, 1), (Qq, 1)])
    Frq = residual(Dq)
    assert Frq.degree == 2
    assert Dq <= Dq + Frq
    with pytest.raises(NotSpecialError):
        residual(Divisor(KLEIN, [(Pq, 1), (Qq, 1), (KLEIN.sample_point(rng), 1),
                                 (KLEIN.sample_point(rng), 1)]))


def test_residual_resultant_oracle_quartic():
    # the residual of two quartic points is the rest of the line section
    rng = random.Random(14)
    P, Q = KLEIN.sample_point(rng), KLEIN.sample_point(rng)
    D = Divisor(KLEIN, [(P, 1), (Q, 1)])
    sp = span(D)
    sec = meet(KLEIN, sp.hyperplanes.rows[:1], sp.field, 12)
    assert residual(D) == sec - D


def test_hyperplane_section_degrees():
    rng = random.Random(15)
    for curve, expected in ((HE, 4), (KLEIN, 4), (G4, 6)):
        for _ in range(3):
            h = [curve.field.rand(rng) for _ in range(curve.genus)]
            if not any(h):
                continue
            sec = meet(curve, [h], curve.field, 12)
            assert sec.degree == expected


def test_span_equality_agrees_with_plucker():
    rng = random.Random(24)
    spans = []
    for _ in range(8):
        P, Q = KLEIN.sample_point(rng), KLEIN.sample_point(rng)
        if P == Q:
            continue
        spans.append(span(Divisor(KLEIN, [(P, 1), (Q, 1)])))
    for a in spans:
        for b in spans:
            assert (a == b) == (a.plucker() == b.plucker())


def test_asymmetric_pair_multiplicities():
    # 2P + iota(P) is one pencil plus a base point: ell = 2 via max(a, b)
    P, = he_points(1, 26)
    iP = HE.involution(P)
    D = Divisor(HE, [(P, 2), (iP, 1)])
    assert ell(D) == 2
    assert ell(D) == ell_function_space(HE, D)
    form = hyperelliptic_reduce(D)
    assert form.k == 1 and form.B == Divisor(HE, [(P, 1)])


def test_ell_even_model_with_infinity():
    curve = HyperellipticCurve(F, [1, 1, 0, 0, 0, 0, 0, 0, 1])  # lc = 1: split infinity
    inf1, inf2 = curve.infinity_points()
    rng = random.Random(25)
    P = curve.sample_point(rng)
    for D in (Divisor(curve, [(inf1, 1)]),
              Divisor(curve, [(inf1, 1), (inf2, 1)]),
              Divisor(curve, [(inf1, 1), (P, 1)]),
              Divisor(curve, [(inf1, 2), (P, 1)])):
        assert ell(D) == ell_function_space(curve, D)
    # the two infinity points are conjugate: their sum moves in the pencil
    assert ell(Divisor(curve, [(inf1, 1), (inf2, 1)])) == 2


def test_spans_work_over_qq():
    C = HyperellipticCurve(F, [0, -1, 0, 0, 0, 0, 0, 1])
    W = type(C.infinity_points()[0]).affine(F, F.elem(0), F.elem(0))
    D = Divisor(C, [(W, 3)])
    assert span(D).dim == 1
    assert ell(D) == 2
    W1 = type(W).affine(F, F.elem(1), F.elem(0))
    assert ell(Divisor(C, [(W, 1), (W1, 1)])) == 1
