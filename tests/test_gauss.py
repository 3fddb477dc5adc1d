import gc
import random
from math import comb

import pytest

from wgauss.algebra import PrimeField
from wgauss.curves import CanonicalG4Curve, HyperellipticCurve, PlaneQuarticCurve
from wgauss.divisors import Divisor, gcd_div
from wgauss.gauss import (
    expected_generic_fiber,
    fiber,
    gauss_eval,
    hyperelliptic_fiber_prediction,
    in_multiple_locus,
    in_Rnk,
    intersection_degree,
    intersection_divisor,
    rnk_flag,
)
from wgauss.linsys import find_g13
from wgauss.sections import UnsupportedConfiguration
from wgauss.spans import (
    LinearSpan,
    NotInSmoothLocusError,
    ell,
    hyperplane_section,
    in_smooth_Wn,
    span,
)

F = PrimeField(10007)
HE = HyperellipticCurve(F, [0, -1, 0, 0, 0, 0, 0, 1])
KLEIN = PlaneQuarticCurve(F, {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1})
G4 = CanonicalG4Curve(F, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},
                      {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                       (0, 0, 0, 3): 1, (1, 1, 1, 0): 1})


def smooth_divisor(curve, n, rng):
    while True:
        items = {}
        while sum(items.values()) < n:
            P = curve.sample_point(rng)
            items[P] = items.get(P, 0) + 1
        D = Divisor(curve, list(items.items()))
        if D.degree == n and in_smooth_Wn(D):
            return D


def test_gauss_eval_n1_is_canonical_point():
    rng = random.Random(1)
    P = HE.sample_point(rng)
    W = gauss_eval(Divisor(HE, [(P, 1)]))
    assert W.dim == 0
    assert W.contains_vector(HE.canonical_coords(P).coords)


def test_gauss_eval_conjugation_invariance():
    rng = random.Random(2)
    for _ in range(10):
        D = smooth_divisor(HE, 2, rng)
        items = [(HE.involution(P), m) for P, m in D.items]
        Dp = Divisor(HE, items)
        assert gauss_eval(D) == gauss_eval(Dp)


def test_gauss_eval_rejects_singular_locus():
    rng = random.Random(3)
    P = HE.sample_point(rng)
    D = Divisor(HE, [(P, 1), (HE.involution(P), 1)])
    with pytest.raises(NotInSmoothLocusError):
        gauss_eval(D)


def test_quartic_gauss_is_the_line():
    rng = random.Random(4)
    P, Q = KLEIN.sample_point(rng), KLEIN.sample_point(rng)
    W = gauss_eval(Divisor(KLEIN, [(P, 1), (Q, 1)]))
    assert W.dim == 1
    assert W.contains_vector(P.coords)
    assert W.contains_vector(Q.coords)


def test_intersection_divisor_hyperelliptic_conjugate_fill():
    rng = random.Random(5)
    D = smooth_divisor(HE, 2, rng)
    W = gauss_eval(D)
    WC = intersection_divisor(W)
    expect = D
    for P, m in D.items:
        expect = expect + Divisor(HE, [(HE.involution(P), m)])
    assert WC == expect


def test_intersection_divisor_quartic_point():
    # n = 1 on the quartic: W is a point, cut by two independent lines
    rng = random.Random(55)
    P = KLEIN.sample_point(rng)
    W = gauss_eval(Divisor(KLEIN, [(P, 1)]))
    WC = intersection_divisor(W)
    assert WC.mult_of(P) >= 1
    assert WC.degree >= 1
    # generically the gcd of two transverse line sections is just the point
    assert WC.degree <= 2


def test_intersection_divisor_quartic_bezout():
    rng = random.Random(6)
    D = smooth_divisor(KLEIN, 2, rng)
    W = gauss_eval(D)
    WC = intersection_divisor(W)
    assert WC.degree == 4
    assert D <= WC


def test_intersection_divisor_g4_identity():
    rng = random.Random(7)
    for _ in range(5):
        D = smooth_divisor(G4, 2, rng)
        W = gauss_eval(D)
        assert intersection_divisor(W) == D


def _wc_curve(name):
    """A hyperelliptic curve over F_11, Klein over F_13, or a random smooth
    genus-4 curve "g4-<p>-<quadric type>"."""
    if name == "he-11":
        return HyperellipticCurve(PrimeField(11), [0, -1, 0, 0, 0, 0, 0, 1])
    if name == "klein-13":
        return PlaneQuarticCurve(PrimeField(13), {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1})
    from test_curves import _gram_kind, _random_g4
    _, p, kind = name.split("-")
    return _random_g4(int(p), kind, random.Random(f"wc-{name}"), kind_of=_gram_kind)


def _random_spans(curve, r, rng, count):
    """``count`` spans cut by r independent hyperplanes: spans of random
    divisors of degree g - r (the first with a doubled point when g - r > 1),
    then random subspaces."""
    F, g = curve.field, curve.genus
    out = []
    while len(out) < count // 2:
        pts = [curve.sample_point(rng) for _ in range(g - r)]
        if not out and g - r > 1:
            pts[1] = pts[0]
        D = Divisor(curve, [(P, 1) for P in pts])
        W = span(D)
        if W.s == r:
            out.append((D, W))
    while len(out) < count:
        W = LinearSpan(curve, F, [[F.rand(rng) for _ in range(g)] for _ in range(r)])
        if W.s == r:
            out.append((None, W))
    return out


@pytest.mark.parametrize("name", ["he-11", "klein-13"] + [
    f"g4-{p}-{kind}" for p in (7, 11) for kind in ("split", "nonsplit", "cone")])
def test_intersection_divisor_is_the_gcd_of_its_hyperplane_sections(name):
    curve = _wc_curve(name)
    rng = random.Random(f"wc-spans-{name}")
    r_supported = (1, 2)   # a hyperplane and a codimension-2 space, on every model
    for r in r_supported:
        for D, W in _random_spans(curve, r, rng, 6):
            rows = W.hyperplanes.rows
            want = hyperplane_section(curve, rows[0], field=W.field)
            for h in rows[1:]:
                want = gcd_div(want, hyperplane_section(curve, h, field=W.field))
            WC = intersection_divisor(W)
            assert WC == want
            assert D is None or D <= WC


def test_fiber_cardinalities_all_models():
    rng = random.Random(8)
    # hyperelliptic: 2^n
    for n in (1, 2):
        D = smooth_divisor(HE, n, rng)
        rep = fiber(gauss_eval(D))
        if not (rep.flags["nonreduced"] or rep.flags["weierstrass"]):
            assert rep.cardinality == 2 ** n
        assert D in rep.fiber
    # plane quartic: 6
    D = smooth_divisor(KLEIN, 2, rng)
    rep = fiber(gauss_eval(D))
    if not rep.flags["nonreduced"]:
        assert rep.cardinality == 6
    # genus 4: singleton
    D = smooth_divisor(G4, 2, rng)
    rep = fiber(gauss_eval(D))
    assert rep.cardinality == 1 and rep.fiber == [D]


def test_fiber_members_all_verify():
    rng = random.Random(9)
    D = smooth_divisor(HE, 2, rng)
    W = gauss_eval(D)
    rep = fiber(W)
    for E in rep.fiber:
        assert ell(E) == 1
        assert span(E) == W
    assert rep.cardinality <= comb(rep.WC.degree, 2)


def test_fiber_takes_no_span(monkeypatch):
    from wgauss import gauss, spans
    rng = random.Random(9)
    W = gauss_eval(smooth_divisor(G4, 3, rng))
    real, calls = spans.span, []

    def counted(D):
        calls.append(D)
        return real(D)

    monkeypatch.setattr(spans, "span", counted)   # ell(E) reads it
    monkeypatch.setattr(gauss, "span", counted)
    rep = fiber(W)
    assert rep.cardinality >= 1
    assert calls == []


def _through_infinity():
    """inf + P on the odd model: (W . C) = 2 inf + P + iota(P)."""
    rng = random.Random(56)
    P = HE.sample_point(rng)
    while not P.y:
        P = HE.sample_point(rng)
    inf = HE.infinity_points()[0]
    return Divisor(HE, [(inf, 1), (P, 1)])


EVEN = HyperellipticCurve(F, [1, 1, 0, 0, 0, 0, 0, 0, 1])  # genus 3, two infs


def _even_model():
    """inf1 + P on the even model: (W . C) = inf1 + inf2 + P + iota(P)."""
    inf1, _ = EVEN.infinity_points()
    rng = random.Random(57)
    P = EVEN.sample_point(rng)
    while not P.y:
        P = EVEN.sample_point(rng)
    return Divisor(EVEN, [(inf1, 1), (P, 1)])


def _double_point(curve, rng, extra=0):
    """2P plus ``extra`` further points: a non-reduced (W . C)."""
    P = curve.sample_point(rng)
    while curve.model == "hyperelliptic" and curve.is_weierstrass(P):
        P = curve.sample_point(rng)
    return Divisor(curve, [(P, 2)] + [(curve.sample_point(rng), 1) for _ in range(extra)])


FIBER_GUARD = {   # name -> divisors D whose fibers over span(D) are compared
    "he-odd": lambda rng: [smooth_divisor(HE, 2, rng), _double_point(HE, rng),
                           _through_infinity()],
    "he-even": lambda rng: [smooth_divisor(EVEN, 2, rng), _double_point(EVEN, rng),
                            _even_model()],
    "klein": lambda rng: [smooth_divisor(KLEIN, 2, rng), _double_point(KLEIN, rng)],
    "g4": lambda rng: [smooth_divisor(G4, 3, rng), smooth_divisor(G4, 2, rng),
                       _double_point(G4, rng, extra=1)],
}


@pytest.mark.parametrize("name", sorted(FIBER_GUARD))
def test_fiber_by_rank_matches_the_span_test(name):
    """The rank walk keeps exactly the subdivisors E of (W . C) with
    ell(E) = 1 and span(E) = W, in subdivisor order."""
    seen = {"nonreduced": False, "weierstrass": False}
    for D in FIBER_GUARD[name](random.Random(14)):
        W = gauss_eval(D)
        rep = fiber(W)
        want = [E for E in rep.WC.subdivisors(D.degree) if ell(E) == 1 and span(E) == W]
        assert rep.fiber == want
        assert all(span(E) == W for E in rep.fiber)
        assert D in rep.fiber
        for flag, on in rep.flags.items():
            seen[flag] |= on
    assert seen["nonreduced"]
    assert seen["weierstrass"] == (name == "he-odd")


def test_fiber_frees_its_walk_on_return():
    # no reference cycle keeps the walk's prefixes and divisors alive until
    # the next cyclic collection; the members keep the span test's order
    for name in ("g4", "he-odd"):
        for D in FIBER_GUARD[name](random.Random(14)):
            W = gauss_eval(D)
            gc.collect()
            gc.disable()
            try:
                rep = fiber(W)
                assert gc.collect() == 0
            finally:
                gc.enable()
            assert rep.fiber == [E for E in rep.WC.subdivisors(D.degree)
                                 if ell(E) == 1 and span(E) == W]


def _degree_guard(name, rng):
    """The spaces W whose (W . C) is compared with ``intersection_degree``:
    spans of divisors, then random spaces of codimension 1 and 2."""
    if name.startswith("he"):
        curve = HE if name == "he-odd" else EVEN
        P = smooth_divisor(curve, 1, rng).support()[0]
        named = FIBER_GUARD[name](rng) + [Divisor(curve, [(P, 1), (curve.involution(P), 1)])]
        if curve is HE:   # (0, 0) is a Weierstrass point of y^2 = x^7 - x
            weier = HE.points_above_x(F.zero, F)[0]
            named += [Divisor(HE, [(weier, 1)]), Divisor(HE, [(weier, 1), (P, 1)])]
    elif name == "klein":
        named = FIBER_GUARD[name](rng) + [smooth_divisor(KLEIN, 1, rng)]
    elif name == "g4":
        L = find_g13(G4, seed=5)   # its members span trisecant lines
        named = FIBER_GUARD[name](rng) + [_double_point(G4, rng)] + [
            L.member((1, j)) for j in range(3)]
    else:
        named = []
    curve = named[0].curve if named else _wc_curve(name)
    rand = [W for r in (1, 2) for _, W in _random_spans(curve, r, rng, 4)]
    return [span(D) for D in named] + rand


@pytest.mark.parametrize("name", ["he-odd", "he-even", "klein", "g4", "g4-11-cone"])
def test_intersection_degree_is_the_degree_of_the_intersection_divisor(name):
    seen = {"nonreduced": False, "weierstrass": False, "degrees": set()}
    for W in _degree_guard(name, random.Random(f"degree-{name}")):
        WC = intersection_divisor(W)
        assert intersection_degree(W) == WC.degree
        seen["nonreduced"] |= not WC.is_reduced()
        seen["weierstrass"] |= any(W.curve.model == "hyperelliptic" and W.curve.is_weierstrass(P)
                                   for P in WC.support())
        seen["degrees"].add(WC.degree)
    assert seen["nonreduced"]
    assert seen["weierstrass"] == (name == "he-odd")
    assert {"he-odd": {2, 4}, "he-even": {2, 4}, "klein": {0, 1, 4},
            "g4": {2, 3, 6}, "g4-11-cone": {2, 6}}[name] <= seen["degrees"]


def test_intersection_degree_raises_where_the_divisor_does():
    P = G4.sample_point(random.Random(17))
    for W in (span(Divisor(G4, [(P, 1)])), LinearSpan(G4, F, []), LinearSpan(HE, F, [])):
        with pytest.raises(UnsupportedConfiguration):
            intersection_divisor(W)
        with pytest.raises(UnsupportedConfiguration):
            intersection_degree(W)


def test_expected_generic_fiber():
    assert expected_generic_fiber(HE, 2) == 4
    assert expected_generic_fiber(HE, 1) == 2
    assert expected_generic_fiber(KLEIN, 2) == comb(4, 2) == 6
    assert expected_generic_fiber(G4, 2) == 1
    assert expected_generic_fiber(G4, 3) == comb(6, 3) == 20
    g5 = HyperellipticCurve(F, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    assert g5.genus == 5
    assert expected_generic_fiber(g5, 3) == 8
    with pytest.raises(ValueError):
        expected_generic_fiber(HE, 3)


def test_prediction_matches_fiber_exactly():
    rng = random.Random(10)
    for _ in range(15):
        D = smooth_divisor(HE, 2, rng)
        rep = fiber(gauss_eval(D))
        pred, strict = hyperelliptic_fiber_prediction(D)
        assert sorted(repr(e) for e in pred) == sorted(repr(e) for e in rep.fiber)
        assert set(map(repr, pred)) == set(map(repr, rep.fiber))
        if strict:
            assert rep.cardinality < 4
        else:
            assert rep.cardinality == 4


def test_prediction_degenerate_cases():
    rng = random.Random(11)
    # Weierstrass support
    W = type(HE.sample_point(rng)).affine(F, F.zero, F.zero)
    P = HE.sample_point(rng)
    D = Divisor(HE, [(W, 1), (P, 1)])
    pred, strict = hyperelliptic_fiber_prediction(D)
    assert strict and len(pred) <= 2
    rep = fiber(gauss_eval(D))
    assert rep.cardinality == len(pred) < 4
    assert rep.flags["weierstrass"]
    # non-reduced
    D2 = Divisor(HE, [(P, 2)])
    pred2, strict2 = hyperelliptic_fiber_prediction(D2)
    assert strict2
    rep2 = fiber(gauss_eval(D2))
    assert rep2.cardinality == len(pred2) <= 2
    assert rep2.flags["nonreduced"]


def test_fiber_through_infinity():
    # divisor containing the odd-model infinity point (a Weierstrass point)
    D = _through_infinity()
    inf = HE.infinity_points()[0]
    assert in_smooth_Wn(D)
    rep = fiber(gauss_eval(D))
    assert rep.WC.degree == 4
    assert rep.WC.mult_of(inf) == 2  # ramified fill-in at the branch point
    assert rep.flags["weierstrass"]
    pred, strict = hyperelliptic_fiber_prediction(D)
    assert strict and rep.cardinality == len(pred) == 2
    assert D in rep.fiber


def test_fiber_even_model():
    inf1, inf2 = EVEN.infinity_points()
    # infinity pair behaves like any conjugate pair: not in the smooth locus
    assert not in_smooth_Wn(Divisor(EVEN, [(inf1, 1), (inf2, 1)]))
    D = _even_model()
    assert in_smooth_Wn(D)
    rep = fiber(gauss_eval(D))
    assert rep.WC.degree == 4
    assert rep.WC.mult_of(inf2) == 1
    if not rep.flags["nonreduced"]:
        assert rep.cardinality == 4


def test_multiple_locus_hyperelliptic_everything():
    rng = random.Random(12)
    for _ in range(5):
        D = smooth_divisor(HE, 2, rng)
        assert in_multiple_locus(D)


def test_multiple_locus_g4():
    rng = random.Random(13)
    # generic divisors are not multiple
    for _ in range(5):
        D = smooth_divisor(G4, 2, rng)
        assert not in_multiple_locus(D)
    # two points of a trisecant member are
    L = find_g13(G4, seed=5)
    member = L.member((1, 3))
    pts = member.support()
    D = Divisor(G4, [(pts[0], 1), (pts[1], 1)])
    if in_smooth_Wn(D):
        assert in_multiple_locus(D)


def test_rnk_basics():
    rng = random.Random(14)
    D = smooth_divisor(HE, 2, rng)
    assert in_Rnk(D, 0)
    assert in_Rnk(D, 1)
    assert not in_Rnk(D, 2)   # k = n: empty by convention
    Dg = smooth_divisor(G4, 2, rng)
    assert in_Rnk(Dg, 0) and not in_Rnk(Dg, 1)


def test_rnk_flag_rule():
    # k = 0 always holds, k >= n never does (deg is not read), and in
    # between the flag is deg >= n + k
    for n in range(1, 5):
        for deg in range(n, 2 * n + 2):
            flags = [rnk_flag(deg, n, k) for k in range(n + 2)]
            assert flags[0] and not any(flags[n:])
            assert flags[1:n] == [deg >= n + k for k in range(1, n)]
    assert rnk_flag(None, 2, 0) and not rnk_flag(None, 2, 2)
    with pytest.raises(ValueError):
        rnk_flag(5, 3, -1)
    with pytest.raises(ValueError):
        in_Rnk(smooth_divisor(HE, 2, random.Random(16)), -1)


def test_rnk_hyperelliptic_via_pair_completion():
    # conjugate-free reduced D of degree n: (W.C) has degree 2n, so
    # membership holds for every k <= n - 1
    rng = random.Random(15)
    he4 = HyperellipticCurve(F, [1, 1, 0, 0, 0, 0, 0, 0, 0, 1])  # genus 4
    for curve, n in ((HE, 2), (he4, 3)):
        while True:
            D = smooth_divisor(curve, n, rng)
            if D.is_reduced() and not any(curve.is_weierstrass(P) for P in D.support()):
                break
        WC = intersection_divisor(gauss_eval(D))
        assert WC.degree == 2 * n
        for k in range(n):
            assert in_Rnk(D, k)


def test_genus_two_minimum():
    # smallest supported genus: n = 1 only, fibers are involution orbits
    c2 = HyperellipticCurve(F, [1, 1, 0, 0, 0, 1])
    assert c2.genus == 2
    rng = random.Random(60)
    P = c2.sample_point(rng)
    while not P.y:
        P = c2.sample_point(rng)
    D = Divisor(c2, [(P, 1)])
    rep = fiber(gauss_eval(D))
    assert rep.cardinality == 2
    assert sorted(map(repr, rep.fiber)) == sorted(
        map(repr, [D, Divisor(c2, [(c2.involution(P), 1)])]))


def test_genus_five_fiber_n3():
    g5 = HyperellipticCurve(F, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    assert g5.genus == 5
    rng = random.Random(61)
    D = smooth_divisor(g5, 3, rng)
    rep = fiber(gauss_eval(D))
    if not (rep.flags["nonreduced"] or rep.flags["weierstrass"]):
        assert rep.cardinality == 8 == expected_generic_fiber(g5, 3)
    assert rep.WC.degree == 6


def test_bnk_modes():
    rng = random.Random(16)
    D = smooth_divisor(G4, 2, rng)
    W = gauss_eval(D)
    assert intersection_divisor(W).degree == 2
    L = find_g13(G4, seed=6)
    member = L.member((1, 2))
    from wgauss.linsys import beta
    Wm = beta(member)
    assert intersection_divisor(Wm).degree == 2 + 1


@pytest.mark.parametrize("p", [5, 11, 10007])
def test_plane_quartic_point_meets_as_itself(p):
    # (W . C) at a point W of P^2 is W over its field, once if it lies on C;
    # the reference is the gcd of two line sections through it
    from wgauss.algebra import PrimeField
    from wgauss.algebra.linalg import MatrixExact
    from wgauss.curves import PlaneQuarticCurve, ProjectivePoint
    from wgauss.sections import meet
    fld = PrimeField(p)
    curve = PlaneQuarticCurve(fld, {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1})
    rng = random.Random(p)
    on = [curve.sample_point(rng) for _ in range(3)]
    off = [ProjectivePoint(fld, [fld.elem(rng.randrange(p)) for _ in range(2)] + [fld.one])
           for _ in range(3)]
    for P in on + off:
        rows = MatrixExact(fld, [P.coords]).kernel_basis()
        WC = meet(curve, rows, fld, 12)
        assert WC.field == fld
        assert WC == gcd_div(*(meet(curve, [row], fld, 12) for row in rows))
        assert WC.degree == int(curve.contains(P))
