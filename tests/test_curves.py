import ast
import functools
import random
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from wgauss import curves, sections
from wgauss.algebra import ExtField, Poly, PrimeField, TruncatedSeries, series_solve
from wgauss.algebra.fields import coerce, projective_points
from wgauss.curves import (
    INF,
    CanonicalG4Curve,
    CurveError,
    HomForm,
    HyperellipticCurve,
    HyperellipticPoint,
    PlaneQuarticCurve,
    ProjectivePoint,
    curve_hash,
    exhaustive_singular_search,
    validate,
)

F11 = PrimeField(11)
F = PrimeField(10007)

KLEIN = {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1}
SEGRE = {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}
G4_CUBIC = {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
            (0, 0, 0, 3): 1, (1, 1, 1, 0): 1}


def hyperelliptic_g3(field=F):
    return HyperellipticCurve(field, [0, -1, 0, 0, 0, 0, 0, 1])  # y^2 = x^7 - x


def test_validate_odd_degree_genus():
    c = validate({"model": "hyperelliptic", "field": {"type": "prime", "p": 11},
                  "f": [0, -1, 0, 0, 0, 0, 0, 1]})
    assert c.genus == 3 and c.odd_model


def test_validate_rejects_non_squarefree():
    with pytest.raises(CurveError):
        HyperellipticCurve(F11, [0, 0, 0, 0, 1])  # y^2 = x^4
    with pytest.raises(CurveError):
        HyperellipticCurve(F11, [0, 0, 0, 0, 0, -1, 1, 0, 1])  # double root


def test_validate_klein_quartic():
    c = PlaneQuarticCurve(F, KLEIN)
    assert c.genus == 3
    # elimination agrees with exhaustive search at small p
    small = PlaneQuarticCurve(F11, KLEIN)
    assert exhaustive_singular_search(small) == []


def test_validate_rejects_nodal_quartic():
    with pytest.raises(CurveError):
        PlaneQuarticCurve(F, {(3, 0, 1): 1, (4, 0, 0): 1, (0, 4, 0): 1})


def test_validate_g4_and_planted_singular():
    CanonicalG4Curve(F, SEGRE, G4_CUBIC)
    fermat = {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1}
    with pytest.raises(CurveError):
        CanonicalG4Curve(F, SEGRE, fermat)
    # exhaustive cross-check at p = 7: the planted singulars are rational there
    F7 = PrimeField(7)
    bad = CanonicalG4Curve(F7, HomForm(F7, 4, 2, SEGRE),
                           HomForm(F7, 4, 3, fermat), check=False)
    assert len(exhaustive_singular_search(bad)) > 0
    good = CanonicalG4Curve(F7, HomForm(F7, 4, 2, SEGRE),
                            HomForm(F7, 4, 3, G4_CUBIC), check=False)
    assert exhaustive_singular_search(good) == []


def test_quartic_with_a_partial_vanishing_on_a_line_is_smooth():
    # F_x = 2x(x^2 + yz) vanishes on the line x = 0, F does not
    F3 = PrimeField(3)
    form = {(4, 0, 0): 2, (2, 1, 1): 1, (0, 4, 0): 1, (0, 3, 1): 1, (0, 0, 4): 1}
    c = PlaneQuarticCurve(F3, form)
    assert exhaustive_singular_search(c, 2) == []


def test_quartic_singular_where_its_charts_lose_a_variable():
    # 2x^4 + 11y^3z is singular at (0 : 0 : 1); on the chart z = 1 it is
    # 2x^4 + 11y^3, whose partials each lose a variable
    F13 = PrimeField(13)
    form = {(4, 0, 0): 2, (0, 3, 1): 11}
    with pytest.raises(CurveError, match="singular plane quartic"):
        PlaneQuarticCurve(F13, form)
    c = PlaneQuarticCurve(F13, form, check=False)
    assert [P.coords for P in exhaustive_singular_search(c)] == [(0, 0, 1)]


def _conjugate_singular_pair(curve):
    """The singular points of the curve: none over F_3, a conjugate pair
    (1 : +-i : 0 ...) over F_9, with i^2 = -1."""
    assert exhaustive_singular_search(curve, 1) == []
    pts = exhaustive_singular_search(curve, 2)
    K = pts[0].field
    i = K.sqrt(K.elem(-1))
    rest = [K.zero] * (len(pts[0].coords) - 2)
    assert len(pts) == 2
    assert {P.coords for P in pts} == {(K.one, r, *rest) for r in (i, -i)}


def test_quartic_with_nodes_only_over_f9_is_rejected():
    # F = m^2 + xz*m + z^2 (x^2 + yz + z^2), m = x^2 + y^2, lies in
    # (m, z)^2: nodes at the conjugate points m = z = 0
    F3 = PrimeField(3)
    form = {(4, 0, 0): 1, (2, 2, 0): 2, (0, 4, 0): 1, (3, 0, 1): 1, (1, 2, 1): 1,
            (2, 0, 2): 1, (0, 1, 3): 1, (0, 0, 4): 1}
    with pytest.raises(CurveError, match="singular plane quartic"):
        PlaneQuarticCurve(F3, form)
    _conjugate_singular_pair(PlaneQuarticCurve(F3, form, check=False))


def test_genus4_singular_only_over_f9_is_rejected():
    # Q = m + x2 (x0 + x1) + x3^2 and E = x2 m + x0 x2^2 + x1 x3^2 with
    # m = x0^2 + x1^2: E lies in (x2, x3, m)^2, so C is singular at the two
    # conjugate points of Q on the line x2 = x3 = 0
    F3 = PrimeField(3)
    quad = {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (1, 0, 1, 0): 1, (0, 1, 1, 0): 1,
            (0, 0, 0, 2): 1}
    cubic = {(2, 0, 1, 0): 1, (0, 2, 1, 0): 1, (1, 0, 2, 0): 1, (0, 1, 0, 2): 1}
    with pytest.raises(CurveError, match="singular quadric-cubic intersection"):
        CanonicalG4Curve(F3, quad, cubic)
    _conjugate_singular_pair(CanonicalG4Curve(F3, HomForm(F3, 4, 2, quad),
                                              HomForm(F3, 4, 3, cubic), check=False))


def test_sample_point_on_curve_and_deterministic():
    c = hyperelliptic_g3()
    p1 = c.sample_point(random.Random(42))
    p2 = c.sample_point(random.Random(42))
    assert p1 == p2
    assert c.contains(p1)
    y2 = p1.y * p1.y
    assert y2 == c.f(p1.x)


def test_sample_point_coverage():
    c = HyperellipticCurve(PrimeField(101), [1, 1, 0, 0, 0, 1])  # genus 2
    rng = random.Random(1)
    xs = set()
    signs = set()
    for _ in range(2000):
        P = c.sample_point(rng)
        assert c.contains(P)
        xs.add(P.x.value)
        if P.y:
            signs.add(P.y.value < 51)
    K, all_pts = c.points_over(1)
    affine_xs = {P.x.value for P in all_pts if P.kind == "aff"}
    assert len(xs) > 0.6 * len(affine_xs)
    assert signs == {True, False}


def test_involution_basic_and_fixed_points():
    c = hyperelliptic_g3()
    rng = random.Random(3)
    for _ in range(100):
        P = c.sample_point(rng)
        Q = c.involution(P)
        assert c.involution(Q) == P
        if P.y:
            assert Q != P
    # direct Weierstrass point: x = 0 is a root of x^7 - x
    W = type(P).affine(F, F.zero, F.zero)
    assert c.involution(W) == W


def test_weierstrass_points_odd_model():
    c = hyperelliptic_g3()
    K, pts = c.weierstrass_points()
    assert len(pts) == 2 * c.genus + 2 == 8
    assert sum(1 for P in pts if P.kind == "inf") == 1
    for P in pts:
        assert c.involution(P) == P


def test_weierstrass_points_even_model():
    # y^2 = x^8 + x + 1 over F_10007 (check squarefree first), genus 3
    f = [1, 1, 0, 0, 0, 0, 0, 0, 1]
    c = HyperellipticCurve(F, f)
    assert not c.odd_model and c.genus == 3
    K, pts = c.weierstrass_points()
    assert len(pts) == 8
    assert all(P.kind == "aff" for P in pts)
    # infinity points are swapped by the involution (lc = 1 is a square)
    i1, i2 = c.infinity_points()
    assert i1.field == F
    assert c.involution(i1) == i2


def test_canonical_coords():
    c = hyperelliptic_g3()
    P = type(c.sample_point(random.Random(0))).affine(F, F.elem(2), F.elem(1))
    cc = c.canonical_coords(P)
    assert cc.coords == (F.one, F.elem(2), F.elem(4))
    rng = random.Random(5)
    for _ in range(20):
        P = c.sample_point(rng)
        assert c.canonical_coords(P) == c.canonical_coords(c.involution(P))
    q = PlaneQuarticCurve(F, KLEIN)
    P = q.sample_point(rng)
    assert q.canonical_coords(P) is P


def test_local_param_weierstrass_leading_term():
    c = hyperelliptic_g3()
    x0 = F.zero  # root of x^7 - x
    P = type(c.sample_point(random.Random(0))).affine(F, x0, F.zero)
    x, y = c.local_series(P, 4)
    fp = c.f.derivative()(x0)
    assert x.coefficient(0) == x0
    assert not x.coefficient(1)
    assert x.coefficient(2) == F.one / fp
    assert y.coefficient(1) == F.one


def test_local_param_t0_returns_point_and_residual():
    c = hyperelliptic_g3()
    rng = random.Random(6)
    for _ in range(10):
        P = c.sample_point(rng)
        x, y = c.local_series(P, 6)
        assert x.prec == y.prec == 6
        assert x.coefficient(0) == P.x and y.coefficient(0) == P.y
        acc = x * 0
        for i, co in enumerate(c.f.coeffs):
            acc = acc + x ** i * co
        assert (y * y - acc).is_zero()


def test_local_param_infinity_residual():
    c = hyperelliptic_g3()
    P = c.infinity_points()[0]
    x, y = c.local_series(P, 8)
    assert x.valuation() == -2 and y.valuation() == -(2 * c.genus + 1)
    acc = x * 0
    for i, co in enumerate(c.f.coeffs):
        acc = acc + x ** i * co
    assert (y * y - acc).is_zero()


def test_local_param_even_infinity():
    c = HyperellipticCurve(F, [1, 1, 0, 0, 0, 0, 0, 0, 1])
    for P in c.infinity_points():
        x, y = c.local_series(P, 6)
        assert x.valuation() == -1
        acc = x * 0
        for i, co in enumerate(c.f.coeffs):
            acc = acc + x ** i * co
        assert (y * y - acc).is_zero()


def _form_at_series(form, s):
    acc = s[0] * 0
    for exps, co in form.coeffs.items():
        term = s[0] * 0 + co
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * s[i]
        acc = acc + term
    return acc


def test_g4_local_series_residuals():
    g = CanonicalG4Curve(F, SEGRE, G4_CUBIC)
    rng = random.Random(8)
    for _ in range(5):
        P = g.sample_point(rng)
        s = g.local_series(P, 5)
        assert all(c.prec == 5 for c in s)
        for form in (g.quadric, g.cubic):
            assert _form_at_series(form, s).is_zero()
        assert [c.coefficient(0) for c in s] == list(P.coords)


def test_quartic_local_series_residuals():
    q = PlaneQuarticCurve(F, KLEIN)
    rng = random.Random(9)
    # on the chart x = 1 of (1 : 0 : 0) the curve is y + y^3 z + z^3 = 0,
    # whose z-partial vanishes there: z is the parameter and y is solved
    corner = ProjectivePoint(F, [1, 0, 0])
    for P in [q.sample_point(rng) for _ in range(5)] + [corner]:
        s = q.local_series(P, 7)
        assert all(c.prec == 7 for c in s)
        assert [c.coefficient(0) for c in s] == list(P.coords)
        assert _form_at_series(q.form, s).is_zero()
    s = q.local_series(corner, 7)
    assert s[2] == TruncatedSeries(F, [F.zero, F.one], 7)
    assert s[1].valuation() == 3


def test_curve_json_roundtrip():
    curves = [
        hyperelliptic_g3(),
        HyperellipticCurve(F, [1, 1, 0, 0, 0, 0, 0, 0, 1]),
        PlaneQuarticCurve(F, KLEIN),
        CanonicalG4Curve(F, SEGRE, G4_CUBIC),
    ]
    for c in curves:
        blob = c.describe()
        c2 = validate(blob)
        assert c2 == c
        assert curve_hash(c2) == curve_hash(c)


def test_points_over_enumeration_hyperelliptic():
    c = HyperellipticCurve(F11, [0, -1, 0, 0, 0, 0, 0, 1])
    K, pts = c.points_over(1)
    assert len(set(pts)) == len(pts)
    for P in pts:
        assert c.contains(P)
    # involution closes on the point set
    s = set(pts)
    for P in pts:
        assert c.involution(P) in s


def test_points_over_enumeration_g4():
    F7 = PrimeField(7)
    g = CanonicalG4Curve(F7, SEGRE, G4_CUBIC)
    K, pts = g.points_over(1)
    for P in pts:
        assert g.contains(P)
    # Weil bound sanity: |#C - (q+1)| <= 2g sqrt(q)
    q = 7
    assert abs(len(pts) - (q + 1)) <= 8 * 2.6458
    K2, pts2 = g.points_over(2)
    sub = {P.coerce(K2).coords for P in pts}
    assert sub <= {P.coords for P in pts2}


# smooth genus-4 curves over F_7 on the quadrics xw = yz, xw = yz + w^2 and
# a diagonal one
POINT_TABLE_CURVES = [
    (SEGRE, {(3, 0, 0, 0): 1, (0, 0, 3, 0): 5, (1, 0, 1, 1): 1, (1, 2, 0, 0): 5,
             (0, 2, 0, 1): 2, (1, 0, 2, 0): 1, (0, 0, 0, 3): 1}),
    ({**SEGRE, (0, 0, 0, 2): 1},
     {(3, 0, 0, 0): 1, (0, 1, 2, 0): 5, (0, 0, 3, 0): 3, (0, 2, 0, 1): 5,
      (1, 1, 1, 0): 3, (1, 0, 1, 1): 4, (0, 0, 0, 3): 1}),
    ({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 3},
     {(3, 0, 0, 0): 1, (0, 0, 3, 0): 4, (2, 1, 0, 0): 1, (1, 0, 1, 1): 2,
      (0, 3, 0, 0): 3, (0, 0, 1, 2): 5, (0, 0, 0, 3): 1}),
]


@pytest.mark.parametrize("forms", POINT_TABLE_CURVES,
                         ids=["segre", "segre+w2", "diagonal"])
def test_points_over_g4_matches_brute_force_and_per_plane_path(forms):
    F7 = PrimeField(7)
    g = CanonicalG4Curve(F7, *forms)
    K, pts = g.points_over(1)
    brute = {P for P in projective_points(F7, 4) if not g.quadric(P) and not g.cubic(P)}
    assert [P.coords for P in pts] == _sorted_coords(F7, brute)
    # over F_49: the rational points of every plane s*x0 + t*x1 = 0 through
    # the axis line, each restricted on its own
    K2, pts2 = g.points_over(2)
    gK = CanonicalG4Curve(K2, g.quadric.map_field(K2), g.cubic.map_field(K2), check=False)
    per_plane = {P.coords for s, t in projective_points(K2, 2)
                 for P in sections.plane_rational_points(gK, (s, t, K2.zero, K2.zero))}
    assert [P.coords for P in pts2] == _sorted_coords(K2, per_plane)


def _sorted_coords(field, coords):
    return sorted(coords, key=lambda c: [field.sort_key(x) for x in c])


def test_quartic_points_over():
    # the table, read line by line, is the brute-force zero set, sorted
    for p, m, count in [(11, 1, 12), (11, 2, 122), (13, 2, 248), (5, 3, 126), (3, 5, 244)]:
        q = PlaneQuarticCurve(PrimeField(p), KLEIN)
        K, pts = q.points_over(m)
        for P in pts:
            assert q.contains(P)
        form = q.form.map_field(K)
        brute = [ProjectivePoint(K, x) for x in projective_points(K, 3) if not form(x)]
        assert pts == sorted(brute, key=ProjectivePoint.sort_key)
        assert len(pts) == count


def test_even_model_nonsquare_leading_coefficient():
    # infinity points land in the quadratic extension when lc is a nonresidue
    nr = F.nonresidue().value
    c = HyperellipticCurve(F, [1, 1, 0, 0, 0, 0, 0, 0, nr])
    assert not c.odd_model and c.genus == 3
    i1, i2 = c.infinity_points()
    assert i1.field.degree == 2
    assert c.involution(i1) == i2 and c.contains(i1)
    x, y = c.local_series(i1, 5)
    acc = x * 0
    for i, co in enumerate(c.f.coeffs):
        acc = acc + x ** i * co
    assert (y * y - acc).is_zero()


def test_canonical_coords_on_rational_normal_curve():
    # the 2x2 minors of [[1, x, ..., x^(g-2)], [x, x^2, ..., x^(g-1)]] vanish
    c = hyperelliptic_g3()
    rng = random.Random(23)
    for _ in range(20):
        P = c.sample_point(rng)
        v = c.canonical_coords(P).coords
        g = c.genus
        for i in range(g - 1):
            for j in range(g - 1):
                assert v[i] * v[j + 1] == v[j] * v[i + 1]


def test_x_value_and_points_above():
    c = hyperelliptic_g3()
    rng = random.Random(9)
    P = c.sample_point(rng)
    pts = c.points_above_x(P.x, F)
    assert P in pts and c.involution(P) in pts
    assert c.infinity_points()[0].kind == "inf"
    inf_pts = c.points_above_x(INF, F)
    assert len(inf_pts) == 1


# -- point tables through the rulings of the quadric ---------------------------

def _monomials(deg):
    return [tuple(c.count(i) for i in range(4))
            for c in combinations_with_replacement(range(4), deg)]


def _random_g4(p, kind, rng, draws=200, kind_of=None):
    """The first smooth genus-4 curve over F_p from random forms whose
    quadric has the given type over F_p, by ``kind_of``.  By default the
    type comes from counted points for p <= 13, an independent check of the
    Gram matrix's, and from the Gram matrix above, where counting the
    points of P^3(F_p) would not finish.  A cone's quadric is drawn as a
    random ternary quadric in three random linear forms, the others as
    random quaternary quadrics; the cubic is a random quaternary cubic."""
    kind_of = kind_of or (_quadric_kind if p <= 13 else _gram_kind)
    for _ in range(draws):
        if kind == "cone":
            lin = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
            quad = {}
            for i, j in combinations_with_replacement(range(3), 2):
                a = rng.randrange(p)
                for k in range(4):
                    for m in range(4):
                        key = tuple((k == r) + (m == r) for r in range(4))
                        quad[key] = (quad.get(key, 0) + a * lin[i][k] * lin[j][m]) % p
        else:
            quad = {key: rng.randrange(p) for key in _monomials(2)}
        cubic = {key: rng.randrange(p) for key in _monomials(3)}
        desc = {"model": "canonical_g4", "field": {"type": "prime", "p": p},
                "forms": {name: {",".join(map(str, k)): v for k, v in f.items()}
                          for name, f in (("quadric", quad), ("cubic", cubic))}}
        try:
            curve = validate(desc)
        except CurveError:
            continue
        if kind_of(curve) == kind:
            return curve
    raise AssertionError(f"no smooth curve with a {kind} quadric in {draws} draws")


def _quadric_kind(curve):
    """The quadric's type over F_p from its number of points: (p + 1)^2 when
    it splits, p^2 + 1 when it does not, p^2 + p + 1 for a cone."""
    from wgauss.algebra.fields import projective_points
    p = curve.field.p
    n = sum(1 for P in projective_points(curve.field, 4) if not curve.quadric(P))
    return {(p + 1) ** 2: "split", p * p + 1: "nonsplit", p * p + p + 1: "cone"}[n]


def _swept(curve, K, sweep):
    """Sorted point coordinates of the curve over K from the plane sweep."""
    quad, cub = curve.quadric.map_field(K), curve.cubic.map_field(K)
    found = {P.coords for P in sweep(K, quad, cub) if not quad(P.coords) and not cub(P.coords)}
    return _sorted_coords(K, found)


@pytest.mark.parametrize("p", [7, 11])
@pytest.mark.parametrize("kind", ["split", "nonsplit", "cone"])
def test_points_over_rulings_match_brute_force_and_sweep(p, kind, monkeypatch):
    from wgauss.algebra.fields import projective_points
    curve = _random_g4(p, kind, random.Random(f"rulings-{p}-{kind}"))
    F = curve.field
    sweep, calls = sections._sweep_points, []

    def spy(*args):
        calls.append(args[0])
        return sweep(*args)

    monkeypatch.setattr(sections, "_sweep_points", spy)
    # m = 1 against brute force; only a non-split quadric at odd m sweeps
    K, pts = curve.points_over(1)
    brute = {P for P in projective_points(F, 4) if not curve.quadric(P) and not curve.cubic(P)}
    assert [P.coords for P in pts] == _sorted_coords(F, brute)
    assert calls == ([F] if kind == "nonsplit" else [])
    # m = 2 against the sweep: every quadric of rank 4 splits over F_(p^2)
    K2, pts2 = curve.points_over(2)
    assert len(calls) == (kind == "nonsplit")
    assert [P.coords for P in pts2] == _swept(curve, K2, sweep)
    if (p, kind) == (7, "split"):
        K3, pts3 = curve.points_over(3)
        assert [P.coords for P in pts3] == _swept(curve, K3, sweep)


# -- point tables by Frobenius orbit -------------------------------------------

def _per_line_points_over(curve, K):
    """The sorted point table read line by line over every (s : t) of
    P^1(K), on rulings built over K itself, or plane by plane on the sweep:
    the path that the orbit walk replaced, kept as a reference."""
    from wgauss.algebra.mpoly import mp_substitute
    from wgauss.algebra.poly import binary_roots

    def line_points(images, form):
        d, out = form.degree, []
        pulled = sections._by_st(mp_substitute(form.coeffs, images, K, 4))
        at = sections.line_at(K, images)
        for s, t in projective_points(K, 2):
            c = sections._specialize_pencil(pulled, s, t)
            S = Poly(K, [c.get((d - j, j), K.zero) for j in range(d + 1)])
            A, B = at(s, t)
            out += [ProjectivePoint(K, [u * a + v * b for a, b in zip(A, B)])
                    for (u, v), _ in binary_roots([(S, d)])[1]]
        return out

    def sweep_points(quad, cub):
        images = [{(1, 0, 0, 0, 1): K.one}, {(1, 0, 0, 1, 0): -K.one},
                  {(0, 1, 0, 0, 0): K.one}, {(0, 0, 1, 0, 0): K.one}]
        pencil = [sections._by_st(mp_substitute(f.coeffs, images, K, 5)) for f in (quad, cub)]
        out = []
        for s, t in projective_points(K, 2):
            conic, cubic = (HomForm(K, 3, d, sections._specialize_pencil(f, s, t))
                            for f, d in zip(pencil, (2, 3)))
            out += [ProjectivePoint(K, [a * t, -a * s, b, c])
                    for a, b, c in sections.plane_rational_zeros(conic, cubic)]
        return out

    if curve.model == "plane_quartic":
        pencil = [{(1, 0, 1, 0): K.one}, {(1, 0, 0, 1): K.one}, {(0, 1, 0, 0): K.one}]
        found = line_points(pencil, curve.form.map_field(K))
    else:
        # rulings built over K itself from the builders, not read from
        # sections.rulings over their field of definition
        quad, cub = curve.quadric.map_field(K), curve.cubic.map_field(K)
        gram = curve.gram.map_field(K)
        kind = sections._quadric_type(gram)
        found = sweep_points(quad, cub) if kind == "nonsplit" else line_points(
            (sections._cone_images if kind == "cone" else sections._segre_images)(gram), cub)
    return sorted({P.coords: P for P in found}.values(), key=ProjectivePoint.sort_key)


@functools.lru_cache(maxsize=None)
def _table_curve(name):
    """The curves whose tables the orbit walk is checked on: the ``locus``
    bench curve over F_7, the Klein quartic over F_5, the cone and the
    non-split quadric of ``test_points_over_rulings_match_brute_force_and_sweep``,
    and the bench curve over F_49, whose Frobenius is the square of F_7's."""
    if name == "g4-f7":
        return CanonicalG4Curve(PrimeField(7), SEGRE, G4_CUBIC)
    if name == "g4-f49":
        return CanonicalG4Curve(ExtField(7, 2), SEGRE, G4_CUBIC)
    if name == "klein-f5":
        return PlaneQuarticCurve(PrimeField(5), KLEIN)
    kind, p = name.split("-")
    return _random_g4(int(p), kind, random.Random(f"rulings-{p}-{kind}"))


# (curve, the degrees m of its tables, line or plane solves per table)
ORBIT_TABLES = [
    ("g4-f7", (1, 2, 3, 4), (8, 29, 120, 617)),
    ("klein-f5", (1, 2, 3), (6, 16, 46)),
    ("cone-7", (1, 2, 3), (8, 29, 120)),
    ("cone-11", (1, 2, 3), (12, 67, 452)),
    ("nonsplit-7", (1, 2, 3), (8, 50, 120)),
    ("nonsplit-11", (1, 2, 3), (12, 122, 452)),
    ("g4-f49", (1, 2), (50, 1226)),
]


@functools.lru_cache(maxsize=None)
def _orbit_table(name, m):
    """(K, the table C(K) for m, the line and plane solves it took): the
    calls of ``binary_roots``, a line's binary form on the rulings and the
    quartic's lines, and of ``plane_rational_zeros``, a plane's conic and
    cubic on the sweep."""
    curve, calls = _table_curve(name), []
    with pytest.MonkeyPatch.context() as mp:
        for fn in ("binary_roots", "plane_rational_zeros"):
            real = getattr(sections, fn)
            mp.setattr(sections, fn, lambda *a, _real=real: calls.append(a) or _real(*a))
        K, pts = curve.points_over(m)
    return K, pts, len(calls)


ORBIT_CASES = [(name, m, n) for name, degrees, solves in ORBIT_TABLES
               for m, n in zip(degrees, solves)]
ORBIT_IDS = [f"{name}-m{m}" for name, m, _ in ORBIT_CASES]


@pytest.mark.parametrize("name, m, solves", ORBIT_CASES, ids=ORBIT_IDS)
def test_orbit_tables_match_the_per_line_walk(name, m, solves):
    K, pts, _ = _orbit_table(name, m)
    assert pts == _per_line_points_over(_table_curve(name), K)


@pytest.mark.parametrize("name, m, solves", ORBIT_CASES, ids=ORBIT_IDS)
def test_orbit_tables_solve_one_member_per_orbit(name, m, solves):
    # 8 + 29 + 120 = 157 line solves for the three bench tables, in place of
    # 8 + 50 + 344; the non-split sweep solves one plane per orbit at odd m
    assert _orbit_table(name, m)[2] == solves


@pytest.mark.parametrize("name, m, solves", ORBIT_CASES, ids=ORBIT_IDS)
def test_orbit_tables_are_closed_under_frobenius(name, m, solves):
    # P -> P^q, q the order of the curve's field, on element powers: the
    # walked pencil is defined over the field whose orbits it skips
    K, pts, _ = _orbit_table(name, m)
    q = _table_curve(name).field.order
    assert {ProjectivePoint(K, [c ** q for c in P.coords]).coords for P in pts} == \
        {P.coords for P in pts}


def test_point_tables_have_one_orbit_walk():
    # sections reads P^1(K) only in the orbit walk: a per-line loop over
    # projective_points beside it, or an alias of it, fails here
    tree = ast.parse(Path(sections.__file__).read_text(encoding="utf-8"))
    found = set()
    for node in tree.body:
        for n in ast.walk(node):
            if (getattr(n, "id", None) == "projective_points"
                    or getattr(n, "attr", None) == "projective_points"
                    or isinstance(n, ast.alias) and n.name == "projective_points" and n.asname):
                found.add(getattr(node, "name", "<module>"))
    assert found == {"_orbit_walk"}


# -- plane sections: the conic H n Q cut by the cubic ----------------------------

def _tangent_planes(curve, K, rng):
    """At a random point P of C(K): the tangent plane of the quadric (a line
    pair, or a double line on a cone) and a plane through the tangent line
    of C."""
    from wgauss.algebra.mpoly import mp_eval, mp_partial
    gK = curve if K == curve.field else CanonicalG4Curve(
        K, curve.quadric.map_field(K), curve.cubic.map_field(K), check=False)
    P = gK.sample_point(rng)
    gq, ge = ([mp_eval(mp_partial(f.map_field(K).coeffs, i, K), P.coords, K) for i in range(4)]
              for f in (curve.quadric, curve.cubic))
    b = K.rand(rng)
    return [gq, [x + b * y for x, y in zip(gq, ge)]]


def _planes(curve, K, rng, n):
    """n random planes over K and two tangent ones."""
    out = [[K.rand(rng) for _ in range(4)] for _ in range(n)]
    return [h for h in out if any(h)] + _tangent_planes(curve, K, rng)


def _gram_kind(curve):
    return sections._quadric_type(curve.gram)


@pytest.mark.parametrize("kind", ["split", "nonsplit", "cone"])
def test_gram_matrix_over_an_extension_is_the_extended_quadrics(kind):
    # the curve keeps one Gram matrix and maps it into each extension
    from wgauss.curves import gram_matrix
    curve = _random_g4(11, kind, random.Random(f"gram-{kind}"))
    for K in (ExtField(11, 2), ExtField(11, 3)):
        assert curve.gram.map_field(K) == gram_matrix(K, curve.quadric.map_field(K))


def _valuation(curve, P, h, order=8):
    """ord_t of the hyperplane form along the local parametrization at P."""
    series = curve.canonical_series(P, order)
    acc = series[0] * 0
    for c, s in zip(h, series):
        acc = acc + s * c
    return acc.valuation()


@pytest.mark.parametrize("p", [7, 11, 13])
def test_g4_hyperplane_sections_lie_on_the_plane_with_series_multiplicities(p):
    from wgauss.algebra.fields import coerce
    from wgauss.spans import hyperplane_section
    rng = random.Random(f"sections-{p}")
    for kind in ("split", "nonsplit", "cone"):
        curve = _random_g4(p, kind, rng, kind_of=_gram_kind)
        for K in (curve.field, ExtField(p, 2)):
            for h in _planes(curve, K, rng, 2):
                D = hyperplane_section(curve, h)
                assert D.degree == 6
                hD = [coerce(c, D.field) for c in h]
                for P, m in D.items:
                    assert curve.contains(P)
                    assert not sum((a * b for a, b in zip(hD, P.coords)), D.field.zero)
                    assert m == _valuation(curve, P, hD)


@pytest.mark.parametrize("p", [7, 11, 10007])
def test_plane_rational_points_match_brute_force(p, monkeypatch):
    # the residue path's list equals the element path's, in order, since
    # sample_point indexes it; at small p, as a set, every point on the plane
    from wgauss.algebra.fields import projective_points
    rng = random.Random(f"plane-points-{p}")
    for kind in ("split", "nonsplit", "cone"):
        curve = _random_g4(p, kind, rng)
        F = curve.field
        planes = _planes(curve, F, rng, 6)
        got = [[P.coords for P in sections.plane_rational_points(curve, h)] for h in planes]
        with monkeypatch.context() as m:
            m.setattr(sections, "_residue_zeros", lambda curve, basis: None)
            assert got == [[P.coords for P in sections.plane_rational_points(curve, h)]
                          for h in planes]
        if p > 13:
            continue
        brute = [P for P in projective_points(F, 4)
                 if not curve.quadric(P) and not curve.cubic(P)]
        for h, pts in zip(planes, got):
            assert len(pts) == len(set(pts))
            assert set(pts) == {P for P in brute
                                if not sum((a * b for a, b in zip(h, P)), F.zero)}


# -- the hyperelliptic charts and point routines before the one chart solver ---
# References: the three hand-derived charts, with their Taylor shift, and the
# square roots of f(x0) taken in each routine, with the quadratic-extension
# fallback of points_above_x.

def _reference_taylor_shift(f, a):
    """f(a + t) as a polynomial in t."""
    field = f.field
    out = Poly.zero(field)
    xa = Poly(field, [a, field.one])
    for c in reversed(f.coeffs):
        out = out * xa + Poly(field, [c])
    return out


def reference_local_series(curve, P, order):
    fld = P.field
    fl = curve.f.map_field(fld)
    g = curve.genus
    if P.kind == "aff":
        shifted = _reference_taylor_shift(fl, P.x)
        if P.y:
            # parameter t = x - x0, solve y(t)^2 = f(x0 + t)
            eq = {(i, 0): -c for i, c in enumerate(shifted.coeffs)}
            eq[(0, 2)] = fld.one
            y, = series_solve([eq], [P.y], order, fld)
            x = TruncatedSeries(fld, [P.x, fld.one], order)
            return x, y
        # Weierstrass point: parameter t = y, solve f(x0 + X(t)) = t^2
        eq = {(0, j): c for j, c in enumerate(shifted.coeffs)}
        eq[(2, 0)] = eq.get((2, 0), fld.zero) - fld.one
        X, = series_solve([eq], [fld.zero], order, fld)
        x = X + TruncatedSeries.constant(fld, P.x, order)
        y = TruncatedSeries(fld, [fld.zero, fld.one], order)
        return x, y
    # infinity: chart u = 1/x, w = y / x^(g+1), so w^2 = f(x) / x^(2g+2)
    rev = fl.reverse(2 * g + 2)
    need = order + 4 * (g + 1)
    if curve.odd_model:
        # rev(u) = u * r(u) with r(0) = lc(f); branch point, parameter t = w
        r = Poly(fld, rev.coeffs[1:])
        eq = {(0, j + 1): c for j, c in enumerate(r.coeffs)}
        eq[(2, 0)] = -fld.one
        u, = series_solve([eq], [fld.zero], need, fld)
        x = u.inverse()
        w = TruncatedSeries(fld, [fld.zero, fld.one], need)
        return x, w * x ** (g + 1)
    # even model, two points; parameter t = u, solve w(t)^2 = rev(t)
    eq = {(j, 0): c for j, c in enumerate(rev.coeffs)}
    eq[(0, 2)] = eq.get((0, 2), fld.zero) - fld.one
    w, = series_solve([eq], [P.w], need, fld)
    u = TruncatedSeries(fld, [fld.zero, fld.one], need)
    x = u.inverse()
    return x, w * x ** (g + 1)


def reference_points_over(curve, rel_degree):
    K = curve.field.extension(rel_degree)
    fl = curve.f.map_field(K)
    out = []
    for x0 in K.elements():
        z = fl(x0)
        if not z:
            out.append(HyperellipticPoint.affine(K, x0, K.zero))
            continue
        y = K.sqrt(z)
        if y is not None:
            out.append(HyperellipticPoint.affine(K, x0, y))
            out.append(HyperellipticPoint.affine(K, x0, -y))
    if curve.odd_model:
        out.append(HyperellipticPoint.infinity(K))
    else:
        w = K.sqrt(coerce(curve.f.lead(), K))
        if w is not None:
            out.append(HyperellipticPoint.infinity(K, w))
            out.append(HyperellipticPoint.infinity(K, -w))
    return K, out


def reference_sample_point(curve, rng, budget=10000):
    for _ in range(budget):
        x0 = curve.field.rand(rng)
        z = curve.f(x0)
        if not z:
            return HyperellipticPoint.affine(curve.field, x0, curve.field.zero)
        y = curve.field.sqrt(z)
        if y is None:
            continue
        if rng.randrange(2):
            y = -y
        return HyperellipticPoint.affine(curve.field, x0, y)
    raise AssertionError("no point found within budget")


def _reference_sqrt_in_tower(field, a):
    r = field.sqrt(a)
    if r is not None:
        return field, r
    up = field.extension(2)
    return up, up.sqrt(coerce(a, up))


def reference_points_above_x(curve, t0, field):
    if t0 is INF:
        if curve.odd_model:
            return [HyperellipticPoint.infinity(field)]
        fld, w = _reference_sqrt_in_tower(field, coerce(curve.f.lead(), field))
        return [HyperellipticPoint.infinity(fld, w), HyperellipticPoint.infinity(fld, -w)]
    t0 = coerce(t0, field) if not field.contains(t0) else t0
    z = curve.f.map_field(field)(t0)
    if not z:
        return [HyperellipticPoint.affine(field, t0, field.zero)]
    fld, y = _reference_sqrt_in_tower(field, z)
    t0 = coerce(t0, fld)
    return [HyperellipticPoint.affine(fld, t0, y), HyperellipticPoint.affine(fld, t0, -y)]


# y^2 = x^7 - x over a large and a small field; even models whose leading
# coefficient is a square (F_11) and a non-square (F_11, F_10007)
REFERENCE_CURVES = {
    "odd-10007": (F, [0, -1, 0, 0, 0, 0, 0, 1]),
    "odd-11": (F11, [0, -1, 0, 0, 0, 0, 0, 1]),
    "even-square-11": (F11, [0, 1, 0, 3, 0, 0, 1]),
    "even-nonsquare-11": (F11, [0, 1, 0, 0, 1, 0, 2]),
    "even-nonsquare-10007": (F, [0, 1, 0, 0, 0, 0, 0, 0, F.nonresidue()]),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CURVES))
def test_hyperelliptic_local_series_match_the_reference_charts(name):
    c = HyperellipticCurve(*REFERENCE_CURVES[name])
    rng = random.Random(f"series-{name}")
    K, weier = c.weierstrass_points()
    points = [c.sample_point(rng) for _ in range(4)] + weier + c.infinity_points()
    if c.field.char < 100:   # points over F_(p^2), off the base field
        points += rng.sample(c.points_over(2)[1], 4)
    assert any(P.kind == "inf" for P in points) and any(c.is_weierstrass(P) for P in points)
    for P in points:
        for order in (1, 6):
            assert c.local_series(P, order) == reference_local_series(c, P, order), P


@pytest.mark.parametrize("name", sorted(REFERENCE_CURVES))
def test_hyperelliptic_points_match_the_reference(name):
    c = HyperellipticCurve(*REFERENCE_CURVES[name])
    F0 = c.field
    for m in (1, 2) if F0.char < 100 else (1,):
        assert c.points_over(m) == reference_points_over(c, m)
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        got = [c.sample_point(rng) for _ in range(300)]
        assert got == [reference_sample_point(c, ref) for _ in range(300)]
        assert rng.getstate() == ref.getstate()
        if F0.char < 100:
            assert any(c.is_weierstrass(P) for P in got)
    kinds = {}
    for t0 in (F0.elem(v) for v in range(1, 60)):
        z = c.f(t0)
        if z:
            kinds.setdefault("square" if F0.sqrt(z) is not None else "non-square", t0)
    K, weier = c.weierstrass_points()
    roots = [P.x for P in weier if P.kind == "aff"]
    assert len(kinds) == 2
    for t0, field in [(t, F0) for t in kinds.values()] + [(r, K) for r in roots] + [(INF, F0)]:
        got = c.points_above_x(t0, field)
        assert got == reference_points_above_x(c, t0, field), t0
        assert all(c.contains(P) for P in got)


def test_series_solve_has_one_caller():
    # every local parametrization comes from the one chart solver: a second
    # path to series_solve, or an alias of it, fails here
    src = Path(curves.__file__).resolve().parent
    found = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for unit in node.body if isinstance(node, ast.ClassDef) else [node]:
                for n in ast.walk(unit):
                    if (getattr(n, "id", None) == "series_solve"
                            or getattr(n, "attr", None) == "series_solve"
                            or isinstance(n, ast.alias) and n.name == "series_solve" and n.asname):
                        found.add((str(path.relative_to(src)), getattr(unit, "name", "<module>")))
    assert found == {("curves.py", "_chart_series")}
