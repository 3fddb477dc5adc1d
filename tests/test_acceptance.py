"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned in the assertions (cardinalities are exact, counts are
exact, agreement checks allow zero disagreements).  Run with ``pytest -s``
to see the per-criterion lines as they complete.
"""

import random
import time
from math import comb

import pytest

from wgauss.algebra import (
    MatrixExact,
    Poly,
    PrimeField,
    factor_finite,
    plucker,
    poly_gcd,
    resultant,
)
from wgauss.curves import (
    CanonicalG4Curve,
    HyperellipticCurve,
    PlaneQuarticCurve,
    validate,
)
from wgauss.divisors import Divisor, hyperelliptic_reduce
from wgauss.gauss import (
    expected_generic_fiber,
    fiber,
    gauss_eval,
    hyperelliptic_fiber_prediction,
    in_multiple_locus,
    in_Rnk,
    intersection_divisor,
)
from wgauss.harness import (
    ExperimentConfig,
    curve_points_cached,
    multiple_locus_oracle,
    run_reconstruct,
    sample_smooth_divisor,
)
from wgauss.linsys import (
    beta,
    classify_member,
    complete_system,
    find_g13,
    hyperelliptic_image_witness,
)
from wgauss.spans import dim_complete, ell, in_smooth_Wn, span
from helpers_rr import ell_function_space

F = PrimeField(10007)
HE_G3 = HyperellipticCurve(F, [0, -1, 0, 0, 0, 0, 0, 1])        # y^2 = x^7 - x
KLEIN = PlaneQuarticCurve(F, {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1})
G4 = CanonicalG4Curve(F, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},
                      {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                       (0, 0, 0, 3): 1, (1, 1, 1, 0): 1})
G4_SMALL = CanonicalG4Curve(PrimeField(7),
                            {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},
                            {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                             (0, 0, 0, 3): 1, (1, 1, 1, 0): 1})


def _he_g4():
    return HyperellipticCurve(F, [1, 1, 0, 0, 0, 0, 0, 0, 0, 1])  # y^2 = x^9+x+1


def _report(num, name, ok):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {name}"


def _weierstrass_point(curve, x0):
    P = curve.sample_point(random.Random(0))
    return type(P).affine(curve.field, curve.field.elem(x0), curve.field.zero)


def test_criterion_01_hyperelliptic_fiber_law():
    t0 = time.time()
    ok = True
    for n in (1, 2):
        expected = 2 ** n
        unflagged = 0
        trial = 0
        while unflagged < 200 and trial < 500:
            rng = random.Random(1000 * n + trial)
            trial += 1
            D, W = sample_smooth_divisor(HE_G3, n, rng)
            rep = fiber(W)
            if rep.flags["nonreduced"] or rep.flags["weierstrass"]:
                continue
            unflagged += 1
            if rep.cardinality != expected:
                ok = False
        ok = ok and unflagged >= 200
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    _report(1, f"hyperelliptic 2^n fiber law in {elapsed:.1f}s", ok)


def test_criterion_02_degenerate_hyperelliptic_fibers():
    curve = HE_G3
    wxs = [0, 1, -1]  # rational Weierstrass x-values of x^7 - x
    rng = random.Random(2)
    ok = True
    built = 0
    while built < 100:
        kind = built % 3
        if kind == 0:  # non-reduced: 2P
            P = curve.sample_point(rng)
            if not P.y:
                continue
            D = Divisor(curve, [(P, 2)])
        elif kind == 1:  # one Weierstrass point in the support
            P = curve.sample_point(rng)
            W = _weierstrass_point(curve, wxs[built % len(wxs)])
            if not P.y or P.x == W.x:
                continue
            D = Divisor(curve, [(W, 1), (P, 1)])
        else:  # two Weierstrass points
            W1 = _weierstrass_point(curve, wxs[built % len(wxs)])
            W2 = _weierstrass_point(curve, wxs[(built + 1) % len(wxs)])
            D = Divisor(curve, [(W1, 1), (W2, 1)])
        if not in_smooth_Wn(D):
            continue
        built += 1
        rep = fiber(gauss_eval(D))
        members, strict = hyperelliptic_fiber_prediction(D)
        if not strict or rep.cardinality >= 4:
            ok = False
        if sorted(map(repr, members)) != sorted(map(repr, rep.fiber)):
            ok = False
    _report(2, "degenerate fibers drop below 2^n and match prediction", ok)


def test_criterion_03_plane_quartic_fiber_law():
    t0 = time.time()
    ok = True
    unflagged = 0
    trial = 0
    while unflagged < 200 and trial < 500:
        rng = random.Random(3000 + trial)
        trial += 1
        D, W = sample_smooth_divisor(KLEIN, 2, rng)
        rep = fiber(W)
        if rep.flags["nonreduced"]:
            continue
        unflagged += 1
        if rep.cardinality != 6:
            ok = False
    ok = ok and unflagged >= 200
    # genus-3 biconditional on a mixed set: < 6 iff (W . C) non-reduced
    rng = random.Random(31)
    checked = 0
    while checked < 50:
        if checked % 2:
            P = KLEIN.sample_point(rng)
            D = Divisor(KLEIN, [(P, 2)])  # tangent line: non-reduced section
            if not in_smooth_Wn(D):
                continue
            W = gauss_eval(D)
        else:
            D, W = sample_smooth_divisor(KLEIN, 2, rng)
        checked += 1
        rep = fiber(W)
        if (rep.cardinality < 6) != rep.flags["nonreduced"]:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _report(3, f"plane quartic fiber law + biconditional in {elapsed:.1f}s", ok)


def test_criterion_04_generic_singleton_fiber():
    ok = True
    unflagged = 0
    trial = 0
    while unflagged < 200 and trial < 500:
        rng = random.Random(4000 + trial)
        trial += 1
        D, W = sample_smooth_divisor(G4, 2, rng)
        rep = fiber(W)
        if rep.flags["nonreduced"]:
            continue
        unflagged += 1
        if rep.cardinality != 1 or rep.WC != D:
            ok = False
    ok = ok and unflagged >= 200
    _report(4, "genus-4 singleton fiber with (W.C) = D", ok)


def test_criterion_05_multiple_locus_equivalence():
    curve = G4_SMALL
    cap = 4
    # warm the point caches once
    for m in range(1, cap + 1):
        curve_points_cached(curve, m)
    disagreements = 0
    checked = 0
    planted_hits = 0
    L = find_g13(curve, seed=5)
    # planted witnesses from pencil members
    member_params = [(curve.field.one, curve.field.elem(j)) for j in range(7)] \
        + [(curve.field.zero, curve.field.one)]
    for c in member_params:
        E = L.member(c)
        pts = [P for P, m in E.items for _ in range(m)]
        if len(pts) < 2:
            continue
        for (i, j) in ((0, 1), (0, 2), (1, 2))[:2]:
            if i >= len(pts) or j >= len(pts) or pts[i] == pts[j]:
                continue
            D = Divisor(curve, [(pts[i], 1), (pts[j], 1)])
            if D.degree != 2:
                continue
            try:
                if not in_smooth_Wn(D):
                    continue
            except ValueError:
                continue
            got_test = in_multiple_locus(D)
            got_oracle = multiple_locus_oracle(curve, D, cap)
            checked += 1
            planted_hits += 1 if got_test else 0
            if got_test != got_oracle:
                disagreements += 1
    trial = 0
    while checked < 100 and trial < 400:
        rng = random.Random(5000 + trial)
        trial += 1
        D, _ = sample_smooth_divisor(curve, 2, rng)
        got_test = in_multiple_locus(D)
        got_oracle = multiple_locus_oracle(curve, D, cap)
        checked += 1
        if got_test != got_oracle:
            disagreements += 1
    ok = checked >= 100 and disagreements == 0 and planted_hits > 0
    _report(5, f"exists-q oracle agreement on {checked} divisors "
               f"({planted_hits} planted positives)", ok)


def test_criterion_06_rnk_stratification():
    curve = _he_g4()
    n = 3
    ok = True
    witnesses = {1: 0, 2: 0}
    for trial in range(10_000):
        rng = random.Random(6000 + trial)
        D, W = sample_smooth_divisor(curve, n, rng)
        deg = intersection_divisor(W).degree
        # degree test for k = 1, 2; range rule empties k = 3
        if deg >= n + 1:
            witnesses[1] += 1
        if deg >= n + 2:
            witnesses[2] += 1
        if in_Rnk(D, 3):
            ok = False
        if trial < 50:
            # structural check: the only degree-6 completion with a
            # 3-dimensional system is D + iota(D), whose canonical form is
            # three conjugate pairs with empty conjugate-free part
            E = D
            for P, m in D.items:
                E = E + Divisor(curve, [(curve.involution(P), m)])
            if ell(E) != 4:
                ok = False
            form = hyperelliptic_reduce(E)
            if form.k != 3 or not form.B.is_zero():
                ok = False
            if in_Rnk(D, 1) is not True or in_Rnk(D, 2) is not True:
                ok = False
    ok = ok and witnesses[1] == 10_000 and witnesses[2] == 10_000
    _report(6, "R_(n,k) witnesses for k=1,2 and empty k=3 verdict", ok)


def test_criterion_07_canonical_form_round_trip():
    curve = _he_g4()
    rng = random.Random(7)
    ok = True
    done = 0
    while done < 200:
        k = rng.randrange(1, 4)
        nb = rng.randrange(0, 4 - k)
        seen = set()
        items = []
        while len(seen) < k + nb:
            P = curve.sample_point(rng)
            key = tuple(curve.field.sort_key(P.x))
            if not P.y or key in seen:
                continue
            seen.add(key)
            if len(items) < 2 * k:
                items.append((P, 1))
                items.append((curve.involution(P), 1))
            else:
                items.append((P, 1))
        D = Divisor(curve, items)
        expect = hyperelliptic_reduce(D)
        if expect.k != k:
            continue
        done += 1
        L = complete_system(D)
        if L.r != k:
            ok = False
        params = [tuple(1 if i == j else 0 for i in range(k + 1))
                  for j in range(k + 1)]
        params += [tuple(rng.randrange(10007) for _ in range(k + 1))
                   for _ in range(2)]
        for c in params:
            if not any(c):
                continue
            E = L.member(c)
            form = hyperelliptic_reduce(E)
            if form.k != expect.k or form.B != expect.B:
                ok = False
    _report(7, "k pairs + B systems have dim k and stable canonical forms", ok)


def test_criterion_08_hyperelliptic_gauss_image():
    ok = True
    for trial in range(200):
        rng = random.Random(8000 + trial)
        D, W = sample_smooth_divisor(HE_G3, 2, rng)
        k = 1 + (trial % 2)
        L, Fw = hyperelliptic_image_witness(D, k=k)
        if beta(Fw) != W:
            ok = False
        if not classify_member(L, Fw)["nc"]:
            ok = False
    # k = n: parameter-to-span injectivity on an exhaustive small-field sweep
    small = HyperellipticCurve(PrimeField(11), [0, -1, 0, 0, 0, 0, 0, 1])
    rng = random.Random(88)
    D, _ = sample_smooth_divisor(small, 2, rng)
    L, Fw = hyperelliptic_image_witness(D, k=2)
    seen = set()
    count = 0
    for c, E in L.members_rational():
        key = tuple(map(repr, beta(E).plucker()))
        if key in seen:
            ok = False
        seen.add(key)
        count += 1
    ok = ok and count == 11 ** 2 + 11 + 1
    _report(8, f"image witnesses (200 trials) + injective sweep ({count})", ok)


def test_criterion_09_reconstruction_pipeline():
    cfg = ExperimentConfig(experiment="reconstruct", curve=G4.describe(),
                           n=2, k=1, trials=8, seed=9)
    rep = run_reconstruct(cfg)
    ok = rep["passed"]
    ok = ok and rep["dual_total"] == 12
    ok = ok and sum(c["mult"] for c in rep["dual_certificates"]) == 12
    ok = ok and all(c["contact_order"] >= 2
                    for c in rep["dual_certificates"] if c["materialized"])
    ok = ok and any(c["materialized"] for c in rep["dual_certificates"])
    _report(9, "g13 reconstruction + dual count 12 with certificates", ok)


def test_criterion_10_geometric_rr_oracle():
    curve = HE_G3
    rng = random.Random(10)
    ok = True
    K, wps = curve.weierstrass_points()
    rational_wps = [P for P in wps if P.field.degree == 1]
    for trial in range(200):
        items = []
        deg = 0
        target = rng.randrange(1, 5)
        while deg < target:
            r = rng.random()
            if r < 0.1:
                P = curve.infinity_points()[0]
            elif r < 0.25 and rational_wps:
                P = rational_wps[rng.randrange(len(rational_wps))]
            else:
                P = curve.sample_point(rng)
            m = rng.randrange(1, 3)
            items.append((P, m))
            deg += m
        D = Divisor(curve, items)
        if ell(D) != ell_function_space(curve, D):
            ok = False
    _report(10, "span-based ell equals function-space oracle (200 mixed)", ok)


def test_criterion_11_brill_noether_tables():
    from wgauss.brillnoether import emit_table, rho, seed_windows, table_to_csv
    import os
    ok = True
    for g in range(3, 41):
        for n in range(1, g):
            if (rho(g, 1, n) >= 0) != (2 * n >= g + 2):
                ok = False
    ok = ok and seed_windows(8, 6, 3)["open_dense_window"]
    ok = ok and seed_windows(7, 5, 3)["positive_codim_window"]
    rows = emit_table(range(3, 41))
    for row in rows:
        if row["generically_smooth"] and row["generic_existence"]:
            if row["k"] not in (1, 2):
                ok = False
    golden = os.path.join(os.path.dirname(__file__), "data", "bn_table_g3_12.csv")
    with open(golden, encoding="utf-8") as fh:
        ok = ok and fh.read() == table_to_csv(emit_table(range(3, 13)))
    _report(11, "Brill-Noether predicates, windows, golden table", ok)


def test_criterion_12_kernel_property_suites():
    t0 = time.time()
    ok = True
    rng = random.Random(12)

    def rand_poly(deg, monic=False):
        cs = [F.rand(rng) for _ in range(deg)]
        cs.append(F.one if monic else F.rand(rng))
        while not cs[-1]:
            cs[-1] = F.rand(rng)
        return Poly(F, cs)

    for _ in range(1000):
        a, b = rand_poly(rng.randrange(1, 6)), rand_poly(rng.randrange(1, 6))
        g = poly_gcd(a, b)
        if not ((a % g).is_zero() and (b % g).is_zero()):
            ok = False
    for _ in range(1000):
        a = rand_poly(rng.randrange(2, 7))
        prod = Poly.one(F)
        for f, m in factor_finite(a):
            prod = prod * f ** m
        if prod * a.lead() != a:
            ok = False
    for _ in range(1000):
        a, b = rand_poly(rng.randrange(1, 5)), rand_poly(rng.randrange(1, 5))
        if (not resultant(a, b)) != (poly_gcd(a, b).degree >= 1):
            ok = False
    for _ in range(1000):
        m = MatrixExact(F, [[F.rand(rng) for _ in range(4)] for _ in range(2)])
        if m.rank() != 2:
            continue
        p12, p13, p14, p23, p24, p34 = plucker(m)
        if p12 * p34 - p13 * p24 + p14 * p23:
            ok = False
    for _ in range(1000):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
        m = MatrixExact(F, [[F.rand(rng) for _ in range(nc)] for _ in range(nr)])
        rank, kernel, R = m.rank(), m.kernel_basis(), m.rref()[0]
        if rank + len(kernel) != m.ncols:
            ok = False
        if R.rref()[0] != R:
            ok = False
        for v in kernel:
            if any(c for c in m.apply(v)):
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    _report(12, f"kernel invariant suites (5 x 1000) in {elapsed:.1f}s", ok)
