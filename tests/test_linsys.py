import random
from itertools import product

import pytest

from wgauss.algebra import ExtensionCapError, PrimeField, factor_finite
from wgauss.algebra.fields import projective_points
from wgauss.algebra.poly import binary_roots
from wgauss.curves import CanonicalG4Curve, HyperellipticCurve, HyperellipticPoint, PlaneQuarticCurve
from wgauss.divisors import Divisor, gcd_div, hyperelliptic_reduce, pullback_x
from wgauss.gauss import gauss_eval, intersection_divisor
from wgauss.linsys import (
    BranchForm,
    InequivalentSamplesError,
    MemberError,
    beta,
    classify_member,
    complete_system,
    contact_order,
    dual_branch_form,
    dual_samples,
    find_g13,
    hyperelliptic_image_witness,
    phi_L,
    reconstruct_system,
    trisecants_through,
)
from wgauss.sections import UnsupportedConfiguration, meet
from wgauss.spans import NotSpecialError, ell, in_smooth_Wn, span

F = PrimeField(10007)
HE = HyperellipticCurve(F, [0, -1, 0, 0, 0, 0, 0, 1])
HE4 = HyperellipticCurve(F, [1, 1, 0, 0, 0, 0, 0, 0, 0, 1])
G4 = CanonicalG4Curve(F, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},
                      {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                       (0, 0, 0, 3): 1, (1, 1, 1, 0): 1})

SMALL = PrimeField(11)
HE_SMALL = HyperellipticCurve(SMALL, [0, -1, 0, 0, 0, 0, 0, 1])


def sample_pair_system(curve, rng):
    P = curve.sample_point(rng)
    while not P.y:
        P = curve.sample_point(rng)
    D = Divisor(curve, [(P, 1), (curve.involution(P), 1)])
    return D, complete_system(D)


def test_rational_parameters_of_a_pencil_are_the_projective_line():
    D, L = sample_pair_system(HE_SMALL, random.Random(2))
    assert L.r == 1
    assert list(L.rational_parameters()) == list(projective_points(SMALL, 2))


def test_g12_members_sweep_pairs_and_weierstrass_doubles():
    rng = random.Random(1)
    D, L = sample_pair_system(HE, rng)
    assert L.r == 1 and L.degree == 2
    kinds = set()
    for c in [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4)]:
        E = L.member(c)
        form = hyperelliptic_reduce(E)
        assert form.k == 1 and form.B.is_zero()
        if E.is_reduced():
            kinds.add("pair")
        else:
            kinds.add("double")
    assert "pair" in kinds


def test_complete_system_dimension_matches_pair_count():
    rng = random.Random(2)
    # k pairs + conjugate-free B gives dimension exactly k (genus 4, so
    # k + |B| <= 3 keeps the divisor special)
    for k, nb in ((1, 1), (2, 0), (1, 2), (2, 1), (3, 0)):
        while True:
            pairs = []
            seen = set()
            while len(pairs) < k:
                P = HE4.sample_point(rng)
                if P.y and P.x not in seen:
                    seen.add(P.x)
                    pairs.append(P)
            bs = []
            while len(bs) < nb:
                P = HE4.sample_point(rng)
                if P.y and P.x not in seen:
                    seen.add(P.x)
                    bs.append(P)
            items = []
            for P in pairs:
                items.append((P, 1))
                items.append((HE4.involution(P), 1))
            items.extend((P, 1) for P in bs)
            D = Divisor(HE4, items)
            break
        assert ell(D) == k + 1
        L = complete_system(D)
        assert L.r == k
        assert L.base_locus() == Divisor(HE4, [(P, 1) for P in bs])


def test_member_parameter_roundtrip_and_rejection():
    rng = random.Random(3)
    D, L = sample_pair_system(HE, rng)
    c = L.member_parameter(D)
    assert L.member(c) == D
    other = Divisor(HE, [(HE.sample_point(rng), 1), (HE.sample_point(rng), 1)])
    with pytest.raises(MemberError):
        L.member_parameter(other)


def test_members_equivalent_and_same_ell():
    rng = random.Random(4)
    D, L = sample_pair_system(HE, rng)
    reduced = hyperelliptic_reduce(D)
    for c in [(1, 2), (1, 9), (0, 1)]:
        E = L.member(c)
        red = hyperelliptic_reduce(E)
        assert (red.k, red.B) == (reduced.k, reduced.B)
        assert ell(E) == ell(D)


def test_linear_equiv_nonhyperelliptic():
    L = find_g13(G4, seed=7)
    E1, E2 = L.member((1, 2)), L.member((1, 3))
    assert complete_system(E1).contains(E2)
    rng = random.Random(5)
    P, Q, R = (G4.sample_point(rng) for _ in range(3))
    other = Divisor(G4, [(P, 1), (Q, 1), (R, 1)])
    if ell(other) == 1:
        # any degree-3 divisor on a genus-4 curve is special, so the test
        # applies in both argument orders
        assert not complete_system(other).contains(E1)
        assert not complete_system(E1).contains(other)


def test_classify_member_reduced_und_nc():
    rng = random.Random(6)
    D, L = sample_pair_system(HE, rng)
    E = L.member((1, 5))
    flags = classify_member(L, E)
    assert flags["reduced"] == E.is_reduced()
    if flags["reduced"]:
        assert flags["nc"]  # reduced members always admit the choice


def test_nc_exhaustive_brute_force_agreement():
    # brute force over all representative choices must agree with the flag
    rng = random.Random(7)
    for trial in range(6):
        P = HE4.sample_point(rng)
        while not P.y:
            P = HE4.sample_point(rng)
        iP = HE4.involution(P)
        Q = HE4.sample_point(rng)
        while not Q.y or Q.x == P.x:
            Q = HE4.sample_point(rng)
        D = Divisor(HE4, [(P, 1), (iP, 1), (Q, 1)])
        L = complete_system(D)
        E = L.member((1, trial))
        flags = classify_member(L, E)
        B = L.base_locus()
        G = E - B
        # brute force: all ways to pick one point per conjugate pair of G
        pair_opts = []
        for t0, kind, group in __import__("wgauss.divisors", fromlist=["x_fibers"]).x_fibers(HE4, G):
            if kind == "branch":
                (W, m), = group
                pair_opts.append([(W,) * (m // 2)])
            else:
                (P1, a), (P2, b) = group
                assert a == b
                pair_opts.append([(P1,) * a, (P2,) * a])
        works = False
        for choice in product(*pair_opts):
            chosen = [q for tup in choice for q in tup]
            pool = chosen + [pt for pt, _ in B.items]
            ok = True
            for i, u in enumerate(pool):
                for v in pool[i + 1:]:
                    fld = G.field
                    if HE4.involution(u.coerce(fld)) == v.coerce(fld):
                        ok = False
            if ok:
                works = True
        assert works == flags["nc"]


def test_nc_counterexample_pattern_outside_gauss_image():
    # F = 4p + P1 + P2 with p involution-fixed: not nc, and its span has an
    # empty Gauss fiber
    curve = HyperellipticCurve(F, [0, -1] + [0] * 9 + [1])  # y^2 = x^11 - x
    assert curve.genus == 5
    rng = random.Random(8)
    W0 = type(curve.sample_point(rng)).affine(F, F.zero, F.zero)
    P1 = curve.sample_point(rng)
    P2 = curve.sample_point(rng)
    while not P1.y:
        P1 = curve.sample_point(rng)
    while not P2.y or P2.x == P1.x:
        P2 = curve.sample_point(rng)
    Fdiv = Divisor(curve, [(W0, 4), (P1, 1), (P2, 1)])
    assert ell(Fdiv) == 3  # k = 2 pairs extracted
    L = complete_system(Fdiv)
    flags = classify_member(L, Fdiv)
    assert flags["nc"] is False
    # the span is outside the Gauss image: no degree-4 fiber member
    from wgauss.gauss import fiber
    rep = fiber(span(Fdiv), 4)
    assert rep.cardinality == 0


def test_phi_L_double_cover():
    rng = random.Random(9)
    D, L = sample_pair_system(HE, rng)
    for _ in range(10):
        P = HE.sample_point(rng)
        assert phi_L(L, P) == phi_L(L, HE.involution(P))


def test_phi_L_fibers_match_membership():
    rng = random.Random(10)
    D, L = sample_pair_system(HE, rng)
    B = L.base_locus()
    for _ in range(6):
        P = HE.sample_point(rng)
        Q = HE.sample_point(rng)
        same_value = phi_L(L, P) == phi_L(L, Q)
        # membership oracle: is there a member containing both P and Q?
        member_with_P = L.member(L.member_parameter(
            pullback_x(HE, [(P.x, 1)])))
        common = member_with_P.mult_of(Q) > 0 or P.x == Q.x
        assert same_value == common


def test_phi_L_degree_census():
    # generic fiber count of phi_L equals degree(L) - deg(base locus)
    rng = random.Random(11)
    D, L = sample_pair_system(HE, rng)
    P = HE.sample_point(rng)
    val = phi_L(L, P)
    # the member through P: its non-base part maps to the same value
    E = pullback_x(HE, [(P.x, 1)])
    matches = [Q for Q, m in E.items for _ in range(m)
               if phi_L(L, Q) == val]
    assert len(matches) == L.degree - L.base_locus().degree


def test_beta_injective_on_system_small_field():
    # exhaustive member sweep over F_11: parameter-to-span map is injective
    rng = random.Random(12)
    P = HE_SMALL.sample_point(rng)
    while not P.y:
        P = HE_SMALL.sample_point(rng)
    D = Divisor(HE_SMALL, [(P, 1), (HE_SMALL.involution(P), 1)])
    L = complete_system(D)
    seen = {}
    count = 0
    for c, E in L.members_rational():
        W = beta(E)
        key = tuple(map(repr, W.plucker()))
        assert key not in seen, "beta must be injective on the system"
        seen[key] = c
        count += 1
    assert count == 12  # p + 1 members


def test_beta_dimension():
    L = find_g13(G4, seed=8)
    E = L.member((1, 4))
    W = beta(E)
    assert W.dim == 1


def test_dual_samples_certificates():
    rng = random.Random(13)
    D, L = sample_pair_system(HE, rng)
    samples = dual_samples(L)
    assert samples, "expected at least one non-reduced member"
    for s in samples:
        assert s.order >= 2
        core = s.member - L.base_locus()
        assert not core.is_reduced()



def test_dual_samples_skips_only_typed_certificate_failures(monkeypatch):
    import wgauss.linsys as linsys
    rng = random.Random(13)
    D, L = sample_pair_system(HE, rng)

    def failing(exc):
        def contact_order(*args):
            raise exc
        return contact_order

    monkeypatch.setattr(linsys, "contact_order", failing(ArithmeticError("no stable series")))
    assert dual_samples(L) == []
    monkeypatch.setattr(linsys, "contact_order", failing(AssertionError("a fault")))
    with pytest.raises(AssertionError):
        dual_samples(L)

def test_dual_samples_refuses_a_large_sweep():
    # the canonical system of y^2 = x^7 - x: a net (r = 2) with no branch
    # form, and 10007^2 parameters are too many to sweep
    rng = random.Random(17)
    P, Q = (HE.sample_point(rng) for _ in range(2))
    assert P.y and Q.y and P.x != Q.x
    D = Divisor(HE, [(P, 1), (HE.involution(P), 1), (Q, 1), (HE.involution(Q), 1)])
    L = complete_system(D)
    assert L.r == 2
    with pytest.raises(UnsupportedConfiguration, match="exceeds limit"):
        dual_samples(L)


def test_dual_branch_form_hyperelliptic_k1():
    rng = random.Random(14)
    D, L = sample_pair_system(HE, rng)
    bf = dual_branch_form(L)
    assert bf.formal_degree == 2 * HE.genus + 2
    roots = bf.roots()
    assert sum(m for _, m in roots) == 8
    # each branch parameter gives a Weierstrass double member
    (s, t), _ = roots[0]
    if s:  # affine root
        E = L.member(L.member_parameter(pullback_x(HE, [(t / s, 1)])))
        assert not E.is_reduced()


def test_dual_branch_form_g13_riemann_hurwitz():
    L = find_g13(G4, seed=9)
    bf = dual_branch_form(L)
    assert bf.formal_degree == 12
    roots = bf.roots(cap=12)
    assert sum(m for _, m in roots) == 12
    verified = 0
    for (s, t), m in roots:
        try:
            E = L.member((s, t))
        except Exception:
            continue
        core = E - L.base_locus()
        rep = next(P for P, mm in core.items if mm >= 2)
        assert contact_order(L, (s, t), rep) >= 2
        verified += 1
    assert verified >= 1


def test_member_spans_stay_in_exact_stratum():
    # with no larger system available, every member span cuts exactly n + k
    # points, including the non-reduced members
    L = find_g13(G4, seed=12)
    bf = dual_branch_form(L)
    params = [(F.one, F.elem(j)) for j in range(6)] + [(F.zero, F.one)]
    params += [st for (st, m) in bf.roots(cap=12)]  # branch parameters too
    for c in params:
        E = L.member(c)
        assert intersection_divisor(beta(E)).degree == 2 + 1


def test_reconstruct_system_roundtrip():
    L = find_g13(G4, seed=10)
    cs = [(F.one, F.elem(i)) for i in (0, 2, 4, 6)]
    members = [L.member(c) for c in cs]
    Ws = [beta(E) for E in members]
    L2, got = reconstruct_system(Ws, n=2, k=1)
    assert got == members
    assert L2.degree == 3 and L2.r == 1
    # single sample: the complete system of (W . C)
    L3, got3 = reconstruct_system([Ws[0]])
    assert got3[0] == members[0]


def test_reconstruct_system_takes_one_residual(monkeypatch):
    from wgauss import linsys, spans
    L = find_g13(G4, seed=10)
    Ws = [beta(L.member((F.one, F.elem(i)))) for i in range(8)]
    real, calls = spans.residual, []

    def counted(D, cap=12):
        calls.append(D)
        return real(D, cap=cap)

    for mod in (spans, linsys):
        monkeypatch.setattr(mod, "residual", counted, raising=False)
    L2, got = reconstruct_system(Ws, n=2, k=1)
    assert L2.r == 1 and len(got) == 8
    assert len(calls) == 1


def test_reconstruct_rejects_mixed_systems():
    L = find_g13(G4, seed=11)
    # the complementary ruling pencil: inequivalent members
    other = complete_system(L.F)
    W1 = beta(L.member((1, 2)))
    W2 = beta(other.member((1, 2)))
    with pytest.raises(InequivalentSamplesError):
        reconstruct_system([W1, W2])


def test_hyperelliptic_image_witness():
    rng = random.Random(15)
    for k in (1, 2):
        while True:
            P, Q = HE.sample_point(rng), HE.sample_point(rng)
            D = Divisor(HE, [(P, 1), (Q, 1)])
            if D.degree == 2 and in_smooth_Wn(D):
                break
        L, Fw = hyperelliptic_image_witness(D, k=k)
        assert Fw.degree == 2 + k
        assert beta(Fw) == gauss_eval(D)
        assert classify_member(L, Fw)["nc"]


def test_trisecants_and_unique_g13_pair():
    # the two pencils through a point are the two rulings; their members
    # are inequivalent but their sum is a canonical class
    rng = random.Random(16)
    P = G4.sample_point(rng)
    members = trisecants_through(G4, P)
    assert len(members) == 2
    m1, m2 = members
    if m1.field == m2.field:
        assert not complete_system(m1).contains(m2)
        total = m1 + m2
        assert span(total).s >= 1  # canonical: lies in a hyperplane
    # disjoint span images of the two distinct pencils
    L1, L2 = complete_system(m1), complete_system(m2)
    f1 = [beta(L1.member((1, j))) for j in range(4)]
    f2 = [beta(L2.member((1, j))) for j in range(4)]
    for a in f1:
        for b in f2:
            assert a != b


def _raised_in(exc, fn):
    """Was ``exc`` raised inside a call of ``fn``?"""
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is fn.__code__:
            return True
        tb = tb.tb_next
    return False


def _passes_or_caps_in_roots(cfg):
    """run_reconstruct(cfg) passes, or stops in BranchForm.orbits because the
    roots need a splitting field beyond the cap."""
    from wgauss.harness import run_reconstruct
    try:
        report = run_reconstruct(cfg)
    except ExtensionCapError as exc:
        assert _raised_in(exc, BranchForm.orbits)
        return "cap"
    assert report["passed"]
    return "passed"


@pytest.mark.parametrize("p", [11, 13])
def test_cone_has_one_trisecant_pencil_and_a_branch_form(p):
    # the tangent plane of a cone meets it in the double line through the
    # vertex: one trisecant through each point, and the g^1_3 is
    # self-residual, cut by the lines through the vertex, on which the
    # cubic's discriminant is the branch form
    from test_curves import _gram_kind, _random_g4
    from wgauss.harness import ExperimentConfig
    for i in range(3):
        curve = _random_g4(p, "cone", random.Random(f"cone-{p}-{i}"), kind_of=_gram_kind)
        P = curve.sample_point(random.Random(i))
        members = trisecants_through(curve, P)
        assert len(members) == 1
        (m,) = members
        assert m.degree == 3 and span(m).dim == 1 and m.mult_of(P) >= 1
        L = find_g13(curve, seed=i)
        assert (L.degree, L.r) == (3, 1)
        bf = dual_branch_form(L)
        assert bf.formal_degree == 12 and bf.poly
        cfg = ExperimentConfig(experiment="reconstruct", curve=curve.describe(),
                               n=2, k=1, trials=3, seed=i)
        _passes_or_caps_in_roots(cfg)


def test_dual_samples_sweeps_a_cone_whose_branch_roots_exceed_the_cap():
    # the form's roots need F_(11^18): the pencil is swept over P^1(F_11)
    # instead, and finds the one rational non-reduced member it found
    # before cones had a branch form
    from test_curves import _gram_kind, _random_g4
    curve = _random_g4(11, "cone", random.Random("cone-11-0"), kind_of=_gram_kind)
    L = find_g13(curve, seed=0)
    with pytest.raises(ExtensionCapError):
        dual_branch_form(L).roots(cap=12)
    samples = dual_samples(L)
    assert [(s.to_json()["parameter"], s.order) for s in samples] == [([1, 9], 2)]
    assert samples[0].member == L.member(samples[0].parameter)


def _g4_curve(p, kind, label):
    from test_curves import _gram_kind, _random_g4
    return _random_g4(p, kind, random.Random(label), kind_of=_gram_kind)


# (p, quadric type, i) -> the monic branch form of find_g13(curve, seed=i) on
# the curve drawn from "branch-{p}-{type}-{i}", as computed from the
# transversal-line family the ruling form replaced (F_(p^k) coefficients as
# coefficient lists); None is the bench curve G4 with seed 9
BRANCH_FORM_PINS = {
    (11, "split", 6): [6, 10, 2, 2, 2, 7, 4, 2, 6, 6, 2, 2, 1],
    (13, "split", 7): [[7, 0], [1, 0], [3, 0], [3, 0], [0, 0], [1, 0], [2, 0],
                       [11, 0], [8, 0], [11, 0], [1, 0], [2, 0], [1, 0]],
    (19, "split", 3): [[10, 0], [18, 0], [5, 0], [2, 0], [18, 0], [12, 0], [6, 0],
                       [18, 0], [13, 0], [11, 0], [9, 0], [5, 0], [1, 0]],
    (11, "nonsplit", 2): [[8, 2, 4, 1], [3, 8, 5, 4], [0, 4, 8, 2], [10, 4, 8, 2],
                          [7, 10, 9, 5], [5, 2, 4, 1], [9, 5, 10, 8], [7, 9, 7, 10],
                          [0, 3, 6, 7], [8, 2, 4, 1], [5, 8, 5, 4], [0, 3, 6, 7],
                          [1, 0, 0, 0]],
    (19, "nonsplit", 1): [[14, 9, 12, 10], [1, 0, 0, 0], [7, 0, 0, 0], [8, 4, 18, 15],
                          [0, 15, 1, 4], [0, 15, 1, 4], [6, 16, 15, 3], [5, 18, 5, 1],
                          [12, 18, 5, 1], [12, 4, 18, 15], [13, 12, 16, 7],
                          [6, 18, 5, 1], [1, 0, 0, 0]],
    (23, "nonsplit", 2): [[4, 9, 10, 13], [18, 10, 6, 17], [17, 18, 20, 3],
                          [4, 11, 2, 21], [5, 7, 18, 5], [12, 15, 9, 14],
                          [11, 16, 5, 18], [1, 6, 22, 1], [5, 12, 21, 2],
                          [22, 14, 13, 10], [2, 7, 18, 5], [20, 21, 8, 15],
                          [1, 0, 0, 0]],
    None: [[1, 0], [0, 0], [0, 0], [10003, 0], [0, 0], [0, 0], [8160, 0], [0, 0],
           [0, 0], [1849, 0], [0, 0], [0, 0], [1, 0]],
}


@pytest.mark.parametrize("key", list(BRANCH_FORM_PINS), ids=str)
def test_g13_branch_form_is_pinned(key):
    if key is None:
        L = find_g13(G4, seed=9)
    else:
        p, kind, i = key
        L = find_g13(_g4_curve(p, kind, f"branch-{p}-{kind}-{i}"), seed=i)
    bf = dual_branch_form(L)
    assert bf.formal_degree == 12
    assert [L.field.to_json(c) for c in bf.poly.monic().coeffs] == BRANCH_FORM_PINS[key]


@pytest.mark.parametrize("p, kind, i", [(7, "split", 1), (7, "nonsplit", 4),
                                        (13, "cone", 4)])
def test_g13_branch_form_vanishes_at_the_non_reduced_members(p, kind, i):
    # an oracle independent of the form: over P^1(F_p), the form vanishes
    # exactly where the member, less the base locus, has a repeated point
    L = find_g13(_g4_curve(p, kind, f"oracle-{p}-{kind}-{i}"), seed=i)
    fld = L.field
    bf = dual_branch_form(L)
    assert bf.formal_degree == 12
    zeros = []
    for c0, c1 in [(fld.zero, fld.one)] + [(fld.one, fld.elem(j)) for j in range(p)]:
        zero = bf.poly.degree < 12 if not c0 else not bf.poly(c1)
        assert zero == (not (L.member((c0, c1)) - L.base_locus()).is_reduced())
        zeros.append(zero)
    assert any(zeros)


@pytest.mark.parametrize("key", [(7, "split", 3), (11, "split", 2), (13, "cone", 1), None],
                         ids=str)
def test_branch_orbits_partition_the_roots(key):
    # each factor of the form is one orbit: its representative lies in the
    # factor's own field, is one of the orbit's roots there, and the orbit's
    # positions hold its conjugates over the splitting field
    from test_curves import _gram_kind, _random_g4
    if key is None:
        L = find_g13(G4, seed=9)
    else:
        p, kind, i = key
        label = f"cone-{p}-{i}" if kind == "cone" else f"branch-{p}-{kind}-{i}"
        L = find_g13(_random_g4(p, kind, random.Random(label), kind_of=_gram_kind), seed=i)
    bf = dual_branch_form(L)
    roots, orbits = bf.orbits(cap=12)
    assert roots == bf.roots(cap=12) == binary_roots([(bf.poly, bf.formal_degree)], 12)[1]
    assert sorted(i for *_, where in orbits for i in where) == list(range(len(roots)))
    factors = factor_finite(bf.poly)
    assert len(orbits) == len(factors) + (bf.formal_degree > bf.poly.degree)
    for (f, mult), (m, (s, t), where) in zip(factors, orbits):
        F, K = t.field, roots[where[0]][0][1].field
        assert m == mult and {roots[i][1] for i in where} == {m}
        assert s == F.one and F.degree == L.field.degree * f.degree == L.field.degree * len(where)
        assert not f.map_field(F)(t)
        assert not any(f.map_field(K)(roots[i][0][1]) for i in where)
    # a zero at (0 : 1) is one more orbit, over the form's own field
    lifted = BranchForm(bf.field, bf.poly, bf.formal_degree + 2)
    inf = (bf.field.zero, bf.field.one)
    assert lifted.orbits(cap=12) == (roots + [(inf, 2)], orbits + [(2, inf, [len(roots)])])
    assert lifted.roots(cap=12) == binary_roots([(bf.poly, bf.formal_degree + 2)], 12)[1]


def test_g4_reconstruct_sweep_raises_no_field_error():
    # xw = yz and x^3 + y^3 + z^3 + w^3 plus three random cubic terms: each
    # reconstruction passes or stops, typed, at the branch form's roots
    from itertools import combinations_with_replacement
    from wgauss.curves import CurveError, validate
    from wgauss.harness import ExperimentConfig
    monomials = [tuple(c.count(v) for v in range(4))
                 for c in combinations_with_replacement(range(4), 3)]
    outcomes, i = [], 0
    while len(outcomes) < 6:
        rng = random.Random(f"g4-sweep-{i}")
        i += 1
        p = rng.choice([11, 13, 17, 19, 23])
        cubic = {m: 1 for m in monomials if 3 in m}
        cubic.update((m, rng.randrange(1, p)) for m in rng.sample(
            [m for m in monomials if 3 not in m], 3))
        desc = {"model": "canonical_g4", "field": {"type": "prime", "p": p},
                "forms": {"quadric": {"1,0,0,1": 1, "0,1,1,0": -1},
                          "cubic": {",".join(map(str, k)): v for k, v in cubic.items()}}}
        try:
            validate(desc)
        except CurveError:
            continue
        outcomes.append(_passes_or_caps_in_roots(ExperimentConfig(
            experiment="reconstruct", curve=desc, n=2, k=1, trials=3, seed=0)))
    assert "passed" in outcomes


@pytest.mark.parametrize("key", [(7, "split", 1), (13, "cone", 4), (11, "nonsplit", 2), None],
                         ids=str)
def test_ruling_lines_cut_the_members(key):
    # the check the branch form once made at run time, on five members: the
    # moving line of c cuts member(c), and the axis cuts the residual
    from wgauss.sections import line_at, line_cut, pencil_lines
    if key is None:
        L = find_g13(G4, seed=9)
    else:
        p, kind, i = key
        prefix = "oracle" if kind != "nonsplit" else "branch"
        L = find_g13(_g4_curve(p, kind, f"{prefix}-{p}-{kind}-{i}"), seed=i)
    fld = L.field
    if key and key[1] == "nonsplit":   # the rulings live over F_(p^2) only
        assert fld.degree % 2 == 0
    axis, lines = pencil_lines(L.curve, fld, L.basis)
    at = line_at(fld, lines)
    assert Divisor(L.curve, line_cut(L.curve, axis, fld, 12), field=fld) == L.F
    for c in [(fld.zero, fld.one)] + [(fld.one, fld.elem(j)) for j in range(4)]:
        assert Divisor(L.curve, line_cut(L.curve, at(*c), fld, 12), field=fld) == L.member(c)


def test_branch_form_takes_only_the_base_locus_members(monkeypatch):
    from wgauss.linsys import CompleteSystem
    L = find_g13(G4, seed=3)
    calls, member = [], CompleteSystem.member
    monkeypatch.setattr(CompleteSystem, "member",
                        lambda self, c: calls.append(c) or member(self, c))
    dual_branch_form(L)
    assert calls == []   # the base locus is one cut, (span F . C) - F


def test_branch_form_refuses_the_lines_of_another_pencil(monkeypatch):
    from wgauss import linsys, sections
    L = find_g13(G4, seed=3)
    other = next(M for M in (find_g13(G4, seed=s) for s in range(4, 20))
                 if M.field == L.field and M.F != L.F)
    monkeypatch.setattr(linsys, "pencil_lines",
                        lambda curve, K, planes: sections.pencil_lines(curve, K, other.basis))
    with pytest.raises(UnsupportedConfiguration, match="axis"):
        dual_branch_form(L)


KLEIN = PlaneQuarticCurve(F, {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1})


def _gcd_of_basis_members(L):
    """The base locus as the gcd of the members at the basis parameters."""
    B = None
    for i in range(L.r + 1):
        E = L.member([int(i == j) for j in range(L.r + 1)])
        B = E if B is None else gcd_div(B, E)
    return B


def _base_locus_system(shape):
    """The complete system of one shape: k*g^1_2 + B on the hyperelliptic
    curve, with a Weierstrass point in B or a double one as the pair; |K|
    and |K - P| on Klein's quartic and on genus 4, K a hyperplane section
    through a rational point P; the bench g^1_3."""
    if shape == "g4-g13":
        return find_g13(G4, seed=3)
    W0, W1 = (HyperellipticPoint.affine(F, F.elem(x), F.zero) for x in (0, 1))
    P, Q = HE.sample_point(random.Random(8)), HE.sample_point(random.Random(9))
    pair = [(P, 1), (HE.involution(P), 1)]
    he = {"he-g12": pair, "he-g12+B": pair + [(Q, 1)], "he-g12+W": pair + [(W0, 1)],
          "he-2W+B": [(W1, 2), (Q, 1)], "he-K": pair + [(Q, 1), (HE.involution(Q), 1)]}
    if shape in he:
        return complete_system(Divisor(HE, he[shape]))
    curve = {"klein": KLEIN, "g4": G4}[shape.split("-")[0]]
    P = curve.sample_point(random.Random(12))
    W = span(Divisor(curve, [(P, 1)]))
    K = meet(curve, W.hyperplanes.rows[:1], W.field, 12)
    return complete_system(K - Divisor(curve, [(P, 1)]) if shape.endswith("-P") else K)


@pytest.mark.parametrize("shape", ["he-g12", "he-g12+B", "he-g12+W", "he-2W+B", "he-K",
                                   "klein-K", "klein-K-P", "g4-K", "g4-K-P", "g4-g13"])
def test_base_locus_is_the_gcd_of_the_basis_members(shape):
    L = _base_locus_system(shape)
    assert L.base_locus() == _gcd_of_basis_members(L)
