import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from wgauss.algebra import ExtensionCapError, common_field
from wgauss.algebra.kernel import FpKernel
from wgauss.algebra.linalg import reduce_row
from wgauss.curves import ProjectivePoint, validate
from wgauss.divisors import Divisor
from wgauss.harness import (
    ExperimentConfig,
    curve_points_cached,
    multiple_locus_oracle,
    run_fiber_census,
    run_locus_census,
    run_reconstruct,
    sample_smooth_divisor,
    write_report,
)
from wgauss.linsys import find_g13
from wgauss.spans import dim_complete, hyperplane_conditions

HE_G3 = {"model": "hyperelliptic", "field": {"type": "prime", "p": 10007},
         "f": [0, -1, 0, 0, 0, 0, 0, 1]}
KLEIN = {"model": "plane_quartic", "field": {"type": "prime", "p": 10007},
         "form": {"3,1,0": 1, "0,3,1": 1, "1,0,3": 1}}
G4 = {"model": "canonical_g4", "field": {"type": "prime", "p": 10007},
      "forms": {"quadric": {"1,0,0,1": 1, "0,1,1,0": -1},
                "cubic": {"3,0,0,0": 1, "0,3,0,0": 1, "0,0,3,0": 1,
                          "0,0,0,3": 1, "1,1,1,0": 1}}}


def test_fiber_census_reports_pass():
    cfg = ExperimentConfig(experiment="fiber-census", curve=HE_G3, n=2,
                           trials=12, seed=5)
    rep = run_fiber_census(cfg)
    assert rep["passed"]
    assert rep["expected_generic"] == 4
    assert sum(rep["histogram"].values()) == 12
    assert rep["field"] == {"p": 10007, "ext": 1}
    assert rep["library_version"]



def test_fiber_census_takes_one_span_per_trial(monkeypatch):
    """A sampled divisor is spanned once, by the gauss_eval that accepts or
    rejects it; fiber takes no span and enumerates no subdivisors."""
    from wgauss import gauss, harness, spans
    from wgauss.divisors import Divisor
    n = {"span": 0, "eval": 0, "rejected": 0, "subdivisors": 0}
    span, gauss_eval, subdivisors = spans.span, harness.gauss_eval, Divisor.subdivisors

    def counted_span(D):
        n["span"] += 1
        return span(D)

    def counted_eval(D):
        n["eval"] += 1
        try:
            return gauss_eval(D)
        except spans.NotInSmoothLocusError:
            n["rejected"] += 1
            raise

    def counted_subdivisors(self, k):
        for E in subdivisors(self, k):
            n["subdivisors"] += 1
            yield E

    for mod in (spans, gauss):
        monkeypatch.setattr(mod, "span", counted_span)
    monkeypatch.setattr(harness, "gauss_eval", counted_eval)
    monkeypatch.setattr(Divisor, "subdivisors", counted_subdivisors)
    cfg = ExperimentConfig(experiment="fiber-census", curve=KLEIN, n=2, trials=6, seed=2)
    assert run_fiber_census(cfg)["passed"]
    assert n["eval"] == cfg.trials + n["rejected"]
    assert n["subdivisors"] == 0
    assert n["span"] == cfg.trials + n["rejected"]


def test_hyperelliptic_fiber_census_splits_no_quadratic_by_exponentiation(monkeypatch):
    """Quadratics are split by their discriminant: no powmod with the trace
    split's exponent (p - 1)/2 runs modulo a polynomial of degree 2."""
    p, split = 10007, []
    powmod_ = FpKernel.powmod

    def spy(self, a, e, m):
        if len(m) == 3 and e == (p - 1) // 2:
            split.append(m)
        return powmod_(self, a, e, m)

    monkeypatch.setattr(FpKernel, "powmod", spy)
    cfg = ExperimentConfig(experiment="fiber-census", curve=HE_G3, n=2, trials=10, seed=3)
    assert run_fiber_census(cfg)["passed"]
    assert split == []


def _fiber_root_degrees(monkeypatch, cfg):
    """The degrees of the polynomials that ``roots_in_splitting_extension``
    receives inside ``meet`` during a passing fiber census."""
    from wgauss import gauss, sections
    from wgauss.algebra import poly
    meet, roots = gauss.meet, poly.roots_in_splitting_extension
    degrees, inside = [], []

    def counted_meet(*args, **kw):
        inside.append(True)
        try:
            return meet(*args, **kw)
        finally:
            inside.pop()

    def counted_roots(a, cap=12):
        if inside:
            degrees.append(a.degree)
        return roots(a, cap)

    monkeypatch.setattr(gauss, "meet", counted_meet)
    for mod in (poly, sections):
        monkeypatch.setattr(mod, "roots_in_splitting_extension", counted_roots)
    assert run_fiber_census(cfg)["passed"]
    return degrees


@pytest.mark.parametrize("curve, n, most", [(HE_G3, 2, None), (KLEIN, 2, 2), (G4, 3, 3)],
                         ids=["he-g3", "klein", "g4"])
def test_fiber_census_root_finds_only_beyond_the_sampled_divisor(monkeypatch, curve, n, most):
    """(W . C) is the sampled D plus a rest, and only the rest is root-found:
    nothing on the hyperelliptic model, where it is D + iota(D); at most the
    quadratic left of Klein's quartic, and the cubic left of a genus-4
    plane's sextic."""
    cfg = ExperimentConfig(experiment="fiber-census", curve=curve, n=n, trials=10, seed=3)
    degrees = _fiber_root_degrees(monkeypatch, cfg)
    if most is None:
        assert degrees == []
    else:
        assert degrees and max(degrees) <= most


def test_fiber_census_bit_identical():
    cfg = ExperimentConfig(experiment="fiber-census", curve=KLEIN, n=2,
                           trials=6, seed=9)
    blob1 = write_report(run_fiber_census(cfg), None)
    blob2 = write_report(run_fiber_census(cfg), None)
    assert blob1 == blob2


def test_fiber_census_seed_changes_records():
    cfg1 = ExperimentConfig(experiment="fiber-census", curve=HE_G3, n=1,
                            trials=4, seed=1)
    cfg2 = ExperimentConfig(experiment="fiber-census", curve=HE_G3, n=1,
                            trials=4, seed=2)
    r1, r2 = run_fiber_census(cfg1), run_fiber_census(cfg2)
    assert r1["records"] != r2["records"]


def test_locus_census_g4():
    cfg = ExperimentConfig(experiment="locus-census", curve=G4, n=2,
                           trials=8, seed=3)
    rep = run_locus_census(cfg)
    assert rep["passed"]
    assert rep["verdicts"]["k_ge_n_empty"]
    assert "1" in rep["witnesses"]  # planted from the trisecant pencil
    for rec in rep["records"]:
        assert rec["in_Rnk"]["0"] is True
        assert rec["in_Rnk"]["2"] is False


G4_F7 = {**G4, "field": {"type": "prime", "p": 7}}

# write_report digests of two locus censuses: any change to a flag, a
# degree, a witness or an oracle verdict changes them
LOCUS_PINS = [
    (dict(curve=G4_F7, n=2, trials=4, seed=1, oracle_cap=2),
     "f8a48001f3394f25b8e4ddb54b5843dbd06cb729da7d42a81977ee7a50c983a8"),
    (dict(curve=G4, n=3, trials=4, seed=2),
     "ac4e1868b13c6f88b63486eafd26bddfc37197c325b61c5003736cef7e48c6d3"),
    # no trial finds a k = 1 witness: the report carries a planted one
    (dict(curve=G4, n=2, trials=2, seed=0),
     "35071c4d1a6d194bc957eb8c929512a994ecdccccfe2070fe4e772cb2e4db0f7"),
]


@pytest.mark.parametrize("kw,digest", LOCUS_PINS,
                         ids=["g4-f7-oracle", "g4-f10007-n3", "g4-planted"])
def test_locus_census_report_pinned(kw, digest):
    cfg = ExperimentConfig(experiment="locus-census", **kw)
    blob = write_report(run_locus_census(cfg), None)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_locus_census_one_intersection_per_trial(monkeypatch):
    # one degree per trial, read from the gcd form: no (W . C) is built
    from wgauss import gauss, harness
    degree, divisor, calls = gauss.intersection_degree, gauss.intersection_divisor, []

    def counted_degree(W):
        calls.append("degree")
        return degree(W)

    def counted_divisor(W, cap=12):
        calls.append("divisor")
        return divisor(W, cap=cap)

    monkeypatch.setattr(gauss, "intersection_degree", counted_degree)
    monkeypatch.setattr(harness, "intersection_degree", counted_degree)
    monkeypatch.setattr(gauss, "intersection_divisor", counted_divisor)
    monkeypatch.setattr(harness, "intersection_divisor", counted_divisor, raising=False)
    cfg = ExperimentConfig(experiment="locus-census", curve=G4, n=3, trials=5, seed=2)
    rep = run_locus_census(cfg)
    assert len(rep["records"]) == 5
    assert calls.count("degree") == 5
    assert calls.count("divisor") == 0


def test_locus_census_degrees_need_no_splitting_field():
    # the degree of (W . C) comes from its gcd form, so no W's points can
    # exceed the extension cap
    def records(cap):
        cfg = ExperimentConfig(experiment="locus-census", curve=G4, n=3, trials=3,
                               seed=0, ext_cap=cap)
        return run_locus_census(cfg)["records"]

    assert records(1) == records(12)


def test_locus_census_hyperelliptic_witnesses():
    cfg = ExperimentConfig(experiment="locus-census", curve=HE_G3, n=2,
                           trials=6, seed=4)
    rep = run_locus_census(cfg)
    assert rep["passed"]
    assert set(rep["witnesses"]) >= {"0", "1"}


def test_locus_census_oracle_small_field():
    he_small = {"model": "hyperelliptic", "field": {"type": "prime", "p": 11},
                "f": [0, -1, 0, 0, 0, 0, 0, 1]}
    cfg = ExperimentConfig(experiment="locus-census", curve=he_small, n=2,
                           trials=4, seed=6, oracle_cap=2)
    rep = run_locus_census(cfg)
    assert rep["verdicts"]["oracle_agreement"]
    assert rep["oracle_checked"] == 4


def test_reconstruct_g4_report():
    cfg = ExperimentConfig(experiment="reconstruct", curve=G4, n=2, k=1,
                           trials=5, seed=2)
    rep = run_reconstruct(cfg)
    assert rep["passed"]
    assert rep["dual_total"] == 12
    assert rep["verdicts"]["members_recovered"]


# write_report digests of a genus-4 fiber census and reconstruction: both
# solve planes through the conic-cubic resultant ((W . C), hyperplane
# sections), so any change to a point, a member or a certificate changes them
PLANE_SECTION_PINS = [
    (run_fiber_census, dict(experiment="fiber-census", curve=G4, n=3, trials=6, seed=3),
     "b8480b7fc309c60bb47cce1526be3f2f98708a925dc1c09f5ab30534eb7ec74d"),
    (run_reconstruct, dict(experiment="reconstruct", curve=G4, n=2, k=1, trials=3, seed=4),
     "1efdb94341d752877fbfcdc4854c34f89249c037bfdf940072cb85c0f68a3cb5"),
]


@pytest.mark.parametrize("run,kw,digest", PLANE_SECTION_PINS,
                         ids=["g4-fiber-n3", "g4-reconstruct"])
def test_plane_section_reports_pinned(run, kw, digest):
    blob = write_report(run(ExperimentConfig(**kw)), None)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


HE_G3_F11 = {**HE_G3, "field": {"type": "prime", "p": 11}}
KLEIN_F11 = {**KLEIN, "field": {"type": "prime", "p": 11}}

# write_report digests on the other two models: the quartic's sampler and,
# through the exhaustive oracle, its point table; roots with multiplicity on
# the hyperelliptic fibers, its fiber prediction and its linear systems
MODEL_PINS = [
    (run_fiber_census, dict(experiment="fiber-census", curve=KLEIN, n=2, trials=6, seed=3),
     "9a024e8d2c4109eaa608ce6058406ef5e69779b3da0248bced6feb2298c37413"),
    (run_fiber_census, dict(experiment="fiber-census", curve=HE_G3, n=2, trials=6, seed=3),
     "2a0e47deba23915061c3134a6e6b0bcc37cc9f69292ac91bcabd696b301458b9"),
    (run_locus_census, dict(experiment="locus-census", curve=HE_G3_F11, n=2, trials=4, seed=1,
                            oracle_cap=2),
     "d948c9ba2d714df82f382c97cad5dcf029fa47a8c7f0e8b5fb92b4e355ea3435"),
    (run_reconstruct, dict(experiment="reconstruct", curve=HE_G3_F11, n=2, k=1, trials=3,
                           seed=2),
     "bf46c23ce43267dbfba46537499a0c2a471fa28cc8c53352453dd93ee1bf15d4"),
    (run_locus_census, dict(experiment="locus-census", curve=KLEIN_F11, n=2, trials=10, seed=5,
                            oracle_cap=2),
     "07c93ff8179cea3aca4f55cd9f886aafa1bcf40897190e8f3aee7710014f9fa3"),
]


@pytest.mark.parametrize("run,kw,digest", MODEL_PINS,
                         ids=["klein-fiber", "he-fiber", "he-f11-oracle", "he-f11-reconstruct",
                              "klein-f11-oracle"])
def test_model_reports_pinned(run, kw, digest):
    blob = write_report(run(ExperimentConfig(**kw)), None)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_reconstruct_g4_hyperplane_sections_keep_the_cap():
    # over F_11 some g^1_3 member needs a degree-6 splitting field; the
    # hyperplane section must refuse it at ext_cap itself
    g4_f11 = {**G4, "field": {"type": "prime", "p": 11}}
    cfg = ExperimentConfig(experiment="reconstruct", curve=g4_f11, n=2, k=1,
                           trials=8, seed=1, ext_cap=2)
    with pytest.raises(ExtensionCapError, match="exceeds cap 2$"):
        run_reconstruct(cfg)


def test_reconstruct_g4_certificate_failures(monkeypatch):
    from wgauss import linsys
    from wgauss.algebra import ExtensionCapError, FieldError
    real_orbits = linsys.BranchForm.orbits

    def orbits_and_a_generic_member(bf, cap=12):
        # a parameter that is no root: its member has no double point
        roots, orbits = real_orbits(bf, cap)
        c = (bf.field.one, bf.field.elem(12345))
        return roots + [(c, 0)], orbits + [(0, c, [len(roots)])]

    monkeypatch.setattr(linsys.BranchForm, "orbits", orbits_and_a_generic_member)
    cfg = ExperimentConfig(experiment="reconstruct", curve=G4, n=2, k=1,
                           trials=5, seed=2)
    rep = run_reconstruct(cfg)
    assert rep["passed"] and len(rep["dual_certificates"]) == 13
    assert rep["dual_certificates"][-1] == {
        "mult": 0, "materialized": False, "contact_order": None}

    # a certificate beyond the extension cap is left unmaterialized; any
    # other failure is a fault, and is not swallowed
    def raising(exc):
        def contact_order(*args):
            raise exc
        return contact_order

    monkeypatch.setattr(linsys, "contact_order",
                        raising(ExtensionCapError("splitting field degree 6 exceeds cap 2")))
    rep = run_reconstruct(cfg)
    assert not any(c["materialized"] for c in rep["dual_certificates"])
    assert not rep["verdicts"]["some_certificate_materialized"]
    monkeypatch.setattr(linsys, "contact_order",
                        raising(FieldError("mixed extension fields; coerce explicitly")))
    with pytest.raises(FieldError):
        run_reconstruct(cfg)


def _per_root_certificates(L, cap=12):
    """The report's certificates as made one root at a time: ``certify_dual``
    at every zero of the branch form, found by ``binary_roots`` over the
    splitting field of them all."""
    from wgauss.algebra.poly import binary_roots
    from wgauss.linsys import certify_dual, dual_branch_form
    bf = dual_branch_form(L)
    certs = []
    for st, m in binary_roots([(bf.poly, bf.formal_degree)], cap)[1]:
        sample = certify_dual(L, st)
        certs.append({"mult": m, "materialized": sample is not None,
                      "contact_order": sample.order if sample else None})
    return certs


def _counted_certify_dual(monkeypatch, wrap=None):
    """The parameters ``harness.certify_dual`` is called with, as they come;
    ``wrap`` may replace each sample."""
    from wgauss import harness, linsys
    calls = []

    def counted(L, c):
        calls.append(c)
        sample = linsys.certify_dual(L, c)
        return wrap(sample) if wrap and sample else sample

    monkeypatch.setattr(harness, "certify_dual", counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_reconstruct_g4_certificates_match_the_per_root_loop(monkeypatch, seed):
    # one certificate per Galois orbit, copied to the conjugates, gives every
    # root the certificate it gets on its own: the bench curve's pool seeds
    from wgauss import harness
    real, seen = harness._dual_certificates, []

    def recorded(L, bf, cap):
        seen.append((L, real(L, bf, cap)))
        return seen[-1][1]

    monkeypatch.setattr(harness, "_dual_certificates", recorded)
    rep = run_reconstruct(ExperimentConfig(experiment="reconstruct", curve=G4, n=2, k=1,
                                           trials=3, seed=seed))
    (L, certs), = seen
    assert rep["dual_certificates"] == certs == _per_root_certificates(L)
    assert len(certs) == 12


def _g4_orbit_curve(p, kind, i):
    from test_curves import _gram_kind, _random_g4
    label = f"cone-{p}-{i}" if kind == "cone" else f"branch-{p}-{kind}-{i}"
    return find_g13(_random_g4(p, kind, random.Random(label), kind_of=_gram_kind), seed=i)


# g^1_3's whose branch roots fit the cap: over F_7, orbits of sizes 1, 1, 2
# (a double root, contact order 3), 4 and 4 in F_(7^4); over F_(13^2) a
# cone's orbits of sizes 2, 2, 4 and 4 in F_(13^8)
@pytest.mark.parametrize("p, kind, i", [(7, "split", 3), (13, "cone", 1)])
def test_g13_certificates_match_the_per_root_loop(p, kind, i):
    from wgauss.harness import _dual_certificates
    from wgauss.linsys import dual_branch_form
    L = _g4_orbit_curve(p, kind, i)
    bf = dual_branch_form(L)
    _, orbits = bf.orbits()
    assert len({len(where) for _, _, where in orbits}) > 1
    certs = _dual_certificates(L, bf, 12)
    assert certs == _per_root_certificates(L)
    assert all(c["materialized"] for c in certs)


def test_g13_certificates_of_members_with_several_multiple_points(monkeypatch):
    # a g^1_3 member has one multiple point at most; a doubled member stands
    # in for one with several, whose conjugates are then certified one by one
    from wgauss.harness import _dual_certificates
    from wgauss.linsys import DualSample, dual_branch_form
    L = _g4_orbit_curve(7, "split", 3)
    bf = dual_branch_form(L)
    roots, orbits = bf.orbits()
    calls = _counted_certify_dual(
        monkeypatch, lambda s: DualSample(s.parameter, s.point, s.order, s.member * 2))
    assert _dual_certificates(L, bf, 12) == _per_root_certificates(L)
    # the 5 representatives, then every root again but the double one, whose
    # member 3P is still one point when doubled
    assert len(calls) == len(orbits) + len(roots) - 1 == 15
    assert set(calls) >= {st for st, m in roots if m == 1}


def test_g13_certificates_keep_the_cap_of_the_roots_field(monkeypatch):
    # over F_7 the zeros lie in F_(7^4); a member over F_7 whose points
    # needed F_(7^3) would need F_(7^12) at the zero itself: beyond a cap of
    # 8 it is recorded unmaterialized, as certifying it there would be
    from wgauss.algebra import ExtField
    from wgauss.harness import _dual_certificates
    from wgauss.linsys import DualSample, dual_branch_form
    L = _g4_orbit_curve(7, "split", 3)
    bf = dual_branch_form(L)
    roots, orbits = bf.orbits()
    K3 = ExtField(7, 3)

    def over_f73(s):
        if s.member.field.degree > 1:
            return s
        return DualSample(s.parameter, s.point, s.order, Divisor(L.curve, s.member.items, K3))

    _counted_certify_dual(monkeypatch, over_f73)
    certs = _dual_certificates(L, bf, 8)
    rational = {i for _, (_, r), where in orbits if r.field.degree == 1 for i in where}
    assert rational and len(rational) < len(roots)
    want = _per_root_certificates(L)
    for i in rational:
        want[i] = {"mult": want[i]["mult"], "materialized": False, "contact_order": None}
    assert certs == want


def test_reconstruct_g4_certifies_once_per_orbit(monkeypatch):
    # the bench curve's branch form factors into degrees 1, 1, 1, 3, 3, 3 over
    # the pencil's field F_(10007^2): 6 certificates for its 12 roots
    calls = _counted_certify_dual(monkeypatch)
    rep = run_reconstruct(ExperimentConfig(experiment="reconstruct", curve=G4, n=2, k=1,
                                           trials=8, seed=3))
    assert len(rep["dual_certificates"]) == 12
    assert len(calls) == 6
    assert sorted(c[1].field.degree for c in calls) == [2, 2, 2, 6, 6, 6]


def test_reconstruct_hyperelliptic_report(monkeypatch):
    # each witness is classified once, by the report's own nc verdict; the
    # injectivity sweep does not classify
    from wgauss import harness, linsys
    real, calls = linsys.classify_member, []

    def counted(L, E):
        calls.append(E)
        return real(L, E)

    monkeypatch.setattr(linsys, "classify_member", counted)
    monkeypatch.setattr(harness, "classify_member", counted)
    he_small = {"model": "hyperelliptic", "field": {"type": "prime", "p": 11},
                "f": [0, -1, 0, 0, 0, 0, 0, 1]}
    cfg = ExperimentConfig(experiment="reconstruct", curve=he_small, n=2, k=2,
                           trials=5, seed=2)
    rep = run_reconstruct(cfg)
    assert rep["passed"]
    assert rep["verdicts"]["beta_injective_on_sweep"]
    assert len(calls) == cfg.trials


def test_reconstruct_hyperelliptic_k_above_n_is_a_configuration_error():
    # k = 0 too: a witness doubles at least one point
    he_small = {"model": "hyperelliptic", "field": {"type": "prime", "p": 11},
                "f": [0, -1, 0, 0, 0, 0, 0, 1]}
    for n, k in [(1, 2), (2, 0)]:
        cfg = ExperimentConfig(experiment="reconstruct", curve=he_small, n=n, k=k,
                               trials=2, seed=2)
        with pytest.raises(ValueError, match="k <= n"):
            run_reconstruct(cfg)


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "wgauss.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


def test_cli_validate(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(HE_G3))
    proc = run_cli("curve", "validate", str(path))
    assert proc.returncode == 0
    assert "genus=3" in proc.stdout
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "hyperelliptic",
                               "field": {"type": "prime", "p": 11},
                               "f": [0, 0, 0, 0, 1]}))
    proc = run_cli("curve", "validate", str(bad))
    assert proc.returncode == 2


def test_cli_fiber_census_and_exit_codes(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(HE_G3))
    out = tmp_path / "rep.json"
    proc = run_cli("fiber-census", "--curve", str(path), "--n", "2",
                   "--trials", "5", "--seed", "1", "--out", str(out))
    assert proc.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] and rep["config"]["seed"] == 1
    # unsupported n for the model
    proc = run_cli("fiber-census", "--curve", str(path), "--n", "9",
                   "--trials", "1", "--seed", "1")
    assert proc.returncode == 3
    # missing file
    proc = run_cli("fiber-census", "--curve", str(tmp_path / "nope.json"),
                   "--n", "2")
    assert proc.returncode == 4


def test_cli_usage_errors_exit_4():
    # status 2 means a failed verdict, so a bad command line is a parse error
    for args in [("fiber-census", "--n", "2"), ("no-such-command",),
                 ("reconstruct", "--curve", "c.json", "--n", "x", "--k", "1")]:
        proc = run_cli(*args)
        assert proc.returncode == 4, args
        assert "error:" in proc.stderr and not proc.stdout
    assert run_cli("--help").returncode == 0


def test_cli_bn_table(tmp_path):
    out = tmp_path / "t.csv"
    proc = run_cli("bn-table", "--g-min", "3", "--g-max", "5",
                   "--format", "csv", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("g,n,k,")
    proc = run_cli("bn-table", "--g-min", "6", "--g-max", "3")
    assert proc.returncode == 4


def test_json_interfaces():
    # LinearSpan / CompleteSystem / DualSample serialization
    import random
    from wgauss.curves import validate
    from wgauss.harness import sample_smooth_divisor
    from wgauss.linsys import complete_system, dual_samples
    from wgauss.spans import span
    from wgauss.divisors import Divisor

    curve = validate(HE_G3)
    rng = random.Random(21)
    D, _ = sample_smooth_divisor(curve, 2, rng)
    sp = span(D)
    sj = sp.to_json()
    assert sj["ambient"] == 3 and len(sj["hyperplanes"]) == sp.s
    assert "plucker" in sj

    P = D.support()[0]
    pair = Divisor(curve, [(P, 1), (curve.involution(P), 1)])
    L = complete_system(pair)
    lj = L.to_json()
    assert lj["dim"] == 1 and len(lj["basis"]) == 2
    samples = dual_samples(L)
    assert samples and json.dumps([s.to_json() for s in samples])


def test_oracle_matches_planted_structure():
    from wgauss.curves import validate
    from wgauss.divisors import Divisor
    from wgauss.gauss import in_multiple_locus
    from wgauss.harness import sample_smooth_divisor
    import random
    g4_small = {"model": "canonical_g4", "field": {"type": "prime", "p": 7},
                "forms": G4["forms"]}
    curve = validate(g4_small)
    rng = random.Random(11)
    for _ in range(3):
        D, _ = sample_smooth_divisor(curve, 2, rng)
        got = multiple_locus_oracle(curve, D, 2)
        assert got == in_multiple_locus(D)


def test_oracle_decides_each_point_of_the_divisor_once(monkeypatch):
    # a plane quartic has no g^1_2, so no q gives dim |P + q| = 1 and the
    # oracle walks all three tables, in each of which the rational point P
    # of D recurs
    from wgauss import harness
    from wgauss.curves import ProjectivePoint, validate
    from wgauss.divisors import Divisor
    curve = validate(dict(KLEIN, field={"type": "prime", "p": 5}))
    D = Divisor(curve, [(ProjectivePoint(curve.field, [1, 0, 0]), 1)])
    dim_complete, calls = harness.dim_complete, []

    def counted(E):
        calls.append(E)
        return dim_complete(E)

    monkeypatch.setattr(harness, "dim_complete", counted)
    assert multiple_locus_oracle(curve, D, 3) is False
    assert len(calls) == 1


def reference_oracle(curve, D, oracle_cap):
    """``multiple_locus_oracle`` on field elements, as it stood before the
    coded point tables: each point's canonical vector is reduced against the
    RREF of D's conditions, and every point is looked up in supp(D)."""
    n = D.degree
    decided = set()
    for m in range(1, oracle_cap + 1):
        K, pts, _ = curve_points_cached(curve, m)
        fld = common_field(D.field, K)
        R, pivots = hyperplane_conditions(D).map_field(fld).rref()
        support = {P.coerce(fld): P for P in D.support()}
        for q in pts:
            qc = q if K is fld else q.coerce(fld)
            if qc in support:
                if support[qc] not in decided:
                    decided.add(support[qc])
                    if dim_complete(D + Divisor(curve, [(q, 1)])) == 1:
                        return True
                continue
            row = reduce_row(curve.canonical_coords(qc).coords, zip(pivots, R.rows))
            if n + 1 - (len(pivots) + any(row)) == 1:
                return True
    return False


def _oracle_verdicts(curve, divisors, cap):
    """The oracle's verdicts on ``divisors``, checked against the reference,
    with supp(D) inside the row space found on each table."""
    out = []
    for D in divisors:
        for m in range(1, cap + 1):
            K, pts, table = curve_points_cached(curve, m)
            fld = common_field(D.field, K)
            if fld is not K:
                table = table.map_field(fld)
            on = set(table.in_row_space(hyperplane_conditions(D).map_field(fld)))
            support = {P.coerce(fld) for P in D.support()}
            assert {j for j, q in enumerate(pts) if q.coerce(fld) in support} <= on
        got = multiple_locus_oracle(curve, D, cap)
        assert got == reference_oracle(curve, D, cap), D
        out.append(got)
    return out


def _sampled(curve, n, seeds):
    return [sample_smooth_divisor(curve, n, random.Random(s))[0] for s in seeds]


def test_oracle_matches_the_element_reference_on_g4_f7():
    curve = validate(G4_F7)
    L = find_g13(curve, seed=5)
    planted = []
    for j in range(7):
        pts = [P for P, m in L.member((curve.field.one, curve.field.elem(j))).items
               for _ in range(m)]
        if pts[0] != pts[1]:
            planted.append(Divisor(curve, [(pts[0], 1), (pts[1], 1)]))
    assert any(_oracle_verdicts(curve, planted, 3))
    assert not all(_oracle_verdicts(curve, _sampled(curve, 2, range(12)), 3))


def test_oracle_matches_the_element_reference_across_fields():
    # D over F_49: its conditions and the F_7 table meet in F_49, and the
    # F_(7^3) table in the tuple-coded F_(7^6)
    curve = validate(G4_F7)
    K, pts = curve.points_over(2)
    Q = curve.points_over(1)[1][0]
    divisors = []
    for P in [P for P in pts if any(c.coeffs[1:] for c in P.coords)][:7:6]:
        conj = ProjectivePoint(K, [c ** 7 for c in P.coords])
        divisors += [Divisor(curve, [(P, 1), (conj, 1)]), Divisor(curve, [(P, 1), (Q, 1)])]
    assert {D.field.order for D in divisors} == {49}
    assert common_field(K, curve_points_cached(curve, 3)[0]).order == 7 ** 6
    # a False verdict walks all three tables, the last one in F_(7^6)
    assert set(_oracle_verdicts(curve, divisors, 3)) == {True, False}


KLEIN_F5 = {**KLEIN, "field": {"type": "prime", "p": 5}}


@pytest.mark.parametrize("desc", [HE_G3_F11, KLEIN_F5], ids=["he-f11", "klein-f5"])
def test_oracle_matches_the_element_reference_on_other_models(desc):
    curve = validate(desc)
    _oracle_verdicts(curve, _sampled(curve, 2, range(8)), 3)


def test_oracle_decides_each_table_by_kernel_combines(monkeypatch):
    # one combine of the coded table per kernel vector of D's conditions, and
    # no row reduced on field elements per point
    from wgauss import gauss
    from wgauss.algebra import kernel, linalg
    curve = validate(G4_F7)
    tables = [curve_points_cached(curve, m)[2] for m in (1, 2, 3)]
    divisors = _sampled(curve, 2, range(20, 26))
    reduced, combined = [], []

    def refused(row, echelon):
        reduced.append(row)
        return reduce_row(row, echelon)

    monkeypatch.setattr(linalg, "reduce_row", refused)
    monkeypatch.setattr(gauss, "reduce_row", refused)
    for cls in (kernel.FpKernel, kernel.ZechKernel, kernel.TupleKernel):
        def counted(self, cs, polys, combine=cls.combine):
            combined.append(id(polys))
            return combine(self, cs, polys)
        monkeypatch.setattr(cls, "combine", counted)
    for D in divisors:
        combined.clear()
        multiple_locus_oracle(curve, D, 3)
        free = curve.genus - hyperplane_conditions(D).rank()
        assert combined.count(id(tables[0].columns)) == free
        assert all(combined.count(id(t.columns)) <= free for t in tables)
    assert reduced == []


def _fake_runner(result):
    def run(cfg):
        if isinstance(result, BaseException):
            raise result
        return result
    return run


@pytest.mark.parametrize("outcome, code", [
    ({"passed": True}, 0),
    ({"passed": False}, 2),
    ("unsupported", 3),
    (ValueError("degree 9 out of range 1..2"), 3),
    (ExtensionCapError("splitting field degree 18 exceeds cap 12"), 3),
])
def test_cli_exit_paths(tmp_path, monkeypatch, outcome, code):
    from wgauss import cli
    from wgauss.sections import UnsupportedConfiguration
    if outcome == "unsupported":
        outcome = UnsupportedConfiguration("no intersection divisor")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(HE_G3))
    monkeypatch.setattr(cli, "run_fiber_census", _fake_runner(outcome))
    assert cli.main(["fiber-census", "--curve", str(path), "--n", "2"]) == code


def test_cli_curve_without_rational_points_is_unsupported(tmp_path, capsys):
    # the Fermat quartic x^4 + y^4 + z^4 has no point over F_5 (x^4 is 0 or
    # 1 there), so the sampler runs out of budget: an unsupported
    # configuration, not a library fault
    from wgauss import cli
    fermat = {"model": "plane_quartic", "field": {"type": "prime", "p": 5},
              "form": {"4,0,0": 1, "0,4,0": 1, "0,0,4": 1}}
    assert validate(fermat).points_over(1)[1] == []
    path = tmp_path / "fermat.json"
    path.write_text(json.dumps(fermat))
    assert cli.main(["fiber-census", "--curve", str(path), "--n", "2", "--trials", "1"]) == 3
    assert "unsupported configuration: no point found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fiber-census", "locus-census", "reconstruct"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_census_without_trials_is_refused(tmp_path, capsys, command, trials):
    # zero records would pass every verdict vacuously
    from wgauss import cli
    path = tmp_path / "c.json"
    path.write_text(json.dumps(HE_G3))
    extra = ["--k", "1"] if command == "reconstruct" else []
    assert cli.main([command, "--curve", str(path), "--n", "2", "--trials", trials,
                     *extra]) == 3
    assert "need at least one trial" in capsys.readouterr().err


def test_cli_negative_oracle_cap_is_refused(tmp_path, capsys):
    # an oracle over no extension would check nothing and fail every trial
    from wgauss import cli
    path = tmp_path / "c.json"
    path.write_text(json.dumps(G4_F7))
    assert cli.main(["locus-census", "--curve", str(path), "--n", "2", "--trials", "20",
                     "--oracle-cap", "-1"]) == 3
    assert "need an oracle cap >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("curve,n,seed,need", [(KLEIN_F11, 2, 5, 2), (G4_F7, 3, 0, 3)],
                         ids=["klein-f11-n2", "g4-f7-n3"])
def test_cli_oracle_cap_below_its_need_is_refused(tmp_path, capsys, curve, n, seed, need):
    # a q with dim |D + q| = 1 lies on (W . C) - D, of degree n when n = g - 1;
    # one cap lower the oracle misses some q and failed the theorem check
    from wgauss import cli
    path = tmp_path / "c.json"
    path.write_text(json.dumps(curve))
    argv = ["locus-census", "--curve", str(path), "--n", str(n), "--trials", "10",
            "--seed", str(seed), "--out", str(tmp_path / "r.json"), "--oracle-cap"]
    assert cli.main(argv + [str(need - 1)]) == 3
    assert f"need an oracle cap >= {need} for n = {n}" in capsys.readouterr().err
    assert cli.main(argv + [str(need)]) == 0


def test_cli_io_exit_paths(tmp_path):
    from wgauss import cli
    assert cli.main(["fiber-census", "--curve", str(tmp_path / "nope.json"),
                     "--n", "2"]) == 4
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["fiber-census", "--curve", str(broken), "--n", "2"]) == 4


def test_cli_bad_field_is_a_curve_error(tmp_path, capsys):
    # a field or number the description cannot supply: p = 4, a rational
    # field, a float coefficient, a fraction written as a string, a float p
    from wgauss import cli
    f = [0, -1, 0, 0, 0, 0, 0, 1]
    cases = [({"type": "prime", "p": 4}, f, "not an odd prime"),
             ({"type": "rational"}, f, "large prime such as 10007"),
             ({"type": "prime", "p": 10007}, [1.5] + f[1:], "expected an integer"),
             ({"type": "prime", "p": 10007}, ["1/2"] + f[1:], "expected an integer"),
             ({"type": "extension", "p": 7.0, "k": 2}, f, "expected an integer")]
    path = tmp_path / "bad.json"
    for field, coeffs, message in cases:
        path.write_text(json.dumps({"model": "hyperelliptic", "field": field, "f": coeffs}))
        assert cli.main(["curve", "validate", str(path)]) == 2
        assert message in capsys.readouterr().out
        assert cli.main(["fiber-census", "--curve", str(path), "--n", "2"]) == 3
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("desc", [
    {**HE_G3, "field": 7},
    [1, 2],
    {"model": "hyperelliptic", "field": {"type": "prime", "p": 7}},
    {**G4, "forms": {"quadric": G4["forms"]["quadric"]}},
    {**G4, "forms": 5},
    {**KLEIN, "form": [1]},
    {**HE_G3, "f": 7},
    {**KLEIN, "form": {"x,y,z": 1}},
    {**KLEIN, "form": {"": 1}},
    {**KLEIN, "form": {"1.5,2,1": 1}},
    {**KLEIN, "form": {"-1,5,0": 1, "0,3,1": 1}},
], ids=["field-int", "top-level-list", "no-f", "no-cubic", "forms-int", "form-list", "f-int",
        "key-letters", "key-empty", "key-float", "key-negative"])
def test_cli_malformed_curve_file(tmp_path, capsys, desc):
    # a curve file of the wrong shape is an invalid description: exit 2 for
    # curve validate, 3 for an experiment, never a traceback
    from wgauss import cli
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(desc))
    assert cli.main(["curve", "validate", str(path)]) == 2
    assert "invalid curve description" in capsys.readouterr().out
    assert cli.main(["fiber-census", "--curve", str(path), "--n", "2"]) == 3
    assert "invalid curve description" in capsys.readouterr().err


@pytest.mark.parametrize("error", ["field", "smooth-locus"])
def test_cli_library_faults_surface(tmp_path, monkeypatch, error):
    # a FieldError or NotInSmoothLocusError escaping a run is a library
    # fault, not an unsupported configuration: main() lets it propagate
    from wgauss import cli
    from wgauss.algebra import FieldError
    from wgauss.spans import NotInSmoothLocusError
    exc = (FieldError("mixed prime fields") if error == "field"
           else NotInSmoothLocusError("span has the wrong dimension"))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(HE_G3))
    monkeypatch.setattr(cli, "run_locus_census", _fake_runner(exc))
    with pytest.raises(type(exc)):
        cli.main(["locus-census", "--curve", str(path), "--n", "2"])
