"""Experiment drivers: censuses, reconstruction demos, and reports.

Each driver takes an ExperimentConfig, runs seeded trials, and produces a
JSON-ready report with a fixed key order: the config echo, library and
curve identification, per-trial records, aggregates, and named verdicts.
Identical (config, seed) pairs give bit-identical reports; trials are
seeded individually so they can run in any order.
"""

import json
import math
import random
from dataclasses import dataclass, fields

from . import __version__
from .algebra.fields import FieldError, common_field
from .algebra.linalg import VectorTable
from .algebra.poly import ExtensionCapError
from .curves import curve_hash, validate
from .divisors import Divisor
from .gauss import (
    expected_generic_fiber,
    fiber,
    gauss_eval,
    hyperelliptic_fiber_prediction,
    intersection_degree,
    rnk_flag,
)
from .linsys import (
    beta,
    certify_dual,
    classify_member,
    dual_branch_form,
    find_g13,
    hyperelliptic_image_witness,
    reconstruct_system,
)
from .sections import UnsupportedConfiguration
from .spans import NotInSmoothLocusError, dim_complete, hyperplane_conditions


@dataclass
class ExperimentConfig:
    experiment: str
    curve: dict | None = None
    curve_path: str | None = None
    n: int = 0
    k: int = 0
    trials: int = 0
    seed: int = 0
    ext_cap: int = 12
    oracle_cap: int = 0       # exhaustive q-search cap (0 = disabled)
    g_min: int = 0
    g_max: int = 0
    fmt: str = "json"

    def echo(self):
        """Every field but the curve itself, in declaration order; ``fmt``
        is echoed as "format"."""
        return {"format" if f.name == "fmt" else f.name: getattr(self, f.name)
                for f in fields(self) if f.name != "curve"}


def _trial_rng(seed, index):
    return random.Random(seed * 1_000_003 + index)


def _report_skeleton(cfg, curve):
    return {
        "config": cfg.echo(),
        "library_version": __version__,
        "curve_hash": curve_hash(curve),
        "field": {"p": curve.field.char, "ext": curve.field.degree},
    }


def sample_smooth_divisor(curve, n, rng):
    """(D, gauss_eval(D)) for n sampled points forming a divisor D in the
    smooth-locus preimage; a D off it is rejected by the Gauss map itself,
    so each accepted D costs one span."""
    for _ in range(200):
        items = {}
        while sum(items.values()) < n:
            P = curve.sample_point(rng)
            items[P] = items.get(P, 0) + 1
        D = Divisor(curve, list(items.items()))
        try:
            return D, gauss_eval(D)
        except NotInSmoothLocusError:
            continue
    raise UnsupportedConfiguration("could not sample a smooth-locus divisor")


def _require_trials(cfg):
    """A run over no trials decides nothing: refuse it, as ``--n 0`` is."""
    if cfg.trials < 1:
        raise ValueError(f"need at least one trial, got {cfg.trials}")


def run_fiber_census(cfg):
    _require_trials(cfg)
    curve = validate(cfg.curve)
    expected = expected_generic_fiber(curve, cfg.n)
    records = []
    histogram = {}
    generic_ok = True
    prediction_ok = True
    unflagged = 0
    for i in range(cfg.trials):
        rng = _trial_rng(cfg.seed, i)
        D, W = sample_smooth_divisor(curve, cfg.n, rng)
        rep = fiber(W, cfg.n, cap=cfg.ext_cap)
        flagged = rep.flags["nonreduced"] or rep.flags["weierstrass"]
        histogram[rep.cardinality] = histogram.get(rep.cardinality, 0) + 1
        rec = {
            "trial": i,
            "divisor": D.to_json(),
            "deg_WC": rep.WC.degree,
            "cardinality": rep.cardinality,
            "flags": rep.flags,
        }
        if curve.model == "hyperelliptic":
            members, strict = hyperelliptic_fiber_prediction(D)
            same = sorted(map(repr, members)) == sorted(map(repr, rep.fiber))
            rec["prediction_matches"] = same
            rec["prediction_strict_drop"] = strict
            prediction_ok = prediction_ok and same
            if strict != (rep.cardinality < expected):
                prediction_ok = False
        if not flagged:
            unflagged += 1
            if rep.cardinality != expected:
                generic_ok = False
        records.append(rec)
    report = _report_skeleton(cfg, curve)
    report["expected_generic"] = expected
    report["records"] = records
    report["histogram"] = {str(k): v for k, v in sorted(histogram.items())}
    report["unflagged_trials"] = unflagged
    verdicts = {"generic_cardinality": generic_ok}
    if curve.model == "hyperelliptic":
        verdicts["prediction_matches"] = prediction_ok
    report["verdicts"] = verdicts
    report["passed"] = all(verdicts.values())
    return report


_POINT_CACHE = {}


def curve_points_cached(curve, rel_degree):
    """(K, C(K), its canonical coordinates as a VectorTable), made once."""
    key = (curve_hash(curve), rel_degree)
    if key not in _POINT_CACHE:
        K, pts = curve.points_over(rel_degree)
        table = VectorTable(K, [curve.canonical_coords(q).coords for q in pts])
        _POINT_CACHE[key] = K, pts, table
    return _POINT_CACHE[key]


def multiple_locus_oracle(curve, D, oracle_cap):
    """Exhaustive search for q with dim |D + q| = 1 over C(F_(p^m)), m <=
    oracle_cap.  Independent of the intersection-divisor test.

    dim |D + q| = deg(D) + 1 - rank of D's conditions stacked with q's
    canonical vector, which adds one to the rank unless it lies in their row
    space.  That is decided for a whole table at once on the field's kernel
    codes (``VectorTable.in_row_space``); a table is mapped into a larger
    field when D's field does not lie in K.  The first condition row of a
    point of D is its canonical vector, so only the points in that row space
    are looked up in supp(D), and those fall back to the full computation,
    once per point: dim |D + q| does not change under field extension, and
    a point of D recurs in the table of every m it is defined over.
    """
    n = D.degree
    decided = set()
    for m in range(1, oracle_cap + 1):
        K, pts, table = curve_points_cached(curve, m)
        fld = common_field(D.field, K)
        base = hyperplane_conditions(D).map_field(fld)
        on = (table if K is fld else table.map_field(fld)).in_row_space(base)
        rank = base.rank()
        support = {P.coerce(fld): P for P in D.support()}
        for j, q in enumerate(pts):
            P = support.get(q if K is fld else q.coerce(fld)) if j in on else None
            if P is not None:
                if P not in decided:
                    decided.add(P)
                    if dim_complete(D + Divisor(curve, [(q, 1)])) == 1:
                        return True
            elif n + 1 - (rank + (j not in on)) == 1:
                return True
    return False


def _oracle_need(curve, n):
    """The least exhaustive oracle cap for n-point divisors.  The oracle's q
    lies on (W . C) - D, whose closed points can need F_(p^e), e up to its
    degree: iota(D), rational, on the hyperelliptic model; on a canonical
    one of degree n at n = g - 1 and at most n - 1 below (Clifford)."""
    if curve.model == "hyperelliptic":
        return 1
    return n if n == curve.genus - 1 else max(1, n - 1)


def run_locus_census(cfg):
    _require_trials(cfg)
    if cfg.oracle_cap < 0:   # an oracle over no extension checks nothing
        raise ValueError(f"need an oracle cap >= 0 (0 = no oracle), got {cfg.oracle_cap}")
    curve = validate(cfg.curve)
    n = cfg.n
    need = _oracle_need(curve, n)
    if 0 < cfg.oracle_cap < need:
        raise ValueError(f"need an oracle cap >= {need} for n = {n} on this curve "
                         f"(0 = no oracle), got {cfg.oracle_cap}")
    records = []
    nesting_ok = True
    oracle_checked = 0
    oracle_agree = True
    witnesses = {}
    for i in range(cfg.trials):
        rng = _trial_rng(cfg.seed, i)
        D, W = sample_smooth_divisor(curve, n, rng)
        deg = intersection_degree(W)
        flags = {k: rnk_flag(deg, n, k) for k in range(n + 1)}
        for k in range(0, n):
            if flags[k + 1] and not flags[k]:
                nesting_ok = False
        for k, v in flags.items():
            if v and k not in witnesses:
                witnesses[k] = D.to_json()
        rec = {
            "trial": i,
            "divisor": D.to_json(),
            "deg_WC": deg,
            "in_Rnk": {str(k): v for k, v in flags.items()},
            "rule": "k>=n-empty",
        }
        if cfg.oracle_cap:
            got = multiple_locus_oracle(curve, D, cfg.oracle_cap)
            rec["oracle_exists_q"] = got
            oracle_checked += 1
            if got != flags[1]:
                oracle_agree = False
        records.append(rec)
    planted = []
    if curve.model == "canonical_g4" and n == 2 and 1 not in witnesses:
        # members of a trisecant pencil supply witnesses for k = 1, decided
        # by the trials' own steps: the Gauss map, then one (W . C)
        try:
            L = find_g13(curve, seed=cfg.seed, cap=cfg.ext_cap)
            for j in range(6):
                E = L.member((curve.field.one, curve.field.elem(j)))
                pts = [P for P, m in E.items for _ in range(m)]
                D = Divisor(curve, [(pts[0], 1), (pts[1], 1)])
                try:
                    W = gauss_eval(D)
                except NotInSmoothLocusError:
                    continue
                if rnk_flag(intersection_degree(W), n, 1):
                    witnesses[1] = D.to_json()
                    planted.append({"k": 1, "divisor": D.to_json()})
                    break
        except UnsupportedConfiguration:
            pass
    report = _report_skeleton(cfg, curve)
    report["records"] = records
    report["planted_witnesses"] = planted
    report["witnesses"] = {str(k): v for k, v in sorted(witnesses.items())}
    verdicts = {
        "nesting": nesting_ok,
        "k_ge_n_empty": all(not r["in_Rnk"][str(n)] for r in records),
        "witnesses_k_below_n": (all(k in witnesses for k in range(n))
                                if curve.model == "hyperelliptic"
                                else (0 in witnesses and
                                      (1 in witnesses or curve.model != "canonical_g4"
                                       or n != 2))),
    }
    if cfg.oracle_cap:
        verdicts["oracle_agreement"] = oracle_agree
        report["oracle_checked"] = oracle_checked
    report["verdicts"] = verdicts
    report["passed"] = all(verdicts.values())
    return report


def run_reconstruct(cfg):
    _require_trials(cfg)
    curve = validate(cfg.curve)
    if curve.model == "canonical_g4":
        return _reconstruct_g4(cfg, curve)
    if curve.model == "hyperelliptic":
        return _reconstruct_hyperelliptic(cfg, curve)
    raise UnsupportedConfiguration(
        "reconstruction demos run on canonical_g4 or hyperelliptic models")


def _reconstruct_g4(cfg, curve):
    fld = curve.field
    L = find_g13(curve, seed=cfg.seed, cap=cfg.ext_cap)
    count = min(cfg.trials, 12)
    params = [(fld.one, fld.elem(j)) for j in range(count)]
    members = [L.member(c) for c in params]
    Ws = [beta(E) for E in members]
    L2, got = reconstruct_system(Ws, n=cfg.n, k=cfg.k, cap=cfg.ext_cap)
    member_match = got == members
    bf = dual_branch_form(L2)
    total = bf.formal_degree
    certs = _dual_certificates(L2, bf, cfg.ext_cap)
    verdicts = {
        "members_recovered": member_match,
        "dual_total_multiplicity": total == 2 * curve.genus - 2 + 2 * L.degree,
        "certificates_verified": all(
            (not c["materialized"]) or c["contact_order"] >= 2 for c in certs),
        "some_certificate_materialized": any(c["materialized"] for c in certs),
    }
    report = _report_skeleton(cfg, curve)
    report["system_degree"] = L.degree
    report["system_dim"] = L.r
    report["samples"] = len(params)
    report["dual_total"] = total
    report["dual_certificates"] = certs
    report["verdicts"] = verdicts
    report["passed"] = all(verdicts.values())
    return report


def _dual_certificates(L, bf, cap):
    """The report's certificates of bf's zeros, in ``bf.roots`` order.
    ``certify_dual`` runs once per Galois orbit, at a representative over
    the orbit's own field.  Frobenius carries its member and the member's
    one multiple point to each conjugate's, so the certificate is copied to
    them.  A member with several multiple points is certified at each
    conjugate instead.  A member that fits the cap over its own field but
    not over the zeros' field stays unmaterialized, as at the zero itself."""
    roots, orbits = bf.orbits(cap=cap)
    certs = [None] * len(roots)
    for m, rep, where in orbits:
        sample = certify_dual(L, rep)
        samples = [sample] * len(where)
        if sample and sum(k >= 2 for _, k in (sample.member - L.base_locus()).items) > 1:
            samples = [certify_dual(L, roots[i][0]) for i in where]
        elif sample and math.lcm(roots[where[0]][0][1].field.degree,
                                 sample.member.field.degree) > cap:
            samples = [None] * len(where)
        for i, s in zip(where, samples):
            certs[i] = {"mult": m, "materialized": s is not None,
                        "contact_order": s.order if s else None}
    return certs


def _reconstruct_hyperelliptic(cfg, curve):
    records = []
    ok_all = True
    for i in range(cfg.trials):
        rng = _trial_rng(cfg.seed, i)
        D, W = sample_smooth_divisor(curve, cfg.n, rng)
        try:
            L, Fw = hyperelliptic_image_witness(D, k=cfg.k, cap=cfg.ext_cap)
            ok = beta(Fw) == W
            nc = classify_member(L, Fw)["nc"]
        except (ExtensionCapError, FieldError):
            # a witness whose residual or span needs a splitting field beyond
            # the cap, or points with no common field: a failed trial
            ok, nc = False, False
        ok_all = ok_all and ok and bool(nc)
        records.append({"trial": i, "divisor": D.to_json(),
                        "witness_ok": ok, "nc": bool(nc)})
    report = _report_skeleton(cfg, curve)
    report["records"] = records
    verdicts = {"image_witnesses": ok_all}
    # parameter-to-span injectivity on an exhaustive small-field sweep
    if curve.field.order ** cfg.k <= 2000:
        rng = _trial_rng(cfg.seed, 999)
        D, _ = sample_smooth_divisor(curve, cfg.k, rng)
        L, Fw = hyperelliptic_image_witness(D, k=cfg.k, cap=cfg.ext_cap)
        seen = set()
        injective = True
        count = 0
        for c, E in L.members_rational():
            key = tuple(map(repr, beta(E).plucker()))
            if key in seen:
                injective = False
            seen.add(key)
            count += 1
        verdicts["beta_injective_on_sweep"] = injective
        report["sweep_members"] = count
    report["verdicts"] = verdicts
    report["passed"] = all(verdicts.values())
    return report


def run_bn_table(cfg):
    from .brillnoether import emit_table, table_to_csv, table_to_json
    if cfg.g_min < 3 or cfg.g_max < cfg.g_min:
        raise ValueError(f"invalid genus range [{cfg.g_min}, {cfg.g_max}]")
    rows = emit_table(range(cfg.g_min, cfg.g_max + 1))
    if cfg.fmt == "csv":
        return table_to_csv(rows)
    return table_to_json(rows)


def write_report(report, path):
    blob = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(blob)
    return blob
