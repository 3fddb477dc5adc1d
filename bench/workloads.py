"""Workload definitions: the harness configurations each benchmark workload
runs, and the pool of harness seeds whose report digests are pinned.

A workload rep is one list of harness calls (``run_fiber_census``,
``run_locus_census`` or ``run_reconstruct``) made in a fresh interpreter, all
with one harness seed taken from the workload's pool.  The benchmark's
``--seed`` only chooses which pool seeds a run visits and in what order; the
harness receives nothing but the configurations built here.
"""

import random

HE_G3 = {"model": "hyperelliptic", "field": {"type": "prime", "p": 10007},
         "f": [0, -1, 0, 0, 0, 0, 0, 1]}                      # y^2 = x^7 - x
KLEIN = {"model": "plane_quartic", "field": {"type": "prime", "p": 10007},
         "form": {"3,1,0": 1, "0,3,1": 1, "1,0,3": 1}}
_G4_FORMS = {"quadric": {"1,0,0,1": 1, "0,1,1,0": -1},
             "cubic": {"3,0,0,0": 1, "0,3,0,0": 1, "0,0,3,0": 1,
                       "0,0,0,3": 1, "1,1,1,0": 1}}
G4 = {"model": "canonical_g4", "field": {"type": "prime", "p": 10007},
      "forms": _G4_FORMS}
G4_F7 = {"model": "canonical_g4", "field": {"type": "prime", "p": 7},
         "forms": _G4_FORMS}
HE_F11 = {"model": "hyperelliptic", "field": {"type": "prime", "p": 11},
          "f": [0, -1, 0, 0, 0, 0, 0, 1]}

# name -> (pool size, [(label, ExperimentConfig keyword arguments)]).
# BENCHMARK.json records why each workload is there.
WORKLOADS = {
    # fiber law at generic characteristic: root finding in F_(10007^k) and
    # one span/ell per subdivisor; one (W . C) per trial, no point tables
    "fiber-large-p": (32, [
        ("he-g3", dict(experiment="fiber-census", curve=HE_G3, n=2, trials=100)),
        ("klein", dict(experiment="fiber-census", curve=KLEIN, n=2, trials=60)),
        ("g4", dict(experiment="fiber-census", curve=G4, n=3, trials=15)),
    ]),
    # in_Rnk recomputes (W . C) for every k; the F_7 half builds the point
    # tables over F_(7^m), m <= 3, for the exhaustive oracle
    "locus": (16, [
        ("g4-f7", dict(experiment="locus-census", curve=G4_F7, n=2, trials=20,
                       oracle_cap=3)),
        ("g4-f10007", dict(experiment="locus-census", curve=G4, n=3, trials=40)),
    ]),
    # a few expensive genus-4 hyperplane sections, linsys and series
    # contact orders
    "reconstruct-g4": (16, [
        ("g4", dict(experiment="reconstruct", curve=G4, n=2, k=1, trials=8)),
    ]),
}

# Small stand-ins with the same experiments, for the benchmark's self-test.
TINY = {
    "fiber-large-p": [
        ("he-g3", dict(experiment="fiber-census", curve=HE_G3, n=2, trials=2))],
    "locus": [
        ("he-f11", dict(experiment="locus-census", curve=HE_F11, n=2, trials=2,
                        oracle_cap=1))],
    "reconstruct-g4": [
        ("he-f11", dict(experiment="reconstruct", curve=HE_F11, n=2, k=1,
                        trials=2))],
}


def configs(workload, tiny=False):
    """The (label, config kwargs) list of one rep of ``workload``."""
    return TINY[workload] if tiny else WORKLOADS[workload][1]


def curves(workload, tiny=False):
    """Distinct curve descriptions the workload validates during set-up."""
    out = []
    for _, kw in configs(workload, tiny):
        if kw["curve"] not in out:
            out.append(kw["curve"])
    return out


def rep_seeds(workload, seed, tiny=False):
    """Endless sequence of pool seeds for the reps of one run."""
    size = 2 if tiny else WORKLOADS[workload][0]
    order = list(range(size))
    random.Random(seed).shuffle(order)
    while True:
        yield from order
