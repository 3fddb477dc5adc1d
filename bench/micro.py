"""Kernel micro-timings: field, polynomial and matrix kernels in isolation.

Each figure is the median over several batches (one for the slow deg-6 root
finding) of the time of one call, with inputs drawn from the run's seed.
Loop overhead (tens of ns) is included.
"""

import random
from statistics import median
from time import perf_counter_ns

from wgauss.algebra import (ExtField, MatrixExact, Poly, PrimeField, plucker,
                            powmod, roots_in_splitting_extension)

BATCHES = 7


def _per_call_ns(fn, args, batches=BATCHES):
    """Median over batches of (batch time / len(args)) for fn(*a), a in args,
    after one untimed pass (which builds any extension field on first use)."""
    for a in args:
        fn(*a)
    out = []
    for _ in range(batches):
        t0 = perf_counter_ns()
        for a in args:
            fn(*a)
        out.append((perf_counter_ns() - t0) / len(args))
    return median(out)


def _nonzero(field, rng):
    while True:
        x = field.rand(rng)
        if x:
            return x


def field_timings(rng):
    fields = {"F10007": PrimeField(10007), "F7e3": ExtField(7, 3),
              "F10007e2": ExtField(10007, 2)}
    out = {}
    for tag, fld in fields.items():
        pairs = [(_nonzero(fld, rng), _nonzero(fld, rng)) for _ in range(2000)]
        one = fld.one
        out[f"algebra.fields.mul_ns.{tag}"] = _per_call_ns(lambda a, b: a * b, pairs)
        out[f"algebra.fields.inv_ns.{tag}"] = _per_call_ns(
            lambda a, b: one / a, pairs)
    return out


def _monic(fld, deg, rng):
    return Poly(fld, [fld.rand(rng) for _ in range(deg)] + [fld.one])


def kernel_timings(rng):
    F = PrimeField(10007)
    x = Poly.x(F)
    mods = [(_monic(F, 6, rng),) for _ in range(20)]
    sextics = [(_monic(F, 6, rng),) for _ in range(3)]
    # MatrixExact caches its RREF, so every call builds a fresh matrix
    mats = [([[F.rand(rng) for _ in range(8)] for _ in range(4)],)
            for _ in range(20)]
    us = 1e3
    return {
        "algebra.poly.powmod_deg6.us":
            _per_call_ns(lambda f: powmod(x, F.char, f), mods) / us,
        "algebra.poly.roots_deg6.us":
            _per_call_ns(lambda f: roots_in_splitting_extension(f, cap=12),
                         sextics, batches=1) / us,
        "algebra.linalg.rref_4x8.us":
            _per_call_ns(lambda rows: MatrixExact(F, rows).rref(), mats) / us,
        "algebra.linalg.plucker_4x8.us":
            _per_call_ns(lambda rows: plucker(MatrixExact(F, rows)), mats) / us,
    }


def timings(seed):
    rng = random.Random(seed)
    out = field_timings(rng)
    out.update(kernel_timings(rng))
    return out
