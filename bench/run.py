"""Benchmark of the wgauss experiment drivers, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each rep runs one workload's harness calls (see workloads.py) in a fresh
interpreter, one after another, so module-level caches never carry over.
With ``--trace 0`` the run prints the end-to-end metrics: medians over reps
of set-up time, run time and peak RSS.  With ``--trace 1`` it alternates
untraced and traced reps on the same inputs and prints the per-layer metrics
of the traced ones, the tracing overhead and kernel micro-timings.  Every
report must pass its verdicts and match the SHA-256 pinned in pins.json;
``attempted``/``failed`` count ops (census trials, reconstructions).

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Raw figures, machine info and the layer map go to .bench_out/.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PINS = BENCH / "pins.json"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_SAMPLES = 7        # set-up-only interpreters per untraced run
WORKER_TIMEOUT = 120     # seconds, per rep
RUN_LIMIT = 160          # seconds: start no rep that would end past this

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}

# The CPU speed of a shared 2-vCPU machine drifts by up to 1.8x within
# minutes, which would swamp any change worth measuring.  Every interpreter
# samples a fixed pure-Python loop (worker.SpeedSampler) around and, every
# 0.2 s, during its work, and set-up and run times are reported at
# reference speed:  wall seconds (probes excluded) * PROBE_REF_S / probe.
# PROBE_REF_S is the probe's time on an uncontended core of a 2.0 GHz Xeon
# VM.  Unscaled wall times go to the result file and the printed lines.
PROBE_REF_S = 0.0027

EXT_DEGREES = (1, 2, 3, 4, 5, 6, 8, 12, 24)
WRAPPED_LAYERS = ("algebra.poly", "algebra.linalg", "curves", "divisors",
                  "spans", "gauss", "linsys", "harness")
MICRO = {
    **{f"algebra.fields.{op}_ns.{f}": "ns" for op in ("mul", "inv")
       for f in ("F10007", "F7e3", "F10007e2")},
    "algebra.poly.powmod_deg6.us": "us",
    "algebra.poly.roots_deg6.us": "us",
    "algebra.linalg.rref_4x8.us": "us",
    "algebra.linalg.plucker_4x8.us": "us",
}

# layer -> the end-to-end figures its metrics should move, and where
LAYER_MAP = {
    "harness": "run_s on locus (oracle, point cache); trial times on both censuses",
    "curves": "setup_s on all workloads (validate); run_s and peak_rss_mib on "
              "locus (points_over)",
    "divisors": "run_s on fiber-large-p (subdivisor enumeration, gcd_div)",
    "spans": "run_s on fiber-large-p (span); run_s on reconstruct-g4 and the "
             "F_10007 half of locus (hyperplane_section)",
    "gauss": "run_s on locus ((W . C) per in_Rnk); per_trial stays 1 on "
             "fiber-large-p",
    "linsys": "run_s on reconstruct-g4; find_g13 also on locus when no sampled "
              "trial witnesses k = 1",
    "algebra.poly": "run_s on fiber-large-p and reconstruct-g4 (root finding)",
    "algebra.linalg": "run_s on locus (oracle ranks) and fiber-large-p (spans)",
    "algebra.fields": "run_s on locus (F7e3) and fiber-large-p (F10007e2)",
}


# every per-layer metric name with its unit, in report order
PER_LAYER = {
    "harness.trial_ms.p50": "ms",
    "harness.trial_ms.p90": "ms",
    "harness.sample_smooth_divisor.accept_ratio": "ratio",
    "harness.multiple_locus_oracle.self_s": "s",
    "harness.curve_points_cached.hits": "count",
    "harness.curve_points_cached.misses": "count",
    "curves.validate.s": "s",
    "curves.points_over.s": "s",
    "curves.points_over.points": "count",
    "divisors.subdivisors.yielded": "count",
    "divisors.gcd_div.self_s": "s",
    "spans.span.calls": "count",
    "spans.span.self_s": "s",
    "spans.hyperplane_section.calls": "count",
    "spans.hyperplane_section.self_s": "s",
    "gauss.intersection_divisor.per_trial": "ratio",
    "gauss.intersection_divisor.self_s": "s",
    "gauss.in_Rnk.calls": "count",
    "gauss.fiber.self_s": "s",
    **{f"linsys.{f}.s": "s" for f in ("find_g13", "member", "reconstruct_system",
                                      "dual_branch_form", "contact_order")},
    "algebra.poly.roots_in_splitting_extension.calls": "count",
    "algebra.poly.roots_in_splitting_extension.self_s": "s",
    **{f"algebra.poly.roots_in_splitting_extension.ext_degree.{d}": "count"
       for d in EXT_DEGREES},
    "algebra.poly.poly_gcd.self_s": "s",
    "algebra.linalg.rref.calls": "count",
    "algebra.linalg.rref.self_s": "s",
    "algebra.linalg.plucker.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in WRAPPED_LAYERS},
    **MICRO,
    "trace.overhead_ratio": "ratio",
}


# -- workers ------------------------------------------------------------

def _worker(job):
    """Run worker.py on ``job`` in a fresh interpreter; its reply or None."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:      # run() has killed and reaped it
        print(f"worker timed out: {job}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker failed: {job}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _scaled(reply, key):
    return reply[key] * PROBE_REF_S / reply["probe_s"]


def _expected_ops(workload, tiny):
    return sum(1 if kw["experiment"] == "reconstruct" else kw["trials"]
               for _, kw in workloads.configs(workload, tiny))


def _failed_ops(workload, pool_seed, reply, pins, tiny, reference=None):
    """Ops of reports that fail a verdict, miss their pinned digest or (for a
    traced rep) differ from the untraced ``reference`` reply."""
    if reply is None:
        return _expected_ops(workload, tiny)
    pinned = pins.get(workload, {}).get(str(pool_seed), {})
    failed = 0
    for label, rep in reply["reports"].items():
        ok = rep["passed"] and rep["sha256"] == pinned.get(label)
        if reference is not None:
            ok = ok and rep["sha256"] == reference["reports"][label]["sha256"]
        failed += 0 if ok else rep["ops"]
    return failed


# -- metrics ------------------------------------------------------------

def _percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def layer_metrics(traces, micro, overhead):
    """Per-layer metrics: per-rep means of counts and times over the traced
    reps, pooled percentiles and ratios."""
    reps = len(traces)
    calls, self_s, incl_s, counts, layer_self, edges = {}, {}, {}, {}, {}, {}
    trial_ms, trials = [], 0
    for tr in traces:
        for dst, src in ((calls, tr["calls"]), (self_s, tr["self_s"]),
                         (incl_s, tr["incl_s"]), (counts, tr["counts"]),
                         (layer_self, tr["layer_self_s"])):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for child, parent, n in tr["parent_calls"]:
            edges[child, parent] = edges.get((child, parent), 0) + n
        trial_ms += tr["trial_ms"]
        trials += tr["trials"]

    def mean(table, key):
        return table.get(key, 0) / reps

    samples = calls.get("harness.sample_smooth_divisor", 0)
    attempts = edges.get(("spans.in_smooth_Wn", "harness.sample_smooth_divisor"), 0)
    misses = edges.get(("curves.points_over", "harness.curve_points_cached"), 0)
    m = {
        "harness.trial_ms.p50": _percentile(trial_ms, 50),
        "harness.trial_ms.p90": _percentile(trial_ms, 90),
        "harness.sample_smooth_divisor.accept_ratio":
            samples / attempts if attempts else 0.0,
        "harness.multiple_locus_oracle.self_s":
            mean(self_s, "harness.multiple_locus_oracle"),
        "harness.curve_points_cached.hits":
            (calls.get("harness.curve_points_cached", 0) - misses) / reps,
        "harness.curve_points_cached.misses": misses / reps,
        "curves.validate.s": mean(incl_s, "curves.validate"),
        "curves.points_over.s": mean(incl_s, "curves.points_over"),
        "curves.points_over.points": mean(counts, "curves.points_over.points"),
        "divisors.subdivisors.yielded": mean(counts, "divisors.subdivisors.yielded"),
        "divisors.gcd_div.self_s": mean(self_s, "divisors.gcd_div"),
        "spans.span.calls": mean(calls, "spans.span"),
        "spans.span.self_s": mean(self_s, "spans.span"),
        "spans.hyperplane_section.calls": mean(calls, "spans.hyperplane_section"),
        "spans.hyperplane_section.self_s": mean(self_s, "spans.hyperplane_section"),
        "gauss.intersection_divisor.per_trial":
            calls.get("gauss.intersection_divisor", 0) / trials if trials else 0.0,
        "gauss.intersection_divisor.self_s": mean(self_s, "gauss.intersection_divisor"),
        "gauss.in_Rnk.calls": mean(calls, "gauss.in_Rnk"),
        "gauss.fiber.self_s": mean(self_s, "gauss.fiber"),
    }
    for f in ("find_g13", "member", "reconstruct_system", "dual_branch_form",
              "contact_order"):
        m[f"linsys.{f}.s"] = mean(incl_s, f"linsys.{f}")
    rse = "algebra.poly.roots_in_splitting_extension"
    m[f"{rse}.calls"] = mean(calls, rse)
    m[f"{rse}.self_s"] = mean(self_s, rse)
    for d in EXT_DEGREES:
        m[f"{rse}.ext_degree.{d}"] = mean(counts, f"{rse}.ext_degree.{d}")
    m["algebra.poly.poly_gcd.self_s"] = mean(self_s, "algebra.poly.poly_gcd")
    m["algebra.linalg.rref.calls"] = mean(calls, "algebra.linalg.rref")
    m["algebra.linalg.rref.self_s"] = mean(self_s, "algebra.linalg.rref")
    m["algebra.linalg.plucker.self_s"] = mean(self_s, "algebra.linalg.plucker")
    for layer in WRAPPED_LAYERS:
        m[f"{layer}.self_s"] = mean(layer_self, layer)
    m.update(micro)
    m["trace.overhead_ratio"] = overhead
    extra = sorted(k for k in counts if k.startswith(f"{rse}.ext_degree.")
                   and int(k.rsplit(".", 1)[1]) not in EXT_DEGREES)
    return m, extra


# -- one run ------------------------------------------------------------

def measure(workload, seed, seconds, trace, pins, tiny=False):
    """Run ``workload`` for ``seconds``; the result object and raw figures."""
    seeds = workloads.rep_seeds(workload, seed, tiny)
    raw = {"reps": []}
    attempted = failed = 0
    setups, runs, rss, traces, pairs = [], [], [], [], []
    wall = {"setup_s": [], "run_s": [], "probe_s": []}     # unscaled
    micro = {}
    if trace:
        reply = _worker({"micro": True, "seed": seed})
        if reply is None:
            raise RuntimeError("kernel micro-timings failed")
        micro = reply["micro"]
    else:
        for _ in range(SETUP_SAMPLES):
            reply = _worker({"workload": workload, "tiny": tiny, "setup_only": True})
            if reply is None:
                raise RuntimeError("set-up failed")
            setups.append(_scaled(reply, "setup_s"))
            wall["setup_s"].append(reply["setup_s"])
            wall["probe_s"].append(reply["probe_s"])
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        s = next(seeds)
        job = {"workload": workload, "seed": s, "tiny": tiny}
        plain = _worker(job)
        attempted += _expected_ops(workload, tiny)
        failed += _failed_ops(workload, s, plain, pins, tiny)
        raw["reps"].append({"seed": s, "traced": False, "reply": plain})
        if plain is not None:
            setups.append(_scaled(plain, "setup_s"))
            runs.append(_scaled(plain, "run_s"))
            rss.append(plain["peak_rss_mib"])
            for key in wall:
                wall[key].append(plain[key])
        if trace:
            span_file = str(OUT / f"spans-{workload}-{len(traces)}.jsonl")
            traced = _worker(dict(job, trace=True, span_file=span_file))
            attempted += _expected_ops(workload, tiny)
            failed += _failed_ops(workload, s, traced, pins, tiny, reference=plain)
            if traced is not None:
                traces.append(traced.pop("trace"))
                if plain is not None:
                    pairs.append((_scaled(plain, "run_s"), _scaled(traced, "run_s")))
            raw["reps"].append({"seed": s, "traced": True, "reply": traced})
        now = time.monotonic()
        if now - start >= seconds or now - start + (now - rep_start) > RUN_LIMIT:
            break
    if not runs or (trace and not pairs):
        raise RuntimeError("no rep completed")
    if trace:
        overhead = sum(t for _, t in pairs) / sum(p for p, _ in pairs)
        values, extra = layer_metrics(traces, micro, overhead)
        if extra:
            raw["ext_degrees_not_reported"] = extra
        units = PER_LAYER
    else:
        values = {"setup_s": median(setups), "run_s": median(runs),
                  "peak_rss_mib": median(rss)}
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    raw.update(setup_s=setups, run_s=runs, peak_rss_mib=rss, wall=wall)
    return result, raw


def machine_info():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "platform": platform.platform()}


def print_result(result, lines=()):
    """Human-readable lines, then the result object as the last line."""
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name:<58} {m['value']:.6g} {m['unit']}")
    print(f"  {'ops':<58} {result['attempted']} count")
    print(f"  {'failed_ops':<58} {result['failed']} count")
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wgauss" / "__init__.py").is_file():
        print(f"no wgauss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    result, raw = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), pins)
    machine = machine_info()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "layer_map": LAYER_MAP, "result": result, "raw": raw},
                  fh, indent=1)
    wall = {k: median(v) for k, v in raw["wall"].items() if v}
    print_result(result, [
        "machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()),
        f"workload {args.workload}, seed {args.seed}, {len(raw['run_s'])} "
        f"untraced reps; details in {path.relative_to(ROOT)}",
        "unscaled medians: " + ", ".join(f"{k} {v:.4g} s" for k, v in wall.items()),
        "per-layer times are unscaled" if args.trace else
        f"times below are at reference speed (probe {PROBE_REF_S} s)"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
