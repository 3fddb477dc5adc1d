"""One benchmark rep in a fresh interpreter; prints one JSON line.

Usage: python3 bench/worker.py '<job json>' with src/ on PYTHONPATH.  The job
names the workload, the harness seed and whether to trace, time the kernels
or only set up.  The reply carries the set-up and run times, the speed probe
sampled around and during them, peak RSS, and the SHA-256, verdict and op
count of every harness report.
"""

import hashlib
import json
import os
import resource
import signal
import sys
from time import perf_counter

import workloads


PROBE_ITERS = 10_000
PROBE_EVERY_S = 0.2


def speed_probe():
    """Seconds a fixed pure-Python loop takes: integer arithmetic modulo a
    prime plus tuple and dict churn, the same kind of work as the library's.
    The benchmark scales measured times by it (see run.py)."""
    t0 = perf_counter()
    table = {}
    acc = 1
    for i in range(PROBE_ITERS):
        acc = (acc * 48271 + i) % 2147483647
        table[i & 1023] = (acc, i)
    return perf_counter() - t0


class SpeedSampler:
    """Runs speed_probe five times on entry and exit and every PROBE_EVERY_S
    seconds in between (on SIGALRM, so in the main thread between
    bytecodes).  ``clock`` is perf_counter minus the time spent in probes."""

    def __init__(self):
        self.samples = []
        self._probe_s = 0.0

    def _probe(self, *_):
        t = speed_probe()
        self.samples.append(t)
        self._probe_s += t

    def clock(self):
        return perf_counter() - self._probe_s

    def probe_s(self):
        """Harmonic mean of the samples: wall time times its inverse tracks
        the work done when the speed varies during the run."""
        return len(self.samples) / sum(1 / t for t in self.samples)

    def __enter__(self):
        for _ in range(5):
            self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(5):
            self._probe()


def _setup(workload, tiny, clock, tracer=None):
    """Import wgauss and certify every curve of the workload."""
    t0 = clock()
    import wgauss.harness  # noqa: F401  (imports every layer)
    if tracer is not None:
        tracer.install()
    from wgauss.curves import validate
    for desc in workloads.curves(workload, tiny):
        validate(desc)
    return clock() - t0


def _run(workload, seed, tiny, clock):
    from wgauss import harness
    runners = {"fiber-census": harness.run_fiber_census,
               "locus-census": harness.run_locus_census,
               "reconstruct": harness.run_reconstruct}
    reports = []
    t0 = clock()
    for label, kw in workloads.configs(workload, tiny):
        cfg = harness.ExperimentConfig(seed=seed, **kw)
        reports.append((label, cfg, runners[cfg.experiment](cfg)))
    run_s = clock() - t0
    out = {}
    for label, cfg, rep in reports:
        blob = harness.write_report(rep, None).encode("utf-8")
        out[label] = {"sha256": hashlib.sha256(blob).hexdigest(),
                      "passed": rep["passed"] is True,
                      "ops": 1 if cfg.experiment == "reconstruct" else cfg.trials}
    return run_s, out


def main(job):
    if job.get("micro"):
        import micro
        return {"micro": micro.timings(job["seed"])}
    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
    tiny = job.get("tiny", False)
    out = {}
    with SpeedSampler() as sampler:
        out["setup_s"] = _setup(job["workload"], tiny, sampler.clock, tracer)
        if not job.get("setup_only"):
            out["run_s"], out["reports"] = _run(job["workload"], job["seed"],
                                                tiny, sampler.clock)
    out["probe_s"] = sampler.probe_s()
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = tracer.summary()
        if job.get("span_file"):
            os.makedirs(os.path.dirname(job["span_file"]), exist_ok=True)
            tracer.dump(job["span_file"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
