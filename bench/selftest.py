"""Self-test of the benchmark on tiny inputs (about a minute).

    python3 bench/selftest.py

For every workload's tiny stand-in (workloads.TINY) it checks that an
untraced and a traced run print every metric BENCHMARK.json names, with its
unit, as the last line's JSON; that correct reports count no failed ops; that
a corrupted pinned digest counts the ops of that report as failed; and that
run.py refuses to run, printing no result, where src/ is missing.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import workloads


def _check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def _printed(result):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_result(result)
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _tiny_pins():
    pins = {}
    for w in workloads.WORKLOADS:
        pins[w] = {}
        for s in range(2):
            reply = run._worker({"workload": w, "seed": s, "tiny": True})
            pins[w][str(s)] = {k: r["sha256"] for k, r in reply["reports"].items()}
    return pins


def check_metrics(spec, pins):
    for w in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.measure(w, 0, 0, trace, pins, tiny=True)
            lines, last = _printed(result)
            _check(set(last) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace={int(trace)}: last line has the four keys")
            _check(last["correct"] and last["failed"] == 0 and last["attempted"] > 0,
                   f"{w} trace={int(trace)}: {last['attempted']} ops, none failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            _check(got == want, f"{w} trace={int(trace)}: every {key} metric "
                                f"with its unit")
            printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1]}
            missing = [n for n, u in want.items() if printed.get(n) != u]
            _check(not missing, f"{w} trace={int(trace)}: a printed line per "
                                f"metric with its unit" + (f" (missing: {missing})"
                                                           if missing else ""))
            if not trace:
                _check(all(v["value"] > 0 for v in last["metrics"].values()),
                       f"{w}: end-to-end metrics are nonzero")


def check_corrupted_pin(pins):
    w = "fiber-large-p"
    first = next(workloads.rep_seeds(w, 0, tiny=True))
    bad = json.loads(json.dumps(pins))
    label = next(iter(bad[w][str(first)]))
    bad[w][str(first)][label] = "0" * 64
    ops = dict(workloads.configs(w, tiny=True))[label]["trials"]
    for trace in (False, True):
        result, _ = run.measure(w, 0, 0, trace, bad, tiny=True)
        # a traced run makes one untraced and one traced rep per seed
        want = ops * (2 if trace else 1)
        _check(not result["correct"] and result["failed"] == want,
               f"trace={int(trace)}: corrupted pin counts {want} failed ops")


def check_refuses_without_sources():
    scratch = run.OUT / "selftest-layout"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(run.BENCH, scratch / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "locus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60)
    shutil.rmtree(scratch)
    _check(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ run.py exits nonzero and prints no result")


def main():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    _check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads")
    pins = _tiny_pins()
    check_metrics(spec, pins)
    check_corrupted_pin(pins)
    check_refuses_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
