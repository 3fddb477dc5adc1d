"""Regenerate pins.json: the report SHA-256 of every (workload, pool seed).

    python3 bench/pin.py [WORKLOAD ...]

Run it only at a commit whose reports are known to be right: the benchmark
counts every later report that differs from these digests as failed.  A
report that fails its own verdicts is not pinned and stops the script.
"""

import json
import sys

import run
import workloads


def pin(workload):
    out = {}
    for s in range(workloads.WORKLOADS[workload][0]):
        reply = run._worker({"workload": workload, "seed": s})
        if reply is None:
            raise SystemExit(f"{workload} seed {s}: worker failed")
        for label, rep in reply["reports"].items():
            if not rep["passed"]:
                raise SystemExit(f"{workload} seed {s} {label}: verdicts fail")
        out[str(s)] = {label: rep["sha256"] for label, rep in reply["reports"].items()}
        print(f"{workload} seed {s}: run_s {reply['run_s']:.2f}", flush=True)
    return out


def main(names):
    pins = {}
    if run.PINS.exists():
        with open(run.PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    for name in names or sorted(workloads.WORKLOADS):
        pins[name] = pin(name)
        with open(run.PINS, "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
