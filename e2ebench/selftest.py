#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py [--workload NAME ...]

For each workload: a short untraced run and a traced run must be correct
and emit every metric named in BENCHMARK.json; a short run against a copy
of reference.json perturbed by 1 percent must be reported incorrect, with
failed steps. Exits 0 when every check passes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]


def result(args):
    p = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        return None
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    default=None, choices=[w["name"] for w in bench["workloads"]])
    workloads = ap.parse_args().workload or [w["name"] for w in bench["workloads"]]

    with open(HERE / "reference.json") as f:
        ref = json.load(f)
    for points in ref["reference"].values():
        for steps in points.values():
            for step in steps:
                step[0] *= 1.01  # velocity RMS, 10x its tolerance band
    perturbed = ROOT / ".bench_build" / "perturbed_reference.json"
    perturbed.parent.mkdir(parents=True, exist_ok=True)
    perturbed.write_text(json.dumps(ref))

    failures = []
    for w in workloads:
        base = ["--workload", w, "--seed", "3", "--seconds", "1"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = result(base + ["--trace", str(trace)])
            if r is None:
                failures.append(f"{w} trace {trace}: run failed")
                continue
            missing = [m["name"] for m in bench[kind]
                       if m["name"] not in r["metrics"]]
            if missing:
                failures.append(f"{w} trace {trace}: missing {missing}")
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                failures.append(f"{w} trace {trace}: not correct: "
                                f"{r['failed']} of {r['attempted']} failed")
        r = result(base + ["--trace", "0", "--reference", str(perturbed)])
        if r is None or r["correct"] or r["failed"] == 0:
            failures.append(f"{w}: perturbed reference was not detected")
        print(f"{w}: {'ok' if not any(x.startswith(w) for x in failures) else 'FAILED'}")

    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
