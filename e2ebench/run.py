#!/usr/bin/env python3
"""End-to-end benchmark of ExaWind-Mini (see README.md in this directory).

    python3 e2ebench/run.py --workload warm-24r --seed 7 --seconds 20 --trace 0
    python3 e2ebench/run.py --seed 7      # every workload in turn

Run from the root of a source checkout. The first run builds the driver
twice under .bench_build/ (Release, and the instrumented default build
with every check layer on); later runs reuse the builds. The seed picks
the inflow operating point; the driver sees only the resulting SimConfig.
Every step is checked against reference.json. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1.

Maintenance modes:
    --make-reference            rewrite reference.json from the current code
    --reference FILE            check against FILE instead (self-test)
"""

import argparse
import fcntl
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
REFERENCE = HERE / "reference.json"

# Inflow operating points: the paper's 8 m/s and +-1..4 percent around it.
OPERATING_POINTS = [round(8.0 * (1 + 0.01 * k), 2) for k in range(-4, 5)]

# Tolerance band of the step check, relative to the reference value;
# --make-reference stores it in reference.json, which the check reads.
TOLERANCE = {"vel_rms": 1e-3, "scalar_mean": 1e-3, "div_rms": 1e-2}

# The two builds. "checked" is the repository's default build type with
# the contract, index, purity and comm-audit check layers on.
BUILDS = {
    "release": ["-DCMAKE_BUILD_TYPE=Release"],
    "checked": ["-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DEXW_CONTRACT_CHECKS=ON",
                "-DEXW_INDEX_CHECKS=ON", "-DEXW_PURITY_CHECKS=ON",
                "-DEXW_COMM_AUDIT=ON"],
}

TIMEOUT_S = 170

# Median wall and CPU seconds of the driver's calibration kernel on the
# reference host (4-vCPU Xeon VM). The timed metrics are scaled by
# reference / measured, so a host that runs slower or busier during a run
# does not read as a slower program.
CALIBRATION_REF_S = 0.015


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def threads():
    return len(os.sched_getaffinity(0))


def build(name):
    """Configure (once) and build one flavour; returns the driver path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree at {ROOT}: nothing to build")
    out = BUILD / name
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(log, "w") as f:
        if not (out / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(ROOT), "-B", str(out), *gen,
                   "-DEXW_BUILD_TESTS=OFF", "-DEXW_BUILD_BENCH=OFF",
                   "-DEXW_BUILD_EXAMPLES=OFF",
                   f"-DCMAKE_PROJECT_INCLUDE={HERE / 'build.cmake'}",
                   *BUILDS[name]]
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"configure of the {name} build failed, see {log}")
        cmd = ["cmake", "--build", str(out), "--target", "e2ebench",
               "-j", str(threads())]
        if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
            fail(f"{name} build failed, see {log}")
    return out / "e2ebench"


def build_all():
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return {name: build(name) for name in BUILDS}


def drive(exe, workload, inflow, seed, seconds, mode="run", reps=0,
          later_steps=0, nthreads=None, trace_out=None):
    """Run the driver once; returns its JSON result."""
    cmd = [str(exe), "--workload", workload, "--inflow", repr(inflow),
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if reps:
        cmd += ["--reps", str(reps)]
    if later_steps:
        cmd += ["--later-steps", str(later_steps)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, EXW_NUM_THREADS=str(nthreads or threads()))
    env.pop("EXW_SERIAL", None)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                           timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} {mode} timed out")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{workload} {mode} exited with code {p.returncode}")
    return json.loads(lines[-1])


def inflow_of(seed):
    return random.Random(seed).choice(OPERATING_POINTS)


def check_steps(diag, ref):
    """Count (attempted, failed) steps over all repetitions in `diag`.

    `ref` is {"tolerance": [vel, scalar, div], "steps": [[vel, scalar,
    div], ...]} for the workload and operating point, or None. A
    repetition shortened with --later-steps is checked on its steps.
    """
    attempted = failed = 0
    for rep in diag:
        if ref is None or not 2 <= len(rep) <= len(ref["steps"]):
            attempted += len(rep)
            failed += len(rep)
            continue
        for got, want in zip(rep, ref["steps"]):
            attempted += 1
            ok = got[3] is True and all(
                v is not None and math.isfinite(v)
                and abs(v - w) <= tol * abs(w)
                for v, w, tol in zip(got[:3], want, ref["tolerance"]))
            failed += not ok
    return attempted, failed


def median(xs):
    return statistics.median(xs)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def emit(metrics, names, units):
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"metrics not produced: {', '.join(missing)}")
    return {n: {"value": metrics[n], "unit": units[n]} for n in names}


def untraced(exes, args, ref, bench):
    # One thread: on a shared host a pooled step waits at every dispatch
    # for the most-delayed of its threads, which makes pooled wall times
    # swing far past the bounds. The traced run measures the pool.
    r = drive(exes["release"], args.workload, args.inflow, args.seed,
              args.seconds, nthreads=1)
    attempted, failed = check_steps(r["diag"], ref)
    correct = failed == 0 and r["deterministic"]
    wall_scale = CALIBRATION_REF_S / median(r["cal_wall_s"])
    cpu_scale = CALIBRATION_REF_S / median(r["cal_cpu_s"])
    raw = {n: median(r[n]) for n in ("setup_s", "first_step_s", "step_s",
                                     "step_cpu_s")}
    values = {
        "setup_s": raw["setup_s"] * wall_scale,
        "first_step_s": raw["first_step_s"] * wall_scale,
        "step_s": raw["step_s"] * wall_scale,
        "step_cpu_s": raw["step_cpu_s"] * cpu_scale,
        "nli_summit_gpu_s": r["nli_summit_gpu_s"],
        "nli_summit_cpu_s": r["nli_summit_cpu_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    names = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print(f"workload {args.workload}  seed {args.seed}  inflow {args.inflow} m/s"
          f"  threads {r['threads']}  repetitions {r['reps']}")
    print(f"  calibration scale  wall {wall_scale:.4f}  cpu {cpu_scale:.4f}"
          f"  ({len(r['cal_wall_s'])} samples)")
    for n in names:
        extra = (f"  (median of {len(r[n])}, unscaled {raw[n]:.6g})"
                 if n in raw else "")
        print(f"  {n:<18} {values[n]:.6g} {units[n]}{extra}")
    print(f"  failed_step_frac   {failed / attempted:.6g}  "
          f"({failed} of {attempted} steps)  deterministic {r['deterministic']}"
          f"  correct {correct}")
    return correct, attempted, failed, emit(values, names, units)


def traced(exes, args, ref, bench):
    trace_dir = BUILD / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans = trace_dir / f"{args.workload}-seed{args.seed}.json"
    r = drive(exes["release"], args.workload, args.inflow, args.seed,
              args.seconds, mode="trace", trace_out=spans)
    attempted, failed = check_steps(r["diag"], ref)
    layers = dict(r["layers"])
    # The instrumented build at nproc threads and at one thread, one
    # repetition up to the first later step, against that step of the
    # traced run's untraced pooled and serial Release repetitions.
    inst = drive(exes["checked"], args.workload, args.inflow, args.seed, 0,
                 reps=1, later_steps=1)
    inst_1t = drive(exes["checked"], args.workload, args.inflow, args.seed, 0,
                    reps=1, later_steps=1, nthreads=1)
    for got in (inst, inst_1t):
        a, f = check_steps(got["diag"], ref)
        attempted += a
        failed += f
    layers["checks.instrumented_ratio"] = inst["step_s"][0] / r["release_step1_s"]
    layers["checks.instrumented_ratio_1t"] = (
        inst_1t["step_s"][0] / r["release_step1_s_1t"])
    checks = {"executor_identical": r["executor_identical"],
              "deterministic": r["deterministic"], "probes_ok": r["probes_ok"]}
    correct = failed == 0 and all(checks.values())
    names = [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print(f"traced run: workload {args.workload}  seed {args.seed}  "
          f"inflow {args.inflow} m/s  threads {r['threads']}  "
          f"{r['spans']:.0f} spans in {spans.relative_to(ROOT)}")
    for n in names:
        if n in layers:
            print(f"  {n:<34} {layers[n]:.6g} {units[n]}")
    print(f"  failed_step_frac {failed / attempted:.6g} ({failed} of "
          f"{attempted} steps)  " +
          "  ".join(f"{k} {v}" for k, v in checks.items()) +
          f"  correct {correct}")
    return correct, attempted, failed, emit(layers, names, units)


def make_reference(exes, workloads):
    ref = {}
    for w in workloads:
        ref[w] = {}
        for v in OPERATING_POINTS:
            r = drive(exes["release"], w, v, 1, 0, reps=1)
            if not r["diag"][0] or not all(s[3] for s in r["diag"][0]):
                fail(f"{w} at {v} m/s produced non-finite fields")
            ref[w][str(v)] = [s[:3] for s in r["diag"][0]]
            print(f"{w} {v}: {len(r['diag'][0])} steps", file=sys.stderr)
    write_reference(REFERENCE, {"tolerance": TOLERANCE, "reference": ref})


def write_reference(path, doc):
    """One line per step, so a numerics change reads as a small diff."""
    lines = ["{", f' "tolerance": {json.dumps(doc["tolerance"])},',
             ' "reference": {']
    workloads = list(doc["reference"].items())
    for i, (w, points) in enumerate(workloads):
        lines.append(f'  "{w}": {{')
        for j, (v, steps) in enumerate(points.items()):
            rows = ",\n".join(f"    {json.dumps(s)}" for s in steps)
            end = "," if j + 1 < len(points) else ""
            lines.append(f'   "{v}": [\n{rows}\n   ]{end}')
        lines.append("  }" + ("," if i + 1 < len(workloads) else ""))
    lines += [" }", "}"]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, default=REFERENCE)
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()

    exes = build_all()
    if args.make_reference:
        make_reference(exes, workloads)
        return
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    args.inflow = inflow_of(args.seed)
    with open(args.reference) as f:
        doc = json.load(f)
    for args.workload in [args.workload] if args.workload else workloads:
        steps = doc["reference"].get(args.workload, {}).get(str(args.inflow))
        ref = steps and {"tolerance": [doc["tolerance"][k] for k in TOLERANCE],
                         "steps": steps}
        run = traced if args.trace else untraced
        correct, attempted, failed, metrics = run(exes, args, ref, bench)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
