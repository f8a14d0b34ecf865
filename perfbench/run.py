#!/usr/bin/env python3
"""Host-cost benchmark for specomp.

Run from the root of a specomp checkout:

    python3 perfbench/run.py --workload fig8_p16 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the specomp libraries it compiles from src/) into
.bench_build, then runs the workload in processes of its own.  Each process
sets up (input generation plus a first, untimed simulation, checked against
the serial reference) and then runs a closed loop of back-to-back
simulations, every one checked bit-for-bit against the first.

With --trace 0, PROCESSES processes share --seconds and their simulations
are pooled into the end-to-end metrics of BENCHMARK.json; setup_s is the
median of their set-up times (every process pays the lazy initialisation
once).  Each process must also reproduce the others' simulated outputs.
With --trace 1, one process measures the per-layer metrics.  Every metric is printed by name with
its unit, followed by the machine/build fingerprint, and the last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The full record, including the fingerprint and the per-run
sample lists, is written to .bench_build/perfbench-out/.  The exit code is
0 when every simulation passed its checks, 1 when one did not, and 2 when
the benchmark could not run at all.

    python3 perfbench/run.py --workload fig8_p16 --seed 1 --seconds 5 --seed-check

runs the workload at --seed and at --seed + 1 instead, and fails unless both
pass every check and their final states differ.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench_specomp"
OUT = BUILD / "perfbench-out"

# Measuring processes per --trace 0 run.  The speed a process settles at
# varies from process to process; pooling several evens that out.
PROCESSES = 5
# Time a measuring process may take beyond its share of --seconds (setup,
# serial reference, warm-up, the last simulation of the loop).
SLACK_SECONDS = 30


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("specomp sources (src/) are missing; nothing to build")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_binary(args, timeout):
    """Runs the measuring binary and returns its last line, parsed.  Exit code 1
    (a failed check) still carries a full record."""
    try:
        done = subprocess.run([str(BINARY)] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish within {timeout} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"{' '.join(args)} exited with {done.returncode}")
    return json.loads(lines[-1])


def git_describe():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    values = sorted(values)
    at = q * (len(values) - 1)
    lo = int(at)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (at - lo) * (values[hi] - values[lo])


def measure(workload, seed, seconds, trace):
    """One benchmark run: its processes' records, pooled into one."""
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    args = [f"--workload={workload}", f"--seed={seed}", f"--trace={int(trace)}"]
    if trace:
        args.append(f"--spans-out={OUT / (stem + '.spans.jsonl')}")
    processes = 1 if trace else PROCESSES
    share = seconds / processes
    runs = [run_binary(args + [f"--seconds={share}"], share + SLACK_SECONDS)
            for _ in range(processes)]
    first = runs[0]
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "attempted": sum(raw["attempted"] for raw in runs),
        "failed": sum(raw["failed"] for raw in runs),
        "failures": [f for raw in runs for f in raw["failures"]],
        "digest": first["digest"],
        "processes": [{k: raw[k] for k in ("setup_s", "loop", "digest")} for raw in runs],
        "fingerprint": dict(first["fingerprint"], git_describe=git_describe(),
                            kernel=platform.release()),
    }
    for i, raw in enumerate(runs[1:], start=2):
        if raw["digest"] != first["digest"]:
            record["failed"] += 1
            record["failures"].append(f"process {i} simulated different outputs")
    loops = [raw["loop"] for raw in runs]
    walls = [w for loop in loops for w in loop["sim_wall_s"]]
    sims = len(walls)
    record["samples"] = sims
    if trace:
        record["traced_samples"] = first["traced_samples"]
        record["metrics"] = first["per_layer"]
    else:
        record["metrics"] = {
            "rank_iters_per_s": first["rank_iters"] * sims / sum(l["elapsed_s"] for l in loops),
            "sim_s.p50": quantile(walls, 0.5),
            "sim_s.p90": quantile(walls, 0.9),
            "cpu_s_per_sim": sum(l["cpu_s"] for l in loops) / sims,
            "setup_s": statistics.median(raw["setup_s"] for raw in runs),
            "peak_rss_mb": max(l["max_rss_mb"] for l in loops),
            "virtual_s_per_iter": first["virtual_s_per_iter"],
            "passed_frac": (record["attempted"] - record["failed"]) / record["attempted"],
        }
    with open(OUT / (stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    return record


def result_line(spec, record, trace):
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        if name not in record["metrics"]:
            fail(f"the measuring binary reported no value for {name}")
        metrics[name] = {"value": record["metrics"][name], "unit": metric["unit"]}
    return {"correct": record["failed"] == 0, "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def print_report(result, record, trace):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{len(record['processes'])} process(es), {record['samples']} untraced simulations"
          + (f", {int(record['traced_samples'])} traced" if trace else ""))
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>18.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    print("digest " + json.dumps(record["digest"]))
    print("fingerprint " + json.dumps(record["fingerprint"]))


def seed_check(workload, seed, seconds):
    digests = []
    for s in (seed, seed + 1):
        record = measure(workload, s, seconds, False)
        print(f"seed {s}: {int(record['failed'])} of {int(record['attempted'])} failed, "
              f"digest {json.dumps(record['digest'])}")
        if record["failed"] != 0:
            return 1
        digests.append(record["digest"])
    if digests[0]["state_hash"] == digests[1]["state_hash"]:
        print("seed check FAILED: a second seed left the simulated outputs unchanged")
        return 1
    print("seed check passed: both seeds pass every gate and their outputs differ")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-check", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    build()
    if args.seed_check:
        return seed_check(args.workload, args.seed, args.seconds)

    record = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    result = result_line(spec, record, args.trace == 1)
    print_report(result, record, args.trace == 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
