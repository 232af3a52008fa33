#!/usr/bin/env python3
"""Builds and runs the service-level synthesis benchmark.

Run from the root of a kamino checkout:

    python3 perfbench/run.py --workload stream_adult --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest   # arithmetic tests + catalogue check
    python3 perfbench/run.py --smoke      # every workload and check, toy sizes

The first call configures and builds `perfbench` (CMake, Release) under
$CARGO_TARGET_DIR (default `.bench_build`) in the checkout; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result
line, when the build fails (for example outside a kamino checkout).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["seq_adult", "stream_adult", "ooc_tax"]
# Headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(out, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def run(binary, args, capture=False):
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return None


def check_catalogue(binary):
    """The binary's metric list must match BENCHMARK.json exactly."""
    proc = run(binary, ["--catalog"], capture=True)
    if proc is None or proc.returncode:
        return False
    got = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in proc.stdout.splitlines():
        kind, *rest = line.split()
        got[kind].append(tuple(rest))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        "workload": [(w["name"],) for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    ok = True
    for kind in want:
        if sorted(got[kind]) != sorted(want[kind]):
            print("perfbench: %s differs from BENCHMARK.json:\n  binary %s\n"
                  "  json   %s" % (kind, sorted(got[kind]),
                                   sorted(want[kind])), file=sys.stderr)
            ok = False
    return ok


def smoke(binary, work_dir):
    """Every workload, traced and untraced, at toy sizes with every check."""
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = run(binary, ["--workload", name, "--seed", "3",
                                "--seconds", "0.5", "--trace", trace,
                                "--smoke", "--work-dir", work_dir],
                       capture=True)
            if proc is None or proc.returncode:
                print("perfbench: smoke %s trace=%s failed" % (name, trace),
                      file=sys.stderr)
                return False
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                return False
            print("smoke %-13s trace=%s ok (%d jobs)" %
                  (name, trace, result["attempted"]))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    work_dir = os.path.join(build_dir(), "work")
    os.makedirs(work_dir, exist_ok=True)
    if args.selftest:
        proc = run(binary, ["--selftest"])
        ok = proc is not None and proc.returncode == 0
        return 0 if ok and check_catalogue(binary) else 1
    if args.smoke:
        return 0 if smoke(binary, work_dir) else 1
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    proc = run(binary, ["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", args.trace,
                        "--work-dir", work_dir])
    return 1 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
