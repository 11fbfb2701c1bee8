#!/usr/bin/env python3
"""Builds the cqa benchmark binary and runs one workload.

Run from the root of a checkout:

    python3 cqabench/run.py --workload exact_cold --seed 1 --seconds 25 \
        --trace 0

The binary is built from the checkout's sources into .bench_build/ on the
first run. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is the
full result (phase counts, quality, sizing and the environment block),
also written to .bench_build/results/. The exit code is nonzero when the
build fails or a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(".bench_build", "cmake")
OUT = os.path.join(".bench_build", "out")
RESULTS = os.path.join(".bench_build", "results")
BINARY = os.path.join(BUILD, "cqabench")
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the binary; raises on failure."""
    jobs = str(os.cpu_count() or 1)
    cmds = [
        ["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "cqabench"],
    ]
    for cmd in cmds:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def source_digest():
    """sha256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_binary(args):
    """Runs the binary; returns its parsed JSON result or None."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out-dir", OUT]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("cqabench: benchmark binary timed out", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if not lines:
        print("cqabench: no output (exit %d)" % proc.returncode,
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = spec()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print("cqabench: unknown workload %s" % args.workload, file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("cqabench: build failed: %s" % e, file=sys.stderr)
        return 1

    result = run_binary(args)
    if result is None:
        return 1

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    problems = []
    if set(got) != set(units):
        problems.append("metric set mismatch: missing %s, extra %s" % (
            sorted(set(units) - set(got)), sorted(set(got) - set(units))))
    for name, value in got.items():
        if not METRIC_NAME.match(name):
            problems.append("bad metric name %r" % name)
        if not isinstance(value, (int, float)) or value != value:
            problems.append("metric %s is not a number" % name)
    for p in problems:
        print("cqabench: " + p, file=sys.stderr)

    result["env"].update({
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "python": platform.python_version(),
    })
    if not result["env"]["optimized"]:
        result["env"]["warning"] = "built without optimisation"
        print("cqabench: warning: non-optimised build", file=sys.stderr)

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)

    correct = bool(result["correct"]) and not problems
    print(json.dumps(result))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in got.items() if k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
