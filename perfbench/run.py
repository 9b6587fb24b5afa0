#!/usr/bin/env python3
"""The SOFF benchmark.

Builds SOFF from ../src and the driver in perfbench/driver (Release,
into $CARGO_TARGET_DIR or .bench_build), runs one workload and relays
the driver's output; its last line is the result object.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Workloads, metrics and why each exists: perfbench/WORKLOADS.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "launch_mix", "compile")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "soff_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "soff_perfbench")


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the program's sources (the checkout may lack git)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_driver(binary, args):
    """Runs the driver; returns (exit code, stdout lines)."""
    cmd = [binary] + args + [
        "--commit", git_commit(), "--source-digest", source_digest(),
        "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver timed out")
    return r.returncode, r.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def self_test(binary):
    """A few ops of each workload: every BENCHMARK.json metric is
    printed with its unit, and a planted wrong expectation counts as a
    failed op."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "1", "--seconds", "1",
                "--max-ops", "40"]
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = run_driver(binary, base + ["--trace", trace])
            result = result_of(lines)
            if code != 0 or result is None:
                problems.append(f"{name} trace {trace}: no result")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{name} trace {trace}: failed ops")
            printed = result["metrics"]
            for m in spec[group]:
                got = printed.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(
                        f"{name} trace {trace}: {m['name']} not printed "
                        f"with unit {m['unit']}")
        code, lines = run_driver(binary, base + ["--trace", "0",
                                                 "--plant-fault"])
        result = result_of(lines)
        if code != 0 or result is None or result["failed"] == 0 \
                or result["correct"]:
            problems.append(f"{name}: planted fault not counted")
        print(f"self-test {name}: done", file=sys.stderr)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print(json.dumps({"selfTest": "pass" if not problems else "fail",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    binary = build()
    if a.self_test:
        return self_test(binary)
    code, lines = run_driver(binary, [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace)])
    for line in lines:
        print(line)
    if code != 0 or result_of(lines) is None:
        print(f"perfbench: driver exited {code} without a result",
              file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
