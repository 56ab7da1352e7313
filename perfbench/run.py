#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first run builds the measuring
program (perfbench/basil_perf.cc) from the checkout's src/ tree with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line of
standard output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. The lines before it carry the host and configuration
fingerprint and how late the arrival generator ran.

--selftest runs every workload briefly, traced and untraced, and checks that
every metric BENCHMARK.json names is emitted, finite and with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root", 2)
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds basil_perf; returns the binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ tree in this checkout: nothing to build", 2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                             "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", build_dir, "--target", "basil_perf", "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed", 2)
    return os.path.join(build_dir, "basil_perf")


def source_fingerprint():
    """The git commit when the checkout is a repository, and a digest of src/ always."""
    commit = None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def run_program(binary, args):
    """Runs basil_perf; returns (exit code, fingerprint, generator, result) lines."""
    try:
        r = subprocess.run([binary] + args, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"basil_perf did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = [json.loads(l) for l in r.stdout.splitlines() if l.startswith("{")]
    if len(lines) < 3:
        fail(f"basil_perf exited with {r.returncode} and no result")
    return r.returncode, lines[-3], lines[-2], lines[-1]


def pick_metrics(result, wanted):
    """The metrics `wanted` names, each checked to be present, finite and in its unit."""
    out = {}
    problems = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("value") is None:
            problems.append(f"{m['name']} missing or not finite")
        elif not math.isfinite(got["value"]):
            problems.append(f"{m['name']} not finite")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} in {got.get('unit')}, expected {m['unit']}")
        else:
            out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out, problems


def selftest(spec, binary):
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, _, gen, result = run_program(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "2",
                "--trace", str(trace), "--warmup-s", "1", "--setup-reps", "1"])
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            _, problems = pick_metrics(result, wanted)
            if code != 0 or not result["correct"]:
                problems += result.get("errors") or [f"exit code {code}"]
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"selftest {workload} trace={trace}: {len(wanted)} metrics, generator "
                  f"p99 late {gen['generator']['late_p99_us']:.0f} us: {status}")
            ok = ok and not problems
    print("selftest PASSED" if ok else "selftest FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description="Runs one workload of the repository benchmark.")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    spec = load_spec()
    binary = build()
    if args.selftest:
        return selftest(spec, binary)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)

    code, fingerprint, gen, result = run_program(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    fingerprint["fingerprint"].update(source_fingerprint())
    print(json.dumps(fingerprint))
    print(json.dumps(gen))
    metrics, problems = pick_metrics(result, spec["per_layer"] if args.trace else
                                     spec["end_to_end"])
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    correct = code == 0 and result["correct"] and not problems
    # A failed check fails the run instead of reporting numbers.
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
