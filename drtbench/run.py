#!/usr/bin/env python3
"""Build and run the DRT benchmark (see drtbench/README.md).

    python3 drtbench/run.py --workload b2_drt --seed 1 --seconds 45 --trace 0
    python3 drtbench/run.py --self-test
    python3 drtbench/run.py --write-golden

Run from the repository root. The first call configures and builds the
vitdyn library and drt_bench into .bench_build/ (about a minute on 4
cores); later calls only rebuild what changed. The last line of
standard output is the run's JSON result. Every run, failed ones too,
is appended with its host record to .bench_runs/history.jsonl.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "drt_bench")
GOLDEN = os.path.join(HERE, "golden.txt")
HISTORY = os.path.join(ROOT, ".bench_runs", "history.jsonl")
WORKLOADS = ("b2_drt", "serve_open", "path_churn")
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then build incrementally; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("build failed: %s\n" % " ".join(step))
                return False
    return True


def revision():
    """git revision when available, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "drtbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    try:
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        rev = git.stdout.strip() if git.returncode == 0 else "nogit"
    except (OSError, subprocess.TimeoutExpired):
        rev = "nogit"
    return "%s+src:%s" % (rev, digest.hexdigest()[:12])


def record(entry):
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    with open(HISTORY, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that injected corruption is caught")
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute drtbench/golden.txt")
    args = parser.parse_args()

    if not build():
        return 1
    if args.write_golden:
        return subprocess.call([BINARY, "--write-golden", GOLDEN])
    if args.self_test:
        return subprocess.call([BINARY, "--self-test", "--golden", GOLDEN])
    if args.workload is None:
        parser.error("--workload is required")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--golden", GOLDEN, "--rev", revision()]
    started = time.time()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        code, stdout = "timeout", e.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
    result = parse_result(stdout) if code == 0 else None
    host = None
    for line in stdout.splitlines():
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
    record({"time": started, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "exit": code,
            "host": host, "result": result})
    if result is None:
        # A failed run's output goes to stderr, so nothing on stdout can
        # be taken for a result.
        sys.stderr.write(stdout)
        sys.stderr.write("drt_bench failed (exit %s) without a result\n"
                         % code)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
