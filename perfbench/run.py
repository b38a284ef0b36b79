#!/usr/bin/env python3
"""Repository benchmark: build the harness from source, run one workload.

    python3 perfbench/run.py --workload route_mcnc --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the harness from the repository
root. The harness prints the host block, every metric by name with its unit,
sample counts, attempted/failed operations and failed checks; its last
stdout line is the JSON result, which this script validates and relays as
its own last line. Exit status: the harness's (0 ok, 1 a correctness check
failed, 2 harness error), 3 build failure, 4 no valid result line, 5 timeout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("route_mcnc", "route_ilp", "serve_eco")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        log("command failed: " + " ".join(cmd))
        sys.exit(3)


def build_harness(build):
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        log("configuring " + build)
        run_quiet(["cmake", "-S", HERE, "-B", build,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build, "--target", "perfbench_harness",
               "-j", jobs])
    return os.path.join(build, "perfbench_harness")


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             check=True).stdout.decode().strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "none"
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              check=True).stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """sha256 over src/ (paths and bytes): identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict) and result["metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no src/ next to perfbench/: nothing to build")
        sys.exit(3)
    build = build_dir()
    harness = build_harness(build)
    out_dir = os.path.relpath(os.path.join(build, "perfbench-out"), ROOT)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        sys.exit(5)
    lines = proc.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if not valid_result(lines[-1]):
        sys.stdout.write("\n".join(lines) + "\n")
        log("the harness printed no valid result line (exit %d)"
            % proc.returncode)
        sys.exit(proc.returncode or 4)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
