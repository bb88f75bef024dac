#!/usr/bin/env python3
"""Build and run the benchmark of record.

    python3 perfbench/run.py --workload scan|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the system and the benchmark from
source into $CARGO_TARGET_DIR (default .bench_build), runs the
benchmark's own tests, then one workload. The workload prints its run
record and, as the last line of stdout, one JSON object; the exit code
is non-zero when any statement or answer check failed.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run(cmd, timeout=None):
    """Run to completion with output on stderr; kill it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("timed out: " + " ".join(cmd))
        return 1


def build(root, build_dir):
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        log("no system sources next to perfbench/ (expected src/ and "
            "CMakeLists.txt in %s)" % root)
        return False
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd) != 0:
            return False
    jobs = str(os.cpu_count() or 2)
    return run(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                "perfbench", "perfbench_tests"]) == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["scan", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not build(root, build_dir):
        log("build failed")
        return 2
    if run([str(build_dir / "perfbench_tests"), "--gtest_brief=1"]) != 0:
        log("the benchmark's own tests failed")
        return 3
    work_dir = build_dir / "work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", str(work_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
