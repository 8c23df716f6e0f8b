#!/usr/bin/env python3
"""Build and run the EyeCoD end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_flatcam --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds perfbench/ (the library sources
under src/ plus the benchmark binary) in Release mode, then runs the
benchmark's self-tests; later runs rebuild only what changed. The build
directory is $CARGO_TARGET_DIR when set, else .bench_build. Build and
self-test output goes to stderr; the last line of stdout is the JSON
result of the run.
"""

import argparse
import os
import shutil
import subprocess
import sys


def mtime(path):
    try:
        return os.stat(path).st_mtime_ns
    except OSError:
        return None


def quiet(cmd, **kw):
    """Run cmd with its stdout sent to our stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, **kw).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    source = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                            or ".bench_build")
    binary = os.path.join(build, "perfbench")
    before = mtime(binary)
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if not quiet(["cmake", "-S", source, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"]):
            print("perfbench: configure failed", file=sys.stderr)
            return 1
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not quiet(["cmake", "--build", build, "-j", jobs]):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # A rebuilt binary starts a new determinism record and must pass
    # the self-tests before it measures anything.
    built = mtime(binary)
    stamp = os.path.join(build, "selftest.ok")
    try:
        with open(stamp) as f:
            tested = f.read().strip() == str(built)
    except OSError:
        tested = False
    if built != before or not tested:
        shutil.rmtree(os.path.join(build, "determinism"), ignore_errors=True)
    if not tested:
        if not quiet([binary, "--selftest"]):
            print("perfbench: self-tests failed", file=sys.stderr)
            return 1
        with open(stamp, "w") as f:
            f.write(str(built))

    sys.stdout.flush()
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
        "--out-dir", build, "--git-sha", git_sha(),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
